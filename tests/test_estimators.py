"""Rate extraction, stabilization, compacta supremum, and CSV output."""

import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from entro import (
    CompactFamily,
    ConfigError,
    MetricSpec,
    PointCloud,
    WindowError,
    bd_count_table,
    compacta_estimate,
    counts_csv_text,
    entropy_estimate,
    growth_rate,
    inequality_report,
)
from entro.gallery import build_doubling, build_escape


class TestGrowthRate:
    def test_exact_exponential(self):
        counts = [3 * 2 ** n for n in range(1, 9)]
        assert math.isclose(growth_rate(counts, (1, 8)), math.log(2.0))

    def test_window_restricts_fit(self):
        # exponential inside the window, flat outside
        counts = [5, 10, 20, 40, 41, 41]
        assert math.isclose(growth_rate(counts, (1, 4)), math.log(2.0))

    def test_decaying_counts_fit_negative(self):
        counts = [100, 50, 25, 12]
        assert growth_rate(counts, (1, 4)) < 0.0

    def test_short_window_raises(self):
        with pytest.raises(WindowError):
            growth_rate([2, 4], (1, 5))

    def test_zero_count_raises(self):
        with pytest.raises(ConfigError):
            growth_rate([0, 4, 8], (1, 3))


def synthetic_table(counts_by_eps, cloud_size):
    """Build a CountTable directly from prescribed counts."""
    from entro.metric_core import CountRow, CountTable

    rows = []
    for eps, counts in counts_by_eps.items():
        for n, c in enumerate(counts, start=1):
            rows.append(CountRow(eps, n, c, max(1, c - 1)))
    return CountTable(tuple(rows), cloud_size)


class TestEntropyEstimate:
    def test_stabilized_pair_sets_headline(self):
        # two smallest scales agree within the default 0.05 tolerance
        table = synthetic_table(
            {
                0.4: [4 * 2 ** n for n in range(8)],
                0.2: [5 * int(2.02 ** n) for n in range(8)],
                0.1: [6 * int(2.04 ** n) for n in range(8)],
            },
            cloud_size=100_000,
        )
        est = entropy_estimate(table)
        assert est.stable
        assert est.stabilized_at == 0.1
        assert math.isclose(est.headline, est.per_eps[-1].rate)

    def test_unstable_reports_smallest_scale(self):
        table = synthetic_table(
            {
                0.4: [4 * 2 ** n for n in range(8)],
                0.2: [4 * int(2.5 ** n) for n in range(8)],
                0.1: [4 * 3 ** n for n in range(8)],
            },
            cloud_size=10 ** 9,
        )
        est = entropy_estimate(table)
        assert not est.stable
        assert est.stabilized_at is None
        assert math.isclose(est.headline, est.per_eps[-1].rate)
        assert any("unstable" in d for d in est.diagnostics)

    def test_saturated_counts_leave_window(self):
        flat = [10, 20, 40, 80, 95, 95, 95, 95]
        table = synthetic_table({0.4: flat, 0.2: flat, 0.1: flat}, cloud_size=100)
        est = entropy_estimate(table)
        lo, hi = est.per_eps[0].window
        assert hi <= 4  # 95 >= 0.9 * 100 is saturated
        assert math.isclose(est.per_eps[0].rate, math.log(2.0), rel_tol=1e-6)

    def test_headline_log2(self):
        counts = {eps: [2 ** n for n in range(1, 9)] for eps in (0.4, 0.2, 0.1)}
        est = entropy_estimate(synthetic_table(counts, 10 ** 9))
        assert math.isclose(est.headline_log2, est.headline / math.log(2.0))

    def test_custom_rule_tolerance(self):
        table = synthetic_table(
            {
                0.2: [4 * 2 ** n for n in range(8)],
                0.1: [4 * int(2.2 ** n) for n in range(8)],
                0.05: [4 * int(2.21 ** n) for n in range(8)],
            },
            cloud_size=10 ** 9,
        )
        tight = entropy_estimate(table, stabilization_tol=0.001)
        loose = entropy_estimate(table, stabilization_tol=0.5)
        assert not tight.stable
        assert loose.stable
        with pytest.raises(ConfigError):
            entropy_estimate(table, stabilization_tol=0)

    def test_method_follows_the_table(self):
        """Only lifted tables set ``rho``, so it names the method."""
        counts = {eps: [2 ** n for n in range(1, 9)] for eps in (0.4, 0.2, 0.1)}
        table = synthetic_table(counts, 10 ** 9)
        assert entropy_estimate(table).method == "bowen_dinaburg"
        assert entropy_estimate(replace(table, rho=4.0, truncation=9)).method == "friedland"

    def test_truncated_table_names_its_step(self):
        counts = {eps: [2, 4, 8] for eps in (0.4, 0.2, 0.1)}
        table = replace(synthetic_table(counts, 100), truncated_at=3)
        with pytest.raises(ConfigError, match="truncated at n=3"):
            entropy_estimate(table)
        with pytest.raises(ConfigError, match="n_max >= 6"):
            entropy_estimate(replace(table, truncated_at=None))


class TestCompactFamily:
    def test_nesting_enforced(self, rng):
        a = PointCloud(rng.random((5, 2)), 0.1)
        b = PointCloud(rng.random((7, 2)) + 10.0, 0.1)
        with pytest.raises(ConfigError, match="not nested"):
            CompactFamily((a, b))

    @pytest.mark.parametrize("shift, nested", [(1e-12, True), (1e-6, False)])
    def test_nesting_gap_threshold(self, rng, shift, nested):
        """A member may sit within 1e-9 of the next one, but no farther."""
        pts = rng.random((12, 2))
        moved = pts[:5].copy()
        moved[2, 0] += shift
        members = (PointCloud(moved, 0.1), PointCloud(pts.copy(), 0.1))
        if nested:
            assert len(CompactFamily(members).members) == 2
        else:
            with pytest.raises(ConfigError, match=r"not nested \(gap 1e-06 between sizes 5 and 12\)"):
                CompactFamily(members)

    def test_prefix_subsets_are_nested(self, rng):
        pts = rng.random((12, 2))
        a = PointCloud(pts[:5].copy(), 0.1)
        b = PointCloud(pts.copy(), 0.1)
        fam = CompactFamily((a, b))
        assert len(fam.members) == 2

    def test_supremum_over_members(self):
        bundle = build_doubling(grid=512)
        est = compacta_estimate(
            bundle.system, bundle.metric, bundle.family, [0.6, 0.3, 0.15], 6
        )
        # the full circle dominates the arcs
        assert est.headline > 0.4
        assert any("supremum" in d for d in est.diagnostics)

    def test_member_escaping_after_step_0_is_skipped(self):
        # orbits of the whole 98-point window run out of heights at step 3
        bundle = build_escape(2, L_max=4, orbit_len=101)
        est = compacta_estimate(
            bundle.system, bundle.metric, bundle.family, [1.0, 0.75, 0.5], 8
        )
        assert "member(escape2|orbit0..97): escaped at step 3" in est.diagnostics
        assert "supremum over 2 members" in est.diagnostics


def flat_estimate(base):
    counts = {eps: [base ** n for n in range(1, 9)] for eps in (0.4, 0.2, 0.1)}
    return entropy_estimate(synthetic_table(counts, 10 ** 18))


class TestInequalityReport:
    def test_passing_line(self):
        est = flat_estimate(2)
        verdict = inequality_report(est, est, est)
        assert verdict.passed
        assert verdict.line() == "FR≈BD: pass; BD≥Bc: pass"

    def test_fr_divergence_fails(self):
        bd = flat_estimate(2)
        fr = flat_estimate(3)
        verdict = inequality_report(bd, bd, fr)
        assert not verdict.fr_bd_ok
        assert "fail" in verdict.line()

    def test_bc_above_bd_fails(self):
        bd = flat_estimate(2)
        bc = flat_estimate(3)
        verdict = inequality_report(bd, bc, bd)
        assert not verdict.bd_bc_ok


class TestEstimateCsv:
    def test_round_trip(self, tmp_path):
        bundle = build_doubling(grid=256)
        table = bd_count_table(
            bundle.system, bundle.cloud, MetricSpec.euclidean(), [0.8, 0.4, 0.2], 6
        )
        est = entropy_estimate(table)
        path = tmp_path / "est.csv"
        path.write_text(counts_csv_text("doubling", [("euclidean", table, est)]))
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 18
        for row in rows:
            eps = float(row["epsilon"])
            n = int(row["n"])
            want = dict(table.counts_for(eps, "sep"))[n]
            assert int(row["sep"]) == want
