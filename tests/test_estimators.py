"""Rate extraction, stabilization, compacta supremum, and CSV output."""

import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from entro import (
    CompactFamily,
    ConfigError,
    DynSystem,
    EntropyEstimate,
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
from entro import dynamics, estimators, orbit_space
from entro.gallery import GalleryBundle, build_doubling, build_escape, run_bundle

from conftest import spy_orbit_tables

# the two count tables, each made from a bundle and a scale list at n_max = 6
COUNT_TABLES = [
    lambda b, eps: dynamics.bd_count_table(b.system, b.cloud, b.metric, eps, 6),
    lambda b, eps: orbit_space.friedland_count_table(b.system, b.cloud, eps, 6),
]
TABLE_IDS = ["bd_count_table", "friedland_count_table"]


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
        with pytest.raises(ConfigError, match="stabilization_tol"):
            entropy_estimate(table, stabilization_tol=float("nan"))

    def test_repeated_scale_refused(self):
        """A repeated scale doubles its rows per n, which would corrupt its fit."""
        bundle = build_doubling(grid=512)
        table = bd_count_table(bundle.system, bundle.cloud, bundle.metric, [0.16, 0.08, 0.04], 8)
        twice = replace(table, rows=table.rows + tuple(r for r in table.rows if r.epsilon == 0.08))
        with pytest.raises(ConfigError, match="eps=0.08 repeats"):
            entropy_estimate(twice)
        assert math.isclose(entropy_estimate(table).headline, math.log(2.0))

    @pytest.mark.parametrize("build", COUNT_TABLES, ids=TABLE_IDS)
    def test_builders_refuse_a_repeated_scale(self, build, monkeypatch):
        """Each count table names a repeated or non-positive scale, or one
        that is not a number, before any orbit is made."""

        def no_orbits(*args, **kwargs):
            raise AssertionError("an orbit table was built")

        bundle = build_doubling(grid=256)
        monkeypatch.setattr(dynamics, "build_orbit_table", no_orbits)
        monkeypatch.setattr(orbit_space, "build_orbit_table", no_orbits)
        with pytest.raises(ConfigError, match="eps=0.08 repeats"):
            build(bundle, [0.16, 0.08, 0.04, 0.08])
        for eps_list in ([0.16, -0.08, 0.04], [0.16, math.nan, 0.04]):
            with pytest.raises(ConfigError, match="eps values must be > 0"):
                build(bundle, eps_list)
        for scale in ("0.08", True):
            with pytest.raises(ConfigError, match=f"scale {scale!r} is not a number"):
                build(bundle, [0.16, scale, 0.04])

    @pytest.mark.parametrize("build", COUNT_TABLES, ids=TABLE_IDS)
    def test_builders_refuse_an_infinite_scale(self, build):
        """An infinite scale holds every pair in one ball at every order, so
        its rate would read 0; the config reader refuses it too."""
        bundle = build_doubling(grid=256)
        with pytest.raises(ConfigError, match="eps values must be > 0 and finite, got inf"):
            build(bundle, [math.inf, 0.4])

    @pytest.mark.parametrize("build", COUNT_TABLES, ids=TABLE_IDS)
    def test_tables_record_scales_as_floats(self, build):
        """Scales given as a numpy array or as numpy floats count the rows of
        a plain list, each recorded as a Python float, so the counts CSV
        writes the same text."""
        bundle = build_doubling(grid=256)
        plain = build(bundle, [0.8, 0.4, 0.2])
        want_csv = counts_csv_text("doubling", [("euclidean", plain, None)])
        for eps_list in (np.array([0.8, 0.4, 0.2]), list(np.array([0.8, 0.4, 0.2]))):
            table = build(bundle, eps_list)
            assert table == plain
            assert all(type(row.epsilon) is float for row in table.rows)
            assert counts_csv_text("doubling", [("euclidean", table, None)]) == want_csv

    def test_method_follows_the_table(self):
        """Only lifted tables set ``rho``, so it names the method."""
        counts = {eps: [2 ** n for n in range(1, 9)] for eps in (0.4, 0.2, 0.1)}
        table = synthetic_table(counts, 10 ** 9)
        assert entropy_estimate(table).method == "bowen_dinaburg"
        assert entropy_estimate(replace(table, rho=4.0, truncation=9)).method == "friedland"

    def test_truncated_table_names_its_step(self):
        """The refusal names the table that was cut, and a lifted table's m
        when it has one; a start outside the domain leaves none."""
        counts = {eps: [2, 4, 8] for eps in (0.4, 0.2, 0.1)}
        table = replace(synthetic_table(counts, 100), truncated_at=3)
        with pytest.raises(ConfigError, match="direct table truncated at n=3;"):
            entropy_estimate(table)
        with pytest.raises(ConfigError, match="n_max >= 6"):
            entropy_estimate(replace(table, truncated_at=None))
        outside = replace(table, rows=(), truncated_at=0)  # a start outside the domain
        with pytest.raises(ConfigError, match="direct table truncated at n=0;"):
            entropy_estimate(outside)
        with pytest.raises(ConfigError, match=r"lifted table \(m=8\) truncated at n=3;"):
            entropy_estimate(replace(table, rho=4.0, truncation=8))
        with pytest.raises(ConfigError, match="lifted table truncated at n=0;"):
            entropy_estimate(replace(outside, rho=4.0))


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


def times4() -> DynSystem:
    """x -> 4x on the line, whose orbits leave the domain |x| < 1000."""
    return DynSystem("times4", 1, lambda x: 4.0 * x, lambda x: np.abs(x[:, 0]) < 1000.0)


class TestMembersCountedInTurn:
    """``compacta_estimate``: each member's table equals its own
    ``bd_count_table``, a member equal to an earlier one included, and
    ``run_bundle`` takes its direct table from the member equal to
    the bundle cloud."""

    spec = MetricSpec.euclidean()

    @pytest.fixture(scope="class")
    def doubling(self):
        return build_doubling(grid=256)

    def supremum(self, system, members, eps_list, n_max, monkeypatch):
        """The compacta estimate, the table of each member that did not
        escape, and the size of each orbit table built.  The fit is stubbed,
        so tables too short or too coarse to fit pass through."""
        built = spy_orbit_tables(monkeypatch)
        fitted = []

        def fit(table):
            fitted.append(table)
            return EntropyEstimate(float(len(fitted)), (), "bowen_dinaburg", None)

        monkeypatch.setattr(estimators, "entropy_estimate", fit)
        family = CompactFamily(tuple(members))
        bc = compacta_estimate(system, self.spec, family, eps_list, n_max)
        monkeypatch.undo()
        assert [m.table for m in bc.members if m.escaped_at is None] == fitted
        return bc, fitted, built

    def separate(self, system, clouds, eps_list, n_max):
        return [bd_count_table(system, c, self.spec, eps_list, n_max) for c in clouds]

    @pytest.mark.parametrize("eps_list", [[0.4, 0.2, 0.1], []], ids=["scales", "no-scales"])
    def test_repeated_member_keeps_its_own_table(self, doubling, monkeypatch, eps_list):
        pts = doubling.cloud.points[::2]
        members = [PointCloud(pts[:20].copy(), 0.05), PointCloud(pts.copy(), 0.05),
                   PointCloud(pts.copy(), 0.05)]
        n_max = 5
        _, tables, built = self.supremum(doubling.system, members, eps_list, n_max, monkeypatch)
        assert built == [20, 128, 128]
        assert tables == self.separate(doubling.system, members, eps_list, n_max)
        assert [t.mode for t in tables] == ["exact", "greedy", "greedy"]

    def test_near_equal_member_keeps_its_own_table(self, doubling, monkeypatch):
        pts = doubling.cloud.points[:128]
        near = PointCloud(pts + np.array([1e-12, 0.0]), 0.05)
        members = [PointCloud(pts.copy(), 0.05), near]  # within the family's nesting tolerance
        eps_list, n_max = [0.4, 0.2, 0.1], 6
        _, tables, built = self.supremum(doubling.system, members, eps_list, n_max, monkeypatch)
        assert built == [128, 128]
        assert tables == self.separate(doubling.system, members, eps_list, n_max)

    def test_each_member_keeps_its_own_truncation(self, monkeypatch):
        small = np.arange(30)[:, None] * 0.01  # 0.29 * 4**5 < 1000
        mid = np.arange(99)[:, None] * 0.01  # 0.98 * 4**5 >= 1000
        members = [PointCloud(small, 0.01), PointCloud(mid, 0.01),
                   PointCloud(np.vstack([mid, [[100.0]]]), 0.01)]
        eps_list, n_max = [0.5, 0.1, 0.05], 6
        bc, tables, _ = self.supremum(times4(), members, eps_list, n_max, monkeypatch)
        want = self.separate(times4(), members, eps_list, n_max)
        assert [t.truncated_at for t in want] == [None, 5, 2]
        assert [m.escaped_at for m in bc.members] == [None, 5, 2]
        assert [m.table for m in bc.members] == want
        assert tables == want[:1]

    def test_member_whose_start_leaves_the_domain(self, monkeypatch):
        inside = PointCloud(np.arange(30)[:, None] * 0.01, 0.01)
        outside = PointCloud(np.vstack([inside.points, [[2000.0]]]), 0.01)
        eps_list, n_max = [0.4, 0.2, 0.1], 6
        bc, tables, built = self.supremum(times4(), [inside, outside], eps_list, n_max,
                                          monkeypatch)
        assert built == [30, 31]
        assert [m.escaped_at for m in bc.members] == [None, 0]
        assert tables == [bd_count_table(times4(), inside, self.spec, eps_list, n_max)]
        escaped = bd_count_table(times4(), outside, self.spec, eps_list, n_max)
        assert escaped.rows == () and escaped.truncated_at == 0
        assert bc.members[1].table == escaped

        family = CompactFamily((inside, outside))
        bc = compacta_estimate(times4(), self.spec, family, eps_list, n_max)
        assert [m.escaped_at for m in bc.members] == [None, 0]
        bundle = GalleryBundle("times4", times4(), self.spec, outside, family, None,
                               tuple(eps_list), n_max)
        built = spy_orbit_tables(monkeypatch)
        with pytest.raises(ConfigError, match="truncated at n=0"):
            run_bundle(bundle, methods=("bowen_dinaburg", "compacta"))
        assert built == [30, 31]  # the bundle cloud took the escaped member's table
        monkeypatch.undo()
        assert run_bundle(bundle, methods=("compacta",)).bc == bc

    def test_bundle_cloud_outside_the_domain_is_refused(self, monkeypatch):
        """A bundle cloud with a start outside the domain fails the direct
        estimate; under compacta, when it equals no member, after the members
        are counted."""
        inside = PointCloud(np.arange(30)[:, None] * 0.01, 0.01)
        outside = PointCloud(np.vstack([inside.points, [[2000.0]]]), 0.01)
        eps_list, n_max = [0.4, 0.2, 0.1], 6
        bundle = GalleryBundle("times4", times4(), self.spec, outside,
                               CompactFamily((inside,)), None, tuple(eps_list), n_max)
        for methods, sizes in [(("bowen_dinaburg",), [31]),
                               (("bowen_dinaburg", "compacta"), [30, 31])]:
            built = spy_orbit_tables(monkeypatch)
            with pytest.raises(ConfigError, match="truncated at n=0"):
                run_bundle(bundle, methods=methods)
            assert built == sizes
            monkeypatch.undo()

    def test_direct_table_is_the_bundle_cloud_member_table(self, doubling, monkeypatch):
        assert np.array_equal(doubling.family.members[-1].points, doubling.cloud.points)
        built = spy_orbit_tables(monkeypatch)
        run = run_bundle(doubling, methods=("bowen_dinaburg", "compacta"))
        assert run.bd_table is run.bc.members[-1].table
        assert built == [m.size for m in doubling.family.members]
        monkeypatch.undo()
        eps_list, n_max = list(doubling.eps_list), doubling.n_max
        direct = bd_count_table(doubling.system, doubling.cloud, self.spec, eps_list, n_max)
        assert run.bd_table == direct
        assert run.bd == entropy_estimate(direct)


@pytest.mark.parametrize("n_max", [2.5, True, 0], ids=["float", "bool", "zero"])
def test_compacta_refuses_a_bad_order_count(n_max, monkeypatch):
    """``compacta_estimate`` refuses an ``n_max`` that is not an int >= 1
    with ``ConfigError`` before any member's orbit table is built."""
    bundle = build_doubling(grid=64)
    built = spy_orbit_tables(monkeypatch)
    with pytest.raises(ConfigError, match="n_max must be an int >= 1"):
        compacta_estimate(bundle.system, bundle.metric, bundle.family, [0.4, 0.2, 0.1], n_max)
    assert built == []


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

    @pytest.mark.parametrize("slack", [-0.1, float("nan")])
    def test_bad_slack_refused(self, slack):
        est = flat_estimate(2)
        with pytest.raises(ConfigError, match="slack"):
            inequality_report(est, est, est, slack=slack)


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
