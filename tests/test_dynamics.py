"""Orbit machinery and the n-step metric, checked against direct computation."""

import math

import numpy as np
import pytest

from entro import (
    GOLDEN_ALPHA,
    CountRow,
    DynSystem,
    EscapeError,
    MetricSpec,
    PointCloud,
    UndefinedPointError,
    bd_count_table,
    bd_dist,
    build_orbit_table,
    iet_system,
    inverse_transport_check,
    iterate_orbit,
)
from entro import ConfigError, dynamics
from entro.gallery import build_doubling, build_interval_homeo, crumple_system, interval_step
from entro.metric_core import orbit_metric_matrices

from conftest import spy_orbit_tables


@pytest.fixture(scope="module")
def doubling():
    return build_doubling(grid=256)


def angle(p):
    return math.atan2(p[1], p[0]) % (2.0 * math.pi)


class TestIterateOrbit:
    def test_doubling_angles(self, doubling):
        x0 = np.array([math.cos(0.1), math.sin(0.1)])
        orbit = iterate_orbit(doubling.system, x0, 4)
        got = [angle(p) for p in orbit]
        assert np.allclose(got, [0.1, 0.2, 0.4, 0.8])

    def test_orbit_stays_on_circle(self, doubling):
        x0 = np.array([math.cos(1.0), math.sin(1.0)])
        orbit = iterate_orbit(doubling.system, x0, 40)
        assert np.allclose(np.linalg.norm(orbit, axis=1), 1.0, atol=1e-12)

    def test_orbit_length_convention(self, doubling):
        x0 = np.array([1.0, 0.0])
        assert iterate_orbit(doubling.system, x0, 1).shape == (1, 2)

    def test_interval_orbit(self):
        # the base map walks 1/2 -> 1/3 -> 1/4 -> ...
        x = 0.5
        for expect in (1.0 / 3.0, 0.25, 0.2):
            x = interval_step(x)
            assert math.isclose(x, expect, rel_tol=1e-12)


class TestOrbitTable:
    def test_shape_and_depth(self, doubling):
        cloud = PointCloud(doubling.cloud.points[:10].copy(), 0.1)
        table = build_orbit_table(doubling.system, cloud, 5)
        assert table.orbits.shape == (10, 5, 2)
        assert table.depth == 5

    def test_escape_raises(self):
        from entro.gallery import build_escape

        bundle = build_escape(N=2, L_max=3)
        # beyond the sampled sequence the height lookup runs out
        too_deep = bundle.cloud.points.shape[0] * 3
        with pytest.raises(EscapeError):
            build_orbit_table(bundle.system, bundle.cloud, too_deep)

    def test_escape_truncation_allowed(self):
        from entro.gallery import build_escape

        bundle = build_escape(N=2, L_max=3)
        too_deep = bundle.cloud.points.shape[0] * 3
        table = build_orbit_table(
            bundle.system, bundle.cloud, too_deep, allow_truncation=True
        )
        assert table.depth < too_deep

    def test_start_outside_the_domain_truncates_at_step_0(self):
        cloud = PointCloud(np.array([[1.0], [2000.0]]), 0.1)
        system = DynSystem("times4", 1, lambda x: 4.0 * x, lambda x: np.abs(x[:, 0]) < 1000.0)
        with pytest.raises(EscapeError) as info:
            build_orbit_table(system, cloud, 3)
        assert info.value.step == 0 and info.value.last_point.tolist() == [2000.0]
        assert build_orbit_table(system, cloud, 3, allow_truncation=True).orbits.shape == (2, 0, 1)
        table = bd_count_table(system, cloud, MetricSpec.euclidean(), [0.2, 0.1, 0.05], 6)
        assert table.rows == () and table.truncated_at == 0

    def test_undefined_point_truncates_like_an_escape(self):
        a = float(GOLDEN_ALPHA)
        # 2a - 1 steps to (2a - 1) + (1 - a) = a, the cut, so step 2 is undefined
        pts = np.append(np.linspace(0.01, 0.99, 60), 2 * a - 1)[:, None]
        system, cloud = iet_system(a), PointCloud(pts, 0.02)
        table = bd_count_table(system, cloud, MetricSpec.euclidean(), [0.2, 0.1, 0.05], 6)
        assert table.truncated_at == 2
        assert {r.n for r in table.rows} == {1, 2}
        with pytest.raises(UndefinedPointError, match="at step 2"):
            build_orbit_table(system, cloud, 6)


class TestBdDist:
    def test_matches_direct_max(self, doubling):
        spec = MetricSpec.euclidean()
        x = np.array([math.cos(0.1), math.sin(0.1)])
        y = np.array([math.cos(0.15), math.sin(0.15)])
        for n in (1, 3, 6):
            ox = iterate_orbit(doubling.system, x, n)
            oy = iterate_orbit(doubling.system, y, n)
            want = max(np.linalg.norm(a - b) for a, b in zip(ox, oy))
            assert math.isclose(bd_dist(doubling.system, spec, x, y, n), want)

    def test_orbit_metric_matrices_match_on_sampled_pairs(self, doubling, rng):
        spec = MetricSpec.euclidean()
        cloud = doubling.cloud
        table = build_orbit_table(doubling.system, cloud, 6)
        ii = rng.integers(0, cloud.size, size=40)
        jj = rng.integers(0, cloud.size, size=40)
        for n, dmat, _ in orbit_metric_matrices(table.orbits, spec):
            for i, j in zip(ii, jj):
                want = bd_dist(doubling.system, spec, cloud.points[i], cloud.points[j], n)
                assert math.isclose(dmat[i, j], want, rel_tol=1e-12, abs_tol=1e-12)

    def test_n1_is_base_distance(self, doubling):
        spec = MetricSpec.euclidean()
        x, y = doubling.cloud.points[0], doubling.cloud.points[40]
        assert math.isclose(
            bd_dist(doubling.system, spec, x, y, 1), float(np.linalg.norm(x - y))
        )


class TestCountTable:
    def test_rows_cover_grid(self, doubling):
        cloud = PointCloud(doubling.cloud.points[::16].copy(), 0.2)
        table = bd_count_table(
            doubling.system, cloud, MetricSpec.euclidean(), [0.8, 0.4], 4
        )
        eps_seen = {row.epsilon for row in table.rows}
        n_seen = {row.n for row in table.rows}
        assert eps_seen == {0.8, 0.4}
        assert n_seen == {1, 2, 3, 4}
        for row in table.rows:
            assert isinstance(row, CountRow)
            assert row.span_count <= row.sep_count

    def test_exact_counts_monotone_in_n(self, doubling):
        idx = np.arange(0, 256, 16)
        cloud = PointCloud(doubling.cloud.points[idx].copy(), 0.2)
        table = bd_count_table(doubling.system, cloud, MetricSpec.euclidean(), [0.5], 5)
        assert table.mode == "exact"
        counts = [c for _, c in table.counts_for(0.5, "sep")]
        assert counts == sorted(counts)

    def test_counts_for_ordering(self, doubling):
        cloud = PointCloud(doubling.cloud.points[:20].copy(), 0.2)
        table = bd_count_table(
            doubling.system, cloud, MetricSpec.euclidean(), [0.4], 3
        )
        ns = [n for n, _ in table.counts_for(0.4, "sep")]
        assert ns == [1, 2, 3]


class TestInverseTransport:
    def test_crumple_witness_transports(self):
        system = crumple_system(2, "forward")
        from entro.gallery import build_crumple

        bundle = build_crumple(2, direction="forward")
        cloud = PointCloud(bundle.cloud.points[::40].copy(), 0.05)
        verdict = inverse_transport_check(
            system, cloud, MetricSpec.euclidean(), eps=0.2, n=4
        )
        assert verdict.passed
        assert verdict.min_separation >= 0.2
        assert verdict.witness_size >= 2

    def test_refuses_non_invertible(self, doubling):
        from entro import ConfigError

        cloud = PointCloud(doubling.cloud.points[:12].copy(), 0.2)
        with pytest.raises(ConfigError):
            inverse_transport_check(
                doubling.system, cloud, MetricSpec.euclidean(), eps=0.3, n=3
            )


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda b: dynamics.bd_count_table(b.system, b.cloud, b.metric, [0.4, 0.2], 2.5),
         "n_max must be an int >= 1"),
        (lambda b: dynamics.bd_count_table(b.system, b.cloud, b.metric, [0.4, 0.2], True),
         "n_max must be an int >= 1"),
        (lambda b: dynamics.build_orbit_table(b.system, b.cloud, 2.5), "orbit depth must be >= 1"),
        (lambda b: dynamics.iterate_orbit(b.system, b.cloud.points[0], True),
         "orbit depth must be >= 1"),
        (lambda b: dynamics.inverse_transport_check(b.system, b.cloud, b.metric, 0.1, 2.5),
         "n must be >= 1"),
    ],
    ids=["bd-n_max-float", "bd-n_max-bool", "depth-float", "iterate-bool", "transport-n-float"],
)
def test_counts_that_are_not_ints_are_refused(call, match, monkeypatch):
    """Orders and depths must be ints >= 1, a bool excluded; each is refused
    with ``ConfigError`` before any orbit table is built."""
    bundle = build_interval_homeo()
    built = spy_orbit_tables(monkeypatch)
    with pytest.raises(ConfigError, match=match):
        call(bundle)
    assert built == []
