"""Orbit-sequence lifting, the weighted shift metric, and the cross checks."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from entro import (
    EXACT_CAP,
    ConfigError,
    DynSystem,
    EscapeError,
    MetricSpec,
    NotSemiconjugateError,
    PointCloud,
    ShapeError,
    TooLargeError,
    bd_count_table,
    build_orbit_table,
    choose_truncation,
    dhat_dist,
    entropy_estimate,
    friedland_count_table,
    friedland_estimate,
    iterate_orbit,
    lift_orbit,
    metric_comparison_check,
    pointwise,
    semiconj_check,
    shift_system,
)
from entro import orbit_space
from entro.gallery import build_doubling, build_escape, run_bundle
from entro.metric_core import (
    TILE_ROWS,
    _bands,
    _orbit_stream as _lifted_matrices,
    counts_from_matrix,
    farthest_point_order,
    orbit_metric_matrices,
)


@pytest.fixture(scope="module")
def doubling():
    return build_doubling(grid=256)


def circle_cloud(count: int, label: str = "ring") -> PointCloud:
    theta = np.arange(count) * (2.0 * math.pi / count)
    pts = np.column_stack([np.cos(theta), np.sin(theta)])
    return PointCloud(pts, 2.0 * math.pi / count, label)


class TestChooseTruncation:
    def test_hand_value(self):
        # factor = 1 / (1 - 1/2) = 2; need 2^-M * 2 < 1e-6, first M is 21
        assert choose_truncation(2.0, 1.0, tail_tol=1e-6) == 21

    def test_bound_is_tight(self):
        for rho in (1.5, 2.0, 3.0, 6.0):
            for diam in (0.3, 1.0, 4.0):
                for tol in (1e-3, 1e-6):
                    m = choose_truncation(rho, diam, tail_tol=tol)
                    factor = diam / (1.0 - 1.0 / rho)
                    assert rho**-m * factor < tol
                    if m > 1:
                        assert rho ** -(m - 1) * factor >= tol

    def test_zero_diameter(self):
        assert choose_truncation(3.0, 0.0) == 1

    def test_bad_args(self):
        with pytest.raises(ConfigError):
            choose_truncation(1.0, 1.0)
        with pytest.raises(ConfigError):
            choose_truncation(2.0, 1.0, tail_tol=0.0)
        with pytest.raises(ConfigError):
            choose_truncation(2.0, -1.0)
        with pytest.raises(ConfigError):
            choose_truncation(math.inf, 1.0)

    def test_nan_tail_tol_is_refused(self):
        for tail_tol in (math.nan, math.inf):
            with pytest.raises(ConfigError, match="tail_tol"):
                choose_truncation(2.0, 1.0, tail_tol=tail_tol)
        for diameter in (math.nan, math.inf):
            with pytest.raises(ConfigError, match="diameter"):
                choose_truncation(2.0, diameter)


class TestDhatDist:
    def test_hand_value(self):
        x = [[0.0, 0.0], [1.0, 0.0]]
        y = [[0.0, 3.0], [1.0, 4.0]]
        # step distances 3 and 4, weights 1 and 1/2
        assert dhat_dist(x, y, 2.0) == pytest.approx(5.0, abs=1e-12)

    def test_matches_manual_sum(self, rng):
        x = rng.normal(size=(7, 3))
        y = rng.normal(size=(7, 3))
        rho = 2.5
        want = sum(
            rho**-i * float(np.linalg.norm(x[i] - y[i])) for i in range(7)
        )
        assert dhat_dist(x, y, rho) == pytest.approx(want, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            dhat_dist(np.zeros((3, 2)), np.zeros((4, 2)), 2.0)


class TestLiftAndShift:
    def test_lift_orbit_stacks_rows(self, doubling):
        cloud = circle_cloud(8)
        lifted = lift_orbit(doubling.system, cloud, 4)
        assert lifted.points.shape == (8, 8)
        for i in range(8):
            want = iterate_orbit(doubling.system, cloud.points[i], 4).ravel()
            assert np.array_equal(lifted.points[i], want)
        assert lifted.label.endswith("|lift(4)")

    def test_lift_requires_positive_truncation(self, doubling):
        with pytest.raises(ConfigError):
            lift_orbit(doubling.system, circle_cloud(4), 0)

    @pytest.mark.parametrize("truncation", [0, -1, 2.5, 2.0, True, "3"])
    def test_truncation_must_be_a_count(self, doubling, truncation):
        """The rule ``MetricSpec`` applies: an int >= 1, a bool excluded; a
        float would give a shift of fractional dimension."""
        with pytest.raises(ConfigError, match="truncation must be an int >= 1"):
            shift_system(doubling.system, truncation)
        with pytest.raises(ConfigError, match="truncation must be an int >= 1"):
            lift_orbit(doubling.system, circle_cloud(4), truncation)

    def test_shift_intertwines_base_step(self, doubling):
        cloud = circle_cloud(10)
        m = 5
        lifted = lift_orbit(doubling.system, cloud, m)
        shift = shift_system(doubling.system, m)
        assert shift.dim == m * 2
        for i in range(cloud.size):
            stepped = shift.step(lifted.points[i : i + 1])[0]
            fx = doubling.system.step(cloud.points[i : i + 1])[0]
            want = iterate_orbit(doubling.system, fx, m).ravel()
            assert np.allclose(stepped, want, atol=1e-12)

    def test_shift_inverse_roundtrip(self):
        ang = 0.7
        rot = np.array(
            [[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]]
        )
        system = DynSystem(
            name="rotation",
            dim=2,
            step=pointwise(lambda p: rot @ p),
            domain=pointwise(lambda p: True),
            inverse=pointwise(lambda p: rot.T @ p),
        )
        shift = shift_system(system, 4)
        assert shift.invertible
        v = lift_orbit(system, PointCloud([1.0, 0.0], 0.1, "seed"), 4).points
        assert np.allclose(shift.inverse(shift.step(v)), v, atol=1e-12)
        assert np.allclose(shift.step(shift.inverse(v)), v, atol=1e-12)

    def test_shift_of_noninvertible_has_no_inverse(self, doubling):
        assert shift_system(doubling.system, 3).inverse is None

    def test_shift_domain_needs_every_block_in_the_base_domain(self):
        """A lifted orbit escapes one step before its base orbit, because its
        last block runs one iterate ahead, instead of stepping past the base
        domain."""
        escape = build_escape(2)
        point = escape.cloud.subset([escape.cloud.size - 1])
        base = build_orbit_table(escape.system, point, 100, allow_truncation=True)
        assert base.depth < 100
        shift = shift_system(escape.system, 2)
        lifted = lift_orbit(escape.system, point, 2)
        with pytest.raises(EscapeError):
            build_orbit_table(shift, lifted, 100)
        table = build_orbit_table(shift, lifted, 100, allow_truncation=True)
        assert table.depth == base.depth - 1


def dense_lifted_matrices(orbits: np.ndarray, n_max: int, rho: float, m: int):
    """The in-place S recurrence on whole N x N slice matrices, without tiles."""
    size = orbits.shape[0]

    def slice_dm(k):
        return cdist(orbits[:, k, :], orbits[:, k, :])

    def slice_seed(k):
        pts = orbits[:, k, :]
        return np.linalg.norm(pts - pts.mean(axis=0), axis=1)

    s_mat = np.zeros((size, size))
    s_seed = np.zeros(size)
    w = 1.0
    for j in range(m):
        s_mat += w * slice_dm(j)
        s_seed += w * slice_seed(j)
        w /= rho
    tail_w = rho ** (1 - m)
    run_mat = np.zeros_like(s_mat)
    run_seed = np.zeros_like(s_seed)
    for i in range(n_max):
        np.maximum(run_mat, s_mat, out=run_mat)
        np.maximum(run_seed, s_seed, out=run_seed)
        yield i + 1, run_mat, run_seed
        if i + 1 < n_max:
            s_mat -= slice_dm(i)
            s_mat *= rho
            d_next = slice_dm(i + m)
            d_next *= tail_w
            s_mat += d_next
            np.maximum(s_mat, 0.0, out=s_mat)
            s_seed = rho * (s_seed - slice_seed(i)) + tail_w * slice_seed(i + m)
            np.maximum(s_seed, 0.0, out=s_seed)


class TestFriedlandCounts:
    def test_dominates_base_counts(self, doubling):
        """Each summand of the lifted metric starts with the base distance, so
        lifted counts can never fall below the base counts at the same scale."""
        cloud = circle_cloud(20)
        eps_list = [0.8, 0.4, 0.2]
        fr = friedland_count_table(doubling.system, cloud, eps_list, 5, rho=4.0)
        bd = bd_count_table(
            doubling.system, cloud, MetricSpec.euclidean(), eps_list, 5
        )
        bd_rows = {(r.epsilon, r.n): r for r in bd.rows}
        assert fr.mode == "exact"
        for row in fr.rows:
            base = bd_rows[(row.epsilon, row.n)]
            assert row.sep_count >= base.sep_count
            assert row.span_count >= base.span_count

    @pytest.mark.parametrize("count, mode", [(EXACT_CAP, "exact"), (EXACT_CAP + 1, "greedy")])
    def test_mode_follows_cloud_size(self, doubling, count, mode):
        """Both tables count exactly within the cap and greedily above it, and
        each direct row is the count of the matching order-n matrix."""
        cloud = circle_cloud(count)
        spec = MetricSpec.euclidean()
        eps_list = [0.8, 0.4, 0.2]
        bd = bd_count_table(doubling.system, cloud, spec, eps_list, 4)
        fr = friedland_count_table(doubling.system, cloud, eps_list, 4, rho=4.0)
        assert bd.mode == fr.mode == mode
        want = []
        orbits = build_orbit_table(doubling.system, cloud, 4).orbits
        for n, dmat, seed in orbit_metric_matrices(orbits, spec):
            order = farthest_point_order(dmat, seed) if mode == "greedy" else None
            for eps in eps_list:
                sep, span = counts_from_matrix(dmat, eps, order=order)
                want.append((eps, n, len(sep), len(span)))
        got = [(r.epsilon, r.n, r.sep_count, r.span_count) for r in bd.rows]
        assert got == sorted(want, key=lambda w: (-w[0], w[1]))

    def test_table_records_settings(self, doubling):
        table = friedland_count_table(doubling.system, circle_cloud(12), [0.4], 3, rho=4.0)
        # the probe's box is the square [-1, 1]^2
        assert (table.rho, table.truncation) == (4.0, choose_truncation(4.0, 2.0 * math.sqrt(2.0)))
        direct = bd_count_table(
            doubling.system, circle_cloud(12), MetricSpec.euclidean(), [0.4], 3
        )
        assert (direct.rho, direct.truncation) == (None, None)

    def test_estimate_tracks_base_estimate(self):
        bundle = build_doubling(grid=1024)
        eps_list = [0.8, 0.4, 0.2]
        fr = friedland_estimate(
            bundle.system, bundle.cloud, eps_list, 8, rho=4.0
        )
        bd = entropy_estimate(
            bd_count_table(
                bundle.system, bundle.cloud, bundle.metric, eps_list, 8
            )
        )
        assert abs(fr.headline - bd.headline) <= 0.15
        assert 0.5 < bd.headline < 0.9

    def test_estimate_is_the_run_record_estimate(self, doubling):
        run = run_bundle(doubling, methods=("friedland",))
        fr = friedland_estimate(
            doubling.system, doubling.cloud, doubling.eps_list, doubling.n_max,
            rho=doubling.rho,
        )
        assert fr == run.fr

    def test_recurrence_matches_from_scratch_sums(self, doubling):
        """The in-place update S_{i+1} = rho (S_i - D_i) + rho^(1-M) D_{i+M}
        gives the counts of summing each S_i afresh."""
        theta = np.sort(np.random.default_rng(5).random(60)) * 2.0 * math.pi
        cloud = PointCloud(np.column_stack([np.cos(theta), np.sin(theta)]), 0.2)
        eps_list, n_max, rho = [0.8, 0.4, 0.2], 5, 3.0
        table = friedland_count_table(doubling.system, cloud, eps_list, n_max, rho=rho)
        m = table.truncation
        orbits = build_orbit_table(doubling.system, cloud, m + n_max - 1).orbits
        weights = rho ** -np.arange(m, dtype=float)
        run_mat = np.zeros((cloud.size, cloud.size))
        run_seed = np.zeros(cloud.size)
        want = {}
        for i in range(n_max):
            s_mat = sum(w * cdist(orbits[:, i + j], orbits[:, i + j])
                        for j, w in enumerate(weights))
            s_seed = sum(
                w * np.linalg.norm(orbits[:, i + j] - orbits[:, i + j].mean(axis=0), axis=1)
                for j, w in enumerate(weights)
            )
            np.maximum(run_mat, s_mat, out=run_mat)
            np.maximum(run_seed, s_seed, out=run_seed)
            order = farthest_point_order(run_mat, run_seed)
            for eps in eps_list:
                sep, span = counts_from_matrix(run_mat, eps, order=order)
                want[(eps, i + 1)] = (len(sep), len(span))
        got = {(r.epsilon, r.n): (r.sep_count, r.span_count) for r in table.rows}
        assert got == want

    @pytest.mark.parametrize("size", [1, TILE_ROWS - 1, TILE_ROWS, TILE_ROWS + 1, 150])
    def test_tiled_matrices_match_dense_recurrence(self, doubling, size):
        """S held as upper-triangle row tiles gives the matrices and seeds of
        the recurrence on whole matrices, bit for bit, across tile edges; at
        TILE_ROWS - 1 points the reference point completes the last band, at
        TILE_ROWS it is alone in it."""
        theta = np.sort(np.random.default_rng(7).random(size)) * 2.0 * math.pi
        pts = np.column_stack([np.cos(theta), np.sin(theta)])
        n_max, rho, m = 5, 3.0, 6
        orbits = build_orbit_table(doubling.system, PointCloud(pts, 0.2), m + n_max - 1).orbits
        got = _lifted_matrices(orbits, rho, m)
        want = dense_lifted_matrices(orbits, n_max, rho, m)
        for (n, dmat, seed), (want_n, want_dmat, want_seed) in zip(got, want, strict=True):
            assert n == want_n
            assert np.array_equal(dmat, want_dmat)
            assert np.array_equal(dmat, dmat.T)
            assert np.array_equal(seed, want_seed)

    def test_stream_holds_two_tiles_beyond_its_arrays(self, doubling):
        """Pulled to its end, the lifted stream allocates the running max and
        the upper half of S, and beyond them at most two distance tiles of
        ``TILE_ROWS`` rows and O(N)."""
        size, n_max, rho, m = 2000, 3, 4.0, 6
        orbits = build_orbit_table(doubling.system, circle_cloud(size), m + n_max - 1).orbits
        s_bytes = 8 * sum((r1 - r0) * (size - r0) for r0, r1 in _bands(size))
        tracemalloc.start()
        try:
            orders = [n for n, _, _ in _lifted_matrices(orbits, rho, m)]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert orders == list(range(1, n_max + 1))
        assert peak <= 8 * size * size + s_bytes + 2 * 8 * TILE_ROWS * size + 64 * size

    def test_run_bundle_refuses_a_non_euclidean_lifted_base(self, doubling):
        bundle = dataclasses.replace(doubling, metric=MetricSpec.max_product(1))
        with pytest.raises(ConfigError, match="euclidean"):
            run_bundle(bundle, methods=("friedland",))
        run = run_bundle(bundle, methods=("bowen_dinaburg",))
        assert run.bd is not None and run.fr is None

    def test_bad_args(self, doubling):
        cloud = circle_cloud(6)
        with pytest.raises(ConfigError):
            friedland_count_table(doubling.system, cloud, [0.4], 0)
        with pytest.raises(ConfigError):
            friedland_count_table(doubling.system, cloud, [-0.4], 3)
        with pytest.raises(ConfigError):
            friedland_count_table(doubling.system, cloud, [0.4], 3, rho=1.0)
        with pytest.raises(ConfigError, match="rho"):
            friedland_count_table(doubling.system, cloud, [0.4], 3, rho=math.inf)


def lifted_table(bundle):
    return friedland_count_table(
        bundle.system, bundle.cloud, list(bundle.eps_list), bundle.n_max, rho=bundle.rho
    )


class TestTruncatedLiftedTable:
    """Orbits that leave the domain truncate the lifted table as they do the
    direct one; its ``truncated_at`` counts lifted orders, depth - m + 1."""

    def test_escape_keeps_the_orders_the_orbits_reach(self):
        table = lifted_table(build_escape(2, L_max=3, orbit_len=48))
        assert (table.truncated_at, table.truncation) == (7, 8)
        whole = lifted_table(build_escape(2, L_max=3, orbit_len=60))
        assert whole.truncated_at is None and whole.truncation == 8
        assert table.rows == tuple(r for r in whole.rows if r.n <= 7)

    def test_short_orbits_keep_the_lifted_orders_they_reach(self):
        """Orbit tables of depth m = 8 keep lifted order 1; shallower ones none."""
        for orbit_len, cut, orders in [(42, 1, {1}), (40, 0, set())]:
            table = lifted_table(build_escape(2, L_max=3, orbit_len=orbit_len))
            assert (table.truncated_at, table.truncation) == (cut, 8)
            assert {r.n for r in table.rows} == orders

    def test_start_outside_the_domain_leaves_no_rows(self):
        system = DynSystem("times4", 1, lambda x: 4.0 * x, lambda x: np.abs(x[:, 0]) < 1000.0)
        cloud = PointCloud(np.array([[1.0], [2000.0]]), 0.1)
        table = friedland_count_table(system, cloud, [0.2, 0.1, 0.05], 6)
        assert table.rows == () and table.truncated_at == 0
        direct = bd_count_table(system, cloud, MetricSpec.euclidean(), [0.2, 0.1, 0.05], 6)
        assert direct.rows == () and direct.truncated_at == 0

    def test_run_bundle_notes_the_lifted_truncation(self):
        run = run_bundle(build_escape(2, L_max=3, orbit_len=48))
        assert run.fr.truncated_at == 7
        assert "lifted table truncated at n=7" in run.fr.diagnostics
        assert run.bd.truncated_at is None


class TestMetricComparison:
    def test_doubling_has_zero_violations(self, doubling):
        report = metric_comparison_check(
            doubling.system, doubling.cloud, rho=4.0, eps=0.1,
            sample_pairs=400, seed=3,
        )
        assert report.passed
        assert report.pairs_checked == 400
        assert report.forward_violations == 0
        assert report.reverse_violations == 0
        assert "pass" in report.line()

    def test_close_pair_hits_both_sides(self, doubling):
        t = 0.3
        pts = np.array(
            [
                [math.cos(t), math.sin(t)],
                [math.cos(t + 1e-9), math.sin(t + 1e-9)],
            ]
        )
        cloud = PointCloud(pts, 1e-9, "near-pair")
        report = metric_comparison_check(
            doubling.system, cloud, rho=4.0, eps=0.1, sample_pairs=10, seed=0
        )
        assert report.passed
        assert report.forward_hits > 0
        assert report.reverse_hits > 0
        # the pair's first four iterates span the circle, not the 1e-9 gap
        assert (report.n_tail, report.truncation) == (3, 11)

    def test_tails_are_bounded_on_every_bundle(self, suite_results):
        """At each default bundle's rho and middle scale the check keeps the
        lifted table's m, and the box diagonal D of the m iterates it
        compares bounds both dropped tails: after n_tail blocks below eps,
        after m blocks below 1e-6."""
        for name, run in suite_results.items():
            bundle = run.bundle
            eps = bundle.eps_list[len(bundle.eps_list) // 2]
            report = metric_comparison_check(
                bundle.system, bundle.cloud, rho=bundle.rho, eps=eps, sample_pairs=10
            )
            assert report.truncation == run.fr_table.truncation, name
            iterates = build_orbit_table(bundle.system, bundle.cloud, report.truncation).orbits
            flat = iterates.reshape(-1, bundle.cloud.dim)
            tail = np.linalg.norm(flat.max(axis=0) - flat.min(axis=0)) / (1 - 1 / bundle.rho)
            assert bundle.rho ** -report.n_tail * tail < eps, name
            assert bundle.rho ** -report.truncation * tail < 1e-6, name

    def test_bad_args(self, doubling, monkeypatch):
        with pytest.raises(ConfigError):
            metric_comparison_check(doubling.system, doubling.cloud, eps=0.0)
        # one point has no pair to compare; refused before any orbit is built
        monkeypatch.setattr(orbit_space, "build_orbit_table", None)
        with pytest.raises(ConfigError, match="needs >= 2 points, got 1"):
            metric_comparison_check(doubling.system, doubling.cloud.subset([0]))

    def test_nan_eps_is_refused(self, doubling):
        with pytest.raises(ConfigError, match="eps"):
            metric_comparison_check(doubling.system, doubling.cloud, eps=math.nan)
        # eps is also the truncation's tail tolerance, so it must be finite
        with pytest.raises(ConfigError, match="eps must be a finite number"):
            metric_comparison_check(doubling.system, doubling.cloud, eps=math.inf)
        with pytest.raises(ConfigError):
            metric_comparison_check(doubling.system, doubling.cloud, rho=1.0)
        with pytest.raises(ConfigError):
            metric_comparison_check(doubling.system, doubling.cloud, sample_pairs=-3)


class TestSemiconjCheck:
    def test_identity_factor(self, doubling):
        cloud = circle_cloud(12)
        rep = semiconj_check(
            doubling.system, doubling.system, lambda p: p, cloud, 0.4, 4
        )
        assert rep.residual == 0.0
        assert rep.sep_up == rep.sep_down
        assert rep.span_up == rep.span_down
        assert rep.passed
        assert "pass" in rep.line()

    def test_block_projection_from_shift(self, doubling):
        """Dropping all but the first block carries the shift onto the base map."""
        m = 4
        cloud = circle_cloud(12)
        lifted = lift_orbit(doubling.system, cloud, m)
        up = shift_system(doubling.system, m)
        rep = semiconj_check(
            up, doubling.system, lambda v: v[:, :2], lifted, 0.4, 4
        )
        assert rep.residual == 0.0
        assert rep.passed
        assert rep.sep_up >= rep.sep_down

    def test_squaring_collapses_onto_itself(self, doubling):
        """z -> z^2 commutes with itself and doubles distances at worst."""
        cloud = circle_cloud(12)
        rep = semiconj_check(
            doubling.system,
            doubling.system,
            doubling.system.step,
            cloud,
            0.4,
            4,
            delta_up=0.2,
            modulus=lambda t: 2.0 * t,
        )
        assert rep.residual == 0.0
        assert rep.passed

    def test_rotation_is_not_a_factor_map(self, doubling):
        ang = 1.0
        rot = np.array(
            [[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]]
        )
        with pytest.raises(NotSemiconjugateError):
            semiconj_check(
                doubling.system, doubling.system, lambda p: p @ rot.T,
                circle_cloud(8), 0.4, 3,
            )

    def test_modulus_must_fit_downstairs_scale(self, doubling):
        with pytest.raises(ConfigError):
            semiconj_check(
                doubling.system, doubling.system, lambda p: p,
                circle_cloud(8), 0.4, 3,
                delta_up=0.2, modulus=lambda t: 3.0 * t,
            )

    def test_zero_depth_is_refused(self, doubling):
        with pytest.raises(ConfigError, match="n must be >= 1"):
            semiconj_check(
                doubling.system, doubling.system, lambda p: p, circle_cloud(8), 0.4, 0,
            )

    def test_cloud_must_fit_exact_counter(self, doubling):
        with pytest.raises(TooLargeError):
            semiconj_check(
                doubling.system, doubling.system, lambda p: p,
                circle_cloud(30), 0.4, 3,
            )
