"""Counting-engine tests against exhaustive oracles.

The oracles enumerate subsets directly, so they are independent of the
branch-and-bound and greedy code paths they certify.
"""

import heapq
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entro import (
    EXACT_CAP,
    ConfigError,
    EmptyCloudError,
    MeshError,
    MetricSpec,
    PointCloud,
    ShapeError,
    TooLargeError,
    cloud_diameter,
    counts_from_matrix,
    dense_subsample,
    distance_matrix,
    pairwise_dist,
    subsample_count_check,
)
from entro import metric_core
from entro.dynamics import build_orbit_table
from entro.gallery import build_doubling
from entro.metric_core import (
    TILE_ROWS,
    CountRow,
    CountTable,
    _eps_neighbours,
    _flat_below,
    _greedy_counts,
    _row_lists,
    count_table,
    covering_radius,
    farthest_point_order,
    orbit_metric_matrices,
)
from entro.orbit_space import _lifted_matrices, friedland_count_table


def brute_max_separated(dists: np.ndarray, eps: float) -> int:
    """Maximum subset with all pairwise distances >= eps, by enumeration."""
    m = dists.shape[0]
    best = 0
    for mask in range(1, 1 << m):
        idx = [i for i in range(m) if mask >> i & 1]
        if len(idx) <= best:
            continue
        if all(dists[a, b] >= eps for a, b in combinations(idx, 2)):
            best = len(idx)
    return best


def brute_min_spanning(dists: np.ndarray, eps: float) -> int:
    """Smallest in-sample center set covering everything within < eps."""
    m = dists.shape[0]
    for size in range(1, m + 1):
        for centers in combinations(range(m), size):
            if np.all(dists[:, centers].min(axis=1) < eps):
                return size
    return m


def dense_greedy_separated(dmat: np.ndarray, order: np.ndarray, eps: float) -> list[int]:
    """Farthest-point separated scan that ORs a dense ball row per choice."""
    blocked = np.zeros(dmat.shape[0], dtype=bool)
    chosen: list[int] = []
    for i in order:
        if not blocked[i]:
            chosen.append(int(i))
            blocked |= dmat[i] < eps
    return chosen


def dense_greedy_cover(dmat: np.ndarray, eps: float) -> list[int]:
    """Lazy greedy set cover that rescans a dense ball row on every heap pop."""
    n = dmat.shape[0]
    uncovered = np.ones(n, dtype=bool)
    counts = (dmat < eps).sum(axis=1)
    heap = [(-int(c), i) for i, c in enumerate(counts)]
    heapq.heapify(heap)
    chosen: list[int] = []
    remaining = n
    while remaining > 0:
        negc, i = heapq.heappop(heap)
        ball = dmat[i] < eps
        now = int(np.count_nonzero(uncovered & ball))
        if now == 0:
            continue
        if now < -negc:
            heapq.heappush(heap, (-now, i))
            continue
        chosen.append(i)
        uncovered &= ~ball
        remaining -= now
    return chosen


def random_cloud(rng, size, dim=2):
    return PointCloud(rng.random((size, dim)), mesh=0.05, label="t")


class TestExactCountsMatchOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_separated(self, seed):
        rng = np.random.default_rng(seed)
        cloud = random_cloud(rng, rng.integers(3, 11))
        spec = MetricSpec.euclidean()
        dists = distance_matrix(cloud.points, cloud.points, spec)
        for eps in (0.15, 0.3, 0.6):
            got, _ = counts_from_matrix(dists, eps)
            assert CountTable((), len(dists)).mode == "exact"
            assert len(got) == brute_max_separated(dists, eps)

    @pytest.mark.parametrize("seed", range(6))
    def test_spanning(self, seed):
        rng = np.random.default_rng(100 + seed)
        cloud = random_cloud(rng, rng.integers(3, 11))
        spec = MetricSpec.euclidean()
        dists = distance_matrix(cloud.points, cloud.points, spec)
        for eps in (0.15, 0.3, 0.6):
            _, got = counts_from_matrix(dists, eps)
            assert CountTable((), len(dists)).mode == "exact"
            assert len(got) == brute_min_spanning(dists, eps)

    def test_greedy_separated_is_lower_bound_and_valid(self):
        rng = np.random.default_rng(7)
        cloud = random_cloud(rng, 12)
        spec = MetricSpec.euclidean()
        dists = distance_matrix(cloud.points, cloud.points, spec)
        exact, _ = counts_from_matrix(dists, 0.25)
        greedy, _ = _greedy_counts(
            *_eps_neighbours(dists, 0.25), farthest_point_order(dists, dists.mean(axis=1))
        )
        assert len(greedy) <= len(exact)
        pts = cloud.points[greedy]
        d = distance_matrix(pts, pts, spec)
        off = d[~np.eye(len(pts), dtype=bool)]
        assert off.size == 0 or off.min() >= 0.25

    def test_witness_is_separated(self):
        rng = np.random.default_rng(8)
        cloud = random_cloud(rng, 10)
        spec = MetricSpec.euclidean()
        res, _ = counts_from_matrix(distance_matrix(cloud.points, cloud.points, spec), 0.3)
        pts = cloud.points[res]
        d = distance_matrix(pts, pts, spec)
        off = d[~np.eye(len(pts), dtype=bool)]
        assert off.size == 0 or off.min() >= 0.3


def oracle_matrix(kind: str, seed: int) -> np.ndarray:
    """Seeded distance-like matrix with a zero diagonal."""
    rng = np.random.default_rng(seed)
    pts = rng.random((int(rng.integers(2, 120)), 2))
    dmat = distance_matrix(pts, pts, MetricSpec.euclidean())
    if kind == "asymmetric":
        dmat = dmat + 0.2 * rng.random(dmat.shape)
    elif kind == "integer":
        dmat = np.floor(dmat * 6)
    np.fill_diagonal(dmat, 0.0)
    return dmat


class TestGreedyCountsMatchDenseScans:
    """Greedy counts over eps-neighbour lists equal the dense-row scans."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", ["symmetric", "asymmetric", "integer"])
    def test_counts_and_witnesses(self, kind, seed):
        dmat = oracle_matrix(kind, seed)
        off = dmat[dmat > 0]
        lo = off.min() if off.size else 1.0
        scales = [lo / 2, lo, 0.3, 1.0, 2.0, 3.0, 2 * dmat.max() + 1]
        order = farthest_point_order(dmat, dmat.mean(axis=1))
        for eps in scales:
            sep, span = _greedy_counts(*_eps_neighbours(dmat, eps), order)
            want_sep = dense_greedy_separated(dmat, order, eps)
            want_span = dense_greedy_cover(dmat, eps)
            if len(want_span) > len(want_sep):
                want_span = want_sep
            assert (sep, span) == (want_sep, want_span)

    @pytest.mark.parametrize("size, mode", [(30, "greedy"), (10, "exact")])
    def test_point_outside_its_own_ball_is_refused(self, size, mode):
        """Both counting paths refuse the matrix; the cloud size picks the path."""
        dmat = np.random.default_rng(size).random((size, size))
        with pytest.raises(ConfigError, match="diagonal"):
            counts_from_matrix(dmat, 1e-9)
        np.fill_diagonal(dmat, 0.0)
        counts_from_matrix(dmat, 1e-9)
        assert CountTable((), size).mode == mode

    def test_scale_extremes(self):
        dmat = oracle_matrix("symmetric", 11)
        order = farthest_point_order(dmat, dmat.mean(axis=1))
        sep, span = _greedy_counts(*_eps_neighbours(dmat, 1e-9), order)
        assert len(sep) == len(span) == len(dmat)
        sep, span = _greedy_counts(*_eps_neighbours(dmat, 2 * dmat.max() + 1), order)
        assert len(sep) == len(span) == 1


def dense_recount(matrices, eps_list: list[float]) -> list[tuple]:
    """Every cell counted on its own from the whole matrix, in ``count_table``'s row order."""
    cells = {}
    for n, dmat, seed in matrices:
        order = farthest_point_order(dmat, seed) if dmat.shape[0] > EXACT_CAP else None
        for k, eps in enumerate(eps_list):
            sep, span = counts_from_matrix(dmat, eps, order=order)
            cells[k, n] = (eps, n, len(sep), len(span))
    return [cells[key] for key in sorted(cells)]


def row_tuples(table: CountTable) -> list[tuple]:
    return [(r.epsilon, r.n, r.sep_count, r.span_count) for r in table.rows]


@pytest.fixture()
def carried_tests(monkeypatch):
    """Records, per threshold ``count_table`` makes, whether it tested a carried list."""
    seen: list[bool] = []
    flat_below = metric_core._flat_below

    def spy(dmat, eps, within=None):
        seen.append(within is not None)
        return flat_below(dmat, eps, within)

    monkeypatch.setattr(metric_core, "_flat_below", spy)
    return seen


class TestCarriedNeighbourLists:
    """Lists carried across scales and orders are the lists of a dense threshold."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", ["symmetric", "asymmetric", "integer"])
    def test_restricted_lists_equal_dense_lists(self, kind, seed):
        dmat = oracle_matrix(kind, seed)
        scales = sorted({0.05, 0.3, 1.0, 2.0, float(dmat.max()) + 1})
        for i, eps in enumerate(scales):
            want_ptr, want_cols = _eps_neighbours(dmat, eps)
            for wider in scales[i:]:
                within = np.flatnonzero(dmat < wider)
                ptr, cols = _row_lists(_flat_below(dmat, eps, within), len(dmat))
                assert np.array_equal(ptr, want_ptr)
                assert np.array_equal(cols, want_cols)
                assert np.array_equal(within, np.flatnonzero(dmat < wider))

    @pytest.mark.parametrize(
        "spread, carries",
        # order 1 is one tight cluster, later orders spread the points out
        [((0.05, 4.0, 4.0, 4.0), True),
         # every order stays within the largest scale almost everywhere
         ((1.0, 1.0, 1.0, 1.0), False)],
        ids=["sparse-after-order-1", "dense"],
    )
    def test_table_equals_dense_recount(self, spread, carries, carried_tests):
        rng = np.random.default_rng(3)
        orbits = rng.random((200, len(spread), 2)) * np.array(spread)[None, :, None]
        spec = MetricSpec.euclidean()
        # the largest scale in the middle, and one scale twice
        eps_list = [0.1, 0.2, 1.5, 0.05, 0.2]
        table = count_table(orbit_metric_matrices(orbits, spec), eps_list, len(orbits))
        carried = list(carried_tests)
        assert row_tuples(table) == dense_recount(orbit_metric_matrices(orbits, spec), eps_list)
        assert len(carried) == len(eps_list) * len(spread)
        assert any(carried) == carries
        assert carried[: len(eps_list)] == [False] * len(eps_list)

    def test_lifted_table_equals_dense_recount(self, carried_tests):
        system = build_doubling(grid=256).system
        theta = np.arange(256) * (2.0 * math.pi / 256)
        cloud = PointCloud(np.column_stack([np.cos(theta), np.sin(theta)]), 0.05)
        eps_list, n_max, rho, m = [0.4, 0.8, 0.2, 0.4], 4, 4.0, 6
        table = friedland_count_table(system, cloud, eps_list, n_max, rho=rho, truncation=m)
        assert any(carried_tests)
        orbits = build_orbit_table(system, cloud, m + n_max - 1).orbits
        want = dense_recount(_lifted_matrices(orbits, n_max, rho, m), eps_list)
        assert row_tuples(table) == want
        assert table.mode == "greedy"


class TestCountsFor:
    TABLE = CountTable((CountRow(0.5, 2, 3, 2), CountRow(0.5, 1, 2, 1)), 4)

    def test_picks_the_named_count(self):
        assert self.TABLE.counts_for(0.5) == [(1, 2), (2, 3)]
        assert self.TABLE.counts_for(0.5, "span") == [(1, 1), (2, 2)]

    def test_unknown_count_refused(self):
        with pytest.raises(ConfigError, match="seps"):
            self.TABLE.counts_for(0.5, "seps")


def dense_orbit_metric_matrices(orbits: np.ndarray, spec: MetricSpec):
    """Running max over whole N x N slice matrices, without tiles."""
    size = orbits.shape[0]
    dmat = np.zeros((size, size))
    seed = np.zeros(size)
    for k in range(orbits.shape[1]):
        sl = orbits[:, k, :]
        np.maximum(dmat, distance_matrix(sl, sl, spec), out=dmat)
        centroid = sl.mean(axis=0)
        np.maximum(seed, distance_matrix(sl, centroid[None, :], spec)[:, 0], out=seed)
        yield k + 1, dmat, seed


class TestTiledOrbitMetricMatrices:
    """Matrices folded from upper-triangle tiles equal the dense running max."""

    @pytest.mark.parametrize("size", [1, TILE_ROWS - 1, TILE_ROWS, TILE_ROWS + 1, 200])
    @pytest.mark.parametrize(
        "spec",
        [MetricSpec.euclidean(), MetricSpec.max_product(2), MetricSpec.sequence_rho(3.0, 2)],
        ids=lambda spec: spec.kind,
    )
    def test_matches_dense_running_max(self, size, spec):
        orbits = np.random.default_rng(size).normal(size=(size, 3, 4))
        got = orbit_metric_matrices(orbits, spec)
        want = dense_orbit_metric_matrices(orbits, spec)
        for (n, dmat, seed), (want_n, want_dmat, want_seed) in zip(got, want, strict=True):
            assert n == want_n
            assert np.array_equal(dmat, want_dmat)
            assert np.array_equal(dmat, dmat.T)
            assert np.array_equal(seed, want_seed)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=0.05, max_value=1.2),
)
def test_sandwich_property(size, seed, eps):
    """span(eps) <= sep(eps) <= span(eps/2) for exact counts."""
    rng = np.random.default_rng(seed)
    cloud = PointCloud(rng.random((size, 2)), mesh=0.05)
    dmat = distance_matrix(cloud.points, cloud.points, MetricSpec.euclidean())
    sep, span = counts_from_matrix(dmat, eps)
    _, span_half = counts_from_matrix(dmat, eps / 2)
    assert len(span) <= len(sep) <= len(span_half)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=9999))
def test_exact_sep_nonincreasing_in_eps(size, seed):
    rng = np.random.default_rng(seed)
    cloud = PointCloud(rng.random((size, 2)), mesh=0.05)
    dmat = distance_matrix(cloud.points, cloud.points, MetricSpec.euclidean())
    counts = [len(counts_from_matrix(dmat, eps)[0]) for eps in (0.1, 0.2, 0.4, 0.8)]
    assert counts == sorted(counts, reverse=True)


class TestMetricSpecs:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=9999))
    def test_euclidean_axioms(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((6, 3))
        d = distance_matrix(pts, pts, MetricSpec.euclidean())
        assert np.allclose(d, d.T)
        assert np.allclose(np.diag(d), 0.0)
        for i, j, k in combinations(range(6), 3):
            assert d[i, k] <= d[i, j] + d[j, k] + 1e-9

    def test_max_product_is_blockwise_max(self):
        rng = np.random.default_rng(5)
        pts = rng.random((7, 6))
        spec = MetricSpec.max_product(3)
        d = distance_matrix(pts, pts, spec)
        blocks = pts.reshape(7, 3, 2)
        want = np.zeros((7, 7))
        for b in range(3):
            db = np.linalg.norm(blocks[:, None, b] - blocks[None, :, b], axis=-1)
            want = np.maximum(want, db)
        assert np.allclose(d, want)

    def test_sequence_rho_is_weighted_sum(self):
        rng = np.random.default_rng(6)
        pts = rng.random((5, 8))
        spec = MetricSpec.sequence_rho(2.0, truncation=4)
        d = distance_matrix(pts, pts, spec)
        blocks = pts.reshape(5, 4, 2)
        want = np.zeros((5, 5))
        for b in range(4):
            db = np.linalg.norm(blocks[:, None, b] - blocks[None, :, b], axis=-1)
            want += db / 2.0 ** b
        assert np.allclose(d, want)

    def test_pairwise_matches_matrix(self):
        rng = np.random.default_rng(11)
        pts = rng.random((4, 2))
        spec = MetricSpec.euclidean()
        d = distance_matrix(pts, pts, spec)
        assert math.isclose(pairwise_dist(pts[0], pts[3], spec), d[0, 3])


class TestPointCloud:
    def test_duplicates_collapse(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        assert PointCloud(pts, 0.1).size == 2

    def test_first_occurrence_wins(self):
        pts = np.array([[0.5, 0.5], [0.5, 0.5], [0.0, 0.0]])
        cloud = PointCloud(pts, 0.1)
        assert np.allclose(cloud.points[0], [0.5, 0.5])

    def test_empty_rejected(self):
        with pytest.raises(EmptyCloudError):
            PointCloud(np.empty((0, 2)), 0.1)

    def test_3d_array_rejected(self):
        with pytest.raises(ShapeError):
            PointCloud(np.zeros((2, 2, 2)), 0.1)

    def test_1d_is_single_point(self):
        assert PointCloud(np.zeros(5), 0.1).points.shape == (1, 5)

    def test_subset(self):
        cloud = PointCloud(np.arange(10, dtype=float)[:, None], 0.1)
        sub = cloud.subset(np.array([1, 3]), "sub")
        assert sub.size == 2 and sub.label == "sub"

    def test_diameter(self):
        cloud = PointCloud(np.array([[0.0, 0.0], [3.0, 4.0]]), 0.1)
        assert math.isclose(cloud_diameter(cloud), 5.0)


class TestExactCap:
    def test_subsample_check_over_cap(self, rng):
        """The check needs exact counts, so it refuses a cloud above the cap
        rather than fall back to greedy ones."""
        cloud = PointCloud(rng.random((EXACT_CAP + 1, 2)), 0.01)
        with pytest.raises(TooLargeError):
            subsample_count_check(cloud, MetricSpec.euclidean(), 0.5, keep_fraction=0.7, seed=0)

    def test_greedy_has_no_cap(self, rng):
        pts = rng.random((EXACT_CAP + 20, 2))
        res, _ = counts_from_matrix(distance_matrix(pts, pts, MetricSpec.euclidean()), 0.1)
        assert CountTable((), len(pts)).mode == "greedy"
        assert len(res) >= 1


class TestDenseSubsample:
    def test_deterministic(self, rng):
        cloud = PointCloud(rng.random((40, 2)), 0.01)
        a = dense_subsample(cloud, 0.5, seed=3)
        b = dense_subsample(cloud, 0.5, seed=3)
        assert np.array_equal(a.points, b.points)

    def test_size(self, rng):
        cloud = PointCloud(rng.random((40, 2)), 0.01)
        assert dense_subsample(cloud, 0.25, seed=0).size == 10

    def test_mesh_claim_includes_covering_radius(self, rng):
        cloud = PointCloud(rng.random((40, 2)), 0.01)
        sub = dense_subsample(cloud, 0.25, seed=1)
        radius = distance_matrix(cloud.points, sub.points, MetricSpec.euclidean()).min(axis=1).max()
        assert math.isclose(sub.mesh, 0.01 + radius)

    def test_covering_radius(self):
        pts = np.array([[0.0], [1.0], [3.0]])
        assert covering_radius(pts, pts[:1]) == 3.0
        assert covering_radius(pts, pts[1:]) == 1.0
        assert covering_radius(pts, pts) == 0.0

    def test_keep_all_is_identity(self, rng):
        cloud = PointCloud(rng.random((10, 2)), 0.01)
        assert dense_subsample(cloud, 1.0, seed=0) is cloud


class TestSubsampleCheck:
    def test_passes_on_random_cloud(self, rng):
        cloud = PointCloud(rng.random((18, 2)), 0.05)
        spec = MetricSpec.euclidean()
        rep = subsample_count_check(cloud, spec, eps=0.9, keep_fraction=0.6, seed=2)
        assert rep.passed
        assert rep.sep_sub >= rep.sep_parent or rep.eps_sep < rep.eps
        assert rep.span_sub <= rep.span_parent + 1e-9

    def test_too_sparse_scale_rejected(self, rng):
        from entro import ConfigError

        cloud = PointCloud(rng.random((18, 2)), 0.05)
        spec = MetricSpec.euclidean()
        with pytest.raises(ConfigError):
            subsample_count_check(cloud, spec, eps=0.01, keep_fraction=0.3, seed=2)
