"""Counting-engine tests against exhaustive oracles.

The oracles enumerate subsets directly, so they are independent of the
branch-and-bound and greedy code paths they certify.
"""

import heapq
import itertools
import math
import multiprocessing
import os
import sys
import threading
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist

from entro import (
    EXACT_CAP,
    ConfigError,
    EmptyCloudError,
    MeshError,
    MetricSpec,
    PointCloud,
    ShapeError,
    TooLargeError,
    counts_from_matrix,
    dense_subsample,
    distance_matrix,
    pairwise_dist,
    subsample_count_check,
)
from entro import metric_core, orbit_space
from entro.dynamics import DynSystem, bd_count_table, build_orbit_table, inverse_transport_check
from entro.gallery import build_doubling, build_interval_homeo
from entro.metric_core import (
    CARRY_DENSITY,
    TILE_ROWS,
    CountRow,
    CountTable,
    _count_table,
    _farthest_points,
    _flat_below,
    _flat_dtype,
    _greedy_cover,
    _greedy_separated,
    _mask_cover,
    _orbit_stream as _lifted_matrices,
    _packed_below,
    _packed_flat,
    _row_lists,
    covering_radius,
    farthest_point_order,
    last_orbit_matrix,
    orbit_metric_matrices,
)
from entro.orbit_space import friedland_count_table, semiconj_check


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


def eps_lists(dmat: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Row lists ``(ptr, cols)`` of the entries ``dmat < eps``, from one dense threshold."""
    return _row_lists(np.flatnonzero(dmat < eps), len(dmat))


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
        order = farthest_point_order(dists, dists.mean(axis=1))
        greedy = _greedy_separated(*eps_lists(dists, 0.25), order)
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
    """Greedy counts over eps-balls, held as row lists or as a packed mask,
    equal the dense-row scans."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", ["symmetric", "integer"])
    def test_counts_and_witnesses(self, kind, seed):
        dmat = oracle_matrix(kind, seed)
        off = dmat[dmat > 0]
        lo = off.min() if off.size else 1.0
        # from every ball a singleton (lo / 2, unless two points coincide) to one ball
        scales = [lo / 2, lo, 0.3, 1.0, 2.0, 3.0, 2 * dmat.max() + 1]
        order = farthest_point_order(dmat, dmat.mean(axis=1))
        for eps in scales:
            lists = eps_lists(dmat, eps)
            packed = _packed_below(dmat, eps)
            want_sep = dense_greedy_separated(dmat, order, eps)
            want_span = dense_greedy_cover(dmat, eps)
            assert _greedy_separated(*lists, order) == _greedy_separated(*packed, order) == want_sep
            # the cover itself, even where the separated witness is smaller
            assert _greedy_cover(*lists) == _mask_cover(*packed) == want_span
            got = counts_from_matrix(dmat, eps, order=order)  # from the mask it builds
            assert counts_from_matrix(dmat, eps, order=order, neighbours=lists) == got
            if len(dmat) > EXACT_CAP:
                if len(want_span) > len(want_sep):
                    want_span = want_sep
                assert got == (want_sep, want_span)
        if off.size == dmat.size - len(dmat):  # every ball a singleton at lo / 2
            assert _mask_cover(*_packed_below(dmat, lo / 2)) == list(range(len(dmat)))

    @pytest.mark.parametrize("size, mode", [(30, "greedy"), (10, "exact")])
    def test_point_outside_its_own_ball_is_refused(self, size, mode):
        """Both counting paths refuse the matrix; the cloud size picks the path."""
        dmat = np.random.default_rng(size).random((size, size))
        dmat += dmat.T
        with pytest.raises(ConfigError, match="diagonal"):
            counts_from_matrix(dmat, 1e-9)
        np.fill_diagonal(dmat, 0.0)
        counts_from_matrix(dmat, 1e-9)
        assert CountTable((), size).mode == mode

    def test_gain_one_step_starts_partway(self):
        """Two tight clusters are picked one by one, then the isolated points at once."""
        rng = np.random.default_rng(4)
        grid = np.array([(5.0 + i, float(j)) for i in range(10) for j in range(5)])
        pts = np.vstack([rng.random((30, 2)) * 0.1, 3 + rng.random((20, 2)) * 0.1, grid])
        dmat = distance_matrix(pts, pts, MetricSpec.euclidean())
        ptr, cols = eps_lists(dmat, 0.2)
        got = _greedy_cover(ptr, cols)
        assert got == dense_greedy_cover(dmat, 0.2) == [0, 30] + list(range(50, 100))

    def test_mismatched_inward_lists_refused(self):
        """Lists of an asymmetric matrix passed as ``neighbours`` are refused:
        point 0's ball holds 1 and 2, but theirs do not hold 0."""
        dmat = np.array([[0.0, 1.0, 1.0], [5.0, 0.0, 5.0], [5.0, 5.0, 0.0]])
        lists = eps_lists(dmat, 2.0)
        with pytest.raises(ConfigError, match="not those of a symmetric matrix"):
            _greedy_cover(*lists)
        with pytest.raises(ConfigError, match="not those of a symmetric matrix"):
            counts_from_matrix(dmat, 2.0, neighbours=lists)
        with pytest.raises(ConfigError, match="not those of a symmetric matrix"):
            _mask_cover(*_packed_below(dmat, 2.0))
        with pytest.raises(ConfigError, match="not those of a symmetric matrix"):
            counts_from_matrix(dmat, 2.0, neighbours=_packed_below(dmat, 2.0))

    def test_asymmetric_mask_refused_at_the_last_step(self):
        """Point 1's ball holds 2 and point 2's holds 0, but neither back: the
        one pick (ball 1) matches its gain, and the last step takes ball 0,
        whose gain the pick lowered to 0.  On a greedy-size matrix the mask
        and the lists both refuse it."""
        dmat = np.full((30, 30), 5.0)
        np.fill_diagonal(dmat, 0.0)
        dmat[1, 2] = dmat[2, 0] = 1.0
        for balls in (_packed_below(dmat, 2.0), eps_lists(dmat, 2.0)):
            with pytest.raises(ConfigError, match="not those of a symmetric matrix"):
                counts_from_matrix(dmat, 2.0, neighbours=balls)

    def test_matrix_that_is_no_distance_is_refused(self):
        """Only a square, symmetric, NaN-free matrix is counted, on the greedy
        path (102 points) and the exact one (3 points) alike, and only a
        packed uint8 mask of N x ceil(N/8) bytes is read as its eps-balls."""
        dmat = oracle_matrix("symmetric", 0)
        ptr, bits = _packed_below(dmat, 0.3)
        want = counts_from_matrix(dmat, 0.3)
        assert counts_from_matrix(dmat, 0.3, neighbours=(ptr, bits)) == want
        mask = dmat < 0.3
        for bad in (bits.astype(bool), bits.astype(np.int64), bits.astype(float),
                    bits.view(np.int8), bits[:-1], bits[:, :-1], np.pad(bits, ((0, 0), (0, 1))),
                    mask, mask.view(np.uint8)):
            with pytest.raises(ConfigError, match="is not a packed uint8 array of shape"):
                counts_from_matrix(dmat, 0.3, neighbours=(ptr, bad))
        for bare in (bits, mask):  # the balls without their sizes
            with pytest.raises(ConfigError, match="must be a pair"):
                counts_from_matrix(dmat, 0.3, neighbours=bare)
        skew = dmat.copy()
        skew[0, 1] += 0.1
        nan = dmat.copy()
        nan[0, 1] = nan[1, 0] = np.nan
        for bad in (skew, nan, np.array([[0.0, 1.0, 1.0], [5.0, 0.0, 5.0], [5.0, 5.0, 0.0]])):
            with pytest.raises(ConfigError, match="not symmetric"):
                counts_from_matrix(bad, 2.0)
        for shape in ((3, 5), (30, 40), (40, 30)):
            with pytest.raises(ConfigError, match="not square"):
                counts_from_matrix(np.zeros(shape), 0.3)

    def test_scale_extremes(self):
        dmat = oracle_matrix("symmetric", 11)
        order = farthest_point_order(dmat, dmat.mean(axis=1))
        lists = eps_lists(dmat, 1e-9)
        assert len(_greedy_separated(*lists, order)) == len(_greedy_cover(*lists)) == len(dmat)
        lists = eps_lists(dmat, 2 * dmat.max() + 1)
        assert len(_greedy_separated(*lists, order)) == len(_greedy_cover(*lists)) == 1

    @pytest.mark.parametrize("eps", [math.inf, math.nan, 0.0, -1.0, True])
    def test_scale_takes_the_table_rule(self, eps):
        """A cell's scale is a finite number > 0, as every scale of a table:
        at eps = inf one ball holds the cloud, and the checks counted from
        one cell would pass with nothing checked."""
        dmat = oracle_matrix("symmetric", 0)
        with pytest.raises(ConfigError, match="eps values must be > 0 and finite|not a number"):
            counts_from_matrix(dmat, eps)
        small = PointCloud(np.random.default_rng(1).random((12, 2)), 0.05)
        bundle = build_interval_homeo()
        checks = [
            lambda: subsample_count_check(small, dense_subsample(small, 0.5, 0),
                                          MetricSpec.euclidean(), eps),
            lambda: semiconj_check(bundle.system, bundle.system, lambda p: p,
                                   bundle.cloud.subset(range(12)), eps, 3),
            lambda: inverse_transport_check(bundle.system, bundle.cloud.subset(range(12)),
                                            MetricSpec.euclidean(), eps, 3),
        ]
        for check in checks:
            with pytest.raises(ConfigError):
                check()


def dense_recount(matrices, eps_list: list[float]) -> list[tuple]:
    """Every cell counted on its own from the whole matrix, in ``_count_table``'s row order."""
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
def cell_balls(monkeypatch):
    """Records how ``_count_table`` held each cell's balls when it counted the
    cell: "mask" (the packed mask ``dmat < eps``) or "carried" (row lists
    tested from a carried list).  A cell whose balls all hold only their
    centre counts N without ``counts_from_matrix`` and is not recorded."""
    seen: list[str] = []
    counts = metric_core.counts_from_matrix

    def counts_spy(dmat, eps, order=None, neighbours=None):
        seen.append("mask" if neighbours[1].ndim == 2 else "carried")
        return counts(dmat, eps, order=order, neighbours=neighbours)

    monkeypatch.setattr(metric_core, "counts_from_matrix", counts_spy)
    return seen


class TestCarriedNeighbourLists:
    """Lists carried across scales and orders are the lists of a dense threshold."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", ["symmetric", "asymmetric", "integer"])
    def test_restricted_lists_equal_dense_lists(self, kind, seed):
        dmat = oracle_matrix(kind, seed)
        scales = sorted({0.05, 0.3, 1.0, 2.0, float(dmat.max()) + 1})
        for i, eps in enumerate(scales):
            want_ptr, want_cols = eps_lists(dmat, eps)
            for wider in scales[i:]:
                within = np.flatnonzero(dmat < wider)
                ptr, cols = _row_lists(_flat_below(dmat, eps, within), len(dmat))
                assert np.array_equal(ptr, want_ptr)
                assert np.array_equal(cols, want_cols)
                assert np.array_equal(within, np.flatnonzero(dmat < wider))

    def test_row_lists_leave_their_input(self):
        """Row lists come back as new intp columns, from int32 or intp flat
        indices alike, and the flat indices stay as they were."""
        dmat = oracle_matrix("symmetric", 1)
        want_ptr, want_cols = eps_lists(dmat, 0.3)
        for dtype in (np.int32, np.intp):
            flat = np.flatnonzero(dmat < 0.3).astype(dtype)
            kept = flat.copy()
            ptr, cols = _row_lists(flat, len(dmat))
            assert np.array_equal(flat, kept) and flat.dtype == dtype
            assert cols.dtype == ptr.dtype == np.intp
            assert not np.shares_memory(cols, flat)
            assert np.array_equal(ptr, want_ptr) and np.array_equal(cols, want_cols)

    def test_flat_dtype_switches_at_two_to_the_31(self):
        """Flat indices are int32 while N(N + 1) < 2**31 and intp from there on."""
        last = (math.isqrt(4 * 2**31 + 1) - 1) // 2  # the root of N(N + 1) = 2**31, rounded down
        assert last * (last + 1) < 2**31 <= (last + 1) * (last + 2)
        assert _flat_dtype(1) == _flat_dtype(last) == np.int32
        assert _flat_dtype(last + 1) == _flat_dtype(10**6) == np.intp

    def test_carried_phase_holds_four_bytes_a_pair(self, cell_balls):
        """A stream that turns sparse at order 1 carries its largest scale's
        pairs as int32 flat indices with no copy: beyond its matrices the
        table allocates at most 4 bytes per carried pair, plus 8 bytes per
        pair of one cell (its intp row lists), plus O(N * TILE_ROWS)."""
        rng = np.random.default_rng(5)
        size = 2000
        orbits = np.empty((size, 2, 2))
        orbits[:, 0] = rng.random((size, 2))
        orbits[:, 1] = orbits[:, 0] + rng.normal(scale=0.01, size=(size, 2))
        stream = [(n, d.copy(), s.copy())
                  for n, d, s in orbit_metric_matrices(orbits, MetricSpec.euclidean())]
        eps_list = [0.1, 0.14, 0.05]
        pairs = [np.count_nonzero(d < e) for _, d, _ in stream for e in eps_list]
        carried = np.count_nonzero(stream[0][1] < max(eps_list))
        assert carried <= CARRY_DENSITY * size * size and carried == max(pairs)
        tracemalloc.start()
        try:
            table = _count_table(iter(stream), eps_list, size, 2, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cell_balls == ["mask"] + ["carried"] * 5
        assert peak <= 4 * carried + 8 * max(pairs) + 4 * size * TILE_ROWS
        assert row_tuples(table) == dense_recount(iter(stream), eps_list)

    @pytest.mark.parametrize(
        "spread, kinds",
        # order 1 is one tight cluster, later orders spread the points out:
        # the largest scale holds 100 %, 32 %, 10 % and 3.6 % of the pairs,
        # and is carried from order 4, where every smaller scale's balls are
        # singletons (so are 0.1's and 0.05's at order 3)
        [((0.05, 4.0, 4.0, 4.0), ["mask"] * 14),
         # every order stays within the largest scale everywhere; 0.05's
         # balls are singletons from order 3 on, 0.1's at order 4
         ((1.0, 1.0, 1.0, 1.0), ["mask"] * 17),
         # 2 % of the pairs at order 1, so only the first cell counts from the
         # mask; 0.05's balls are singletons there, every smaller scale's at
         # order 2, and from order 3 on only the diagonal is left, where the
         # table stops
         ((20.0, 20.0, 20.0, 20.0), ["mask"] + ["carried"] * 4)],
        ids=["sparse-after-order-1", "dense", "sparse-from-order-1"],
    )
    def test_table_equals_dense_recount(self, spread, kinds, cell_balls):
        rng = np.random.default_rng(3)
        orbits = rng.random((200, len(spread), 2)) * np.array(spread)[None, :, None]
        spec = MetricSpec.euclidean()
        # the largest scale in the middle, and one scale twice
        eps_list = [0.1, 0.2, 1.5, 0.05, 0.2]
        depth = len(spread)
        table = _count_table(orbit_metric_matrices(orbits, spec), eps_list, len(orbits), depth,
                             depth)
        assert cell_balls == kinds
        assert row_tuples(table) == dense_recount(orbit_metric_matrices(orbits, spec), eps_list)

    @pytest.mark.parametrize(
        "eps_list, kinds",
        # 0.5's and 1.0's balls are singletons at order 3
        [([0.5, 3.0, 1.0], ["mask"] * 7),
         # 0.85 holds 36 of the 576 entries at order 2, so it is carried from
         # there; 0.3's balls are singletons at order 2, and order 3 holds
         # only the diagonal, where the table stops
         ([0.5, 0.85, 0.3], ["mask"] * 4 + ["carried"])],
        ids=["dense", "sparse-at-order-2"],
    )
    def test_exact_table_follows_the_carry_rule(self, eps_list, kinds, cell_balls):
        """An exact-size table holds its balls as a greedy one does, and
        counts exactly from either store."""
        orbits = np.random.default_rng(2).random((EXACT_CAP, 3, 2)) * 4.0
        table = _count_table(orbit_metric_matrices(orbits, MetricSpec.euclidean()), eps_list,
                             EXACT_CAP, 3, 3)
        assert table.mode == "exact"
        assert cell_balls == kinds
        assert row_tuples(table) == dense_recount(
            orbit_metric_matrices(orbits, MetricSpec.euclidean()), eps_list
        )

    def test_lifted_table_equals_dense_recount(self, cell_balls):
        system = build_doubling(grid=256).system
        theta = np.arange(256) * (2.0 * math.pi / 256)
        cloud = PointCloud(np.column_stack([np.cos(theta), np.sin(theta)]), 0.05)
        eps_list, n_max, rho = [0.4, 0.8, 0.2, 0.1], 4, 4.0
        table = friedland_count_table(system, cloud, eps_list, n_max, rho=rho)
        m = table.truncation
        assert "carried" in cell_balls
        orbits = build_orbit_table(system, cloud, m + n_max - 1).orbits
        want = dense_recount(_lifted_matrices(orbits, rho, m), eps_list)
        assert row_tuples(table) == want
        assert table.mode == "greedy"


def spread_at(size: int, depth: int, at: int) -> np.ndarray:
    """Orbits in one tight cluster except slice ``at - 1``, which spaces the
    points 1 apart on a line: from order ``at`` on every pair is >= 1 apart."""
    orbits = np.random.default_rng(size).random((size, depth, 2)) * 0.3
    orbits[:, at - 1, 0] = np.arange(size)
    return orbits


def pulled(stream, log: list):
    """``stream``, logging the n of each order it yields, then "closed"."""
    try:
        for item in stream:
            log.append(item[0])
            yield item
    finally:
        log.append("closed")


class TestSaturatedTables:
    """Once every pair is the largest scale apart, later rows are the cloud
    size, and the stream is neither pulled further nor kept open."""

    eps_list = [0.1, 0.5, 0.05]
    spec = MetricSpec.euclidean()

    @pytest.mark.parametrize("size", [60, EXACT_CAP // 2], ids=["greedy", "exact"])
    def test_stops_at_the_saturating_order(self, size):
        orbits = spread_at(size, 5, 2)
        log: list = []
        stream = pulled(orbit_metric_matrices(orbits, self.spec), log)
        table = _count_table(stream, self.eps_list, size, 5, 5)
        assert log == [1, 2, "closed"]  # ``stream`` is still referenced, so _count_table closed it
        assert table.mode == ("greedy" if size > EXACT_CAP else "exact")
        assert row_tuples(table) == dense_recount(
            orbit_metric_matrices(orbits, self.spec), self.eps_list
        )
        assert [r.n for r in table.rows if r.sep_count == r.span_count == size] == [2, 3, 4, 5] * 3
        # a plain iterator, which has nothing to close, gives the same table
        kept = [(n, d.copy(), s.copy()) for n, d, s in orbit_metric_matrices(orbits, self.spec)]
        assert _count_table(iter(kept), self.eps_list, size, 5, 5) == table

    def test_truncated_direct_table(self):
        """Saturated at n = 4, escaped at step 5: rows up to the escape, same ``truncated_at``."""
        system = DynSystem("times4", 1, lambda x: 4.0 * x, lambda x: np.abs(x[:, 0]) < 1000.0)
        cloud = PointCloud(np.arange(50)[:, None] * 0.02, 0.01)
        table = bd_count_table(system, cloud, self.spec, self.eps_list, 8)
        orbits = build_orbit_table(system, cloud, 8, allow_truncation=True).orbits
        assert orbits.shape[1] == table.truncated_at == 5
        assert len(table.rows) == len(self.eps_list) * 5
        assert row_tuples(table) == dense_recount(
            orbit_metric_matrices(orbits, self.spec), self.eps_list
        )
        assert dict(table.counts_for(0.5))[4] == cloud.size
        assert dict(table.counts_for(0.5))[3] < cloud.size

    def test_short_or_long_stream_refused(self):
        orbits = spread_at(40, 3, 3)[:, :2]  # never saturates
        with pytest.raises(ConfigError, match="stopped at n = 2, not at orders = 4"):
            _count_table(orbit_metric_matrices(orbits, self.spec), self.eps_list, 40, 4, 4)
        with pytest.raises(ConfigError, match="stopped at n = 2, not at orders = 1"):
            _count_table(orbit_metric_matrices(orbits, self.spec), self.eps_list, 40, 1, 1)

    def test_lifted_table(self, monkeypatch):
        system = build_doubling(grid=64).system
        theta = np.arange(64) * (2.0 * math.pi / 64)
        cloud = PointCloud(np.column_stack([np.cos(theta), np.sin(theta)]), 0.05)
        n_max, rho = 8, 4.0
        log: list = []
        streams = []
        lifted = orbit_space._orbit_stream

        def spy(*args):
            streams.append(pulled(lifted(*args), log))
            return streams[-1]

        monkeypatch.setattr(orbit_space, "_orbit_stream", spy)
        table = friedland_count_table(system, cloud, self.eps_list, n_max, rho=rho)
        m = table.truncation
        assert log[-1] == "closed"
        assert log[:-1] == list(range(1, len(log))) and len(log) - 1 < n_max
        orbits = build_orbit_table(system, cloud, m + n_max - 1).orbits
        want = dense_recount(lifted(orbits, rho, m), self.eps_list)
        assert row_tuples(table) == want


def reference_farthest_order(dmat: np.ndarray, seed_dists: np.ndarray) -> list[int]:
    """Farthest-point order by plain Python: at each step the first unordered
    index whose seed distance and distances to the ordered points have the
    largest minimum."""
    size = len(dmat)
    order: list[int] = []
    for _ in range(size):
        rest = [j for j in range(size) if j not in order]
        reach = [min([float(seed_dists[j])] + [float(dmat[c, j]) for c in order]) for j in rest]
        order.append(rest[reach.index(max(reach))])
    return order


def full_scan_stop(dmat: np.ndarray, order: list[int], eps: float) -> int:
    """How many entries of ``order`` a full dense scan reads until every point
    lies in the ball of a pick, or all of them if that never happens first."""
    blocked = np.zeros(len(dmat), dtype=bool)
    for k, i in enumerate(order, 1):
        if not blocked[i]:
            blocked |= dmat[i] < eps
            if blocked.all():
                return k
    return len(order)


class TestLazyFarthestWalk:
    """The farthest-point walk is pulled one step at a time, and the scans
    read it only until every point is blocked."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=0, max_value=10_000),
        st.booleans(),
    )
    def test_every_prefix_is_the_eager_order(self, size, seed, integer):
        """Integer-valued matrices and seeds tie often; ties go to the lowest index."""
        rng = np.random.default_rng(seed)
        pts = rng.random((size, 2))
        dmat = distance_matrix(pts, pts, MetricSpec.euclidean())
        seed_dists = np.linalg.norm(pts - pts.mean(axis=0), axis=1)
        if integer:
            dmat, seed_dists = np.floor(dmat * 3), np.floor(seed_dists * 3)
        order = farthest_point_order(dmat, seed_dists)
        assert order.dtype == np.intp
        assert order.tolist() == reference_farthest_order(dmat, seed_dists)
        for k in range(size + 1):
            assert list(itertools.islice(_farthest_points(dmat, seed_dists), k)) == order[:k].tolist()
        assert list(_farthest_points(dmat, seed_dists)) == order.tolist()
        # the scan over either store reads a prefix of the walk and keeps the
        # witness of a dense scan of the whole order
        eps = float(np.median(dmat)) + 0.5
        want = dense_greedy_separated(dmat, order, eps)
        for balls in (_packed_below(dmat, eps), eps_lists(dmat, eps)):
            assert _greedy_separated(*balls, _farthest_points(dmat, seed_dists)) == want

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", ["symmetric", "integer"])
    def test_early_stop_keeps_the_full_scan_witness(self, kind, seed):
        """Mask and list scans give the witness of a full dense scan and read
        the order only up to the entry after which every point is blocked:
        all of it where every ball is a singleton, one entry where one ball
        holds the cloud."""
        dmat = oracle_matrix(kind, seed)
        off = dmat[~np.eye(len(dmat), dtype=bool)]
        lo = off.min() if off.size else 1.0
        order = farthest_point_order(dmat, dmat.mean(axis=1)).tolist()
        for eps in [lo / 2, lo, 0.3, 1.0, 2.0, 3.0, 2 * dmat.max() + 1]:
            want = dense_greedy_separated(dmat, np.array(order), eps)
            stop = full_scan_stop(dmat, order, eps)
            if eps == lo / 2 and lo > 0:
                assert want == order and stop == len(dmat)
            if eps > dmat.max():
                assert want == order[:1] and stop == 1
            for balls in (_packed_below(dmat, eps), eps_lists(dmat, eps)):
                it = iter(order)
                assert _greedy_separated(*balls, it) == want
                assert len(dmat) - len(list(it)) == stop

    def test_two_clusters_take_two_steps_per_order(self, monkeypatch, cell_balls):
        """Two tight clusters far apart: at both scales the first pick blocks
        its cluster and the second the other, so each order's walk makes
        exactly two steps, shared by both scales' scans."""
        steps: list[int] = []
        walk = metric_core._farthest_points

        def spy(dmat, seed_dists):
            steps.append(0)
            for i in walk(dmat, seed_dists):
                steps[-1] += 1
                yield i

        monkeypatch.setattr(metric_core, "_farthest_points", spy)
        rng = np.random.default_rng(6)
        orbits = rng.random((60, 2, 2)) * 0.1
        orbits[30:] += 5.0
        eps_list = [1.0, 2.0]
        table = _count_table(orbit_metric_matrices(orbits, MetricSpec.euclidean()), eps_list,
                             60, 2, 2)
        assert steps == [2, 2]
        assert cell_balls == ["mask"] * 4
        assert [(r.sep_count, r.span_count) for r in table.rows] == [(2, 2)] * 4
        monkeypatch.undo()
        assert row_tuples(table) == dense_recount(
            orbit_metric_matrices(orbits, MetricSpec.euclidean()), eps_list
        )

    def test_order_that_is_no_permutation_is_refused(self):
        """An order passed as an array or a list must hold every index once:
        a scan over points 0 and 1 alone would report (2, 2) here, a separated
        set that does not span taken as the spanning witness."""
        rng = np.random.default_rng(0)
        pts = rng.random((100, 2))
        dmat = distance_matrix(pts, pts, MetricSpec.euclidean())
        order = farthest_point_order(dmat, dmat.mean(axis=1))
        want = counts_from_matrix(dmat, 0.1)
        assert counts_from_matrix(dmat, 0.1, order=order) == want
        assert counts_from_matrix(dmat, 0.1, order=order.tolist()) == want
        assert counts_from_matrix(dmat, 0.1, order=iter(order.tolist())) == want
        assert all(type(i) is int for witness in want for i in witness)
        assert (len(want[0]), len(want[1])) == (41, 38)
        for bad in (np.array([0, 1]), np.array([500]), [0, 1], order[::-1] % 99,
                    order.astype(float), order[None, :], np.where(order == 0, -1, order)):
            with pytest.raises(ConfigError, match="not a permutation of the 100 point indices"):
                counts_from_matrix(dmat, 0.1, order=bad)


class TestBandedThreshold:
    """Balls read in bands of ``TILE_ROWS`` rows, and packed eight to a byte,
    equal one threshold of the whole matrix, at sizes on either side of a
    byte and of a band."""

    @pytest.mark.parametrize("size", [1, 7, 8, 9, TILE_ROWS - 1, TILE_ROWS, TILE_ROWS + 1, 200])
    def test_equals_flatnonzero(self, size):
        """The packed mask and its ball sizes are those of ``dmat < eps``; the
        flat indices a table carries, from the packed mask or from a wider
        carried list, are those of ``np.flatnonzero(dmat < eps)``; and the
        packed mask gives the witnesses of the lists and of the dense scans."""
        rng = np.random.default_rng(size)
        pts = rng.random((size, 2))
        dmat = distance_matrix(pts, pts, MetricSpec.euclidean())
        order = farthest_point_order(dmat, dmat.mean(axis=1))
        off_diagonal = dmat[~np.eye(size, dtype=bool)]
        # below every off-diagonal entry, a middle scale, above every entry
        scales = [off_diagonal.min() if size > 1 else 1.0, 0.3, float(dmat.max()) + 1]
        for eps in scales:
            want = np.flatnonzero(dmat < eps)
            ptr, bits = _packed_below(dmat, eps)
            assert np.array_equal(bits, np.packbits(dmat < eps, axis=1, bitorder="little"))
            assert np.array_equal(np.diff(ptr), np.count_nonzero(dmat < eps, axis=1))
            assert ptr[0] == 0 and ptr.dtype == np.intp
            got = _packed_flat(ptr, bits)
            assert got.dtype == _flat_dtype(size)
            assert np.array_equal(got, want)
            for wider in scales:
                if wider >= eps:
                    within = np.flatnonzero(dmat < wider)
                    got = _flat_below(dmat, eps, within)
                    assert got.dtype == np.int64
                    assert np.array_equal(got, want)
                    # a carried list keeps its dtype
                    got = _flat_below(dmat, eps, within.astype(_flat_dtype(size)))
                    assert got.dtype == _flat_dtype(size)
                    assert np.array_equal(got, want)
            lists = eps_lists(dmat, eps)
            want_sep = dense_greedy_separated(dmat, order, eps)
            assert _greedy_separated(ptr, bits, order) == _greedy_separated(*lists, order) == want_sep
            assert _mask_cover(ptr, bits) == _greedy_cover(*lists) == dense_greedy_cover(dmat, eps)
            assert (counts_from_matrix(dmat, eps, order=order, neighbours=(ptr, bits))
                    == counts_from_matrix(dmat, eps, order=order, neighbours=lists))

    def test_dense_cells_hold_no_square_temporary(self, cell_balls):
        """A single-order stream too dense to carry counts every cell from one
        reused packed mask: beyond its matrix the table allocates at most
        N^2 / 8 bytes plus O(N * TILE_ROWS), so no boolean N x N mask, no
        int64 list of the pairs below eps and no second square array.  The
        largest scale holds 11 % of the pairs, then all of them."""
        rng = np.random.default_rng(5)
        size = 2000
        pts = rng.random((size, 2))
        dmat = distance_matrix(pts, pts, MetricSpec.euclidean())
        seed = np.linalg.norm(pts - pts.mean(axis=0), axis=1)
        for eps_list in ([0.1, 0.2, 0.05], [3.0, 0.2, 0.05]):
            assert np.count_nonzero(dmat < max(eps_list)) > CARRY_DENSITY * dmat.size
            cell_balls.clear()
            tracemalloc.start()
            try:
                table = _count_table(iter([(1, dmat, seed)]), eps_list, size, 1, 1)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert cell_balls == ["mask"] * len(eps_list)
            assert peak <= size * size // 8 + 4 * size * TILE_ROWS
            assert row_tuples(table) == dense_recount(iter([(1, dmat, seed)]), eps_list)


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

    def test_stream_holds_two_tiles_beyond_its_matrix(self):
        """Pulled to its end, the direct stream (a window of one iterate)
        allocates its running max and, beyond it, at most two distance tiles
        of ``TILE_ROWS`` rows and O(N): no weighted sum S.  A first pull,
        not traced, makes the thread pool the bands of a matrix this size
        may run on."""
        size = 2000
        orbits = np.random.default_rng(size).normal(size=(size, 3, 2))
        copied_stream(orbit_metric_matrices(orbits[:, :1], MetricSpec.euclidean()))
        tracemalloc.start()
        try:
            orders = [n for n, _, _ in orbit_metric_matrices(orbits, MetricSpec.euclidean())]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert orders == [1, 2, 3]
        assert peak <= 8 * size * size + 2 * 8 * TILE_ROWS * size + 64 * size

    def test_last_matrix_of_zero_depth_is_refused(self):
        with pytest.raises(ConfigError, match="orbit depth must be >= 1"):
            last_orbit_matrix(np.zeros((5, 0, 2)), MetricSpec.euclidean())


def threaded_and_serial(monkeypatch, workers: int, compute):
    """``compute()`` with its bands on ``workers`` threads, and in the calling
    thread, both with no size floor."""
    monkeypatch.setattr(metric_core, "PARALLEL_FLOOR", 0)
    monkeypatch.setattr(metric_core, "WORKERS", 1)
    serial = compute()
    monkeypatch.setattr(metric_core, "WORKERS", workers)
    return compute(), serial


def copied_stream(stream) -> list:
    """Every ``(n, dmat, seed)`` of a matrix stream, copied out of its buffers."""
    return [(n, dmat.copy(), seed.copy()) for n, dmat, seed in stream]


def assert_same_stream(got: list, want: list) -> None:
    assert len(got) == len(want) > 0
    for (n, dmat, seed), (want_n, want_dmat, want_seed) in zip(got, want):
        assert n == want_n
        assert np.array_equal(dmat, want_dmat)
        assert np.array_equal(seed, want_seed)


# With W threads a band has TILE_ROWS // W rows: these sizes straddle the
# bands of 1, 2 and 3 threads.
THREADED_SIZES = [1, 31, 32, 33, TILE_ROWS - 1, TILE_ROWS, TILE_ROWS + 1, 150]


class TestThreadedBands:
    """Bands folded on 1, 2 or 3 threads give the serial results bit for bit."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("size", THREADED_SIZES)
    @pytest.mark.parametrize(
        "spec",
        [MetricSpec.euclidean(), MetricSpec.max_product(2), MetricSpec.sequence_rho(3.0, 2)],
        ids=lambda spec: spec.kind,
    )
    def test_direct_stream(self, monkeypatch, workers, size, spec):
        orbits = np.random.default_rng(size).normal(size=(size, 3, 4))
        got, want = threaded_and_serial(
            monkeypatch, workers, lambda: copied_stream(orbit_metric_matrices(orbits, spec))
        )
        assert_same_stream(got, want)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("size", THREADED_SIZES)
    def test_lifted_stream(self, monkeypatch, workers, size):
        orbits = np.random.default_rng(size).normal(size=(size, 7, 2))
        got, want = threaded_and_serial(
            monkeypatch, workers, lambda: copied_stream(_lifted_matrices(orbits, 3.0, 4))
        )
        assert [n for n, _, _ in got] == [1, 2, 3, 4]
        assert_same_stream(got, want)

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("size", [1, 7, 31, 33, TILE_ROWS + 1, 200])
    def test_thresholds(self, monkeypatch, workers, size):
        """The packed mask, its ball sizes and the tested carried entries."""
        pts = np.random.default_rng(size).random((size, 2))
        dmat = distance_matrix(pts, pts, MetricSpec.euclidean())
        within = np.flatnonzero(dmat < 0.5).astype(_flat_dtype(size))

        def thresholds():
            return (*_packed_below(dmat, 0.3), _flat_below(dmat, 0.3, within))

        got, want = threaded_and_serial(monkeypatch, workers, thresholds)
        for a, b in zip(got, want, strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_more_threads_than_cores_switching_often(self, monkeypatch):
        """A lost or doubled band write would show in S, which every later
        order reads back."""
        orbits = np.random.default_rng(3).normal(size=(150, 9, 2))
        workers = len(os.sched_getaffinity(0)) + 1
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got, want = threaded_and_serial(
                monkeypatch, workers, lambda: copied_stream(_lifted_matrices(orbits, 2.0, 3))
            )
        finally:
            sys.setswitchinterval(interval)
        assert_same_stream(got, want)

    def test_bands_run_on_the_pool_threads(self, monkeypatch):
        monkeypatch.setattr(metric_core, "PARALLEL_FLOOR", 0)
        monkeypatch.setattr(metric_core, "WORKERS", 3)
        distances = metric_core._distances
        threads = set()

        def spy(*args):
            threads.add(threading.current_thread().name)
            return distances(*args)

        monkeypatch.setattr(metric_core, "_distances", spy)
        copied_stream(orbit_metric_matrices(np.zeros((150, 2, 2)), MetricSpec.euclidean()))
        assert threads and all(name.startswith("entro-bands") for name in threads)

    def test_small_matrices_stay_in_the_calling_thread(self, monkeypatch):
        monkeypatch.setattr(metric_core, "WORKERS", 3)
        size = metric_core.PARALLEL_FLOOR - 1
        assert metric_core._row_bands(size) == [metric_core._bands(size)]
        assert len(metric_core._row_bands(size + 1)) == 3

    def test_a_band_error_reaches_the_caller(self, monkeypatch):
        """The caller waits for every thread, then raises the band's error;
        the thread that raised it takes none of its later bands."""
        monkeypatch.setattr(metric_core, "PARALLEL_FLOOR", 0)
        monkeypatch.setattr(metric_core, "WORKERS", 2)
        done = []

        def band(r0, r1):
            if r0 == 32:
                raise ValueError("band at row 32")
            done.append(r0)

        with pytest.raises(ValueError, match="band at row 32"):
            metric_core._on_workers(metric_core._row_bands(200), band)
        assert sorted(done) == [0, 64, 128, 192]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_a_forked_child_makes_its_own_pool(self, monkeypatch):
        """A child forked after the pool was made has none of its threads; its
        bands must not wait for them."""
        monkeypatch.setattr(metric_core, "PARALLEL_FLOOR", 0)
        monkeypatch.setattr(metric_core, "WORKERS", 2)
        want = forked_stream_last()  # makes the pool in this process
        with multiprocessing.get_context("fork").Pool(1) as pool:
            got = pool.apply_async(forked_stream_last).get(timeout=60)
        assert np.array_equal(got, want)

    def test_streams_refuse_non_finite_orbits(self):
        """The tiles skip ``distance_matrix``'s checks, so the streams check
        each slice themselves."""
        orbits = np.random.default_rng(0).normal(size=(40, 6, 2))
        orbits[7, 4, 1] = np.nan
        with pytest.raises(ConfigError, match="non-finite"):
            copied_stream(orbit_metric_matrices(orbits, MetricSpec.euclidean()))
        with pytest.raises(ConfigError, match="non-finite"):
            copied_stream(_lifted_matrices(orbits, 2.0, 2))


def forked_stream_last() -> np.ndarray:
    """The last matrix of a small lifted stream, run from a forked child."""
    orbits = np.random.default_rng(5).normal(size=(150, 6, 2))
    return copied_stream(_lifted_matrices(orbits, 2.0, 3))[-1][1]


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

    @pytest.mark.parametrize(
        "kind, settings",
        [
            ("sequence_rho", {"rho": math.inf}),
            ("sequence_rho", {"rho": math.nan}),
            ("sequence_rho", {"rho": 1.0}),
            ("sequence_rho", {"rho": "3"}),
            ("sequence_rho", {"truncation": True}),
            ("sequence_rho", {"truncation": 2.5}),
            ("sequence_rho", {"truncation": 0}),
            ("max_product", {"arity": True}),
            ("max_product", {"arity": 2.5}),
            ("max_product", {"arity": 0}),
            ("euclidean", {"arity": 5}),
            ("euclidean", {"rho": 3.0}),
            ("euclidean", {"truncation": 2}),
            ("euclidean", {"rho": math.nan}),
            ("max_product", {"arity": 2, "rho": 3.0}),
            ("max_product", {"arity": 2, "truncation": 2}),
            ("sequence_rho", {"arity": 2}),
        ],
    )
    def test_bad_settings_are_refused(self, kind, settings):
        """An infinite rho would drop every block after the first, and a NaN
        one or a fractional block count would fail later with another error.
        A setting the kind does not read is refused unless it is the default:
        ``euclidean`` with arity 5 would compare unequal to ``euclidean()``."""
        with pytest.raises(ConfigError, match=f"config: {kind} "):
            MetricSpec(kind=kind, **settings)

    def test_numpy_settings_are_taken(self):
        spec = MetricSpec.sequence_rho(np.float64(3.0), np.int64(2))
        assert spec.blocks == 2 and MetricSpec.max_product(np.int32(3)).blocks == 3
        # an unread setting equal to its default is taken
        assert MetricSpec(kind="euclidean", rho=np.float64(2.0)) == MetricSpec.euclidean()

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


class TestExactCap:
    def test_subsample_check_over_cap(self, rng):
        """The check needs exact counts, so it refuses a cloud above the cap
        rather than fall back to greedy ones."""
        cloud = PointCloud(rng.random((EXACT_CAP + 1, 2)), 0.01)
        sub = dense_subsample(cloud, 0.7, seed=0)
        with pytest.raises(TooLargeError):
            subsample_count_check(cloud, sub, MetricSpec.euclidean(), 0.5)

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

    def test_covering_radius_in_bands(self, rng):
        """The banded radius equals the full matrix's bit for bit, and a
        subsample of 3000 points holds bands of ``TILE_ROWS`` rows against
        the kept points, not the 3000 x 1500 matrix."""
        pts = rng.random((3 * TILE_ROWS + 1, 2))
        assert covering_radius(pts, pts[::3]) == cdist(pts, pts[::3]).min(axis=1).max()
        cloud = PointCloud(rng.random((3000, 2)), 0.01)
        tracemalloc.start()
        try:
            sub = dense_subsample(cloud, 0.5, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * TILE_ROWS * sub.size + 64 * cloud.size
        assert math.isclose(sub.mesh, 0.01 + covering_radius(cloud.points, sub.points))

    def test_keep_all_is_identity(self, rng):
        cloud = PointCloud(rng.random((10, 2)), 0.01)
        assert dense_subsample(cloud, 1.0, seed=0) is cloud


class TestSubsampleCheck:
    def test_passes_on_random_cloud(self, rng):
        cloud = PointCloud(rng.random((18, 2)), 0.05)
        spec = MetricSpec.euclidean()
        rep = subsample_count_check(cloud, dense_subsample(cloud, 0.6, seed=2), spec, eps=0.9)
        assert rep.passed
        assert rep.sep_sub >= rep.sep_parent or rep.eps_sep < rep.eps
        assert rep.span_sub <= rep.span_parent + 1e-9

    def test_too_sparse_scale_rejected(self, rng):
        from entro import ConfigError

        cloud = PointCloud(rng.random((18, 2)), 0.05)
        spec = MetricSpec.euclidean()
        with pytest.raises(ConfigError):
            subsample_count_check(cloud, dense_subsample(cloud, 0.3, seed=2), spec, eps=0.01)

    def test_subsample_finer_than_cloud_rejected(self, rng):
        """The radius is read off the subsample's mesh, so a subsample whose
        mesh is below the cloud's is not a dense_subsample draw."""
        cloud = PointCloud(rng.random((18, 2)), 0.05)
        sub = PointCloud(cloud.points[:12], 0.01)
        with pytest.raises(ConfigError, match="dense_subsample"):
            subsample_count_check(cloud, sub, MetricSpec.euclidean(), eps=0.9)
