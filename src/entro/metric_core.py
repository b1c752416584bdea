"""Metric primitives and packing/covering counters on finite point clouds.

Three metric families cover everything the estimators need:

* ``euclidean`` -- the ambient metric of an embedded system;
* ``max_product`` -- max over consecutive coordinate blocks, the metric of a
  finite orbit segment (block i holds the i-th iterate);
* ``sequence_rho`` -- geometrically weighted sum over blocks, the metric of a
  truncated orbit sequence with weight rho^(-i) on block i.

Every count of one (eps, n) cell goes through ``counts_from_matrix``, which
returns its separated and spanning witnesses as index lists, and the cloud
size alone picks how it counts: exactly within ``EXACT_CAP`` points,
greedily above.  The exact searches are branch and bound over eps-ball
bitmasks (maximum independent set for separation, minimum set cover for
spanning).  The greedy counts read each cell's eps-neighbour lists, scan
the cloud in farthest-point order (separation) and run a lazy greedy set
cover (spanning) over those lists; they are valid at any size.  Separation
uses the closed condition ``d >= eps``; spanning uses the strict ``d < eps``.
Every count table is built by ``count_table``, which thresholds the dense
matrix only until the largest scale's list turns sparse and then carries
that list across scales and orders.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .errors import (
    ConfigError,
    EmptyCloudError,
    ShapeError,
    TooLargeError,
)

__all__ = [
    "EXACT_CAP",
    "DUPLICATE_TOL",
    "MetricSpec",
    "PointCloud",
    "CountRow",
    "CountTable",
    "pairwise_dist",
    "distance_matrix",
    "distance_tiles",
    "cloud_diameter",
    "covering_radius",
    "counts_from_matrix",
    "count_table",
    "farthest_point_order",
    "orbit_metric_matrices",
    "last_orbit_matrix",
    "dense_subsample",
    "SubsampleCountReport",
    "subsample_count_check",
]

EXACT_CAP = 24
DUPLICATE_TOL = 1e-12
# Rows per tile of ``distance_tiles``; on a 7032-point cloud (2 vCPUs), 32 to
# 256 rows timed within 10 % of each other.
TILE_ROWS = 64
# Largest share of the N x N entries that ``count_table`` carries as one
# neighbour list.  On doubling's order-2 matrix (N = 4096, one thread),
# testing a carried list took 0.23 of a dense threshold's time at this
# density, 0.5 at 1/8 and 0.94 at 1/4; at 1/16 the carried flat indices
# take at most 1/16 of the matrix's bytes.
CARRY_DENSITY = 1 / 16

_KINDS = ("euclidean", "max_product", "sequence_rho")


@dataclass(frozen=True)
class MetricSpec:
    """Which distance to use and how to read a point's coordinate vector."""

    kind: str = "euclidean"
    arity: int = 1
    rho: float = 2.0
    truncation: int = 1

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"config: unknown metric kind {self.kind!r}")
        if self.kind == "max_product" and self.arity < 1:
            raise ConfigError("config: max_product arity must be >= 1")
        if self.kind == "sequence_rho":
            if self.rho <= 1:
                raise ConfigError("config: sequence_rho requires rho > 1")
            if self.truncation < 1:
                raise ConfigError("config: sequence_rho truncation must be >= 1")

    @classmethod
    def euclidean(cls) -> "MetricSpec":
        return cls(kind="euclidean")

    @classmethod
    def max_product(cls, arity: int) -> "MetricSpec":
        return cls(kind="max_product", arity=arity)

    @classmethod
    def sequence_rho(cls, rho: float, truncation: int) -> "MetricSpec":
        return cls(kind="sequence_rho", rho=rho, truncation=truncation)

    @property
    def blocks(self) -> int:
        if self.kind == "max_product":
            return self.arity
        if self.kind == "sequence_rho":
            return self.truncation
        return 1

    def describe(self) -> str:
        if self.kind == "max_product":
            return f"max_product({self.arity})"
        if self.kind == "sequence_rho":
            return f"sequence_rho({self.rho:g},{self.truncation})"
        return "euclidean"


def _as_points(arr, name: str) -> np.ndarray:
    pts = np.asarray(arr, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2:
        raise ShapeError(f"shape: {name} must be a 2-d array of row vectors")
    if not np.isfinite(pts).all():
        raise ConfigError(f"config: {name} contains non-finite coordinates")
    return pts


@dataclass(frozen=True, eq=False)
class PointCloud:
    """A finite sample of a totally bounded space.

    ``mesh`` is the claimed density: every point of the underlying space is
    within ``mesh`` of some sample point.  Construction collapses duplicate
    rows closer than ``DUPLICATE_TOL`` (first occurrence wins).
    """

    points: np.ndarray
    mesh: float
    label: str = ""

    def __post_init__(self):
        pts = _as_points(self.points, "points")
        if pts.shape[0] == 0:
            raise EmptyCloudError("empty: cloud has no points")
        if not self.mesh > 0:
            raise ConfigError("config: mesh must be > 0")
        pts = _collapse_duplicates(pts)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def subset(self, indices, label: str | None = None) -> "PointCloud":
        idx = np.asarray(indices, dtype=np.intp)
        return PointCloud(self.points[idx].copy(), self.mesh, label or self.label)


def _collapse_duplicates(pts: np.ndarray) -> np.ndarray:
    if pts.shape[0] < 2:
        return pts.copy()
    pairs = cKDTree(pts).query_pairs(DUPLICATE_TOL, output_type="ndarray")
    if len(pairs) == 0:
        return pts.copy()
    drop = np.zeros(pts.shape[0], dtype=bool)
    for i, j in pairs:
        lo, hi = (i, j) if i < j else (j, i)
        if not drop[lo]:
            drop[hi] = True
    return pts[~drop].copy()


# ---------------------------------------------------------------------------
# distances


def _block_shapes(dim: int, spec: MetricSpec) -> tuple[int, int]:
    blocks = spec.blocks
    if dim % blocks != 0:
        raise ShapeError(
            f"shape: dimension {dim} not divisible into {blocks} blocks for {spec.describe()}"
        )
    return blocks, dim // blocks


def distance_matrix(a, b, spec: MetricSpec) -> np.ndarray:
    """All pairwise distances between the rows of ``a`` and of ``b``."""
    pa = _as_points(a, "a")
    pb = _as_points(b, "b")
    if pa.shape[1] != pb.shape[1]:
        raise ShapeError(f"shape: dimension mismatch {pa.shape[1]} vs {pb.shape[1]}")
    if spec.kind == "euclidean":
        return cdist(pa, pb)
    blocks, bdim = _block_shapes(pa.shape[1], spec)
    va = pa.reshape(pa.shape[0], blocks, bdim)
    vb = pb.reshape(pb.shape[0], blocks, bdim)
    if spec.kind == "max_product":
        out = cdist(va[:, 0, :], vb[:, 0, :])
        for i in range(1, blocks):
            np.maximum(out, cdist(va[:, i, :], vb[:, i, :]), out=out)
        return out
    # sequence_rho: weighted sum, weight rho^(-i) on block i
    out = cdist(va[:, 0, :], vb[:, 0, :])
    w = 1.0
    for i in range(1, blocks):
        w /= spec.rho
        out += w * cdist(va[:, i, :], vb[:, i, :])
    return out


def distance_tiles(pts, spec: MetricSpec):
    """The upper triangle of the distance matrix of ``pts``, in row tiles.

    Yields ``(r0, r1, distance_matrix(pts[r0:r1], pts[r0:], spec))`` for
    consecutive bands of ``TILE_ROWS`` rows, so each band starts at its
    diagonal block and no N x N matrix is built.  An entry does not depend on
    the tile it is computed in, and ``d(i, j) == d(j, i)`` bit for bit, so a
    consumer that mirrors each tile gets the full matrix exactly.
    """
    pts = np.ascontiguousarray(pts, dtype=float)
    size = pts.shape[0]
    for r0 in range(0, size, TILE_ROWS):
        r1 = min(r0 + TILE_ROWS, size)
        yield r0, r1, distance_matrix(pts[r0:r1], pts[r0:], spec)


def pairwise_dist(a, b, spec: MetricSpec) -> float:
    """Distance between two single points under ``spec``."""
    va = np.asarray(a, dtype=float).ravel()
    vb = np.asarray(b, dtype=float).ravel()
    if va.shape != vb.shape:
        raise ShapeError(f"shape: {va.shape} vs {vb.shape}")
    return float(distance_matrix(va[None, :], vb[None, :], spec)[0, 0])


def cloud_diameter(cloud: PointCloud) -> float:
    """Euclidean max pairwise distance; the bounding-box diagonal above 4000 points."""
    if cloud.size > 4000:
        return _box_diagonal(cloud.points)
    return float(cdist(cloud.points, cloud.points).max())


def _box_diagonal(points: np.ndarray) -> float:
    """Euclidean diagonal of the bounding box of the points along the last axis."""
    flat = points.reshape(-1, points.shape[-1])
    return float(np.linalg.norm(flat.max(axis=0) - flat.min(axis=0)))


def covering_radius(points: np.ndarray, centers: np.ndarray) -> float:
    """Largest euclidean distance from a row of ``points`` to its nearest row of ``centers``."""
    return float(cdist(points, centers).min(axis=1).max())


# ---------------------------------------------------------------------------
# greedy counting


def farthest_point_order(dmat: np.ndarray, seed_dists: np.ndarray) -> np.ndarray:
    """Deterministic farthest-point traversal.

    Starts from the point maximizing ``seed_dists`` (distance to the cloud
    centroid); each later step appends the point maximizing the smaller of
    its seed distance and its distance to everything ordered so far.  Ties
    resolve to the lowest index via argmax-first-hit.
    """
    n = dmat.shape[0]
    order = np.empty(n, dtype=np.intp)
    work = np.asarray(seed_dists, dtype=float).copy()
    for k in range(n):
        i = int(work.argmax())
        order[k] = i
        np.minimum(work, dmat[i], out=work)
        work[i] = -np.inf
    return order


def _flat_below(dmat: np.ndarray, eps: float, within: np.ndarray | None = None) -> np.ndarray:
    """Ascending flat indices of the entries ``dmat < eps``.

    ``within``, if given, is an ascending array of flat indices holding every
    such entry; only its entries are tested, not the whole matrix.
    """
    if within is None:
        return np.flatnonzero(dmat < eps)
    return within[dmat.reshape(-1)[within] < eps]


def _row_lists(flat: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Split ascending flat indices of an n x n matrix into row lists, in place."""
    ptr = np.searchsorted(flat, np.arange(0, n * n + 1, n))
    flat %= n
    return ptr, flat


def _eps_neighbours(dmat: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise lists of the entries ``dmat < eps``: row i is ``cols[ptr[i]:ptr[i+1]]``."""
    return _row_lists(_flat_below(dmat, eps), dmat.shape[0])


def _greedy_separated(ptr: np.ndarray, cols: np.ndarray, order: np.ndarray) -> list[int]:
    blocked = np.zeros(len(ptr) - 1, dtype=bool)
    chosen: list[int] = []
    for i in order.tolist():
        if not blocked[i]:
            chosen.append(i)
            blocked[cols[ptr[i]:ptr[i + 1]]] = True
    return chosen


def _greedy_cover(ptr: np.ndarray, cols: np.ndarray) -> list[int]:
    """Lazy-evaluation greedy set cover over eps-balls centered at cloud points."""
    n = len(ptr) - 1
    uncovered = np.ones(n, dtype=bool)
    heap = [(-c, i) for i, c in enumerate(np.diff(ptr).tolist())]
    heapq.heapify(heap)
    bounds = ptr.tolist()
    chosen: list[int] = []
    remaining = n
    while remaining > 0:
        negc, i = heapq.heappop(heap)
        ball = cols[bounds[i]:bounds[i + 1]]
        fresh = ball[uncovered[ball]]
        now = len(fresh)
        if now == 0:
            continue
        if now < -negc:
            heapq.heappush(heap, (-now, i))
            continue
        chosen.append(i)
        uncovered[fresh] = False
        remaining -= now
    return chosen


def _greedy_counts(
    ptr: np.ndarray, cols: np.ndarray, order: np.ndarray
) -> tuple[list[int], list[int]]:
    """Greedy separated and spanning witnesses from one set of eps-neighbour lists.

    The separated scan follows ``order``.  The spanning witness is the
    smaller of the lazy set cover and the maximal separated witness (which
    always spans), so ``span <= sep`` holds for greedy counts too.
    """
    sep = _greedy_separated(ptr, cols, order)
    span = _greedy_cover(ptr, cols)
    if len(span) > len(sep):
        span = sep
    return sep, span


# ---------------------------------------------------------------------------
# exact counting (branch and bound, bitmask sets)


def _ball_masks(dmat: np.ndarray, eps: float) -> list[int]:
    """Row i as a bitmask of the points j with ``dmat[i, j] < eps``, i included."""
    rows = np.packbits(dmat < eps, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in rows]


def _exact_max_separated(balls: list[int]) -> list[int]:
    n = len(balls)
    full = (1 << n) - 1

    best_size = 0
    best_mask = 0

    def grab(avail: int, cur_mask: int, cur_size: int) -> None:
        nonlocal best_size, best_mask
        if avail == 0:
            if cur_size > best_size:
                best_size, best_mask = cur_size, cur_mask
            return
        if cur_size + avail.bit_count() <= best_size:
            return
        # pivot on the most conflicted available vertex to prune fast
        v, vdeg = -1, -1
        m = avail
        while m:
            b = m & -m
            i = b.bit_length() - 1
            deg = (balls[i] & avail).bit_count()
            if deg > vdeg:
                v, vdeg = i, deg
            m ^= b
        bit = 1 << v
        grab(avail & ~balls[v], cur_mask | bit, cur_size + 1)
        grab(avail & ~bit, cur_mask, cur_size)

    grab(full, 0, 0)
    return [i for i in range(n) if best_mask >> i & 1]


def _exact_min_spanning(balls: list[int], start: list[int]) -> list[int]:
    """Smallest cover by ``balls``, searched below the size of the cover ``start``."""
    n = len(balls)
    full = (1 << n) - 1

    best: list[int] = start
    best_size = len(best)

    def search(uncov: int, chosen: list[int]) -> None:
        nonlocal best, best_size
        if uncov == 0:
            if len(chosen) < best_size:
                best, best_size = list(chosen), len(chosen)
            return
        widths = [(balls[i] & uncov).bit_count() for i in range(n)]
        widest = max(widths)
        need = math.ceil(uncov.bit_count() / widest)
        if len(chosen) + need >= best_size:
            return
        # branch on the hardest-to-cover uncovered element
        e, e_opts = -1, n + 1
        m = uncov
        while m:
            b = m & -m
            j = b.bit_length() - 1
            opts = sum(1 for i in range(n) if balls[i] >> j & 1)
            if opts < e_opts:
                e, e_opts = j, opts
            m ^= b
        cands = [i for i in range(n) if balls[i] >> e & 1]
        cands.sort(key=lambda i: (-widths[i], i))
        for i in cands:
            chosen.append(i)
            search(uncov & ~balls[i], chosen)
            chosen.pop()

    search(full, [])
    return sorted(best)


# ---------------------------------------------------------------------------
# public counting API


def _count_mode(size: int) -> str:
    """How a cloud of ``size`` points is counted: exactly within ``EXACT_CAP``, greedily above."""
    return "exact" if size <= EXACT_CAP else "greedy"


def counts_from_matrix(
    dmat: np.ndarray,
    eps: float,
    order: np.ndarray | None = None,
    neighbours: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[list[int], list[int]]:
    """Separated and spanning witnesses of one cell, as index lists, from its distance matrix.

    Within ``EXACT_CAP`` points both are exact (branch and bound; ``order``
    is not read); above it they are greedy (``_greedy_counts``), scanning in
    ``order``, by default the farthest-point order from the row means.
    ``neighbours`` is the cell's eps-neighbour lists ``(ptr, cols)``, exactly
    as ``_eps_neighbours(dmat, eps)`` builds them when it is None;
    ``count_table`` passes the lists it built.  A diagonal entry >= eps (a
    point outside its own ball) is refused.
    """
    if not eps > 0:
        raise ConfigError("config: eps must be > 0")
    if not (np.diagonal(dmat) < eps).all():
        raise ConfigError(f"config: distance matrix has a diagonal entry >= eps={eps:g}")
    if neighbours is None:
        neighbours = _eps_neighbours(dmat, eps)
    if _count_mode(dmat.shape[0]) == "exact":
        balls = _ball_masks(dmat, eps)
        return _exact_max_separated(balls), _exact_min_spanning(balls, _greedy_cover(*neighbours))
    if order is None:
        order = farthest_point_order(dmat, dmat.mean(axis=1))
    return _greedy_counts(*neighbours, order)


def orbit_metric_matrices(orbits: np.ndarray, spec: MetricSpec):
    """Order-n orbit-metric matrices for n = 1 .. depth, built in one buffer.

    ``orbits[i, k]`` is the k-th iterate of point i.  After each iterate this
    yields ``(n, dmat, seed)``: ``dmat`` is the max over k < n of the base
    distance matrices of slice k, and ``seed`` the running max of each
    orbit's distance to the slice centroids (the farthest-point start).  Both
    arrays are updated in place on the next step, so one N x N matrix is
    held whatever the depth; copy them to keep an order.  Each slice's
    distances arrive as ``distance_tiles`` of the upper triangle, are folded
    into ``dmat`` and mirrored below the diagonal, so no slice matrix is held.
    """

    def slices():
        for k in range(orbits.shape[1]):
            sl = orbits[:, k, :]
            centroid = sl.mean(axis=0)
            yield distance_tiles(sl, spec), distance_matrix(sl, centroid[None, :], spec)[:, 0]

    return _running_max(orbits.shape[0], slices())


def last_orbit_matrix(orbits: np.ndarray, spec: MetricSpec) -> tuple[np.ndarray, np.ndarray]:
    """The last ``(dmat, seed)`` of ``orbit_metric_matrices``: order n = the orbits' depth."""
    for _, dmat, seed in orbit_metric_matrices(orbits, spec):
        pass
    return dmat, seed


def _running_max(size: int, orders):
    """Running maxima of per-order matrices and seeds, yielded as ``(n, dmat, seed)``.

    ``orders`` yields, for n = 1, 2, ..., the upper-triangle row tiles
    ``(r0, r1, tile)`` of the order's matrix and its seed vector.  Each tile
    is folded into the running max and mirrored below the diagonal; both
    arrays are updated in place on the next order.
    """
    dmat = np.zeros((size, size))
    run_seed = np.zeros(size)
    for n, (tiles, seed) in enumerate(orders, 1):
        for r0, r1, tile in tiles:
            band = dmat[r0:r1, r0:]
            np.maximum(band, tile, out=band)
            dmat[r0:, r0:r1] = band.T
        np.maximum(run_seed, seed, out=run_seed)
        yield n, dmat, run_seed


# ---------------------------------------------------------------------------
# count tables


@dataclass(frozen=True)
class CountRow:
    epsilon: float
    n: int
    sep_count: int
    span_count: int


@dataclass(frozen=True)
class CountTable:
    """Separated/spanning counts over an (epsilon, n) grid for one system run."""

    rows: tuple[CountRow, ...]
    cloud_size: int
    truncated_at: int | None = None
    # the lifted metric's settings, set on tables of the lifted shift only
    rho: float | None = None
    truncation: int | None = None

    @property
    def mode(self) -> str:
        """How every count of the table was made; its cloud size decides."""
        return _count_mode(self.cloud_size)

    def eps_values(self) -> list[float]:
        seen: list[float] = []
        for r in self.rows:
            if r.epsilon not in seen:
                seen.append(r.epsilon)
        return seen

    def counts_for(self, eps: float, which: str = "sep") -> list[tuple[int, int]]:
        """(n, count) pairs for one epsilon, ascending in n; ``which`` is "sep" or "span"."""
        if which not in ("sep", "span"):
            raise ConfigError(f"config: unknown count {which!r}; choose 'sep' or 'span'")
        rows = [(r.n, r.sep_count if which == "sep" else r.span_count)
                for r in self.rows if r.epsilon == eps]
        return sorted(rows)


def count_table(
    matrices,
    eps_list: list[float],
    cloud_size: int,
    truncated_at: int | None = None,
) -> CountTable:
    """Counts over the (eps, n) grid from a stream of order-n matrices.

    ``matrices`` yields ``(n, dmat, seed)`` like ``orbit_metric_matrices``
    and may reuse one buffer.  The stream must be entrywise non-decreasing
    in n, as every running max of orbit distances is.  All eps share one
    farthest-point order per n, started from ``seed`` (exact counts do not
    read it).  Rows run over eps in list order, n ascending within each.

    Each cell's eps-neighbour lists are built here and passed to
    ``counts_from_matrix``.  At every n the largest eps goes first: its
    entries hold those of every smaller eps at this n and, the stream being
    non-decreasing, those of every eps at later n.  Once that list holds at
    most ``CARRY_DENSITY`` of the matrix it is kept, and later cells test
    only its entries; before that each cell thresholds the whole matrix.
    One carried list and one cell's lists are alive at a time, and every
    cell gets the same lists either way.
    """
    if any(not e > 0 for e in eps_list):
        raise ConfigError("config: eps values must be > 0")
    columns: list[list[CountRow]] = [[] for _ in eps_list]
    if eps_list:
        top = int(np.argmax(eps_list))
        cells = [top] + [k for k in range(len(eps_list)) if k != top]
        carried = None
        for n, dmat, seed in matrices:
            size = dmat.shape[0]
            order = farthest_point_order(dmat, seed)
            for k in cells:
                eps = eps_list[k]
                flat = _flat_below(dmat, eps, carried)
                if k == top:
                    carried = flat if flat.size <= CARRY_DENSITY * dmat.size else None
                    if flat is carried:
                        flat = flat.copy()
                sep, span = counts_from_matrix(
                    dmat, eps, order=order, neighbours=_row_lists(flat, size)
                )
                del flat  # free this cell's lists before the next cell or order builds its own
                columns[k].append(CountRow(eps, n, len(sep), len(span)))
    rows = tuple(row for column in columns for row in column)
    return CountTable(rows, cloud_size, truncated_at)


# ---------------------------------------------------------------------------
# subsampling


def dense_subsample(cloud: PointCloud, keep_fraction: float, seed: int) -> PointCloud:
    """Random subsample that reports its achieved density.

    The returned mesh is the parent mesh plus the covering radius of the kept
    set within the parent, i.e. an honest density claim for the underlying
    space.  ``keep_fraction=1`` returns the cloud unchanged.
    """
    if not 0 < keep_fraction <= 1:
        raise ConfigError("config: keep_fraction must be in (0, 1]")
    if keep_fraction == 1:
        return cloud
    rng = np.random.default_rng(seed)
    k = max(1, math.ceil(keep_fraction * cloud.size))
    idx = np.sort(rng.choice(cloud.size, size=k, replace=False))
    kept = cloud.points[idx]
    radius = covering_radius(cloud.points, kept)
    return PointCloud(kept.copy(), cloud.mesh + radius, f"{cloud.label}|subsample")


@dataclass(frozen=True)
class SubsampleCountReport:
    """Count inequalities between a cloud and a dense subsample of it.

    With the subsample delta-dense in the parent, nudging a witness onto the
    subsample costs at most 2*delta of scale: separated counts survive at
    eps - 2*delta and spanning counts at eps + 2*delta.  Exact counts only;
    greedy ones cannot certify an inequality.
    """

    covering_radius: float
    eps: float
    eps_sep: float
    eps_span: float
    sep_parent: int
    sep_sub: int
    span_parent: int
    span_sub: int

    @property
    def passed(self) -> bool:
        return self.sep_sub >= self.sep_parent and self.span_sub <= self.span_parent


def subsample_count_check(
    cloud: PointCloud,
    spec: MetricSpec,
    eps: float,
    keep_fraction: float,
    seed: int,
) -> SubsampleCountReport:
    """Verify the density-shifted count inequalities on one subsample draw."""
    if cloud.size > EXACT_CAP:
        raise TooLargeError(
            f"too-large: subsample check needs exact counts, cap {EXACT_CAP}, got {cloud.size}"
        )
    if not eps > 0:
        raise ConfigError("config: eps must be > 0")
    sub = dense_subsample(cloud, keep_fraction, seed)
    radius = covering_radius(cloud.points, sub.points)
    # both scales move 1e-9 further from eps to absorb rounding in the radius
    eps_sep = eps - 2 * radius - 1e-9
    if eps_sep <= 0:
        raise ConfigError(
            f"config: subsample too sparse for eps={eps:g} (covering radius {radius:g})"
        )
    eps_span = eps + 2 * radius + 1e-9
    sub_mat = distance_matrix(sub.points, sub.points, spec)
    sep_parent, span_parent = counts_from_matrix(
        distance_matrix(cloud.points, cloud.points, spec), eps
    )
    return SubsampleCountReport(
        covering_radius=radius,
        eps=eps,
        eps_sep=eps_sep,
        eps_span=eps_span,
        sep_parent=len(sep_parent),
        sep_sub=len(counts_from_matrix(sub_mat, eps_sep)[0]),
        span_parent=len(span_parent),
        span_sub=len(counts_from_matrix(sub_mat, eps_span)[1]),
    )
