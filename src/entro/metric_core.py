"""Metric primitives and packing/covering counters on finite point clouds.

Three metric families cover everything the estimators need:

* ``euclidean`` -- the ambient metric of an embedded system;
* ``max_product`` -- max over consecutive coordinate blocks, the metric of a
  finite orbit segment (block i holds the i-th iterate);
* ``sequence_rho`` -- geometrically weighted sum over blocks, the metric of a
  truncated orbit sequence with weight rho^(-i) on block i.

Every count of one (eps, n) cell goes through ``counts_from_matrix``, which
returns its separated and spanning witnesses as index lists, except a cell
whose eps-balls each hold only their centre: no two points are eps-close,
so both counts are the cloud size, and a count table records that with no
scan.  The cloud size alone picks how a cell is counted: exactly within
``EXACT_CAP`` points, greedily above.  The exact searches are branch and
bound over eps-ball bitmasks (maximum independent set for separation,
minimum set cover for spanning).  The greedy counts read each cell's
eps-balls, scan the cloud in farthest-point order (separation) and run a
greedy set cover (spanning) over them; they are valid at any size.  The
scan stops once every point lies in the ball of a pick, and the order is
walked one step at a time (``_farthest_points``), each step reading one
matrix row, so a scan reads only as many rows as it needs.  A cell holds
its balls either as the mask ``dmat < eps`` packed one bit per pair, with
each ball's size, or as intp row lists of the pairs below eps (eight
bytes per such pair), and both give the same witnesses.  One scan
(``_greedy_separated``) reads either store: it marks a pick's ball, a row
list or an unpacked mask row, with one assignment.  Every matrix counted
is a symmetric distance matrix, so the balls holding a point are the
points of its own ball: the cover keeps every ball's uncovered count
exact, lowering it through each covered point's own ball, and takes the
balls that add one point each in one step.  Separation uses the closed
condition ``d >= eps``; spanning uses the strict ``d < eps``.  Every count
table is built by the private ``_count_table``: its dense cells count from
one packed mask buffer, until the largest scale's cell turns sparse; that
cell's pairs are then carried across scales and orders as flat indices of
four bytes each (int32, or intp on a matrix too large for it), and every
later cell counts from intp row lists of its entries, whether the table
counts exactly or greedily.  Its stream of order-n matrices is
non-decreasing in n, so once that cell holds only the diagonal (every pair
at least the largest scale apart) every later cell counts the whole cloud:
the table fills those rows and closes the stream, which builds no later
order.  While it counts, a table holds its order-n matrix ``dmat``, the
packed mask buffer (1/64 of ``dmat``'s bytes) or one carried list (at most
1/32 of them in int32), and one cell's lists, never a copy of the carried
list; the lifted table (``orbit_space``) also holds the upper half of its
weighted sum S, in one array.  Both tables' matrices come from one stream,
``_orbit_stream``: the running max over orders of weighted sums over a
window of m iterates.  The direct table reads it with m = 1, where no S is
held, and the lifted table with m its truncation; no other code knows the
row-tile layout.  Distances arrive in row tiles and the other temporaries
are at most ``TILE_ROWS`` rows long, so no other N x N array is made.

The band work of a table runs on every core the process may use
(``WORKERS``, from ``os.sched_getaffinity``): each order's distance tiles
and their fold into the running max, the packed mask of a dense cell and
the test of a carried list.  The bands of one pass are dealt round to the
threads of one pool, made on first use, one task per thread; band
[r0, r1) writes only rows r0..r1 of the upper triangle, columns r0..r1 of
the lower one and entries r0..r1 of the seed and the ball sizes, so no
two bands write one entry and every matrix, mask and count is the same
bit for bit on any number of threads.  With W threads a band has
``TILE_ROWS // W`` rows, so the tiles alive at once have the rows of one
serial band and the memory held does not grow.  A matrix of fewer than
``PARALLEL_FLOOR`` points keeps its bands in the calling thread, where
thread hand-offs cost more than they save.  Scans, covers and
farthest-point walks stay in the calling thread.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import os
from dataclasses import dataclass, fields

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
    "covering_radius",
    "counts_from_matrix",
    "farthest_point_order",
    "orbit_metric_matrices",
    "last_orbit_matrix",
    "dense_subsample",
    "SubsampleCountReport",
    "subsample_count_check",
]

EXACT_CAP = 24
DUPLICATE_TOL = 1e-12
# Rows per band of a serial pass over a matrix, and across all workers of a
# threaded one: a matrix stream's distance tiles, its thresholds and its
# covers read this many rows at a time.  On a 7032-point cloud (2 vCPUs),
# 32 to 256 rows timed within 10 % of each other.  ``_mask_cover`` sums a
# band of this many mask rows in uint8, so it must stay below 256.
TILE_ROWS = 64
# Threads that fold the bands of one matrix: every core the process may use.
if hasattr(os, "sched_getaffinity"):
    WORKERS = len(os.sched_getaffinity(0))
else:
    WORKERS = os.cpu_count() or 1
# Matrices of fewer points fold their bands in the calling thread.  On 2 vCPUs
# (medians of 15 alternating runs, 1 thread against 2): the lifted stream
# took 45.3 against 35.6 ms at 1024 points and 106 against 78 ms at 1536;
# the direct stream 20.1 against 19.5 ms at 1024, 41.5 against 41.6 ms at
# 1536, 75.0 against 84.2 ms at 2047 and 136 against 89 ms at 2560; the
# packed mask 1.4 against 1.9 ms at 1536 and 5.6 against 4.5 ms at 2560.
PARALLEL_FLOOR = 1536
# The number of set bits of each byte value.
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)
# Largest share of the N x N entries that ``_count_table`` carries as one
# neighbour list.  On doubling's order-2 matrix (N = 4096, one thread),
# testing a carried list took 0.23 of a dense threshold's time at this
# density, 0.5 at 1/8 and 0.94 at 1/4; at 1/16 the carried flat indices
# take at most 1/16 of the matrix's bytes.
CARRY_DENSITY = 1 / 16

# The settings each metric kind reads.
_KINDS = {"euclidean": (), "max_product": ("arity",), "sequence_rho": ("rho", "truncation")}


@dataclass(frozen=True)
class MetricSpec:
    """Which distance to use and how to read a point's coordinate vector."""

    kind: str = "euclidean"
    arity: int = 1
    rho: float = 2.0
    truncation: int = 1

    def __post_init__(self):
        """Refuse a setting its kind reads that is not a number of the right sort,
        and one it does not read that differs from its default.

        ``arity`` and ``truncation`` must be ints >= 1 (not bools), and
        ``rho`` a finite real > 1: an infinite rho would weigh every block
        after the first by 0, and a NaN one would make every distance NaN.
        A setting the kind ignores would still make the spec compare unequal
        to the one it describes itself as.
        """
        if self.kind not in _KINDS:
            raise ConfigError(f"config: unknown metric kind {self.kind!r}")
        for setting in fields(self)[1:]:  # every field after ``kind``
            value = getattr(self, setting.name)
            if setting.name not in _KINDS[self.kind] and value != setting.default:
                raise ConfigError(f"config: {self.kind} does not read {setting.name},"
                                  f" got {value!r}")
        if self.kind == "max_product" and not _is_count(self.arity):
            raise ConfigError(f"config: max_product arity must be an int >= 1, got {self.arity!r}")
        if self.kind == "sequence_rho":
            if not (isinstance(self.rho, numbers.Real) and 1 < self.rho < math.inf):
                raise ConfigError(f"config: sequence_rho needs a finite rho > 1, got {self.rho!r}")
            if not _is_count(self.truncation):
                raise ConfigError(f"config: sequence_rho truncation must be an int >= 1,"
                                  f" got {self.truncation!r}")

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


def _is_count(value) -> bool:
    """Whether ``value`` is an int >= 1, a bool excluded."""
    return not isinstance(value, bool) and isinstance(value, numbers.Integral) and value >= 1


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
    return _distances(pa, pb, spec)


def _distances(pa: np.ndarray, pb: np.ndarray, spec: MetricSpec) -> np.ndarray:
    """``distance_matrix`` of two float arrays of row vectors of one dimension, unchecked.

    An entry depends only on its two points, not on the other rows, and
    ``d(i, j) == d(j, i)`` bit for bit, so a matrix assembled from tiles
    equals the whole matrix exactly.  The matrix streams call this from
    their worker threads.
    """
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


def _bands(size: int, height: int = TILE_ROWS) -> list[tuple[int, int]]:
    """Consecutive bands ``(r0, r1)`` of ``height`` rows covering ``size`` rows."""
    return [(r0, min(r0 + height, size)) for r0 in range(0, size, height)]


def _row_bands(size: int, rows: int | None = None) -> list[list[tuple[int, int]]]:
    """Bands of the first ``rows`` rows (all by default) of a matrix over
    ``size`` points, one group per thread.

    A matrix of ``PARALLEL_FLOOR`` points or more takes ``WORKERS`` threads,
    a smaller one one.  With W threads a band has ``TILE_ROWS // W`` rows,
    so the bands the threads hold at once have the rows of one serial band,
    and band k goes to thread k % W; no group is empty.
    """
    workers = WORKERS if size >= PARALLEL_FLOOR else 1
    bands = _bands(size if rows is None else rows, max(TILE_ROWS // workers, 1))
    return [bands[w::workers] for w in range(min(workers, len(bands)))]


@functools.lru_cache(maxsize=None)
def _pool(workers: int):
    """The thread pool of ``workers`` threads, made on first use."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(workers, thread_name_prefix="entro-bands")


if hasattr(os, "register_at_fork"):
    # a forked child has none of its parent's threads
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _on_workers(groups: list[list[tuple[int, int]]], band) -> None:
    """Call ``band(r0, r1)`` for every band of ``groups``, one group per thread.

    Bands must write disjoint entries.  A single group runs in the calling
    thread.  Every group is waited for; then the first exception raised in
    a band, in group order, is raised here.
    """
    if len(groups) < 2:
        for group in groups:
            _each(band, group)
        return
    from concurrent.futures import wait

    futures = [_pool(WORKERS).submit(_each, band, group) for group in groups]
    wait(futures)
    for future in futures:
        future.result()


def _each(band, group: list[tuple[int, int]]) -> None:
    for r0, r1 in group:
        band(r0, r1)


def pairwise_dist(a, b, spec: MetricSpec) -> float:
    """Distance between two single points under ``spec``."""
    va = np.asarray(a, dtype=float).ravel()
    vb = np.asarray(b, dtype=float).ravel()
    if va.shape != vb.shape:
        raise ShapeError(f"shape: {va.shape} vs {vb.shape}")
    return float(distance_matrix(va[None, :], vb[None, :], spec)[0, 0])


def covering_radius(points: np.ndarray, centers: np.ndarray) -> float:
    """Largest euclidean distance from a row of ``points`` to its nearest row of ``centers``.

    ``points`` is read in bands of ``TILE_ROWS`` rows, so no matrix of every
    point against every center is built.
    """
    return float(max(cdist(points[r0:r1], centers).min(axis=1).max()
                     for r0, r1 in _bands(len(points))))


# ---------------------------------------------------------------------------
# greedy counting


def farthest_point_order(dmat: np.ndarray, seed_dists: np.ndarray) -> np.ndarray:
    """Deterministic farthest-point traversal, as one array of all N indices.

    Starts from the point maximizing ``seed_dists`` (in a matrix stream,
    each orbit's order-n distance to the centroid orbit); each later step
    appends the point maximizing the smaller of its seed distance and its
    distance to everything ordered so far.  Ties resolve to the lowest index
    via argmax-first-hit.  This is the whole walk of ``_farthest_points``;
    count tables pull that walk only as far as their separated scans read
    it.
    """
    return np.fromiter(_farthest_points(dmat, seed_dists), dtype=np.intp, count=len(dmat))


def _farthest_points(dmat: np.ndarray, seed_dists: np.ndarray):
    """The steps of ``farthest_point_order``, yielded one index at a time.

    Each step reads one row of ``dmat``, after its index is yielded, so k
    indices pulled read k - 1 rows.  ``dmat`` is read as the walk goes and
    must not change until it is done with.
    """
    work = np.array(seed_dists, dtype=float)
    for _ in range(len(dmat)):
        i = int(work.argmax())
        yield i
        np.minimum(work, dmat[i], out=work)
        work[i] = -np.inf


def _flat_below(dmat: np.ndarray, eps: float, within: np.ndarray) -> np.ndarray:
    """Ascending flat indices of the entries ``dmat < eps``, in ``within``'s dtype.

    ``within`` is an ascending array of flat indices holding every such
    entry; only its entries are tested, not the whole matrix, in chunks of
    a row band's worth of entries (``_row_bands``, as if ``within`` filled
    its first rows) into one boolean array, so numpy casts an int32
    ``within`` to its index type one chunk at a time.
    """
    entries = dmat.reshape(-1)
    below = np.empty(within.size, dtype=bool)
    size = len(dmat)

    def test(r0: int, r1: int) -> None:
        np.less(entries[within[r0 * size:r1 * size]], eps, out=below[r0 * size:r1 * size])

    _on_workers(_row_bands(size, -(-within.size // size)), test)
    return within[below]


def _packed_below(
    dmat: np.ndarray, eps: float, bits: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The eps-balls ``dmat < eps`` as ``(ptr, bits)``, one bit per pair.

    Row i of ``bits`` packs row i of the mask in little bit order (bit j % 8
    of byte j // 8), and ball i holds ``ptr[i+1] - ptr[i]`` points.  The
    matrix is thresholded in the row bands of ``_row_bands``, and each
    band's ball sizes are counted from its packed bytes (``_POPCOUNT``), so
    no N x N temporary is made and no second pass reads the mask.  ``bits``,
    an N x ceil(N/8) uint8 buffer, is written over when given.
    """
    size = len(dmat)
    if bits is None:
        bits = np.empty((size, -(-size // 8)), dtype=np.uint8)
    ptr = np.zeros(size + 1, dtype=np.intp)

    def pack(r0: int, r1: int) -> None:
        bits[r0:r1] = np.packbits(dmat[r0:r1] < eps, axis=1, bitorder="little")
        ptr[r0 + 1:r1 + 1] = _POPCOUNT.take(bits[r0:r1]).sum(axis=1)

    _on_workers(_row_bands(size), pack)
    np.cumsum(ptr, out=ptr)
    return ptr, bits


def _unpacked(bits: np.ndarray, size: int) -> np.ndarray:
    """Packed rows as boolean rows of ``size`` entries."""
    return np.unpackbits(bits, axis=-1, count=size, bitorder="little").view(bool)


def _flat_dtype(size: int) -> type:
    """The dtype of a carried list's flat indices into a ``size`` x ``size`` matrix.

    int32 (four bytes a pair) while ``size * (size + 1)`` < 2**31, which
    also holds the row starts ``_row_lists`` searches for; intp above.
    """
    return np.int32 if size * (size + 1) < 2**31 else np.intp


def _packed_flat(ptr: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Ascending flat indices of the pairs in the packed balls ``(ptr, bits)``.

    They are written band by band into one array of ``ptr[-1]`` entries, of
    dtype ``_flat_dtype``.
    """
    size = len(ptr) - 1
    flat = np.empty(ptr[-1], dtype=_flat_dtype(size))
    for r0, r1 in _bands(size):
        part = flat[ptr[r0]:ptr[r1]]
        part[:] = np.flatnonzero(_unpacked(bits[r0:r1], size))
        part += r0 * size
    return flat


def _row_lists(flat: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Split ascending flat indices of an n x n matrix into row lists ``(ptr, cols)``.

    ``cols`` is a new intp array, the index type numpy reads without a cast;
    ``flat`` is left as it is.  The row starts are searched in ``flat``'s
    dtype, so an int32 ``flat`` is not copied to compare them.
    """
    ptr = np.searchsorted(flat, np.arange(0, n * n + 1, n, dtype=flat.dtype))
    cols = flat.astype(np.intp)
    cols %= n
    return ptr, cols


def _greedy_separated(ptr: np.ndarray, members: np.ndarray, order) -> list[int]:
    """Greedy separated witness over the eps-balls ``(ptr, members)``: each
    point of ``order`` not in the ball of an earlier pick is picked.

    ``members`` holds row lists (ball i is ``members[ptr[i]:ptr[i+1]]``) or
    the packed mask (ball i is row i unpacked), and either marks a pick's
    ball blocked with one assignment.  The blocked flags are the bytes of a
    bytearray, tested as Python ints (faster than indexing numpy).  The scan
    stops once every point is blocked, as no later point can be picked, so
    ``order`` is read no further.
    """
    size = len(ptr) - 1
    ball = ((lambda i: _unpacked(members[i], size)) if members.ndim == 2
            else (lambda i: members[ptr[i]:ptr[i + 1]]))
    flags = bytearray(size)
    blocked = np.frombuffer(flags, dtype=bool)
    full = b"\x01" * size
    chosen: list[int] = []
    for i in order:
        if not flags[i]:
            chosen.append(i)
            blocked[ball(i)] = True
            if flags == full:
                break
    return chosen


def _greedy_cover(ptr: np.ndarray, cols: np.ndarray) -> list[int]:
    """Greedy set cover by the eps-balls ``cols[ptr[i]:ptr[i+1]]``, in pick order.

    Each step picks the smallest index whose ball holds the most uncovered
    points.  Every ball's uncovered count is kept exact in one ``gain``
    array: covering point c subtracts 1 from each ball holding c, which for
    the lists of a symmetric matrix are the points of c's own ball.  Each
    point's list is read once more, when it is covered, the lists of
    ``TILE_ROWS`` covered points at a time.  Once the largest gain is 1,
    every ball holding an uncovered point holds only that point, and greedy
    takes, in ascending index, the smallest ball holding each one: the first
    entry of its list, as lists ascend within each row.  Every ball must
    hold its own center.  Lists of an asymmetric matrix are refused where
    they show as a pick whose new points differ from its gain, or a last
    step that takes a ball twice or one that adds nothing; not every
    mismatch shows.
    """
    size = len(ptr) - 1
    bounds = ptr.tolist()

    def fresh(i: int, uncovered: np.ndarray) -> np.ndarray:
        ball = cols[bounds[i]:bounds[i + 1]]
        return ball[uncovered[ball]]

    def held(band: np.ndarray) -> np.ndarray:
        return np.bincount(
            np.concatenate([cols[bounds[c]:bounds[c + 1]] for c in band.tolist()]),
            minlength=size,
        )

    return _exact_gain_cover(np.diff(ptr), fresh, held, lambda rows: cols[ptr[rows]])


def _mask_cover(ptr: np.ndarray, bits: np.ndarray) -> list[int]:
    """``_greedy_cover`` over the eps-balls held as the packed rows ``bits``.

    Gains start as the ball sizes ``np.diff(ptr)``.  A band of covered
    points lowers them by its unpacked rows' sum, added up in uint8 (a band
    has ``TILE_ROWS`` < 256 rows), and the first entry of a ball is the
    first True of its unpacked row.
    """
    size = len(ptr) - 1
    return _exact_gain_cover(
        np.diff(ptr),
        lambda i, uncovered: np.flatnonzero(_unpacked(bits[i], size) & uncovered),
        lambda band: np.add.reduce(_unpacked(bits[band], size).view(np.uint8), axis=0,
                                   dtype=np.uint8),
        lambda band: _unpacked(bits[band], size).argmax(axis=1),
    )


def _exact_gain_cover(gain: np.ndarray, fresh, held, first) -> list[int]:
    """The loop of ``_greedy_cover``, whichever way a cell holds its balls.

    ``gain`` is every ball's size, lowered here in place.  ``fresh(i,
    uncovered)`` gives the uncovered points of ball i, ``held(band)`` how
    many points of ``band`` each ball holds, and ``first(band)`` the
    smallest ball holding each point of ``band``; bands have at most
    ``TILE_ROWS`` points.
    """
    uncovered = np.ones(len(gain), dtype=bool)
    chosen: list[int] = []
    while True:
        i = int(gain.argmax())
        if gain[i] < 2:
            break
        chosen.append(i)
        new = fresh(i, uncovered)
        if new.size != gain[i]:
            raise ConfigError("config: eps-neighbour lists are not those of a symmetric matrix")
        uncovered[new] = False
        for k in range(0, new.size, TILE_ROWS):
            gain -= held(new[k:k + TILE_ROWS])
    rest = np.flatnonzero(uncovered)
    last = np.empty(rest.size, dtype=np.intp)
    for k in range(0, rest.size, TILE_ROWS):
        last[k:k + TILE_ROWS] = first(rest[k:k + TILE_ROWS])
    last.sort()
    if not ((gain[last] == 1).all() and np.diff(last).all()):
        raise ConfigError("config: eps-neighbour lists are not those of a symmetric matrix")
    return chosen + last.tolist()


# ---------------------------------------------------------------------------
# exact counting (branch and bound, bitmask sets)


def _ball_masks(bits: np.ndarray) -> list[int]:
    """Packed row i of the eps-balls as a bitmask of the points of ball i."""
    return [int.from_bytes(row.tobytes(), "little") for row in bits]


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
    order=None,
    neighbours: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[list[int], list[int]]:
    """Separated and spanning witnesses of one cell, as index lists, from its distance matrix.

    ``eps`` must be a finite number > 0, as every scale of a table
    (``_checked_scales``).  ``dmat`` must be a symmetric distance matrix; a
    non-square, asymmetric or NaN-holding one is refused, and so is a
    diagonal entry >= eps (a point outside its own ball).  This is the one
    place that decides how a cell is counted.  Within ``EXACT_CAP`` points
    both witnesses are exact (branch and bound, from either store of the
    balls; ``order`` is not read).  Above it the
    separated witness is a greedy scan in ``order``, by default the
    farthest-point order from the row means, and the spanning witness is the
    smaller of the greedy cover and that separated witness (which always
    spans), so ``span <= sep`` holds for greedy counts too.  ``order`` may
    be any iterable of point indices.  One that is not an iterator (an
    array, a list) must be a permutation of ``range(N)``, or it is refused:
    a scan over part of the cloud gives a separated set that need not span.
    An iterator, such as the walk ``_count_table`` passes, is read as it is,
    and only as far as the scan needs: the scan stops once every point is
    blocked, and the default order is walked only that far.  ``neighbours``
    holds the cell's eps-balls as a pair ``(ptr, members)``, ball i holding
    ``ptr[i+1] - ptr[i]`` points.  Either ``members`` is the packed mask
    ``dmat < eps`` (``_packed_below``: an N x ceil(N/8) uint8 array, row i
    packing ball i in little bit order, one bit per pair), which is built
    when ``neighbours`` is None, or it holds row lists, ball i being
    ``members[ptr[i]:ptr[i+1]]`` ascending (eight bytes per pair below eps).
    Both give the same witnesses; a 2-d ``members`` of another dtype or
    shape is refused.
    ``_count_table`` passes the balls it built, from a matrix symmetric by
    construction, and symmetry is then not tested again: balls of an
    asymmetric matrix are refused only where the cover meets a mismatch.
    """
    (eps,) = _checked_scales([eps])
    if dmat.ndim != 2 or dmat.shape[0] != dmat.shape[1]:
        raise ConfigError(f"config: distance matrix of shape {dmat.shape} is not square")
    if not (np.diagonal(dmat) < eps).all():
        raise ConfigError(f"config: distance matrix has a diagonal entry >= eps={eps:g}")
    size = dmat.shape[0]
    if order is not None and iter(order) is not order:
        order = _permutation(order, size)
    if neighbours is None:
        if not _symmetric(dmat):
            raise ConfigError("config: distance matrix is not symmetric or holds NaN")
        neighbours = _packed_below(dmat, eps)
    if not isinstance(neighbours, tuple):
        raise ConfigError("config: eps-balls must be a pair (ptr, members)")
    ptr, members = neighbours
    packed = members.ndim == 2
    if packed and (members.dtype != np.uint8 or members.shape != (size, -(-size // 8))):
        raise ConfigError(
            f"config: eps-ball mask of dtype {members.dtype} and shape {members.shape}"
            f" is not a packed uint8 array of shape {(size, -(-size // 8))}"
        )
    span = _mask_cover(ptr, members) if packed else _greedy_cover(ptr, members)
    if _count_mode(size) == "exact":
        balls = _ball_masks(members if packed else _packed_below(dmat, eps)[1])
        return _exact_max_separated(balls), _exact_min_spanning(balls, span)
    if order is None:
        order = _farthest_points(dmat, dmat.mean(axis=1))
    sep = _greedy_separated(ptr, members, order)
    if len(span) > len(sep):
        span = sep
    return sep, span


def _permutation(order, size: int) -> list[int]:
    """``order`` as a list of ints, refused unless it is a permutation of ``range(size)``."""
    arr = np.asarray(order)
    if not (arr.shape == (size,) and arr.dtype.kind in "iu"
            and np.array_equal(np.sort(arr), np.arange(size))):
        raise ConfigError(f"config: order is not a permutation of the {size} point indices")
    return arr.tolist()


def _symmetric(dmat: np.ndarray) -> bool:
    """Whether the square ``dmat`` equals its transpose bit for bit, compared in row bands.

    NaN equals nothing, so a matrix holding one is not symmetric.
    """
    return all(np.array_equal(dmat[r0:r1], dmat[:, r0:r1].T) for r0, r1 in _bands(len(dmat)))


def orbit_metric_matrices(orbits: np.ndarray, spec: MetricSpec):
    """Order-n orbit-metric matrices for n = 1 .. depth, built in one buffer.

    ``orbits[i, k]`` is the k-th iterate of point i.  After each iterate this
    yields ``(n, dmat, seed)``: ``dmat`` is the max over k < n of the base
    distance matrices of slice k, and ``seed`` each orbit's order-n distance
    to the orbit of slice centroids (the farthest-point start).  Both arrays
    are updated in place on the next step, so one N x N matrix is held
    whatever the depth; copy them to keep an order.  This is the one orbit
    stream ``_orbit_stream`` with a window of one iterate: each slice tile
    goes straight into the running max, and no weighted sum is held.
    """
    return _orbit_stream(orbits, math.inf, 1, spec)


def _orbit_stream(orbits: np.ndarray, rho: float, m: int, spec: MetricSpec = MetricSpec()):
    """Running maxima over windows of ``m`` iterates, yielded as ``(n, dmat, seed)``.

    Order n is the max over i < n of S_i = sum_{j<m} rho^(-j) D_{i+j}, where
    D_k is the ``spec`` distance matrix of slice k (``orbits[:, k]``) with
    its centroid appended as one more point, so its last column is each
    orbit's distance to the centroid orbit, which ``_running_max`` folds
    into the farthest-point seed.  Order n reads the slices k < n + m - 1,
    so the stream has depth - m + 1 orders (none when the depth is below
    ``m``).  The matrices come in upper-triangle row tiles, one per band of
    ``_row_bands``, so no slice matrix is held.

    With m = 1 (the direct metric; ``rho`` is not read) S_i is D_i, and each
    tile of D_i goes into ``_running_max`` as it is.  With m > 1 (the lifted
    metric: the shift on orbit sequences under dhat, truncated at m terms)
    S advances by S_{i+1} = rho * (S_i - D_i) + rho^(1-m) * D_{i+m}, in
    place.  S is symmetric, so it is held as the row tiles of its upper
    triangle, views into one float64 array allocated on the first pull.
    Each band sums its tile of S_0 from the tiles D_0, ..., D_{m-1}; at
    each later order it subtracts its outgoing tile D_i before it makes its
    incoming tile D_{i+m}, and drops each once it is added in.  So the
    running max and the upper half of S are held, about 1.5 N x N matrices,
    and beyond them at most two tiles per thread, whose rows add up to
    ``TILE_ROWS``, and O(m N).
    """
    size = orbits.shape[0]

    def slice_tiles(k: int):
        """Rows r0..r1 of the upper triangle of D_k; a slice with a
        non-finite coordinate is refused."""
        pts = _as_points(np.vstack((orbits[:, k, :], orbits[:, k, :].mean(axis=0))), "orbit slice")
        return lambda r0, r1: _distances(pts[r0:r1], pts[r0:], spec)

    if m == 1:
        return _running_max(size, map(slice_tiles, range(orbits.shape[1])))

    def sums():
        if orbits.shape[1] < m:
            return
        bands = sorted(band for group in _row_bands(size) for band in group)
        cells = [(r1 - r0) * (size + 1 - r0) for r0, r1 in bands]
        parts = np.split(np.empty(sum(cells)), np.cumsum(cells)[:-1])
        s_tiles = {r0: part.reshape(r1 - r0, -1) for (r0, r1), part in zip(bands, parts)}
        window = [slice_tiles(j) for j in range(m)]

        def first(r0: int, r1: int) -> np.ndarray:
            s_t = s_tiles[r0]
            s_t[...] = window[0](r0, r1)
            w = 1.0
            for d_j in window[1:]:
                w /= rho
                s_t += w * d_j(r0, r1)
            return s_t

        yield first
        del window, first
        tail_w = rho ** (1 - m)
        for i in range(1, orbits.shape[1] - m + 1):

            def advanced(r0: int, r1: int, d_out=slice_tiles(i - 1), d_in=slice_tiles(i - 1 + m)):
                s_t = s_tiles[r0]
                s_t -= d_out(r0, r1)
                s_t *= rho
                tile = d_in(r0, r1)
                tile *= tail_w
                s_t += tile
                np.maximum(s_t, 0.0, out=s_t)
                return s_t

            yield advanced

    return _running_max(size, sums())


def last_orbit_matrix(orbits: np.ndarray, spec: MetricSpec) -> tuple[np.ndarray, np.ndarray]:
    """The last ``(dmat, seed)`` of ``orbit_metric_matrices``: order n = the orbits' depth."""
    if orbits.shape[1] < 1:
        raise ConfigError("config: orbit depth must be >= 1")
    for _, dmat, seed in orbit_metric_matrices(orbits, spec):
        pass
    return dmat, seed


def _running_max(size: int, orders):
    """Running maxima of per-order matrices, yielded as ``(n, dmat, seed)``.

    ``orders`` yields, for n = 1, 2, ..., a function ``tile(r0, r1)`` giving
    rows r0..r1 (r1 <= ``size``) of the upper triangle of the order's matrix
    over ``size + 1`` points: the cloud's, then one reference point (the
    centroid orbit), so a tile has ``size + 1 - r0`` columns.  Its first
    ``size - r0`` columns are folded into the running max ``dmat`` and
    mirrored below the diagonal; the last, each point's distance to the
    reference, is folded into ``seed``.  The bands of ``_row_bands`` are
    folded on its threads: band [r0, r1) writes rows r0..r1 of the upper
    triangle, columns r0..r1 of the lower one and ``seed[r0:r1]``, which no
    other band writes, so the result does not depend on the split.  Both
    arrays are updated in place on the next order.
    """
    dmat = np.zeros((size, size))
    seed = np.zeros(size)
    groups = _row_bands(size)
    for n, tile in enumerate(orders, 1):

        def fold(r0: int, r1: int, tile=tile) -> None:
            t = tile(r0, r1)
            band = dmat[r0:r1, r0:]
            np.maximum(band, t[:, :-1], out=band)
            dmat[r0:, r0:r1] = band.T
            np.maximum(seed[r0:r1], t[:, -1], out=seed[r0:r1])

        _on_workers(groups, fold)
        yield n, dmat, seed


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


def _checked_scales(eps_list) -> list[float]:
    """``eps_list`` as a list of Python floats, the scales a table records.

    A scale that is not a real number (a bool included), is not a finite
    number > 0 (an infinite scale would count one ball at every order), or
    is listed twice, whose cells a table would count twice, is refused.
    """
    scales: list[float] = []
    for eps in eps_list:
        if isinstance(eps, bool) or not isinstance(eps, numbers.Real):
            raise ConfigError(f"config: scale {eps!r} is not a number")
        eps = float(eps)
        if not 0 < eps < math.inf:
            raise ConfigError(f"config: eps values must be > 0 and finite, got {eps:g}")
        if eps in scales:
            raise ConfigError(f"config: scale eps={eps:g} repeats in the scale list")
        scales.append(eps)
    return scales


def _count_table(
    matrices,
    eps_list: list[float],
    cloud_size: int,
    orders: int,
    n_max: int,
) -> CountTable:
    """Counts over the (eps, n) grid from a stream of order-n matrices.

    ``matrices`` is an iterator of ``(n, dmat, seed)`` for n = 1 ..
    ``orders``, like the generator ``orbit_metric_matrices``, and may reuse
    one buffer.  The stream must be entrywise non-decreasing in n, as every
    running max of orbit distances is, and symmetric bit for bit, as the
    mirror in ``_running_max`` makes it (``counts_from_matrix`` does not
    test it again for the balls passed in).  All eps share one
    farthest-point walk per n, started from ``seed`` (each point's order-n
    distance to the centroid orbit): each cell's scan reads its own copy of
    the walk (``itertools.tee``), and the walk steps, reading a row of
    ``dmat`` each time, only as far as the scan that reads furthest, since a
    scan stops once every point is blocked.  The walk is closed before the
    stream's next order overwrites ``dmat``.  ``counts_from_matrix`` alone
    decides how a cell is counted; exact counts read no order, so a table
    within ``EXACT_CAP`` points never steps its walk.  Rows run over eps in
    list order, n ascending within each.

    ``n_max`` is the number of orders the caller asked for.  A stream with
    fewer ``orders`` comes from orbits that left the domain, and the table
    records ``truncated_at = orders`` (0 leaves no rows); a full table
    records None.  The direct and the lifted table both take this rule here.

    Once the largest eps's cell at some n < ``orders`` holds only the N
    diagonal entries (0, so below every eps), every pair is at least every
    eps apart at that n and, the stream being non-decreasing, at every later
    n; so every later cell counts sep = span = N.  Those rows are filled in,
    and the stream is not pulled again (a generator is closed, freeing its
    buffers), so its later orders are never built.  A stream that ends
    before ``orders`` without that, or runs past it, is refused.

    Each cell's eps-balls are built here and passed to
    ``counts_from_matrix``, as a packed mask or as row lists, unless they
    hold N pairs in all: then each ball holds only its centre, and the cell
    records sep = span = N with no scan, cover or walk step (after the
    largest eps's cell has taken its carry decision).  At every n
    the largest eps goes first: its entries hold those of every smaller eps
    at this n and, the stream being non-decreasing, those of every eps at
    later n.  Before that cell holds at most ``CARRY_DENSITY`` of the matrix,
    a cell counts from the mask ``dmat < eps`` packed one bit per pair
    (``_packed_below``), written into one N x ceil(N/8) buffer that every
    such cell of the table reuses; its ball sizes come from the same banded
    pass, and their sum is the largest eps's pair count.  Once that cell is
    sparse its flat indices are written, band by band from its packed rows,
    into one array of that many entries and kept, and every later cell tests
    only those entries and counts from the row lists they give.  The carried
    indices take four bytes each (``_flat_dtype``), and at each later n the
    largest eps's tested entries become the carried list as they are, with
    no copy.  A cell's row lists are intp, which numpy indexes with without
    a cast.  Every table, of any size, takes the same rule.  Besides the
    stream's matrix, the mask buffer or one carried list, and one cell's
    lists are held at a time (the mask and the list both while the cell
    that starts the carry is counted, and the old and the new list while
    the largest eps's cell tests the old one); every cell gets the same
    witnesses either way.
    """
    columns: list[list[CountRow]] = [[] for _ in eps_list]
    if eps_list:
        top = int(np.argmax(eps_list))
        cells = [top] + [k for k in range(len(eps_list)) if k != top]
        carried = top_count = bits = None
        n = 0
        for n, dmat, seed in matrices:
            size = dmat.shape[0]
            # one farthest-point walk per order, shared by its cells and closed
            # before the stream overwrites ``dmat``
            walk = _farthest_points(dmat, seed)
            for k, order in zip(cells, itertools.tee(walk, len(cells))):
                eps = eps_list[k]
                flat = None if carried is None else _flat_below(dmat, eps, carried)
                if flat is None:
                    ptr, bits = _packed_below(dmat, eps, bits)
                pairs = int(ptr[-1]) if flat is None else flat.size
                if k == top:
                    carried = None  # a cell too dense to carry keeps no list
                    top_count = pairs
                    if top_count <= CARRY_DENSITY * dmat.size:
                        carried = _packed_flat(ptr, bits) if flat is None else flat
                if pairs == size:  # every ball holds only its centre
                    counts = size, size
                else:
                    neighbours = (ptr, bits) if flat is None else _row_lists(flat, size)
                    sep, span = counts_from_matrix(dmat, eps, order=order, neighbours=neighbours)
                    counts = len(sep), len(span)
                    del neighbours  # free this cell's lists before the next cell builds its own
                del flat
                if carried is not None:
                    bits = None  # no later cell of the table counts from a mask
                columns[k].append(CountRow(eps, n, *counts))
            walk.close()
            if top_count == size and n < orders:
                if hasattr(matrices, "close"):
                    matrices.close()  # frees a generator's buffers; no later order is built
                later = range(n + 1, orders + 1)
                for k, eps in enumerate(eps_list):
                    columns[k].extend(CountRow(eps, m, size, size) for m in later)
                break
        else:
            if n != orders:
                raise ConfigError(
                    f"config: matrix stream stopped at n = {n}, not at orders = {orders}"
                )
    rows = tuple(row for column in columns for row in column)
    return CountTable(rows, cloud_size, orders if orders < n_max else None)


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
    sub: PointCloud,
    spec: MetricSpec,
    eps: float,
) -> SubsampleCountReport:
    """Verify the density-shifted count inequalities on one subsample draw.

    ``sub`` is a draw of ``dense_subsample(cloud, ...)``, whose mesh exceeds
    the cloud's by its covering radius within the cloud; that radius sets
    the shifted scales.
    """
    if cloud.size > EXACT_CAP:
        raise TooLargeError(
            f"too-large: subsample check needs exact counts, cap {EXACT_CAP}, got {cloud.size}"
        )
    (eps,) = _checked_scales([eps])
    radius = sub.mesh - cloud.mesh
    if radius < 0:
        raise ConfigError(
            "config: subsample mesh is below the cloud's; draw it with dense_subsample"
        )
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
