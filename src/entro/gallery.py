"""Worked example systems packaged as ready-to-estimate bundles.

Each bundle couples a system, the metric of its ambient embedding, a sample
cloud with an honest density claim, a nested family of compact-subset
samples, and the entropy value the construction is known to realize:

* ``crumple``: a homeomorphism of a curve whose oscillation rate multiplies
  by N from each depth interval to the next.  Forward orbits pick up a
  factor of N in separated counts per step; backward orbits do too, but
  every bounded-depth compact subset loses the growth.
* ``escape``: a translation whose single orbit runs off to the puncture of
  the space, decorated with a height coordinate that encodes every finite
  word over an N-letter alphabet.  Counts at scale 1 are exact word counts.
* ``annulus``: the complex squaring map on three embeddings of the same
  cylinder (punctured disc, inverted disc, sphere), showing the estimate
  is a property of the metric, not the abstract map.
* ``doubling``: angle doubling on the unit circle, the compact baseline.
* ``interval-homeo``: the crumple base map alone on (0, 1]; entropy zero.

``run_bundle`` runs the three estimators on a bundle and returns one record
that every front end reads.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import DynSystem, bd_count_table, pointwise
from .errors import ConfigError, MeshError, UndefinedPointError
from .estimators import (
    CompactFamily,
    EntropyEstimate,
    InequalityVerdict,
    compacta_estimate,
    entropy_estimate,
    inequality_report,
)
from .metric_core import CountTable, MetricSpec, PointCloud
from .orbit_space import friedland_count_table

__all__ = [
    "GalleryBundle",
    "lap_start_index",
    "interval_of_lap",
    "lap_endpoint",
    "lap_image",
    "crumple_height",
    "interval_step",
    "interval_step_inv",
    "crumple_system",
    "build_crumple",
    "word_concatenation",
    "build_escape",
    "AkmCoverRecord",
    "akm_cover_demo",
    "build_annulus",
    "build_doubling",
    "build_interval_homeo",
    "build_bundle",
    "default_suite",
    "ALL_METHODS",
    "BundleRun",
    "run_bundle",
]


@dataclass(frozen=True)
class GalleryBundle:
    """A system with everything needed to run the three estimators on it."""

    name: str
    system: DynSystem
    metric: MetricSpec
    cloud: PointCloud
    family: CompactFamily
    target: float | None
    eps_list: tuple[float, ...]
    n_max: int
    rho: float = 2.0
    mesh_exempt: bool = False

    def with_settings(
        self,
        eps_list: tuple[float, ...] | None = None,
        n_max: int | None = None,
        rho: float | None = None,
    ) -> "GalleryBundle":
        """This bundle with the scales, orders and rho given; None keeps its own."""
        return replace(
            self,
            eps_list=self.eps_list if eps_list is None else tuple(eps_list),
            n_max=self.n_max if n_max is None else n_max,
            rho=self.rho if rho is None else rho,
        )


# ---------------------------------------------------------------------------
# crumpled curve
#
# The base space is (0, 1] cut into intervals I_j = [1/(j+1), 1/j]; I_j is
# cut into N^(j-1) equal laps, indexed globally from the right starting at
# lap 0 = I_1.  The height function runs a straight segment from +-1 to -+1
# across each lap, so the curve oscillates N times faster on each deeper
# interval.  The base map g slides I_j affinely onto I_(j+1) (and stretches
# I_1 over I_1 and I_2), which crumples each lap over N laps of the image.


def lap_start_index(N: int, j: int) -> int:
    """Global index of the first (rightmost) lap of interval j."""
    return (N ** (j - 1) - 1) // (N - 1)


def interval_of_lap(N: int, k: int) -> int:
    """The interval number j whose lap range contains global lap k."""
    if k < 0:
        raise ConfigError("config: lap index must be >= 0")
    j = 1
    while lap_start_index(N, j + 1) <= k:
        j += 1
    return j


def lap_endpoint(N: int, k: int) -> float:
    """Right endpoint of lap k (lap k spans [lap_endpoint(k+1), lap_endpoint(k)])."""
    j = interval_of_lap(N, k)
    i = k - lap_start_index(N, j)
    return 1.0 / j - i / (j * (j + 1) * N ** (j - 1))


def lap_image(N: int, k: int) -> tuple[int, int]:
    """Global index range of the N laps the base map sends lap k onto (k >= 1)."""
    if k < 1:
        raise ConfigError("config: lap 0 spreads over N+1 laps; image defined for k >= 1")
    j = interval_of_lap(N, k)
    i = k - lap_start_index(N, j)
    base = lap_start_index(N, j + 1) + i * N
    return base, base + N - 1


def crumple_height(N: int, x: float) -> float:
    """Height of the curve over base point x: a unit sawtooth per lap."""
    if x >= 1.0:
        return 1.0
    if x <= 0.0:
        raise UndefinedPointError(0, np.array([x]))
    j = int(1.0 / x)
    if j < 1:
        j = 1
    laps = N ** (j - 1)
    t = (1.0 / j - x) * j * (j + 1)
    t = min(max(t, 0.0), 1.0)
    pos = t * laps
    i = min(int(pos), laps - 1)
    u = pos - i
    k = lap_start_index(N, j) + i
    sign = 1.0 if k % 2 == 0 else -1.0
    return sign * (1.0 - 2.0 * u)


def interval_step(x: float) -> float:
    """Base map: slides interval j onto interval j+1, fixing 1."""
    j = int(1.0 / x) if x > 0 else 0
    if j <= 1:
        return min((4.0 * x - 1.0) / 3.0, 1.0)
    return 1.0 / (j + 2) + (x - 1.0 / (j + 1)) * j / (j + 2)


def interval_step_inv(y: float) -> float:
    """Inverse of the base map: slides interval j+1 back onto interval j."""
    if y >= 1.0 / 3.0:
        return min((3.0 * y + 1.0) / 4.0, 1.0)
    j = int(1.0 / y)
    return 1.0 / j + (y - 1.0 / (j + 1)) * (j + 1) / (j - 1)


def crumple_system(N: int, direction: str = "forward") -> DynSystem:
    """The curve homeomorphism as a planar system on graph points (x, height)."""
    if N < 2:
        raise ConfigError("config: crumple N must be >= 2")
    if direction not in ("forward", "inverse"):
        raise ConfigError(f"config: direction must be forward or inverse, got {direction!r}")

    def fwd(p: np.ndarray) -> np.ndarray:
        x = interval_step(float(p[0]))
        return np.array([x, crumple_height(N, x)])

    def bwd(p: np.ndarray) -> np.ndarray:
        x = interval_step_inv(float(p[0]))
        return np.array([x, crumple_height(N, x)])

    def domain(p: np.ndarray) -> bool:
        return 0.0 < float(p[0]) <= 1.0 + 1e-9

    step, inverse = (fwd, bwd) if direction == "forward" else (bwd, fwd)
    return DynSystem(
        name=f"crumple{N}-{direction}",
        dim=2,
        step=pointwise(step),
        domain=pointwise(domain),
        inverse=pointwise(inverse),
    )


# Within-lap sample phases are offset by an irrational-like shift.  A
# symmetric grid puts every sample's exact mirror image (about the nearest
# lap vertex) into the cloud, and mirror pairs never separate under the
# reflection-symmetric sawtooth; the offset breaks those ties.
GRID_OFFSET = 0.381966


def _crumple_cloud(N: int, lap_indices, mesh: float, label: str) -> PointCloud:
    """Per-lap samples along the curve at offset phases."""
    if not mesh > 0:
        raise ConfigError("config: mesh must be > 0")
    chunks = []
    for k in lap_indices:
        right = lap_endpoint(N, k)
        left = lap_endpoint(N, k + 1)
        seg = math.hypot(right - left, 2.0)
        m_pts = math.ceil(seg / mesh) + 1
        if m_pts < 3:
            raise MeshError(
                f"mesh: {mesh:g} leaves lap {k} with {m_pts} samples; need >= 3"
            )
        u = (np.arange(m_pts) + GRID_OFFSET) / m_pts
        x = right - u * (right - left)
        sign = 1.0 if k % 2 == 0 else -1.0
        y = sign * (1.0 - 2.0 * u)
        chunks.append(np.column_stack([x, y]))
    return PointCloud(np.vstack(chunks), mesh, label)


def _crumple_lap_reps(N: int, depth: int, label: str) -> PointCloud:
    """One sample per lap, all at the same within-lap phase.

    Iterating the curve map backward contracts within-lap phase, so extra
    samples inside a lap never separate; only the lap address matters.  One
    representative per lap buys maximal address coverage per point.
    """
    pts = np.empty((depth + 1, 2))
    for k in range(depth + 1):
        right = lap_endpoint(N, k)
        left = lap_endpoint(N, k + 1)
        pts[k, 0] = right - GRID_OFFSET * (right - left)
        sign = 1.0 if k % 2 == 0 else -1.0
        pts[k, 1] = sign * (1.0 - 2.0 * GRID_OFFSET)
    return PointCloud(pts, 0.5, label)


def build_crumple(
    N: int,
    depth: int | None = None,
    mesh: float | None = None,
    direction: str = "forward",
    family_mesh: float = 0.02,
) -> GalleryBundle:
    """Bundle for the curve homeomorphism.

    ``depth`` is the largest global lap index sampled.  The forward bundle
    concentrates its budget on the laps of the second interval, sampled
    finely: forward iteration expands within-lap phase, so per-lap
    resolution is what feeds the counts.  The inverse bundle instead keeps
    one sample per lap across every lap of the first several intervals:
    backward iteration contracts phase and only lap addresses separate, so
    breadth beats density there.  The per-lap sampling deliberately breaks
    the mesh <= eps/4 rule of thumb, hence ``mesh_exempt``.
    """
    system = crumple_system(N, direction)
    if direction == "forward":
        depth = N if depth is None else depth
        mesh = 0.0007 if mesh is None else mesh
        if depth < 2:
            raise ConfigError("config: depth must be >= 2")
        cloud = _crumple_cloud(
            N, range(1, depth + 1), mesh, f"crumple{N}-forward|laps1..{depth}"
        )
        members = tuple(
            _crumple_cloud(N, range(1, hi + 1), mesh, f"crumple{N}|laps1..{hi}")
            for hi in range(1, depth + 1)
        )
    else:
        if depth is None:
            j_deep = 2
            while lap_start_index(N, j_deep + 1) < 2000:
                j_deep += 1
            depth = lap_start_index(N, j_deep + 1) - 1
        if depth < 2:
            raise ConfigError("config: depth must be >= 2")
        cloud = _crumple_lap_reps(N, depth, f"crumple{N}-inverse|laps0..{depth}")
        members = tuple(
            _crumple_cloud(N, range(hi + 1), family_mesh, f"crumple{N}|laps0..{hi}")
            for hi in (0, N)
        )
    return GalleryBundle(
        name=f"crumple{N}-{direction}",
        system=system,
        metric=MetricSpec.euclidean(),
        cloud=cloud,
        family=CompactFamily(members),
        target=math.log(N),
        eps_list=(0.8, 0.4, 0.2, 0.15),
        n_max=6,
        # rho exceeds the one-step stretch of the curve map, so the lifted
        # metric stays comparable to the base metric
        rho=6.0,
        mesh_exempt=direction == "inverse",
    )


# ---------------------------------------------------------------------------
# escaping orbit with word heights


def word_concatenation(N: int, L_max: int) -> list[int]:
    """All words over {0..N-1} of lengths 1..L_max, concatenated in lex order."""
    if N < 2 or L_max < 1:
        raise ConfigError("config: need N >= 2 and L_max >= 1")
    out: list[int] = []
    for length in range(1, L_max + 1):
        for idx in range(N ** length):
            digits = []
            v = idx
            for _ in range(length):
                digits.append(v % N)
                v //= N
            out.extend(reversed(digits))
    return out


def _escape_index(b: float) -> int:
    return int(round(1.0 / b - 1.0))


def build_escape(
    N: int = 2,
    L_max: int = 6,
    orbit_len: int | None = None,
    mesh: float = 1e-3,
) -> GalleryBundle:
    """Bundle for the decorated escaping orbit.

    The base point of index i sits at 1/(1+i); the height is the i-th symbol
    of the word-complete sequence plus one.  Stepping advances the index, so
    the single orbit drifts toward the puncture at 0 while its heights spell
    out every finite word.  The sequence is materialized to ``orbit_len``
    symbols (cyclic extension past the concatenation) and running past the
    window is an escape.
    """
    s = word_concatenation(N, L_max)
    concat_len = len(s)
    if orbit_len is None:
        orbit_len = concat_len + 64
    if orbit_len < concat_len:
        raise ConfigError(
            f"config: orbit_len {orbit_len} shorter than the {concat_len}-symbol"
            f" concatenation for L_max={L_max}"
        )
    heights = np.array(
        [s[i % concat_len] + 1 for i in range(orbit_len)], dtype=float
    )

    def step(p: np.ndarray) -> np.ndarray:
        b = float(p[0])
        i = _escape_index(b)
        return np.array([b / (1.0 + b), heights[i + 1]])

    def inverse(p: np.ndarray) -> np.ndarray:
        b = float(p[0])
        i = _escape_index(b)
        if i < 1:
            raise UndefinedPointError(0, p)
        return np.array([b / (1.0 - b), heights[i - 1]])

    def domain(p: np.ndarray) -> bool:
        b = float(p[0])
        if not 0.0 < b <= 1.0 + 1e-9:
            return False
        return _escape_index(b) < orbit_len - 1

    system = DynSystem(
        name=f"escape{N}",
        dim=2,
        step=pointwise(step),
        domain=pointwise(domain),
        inverse=pointwise(inverse),
    )
    idx = np.arange(concat_len)
    pts = np.column_stack([1.0 / (1.0 + idx), heights[:concat_len]])
    cloud = PointCloud(pts, mesh, f"escape{N}|orbit0..{concat_len - 1}")

    member_cuts = [concat_len // 4, concat_len // 2, concat_len]
    members = tuple(
        cloud.subset(np.arange(cut), f"escape{N}|orbit0..{cut - 1}")
        for cut in member_cuts
    )
    return GalleryBundle(
        name=f"escape{N}",
        system=system,
        metric=MetricSpec.euclidean(),
        cloud=cloud,
        family=CompactFamily(members),
        target=math.log(N),
        # At scale 1 two points separate exactly when their symbol windows
        # differ.  Heights sit on integers, so scales 1 and 0.75 count
        # identically.
        eps_list=(1.0, 0.75, 0.5),
        n_max=8,
        rho=6.0,
    )


@dataclass(frozen=True)
class AkmCoverRecord:
    """Symbolic-cover bookkeeping for the decorated orbit."""

    cover_size: int
    refinement_size: int
    has_proper_subcover: bool
    entropy: float
    empty_cells: int


def akm_cover_demo(N: int, n: int, L_max: int) -> AkmCoverRecord:
    """Refine the height cover n times and certify it has no proper subcover.

    Cells of the n-fold refinement are length-n symbol windows.  Every cell
    is witnessed by some orbit index, cells partition the indices, so no
    cell can be dropped; the cover entropy is n*log N exactly.
    """
    if n < 1 or n > L_max:
        raise ConfigError(f"config: need 1 <= n <= L_max, got n={n}, L_max={L_max}")
    s = word_concatenation(N, L_max)
    seen: set[tuple[int, ...]] = set()
    for i in range(len(s) - n + 1):
        seen.add(tuple(s[i : i + n]))
    empty = N ** n - len(seen)
    return AkmCoverRecord(
        cover_size=N,
        refinement_size=N ** n,
        has_proper_subcover=empty > 0,
        entropy=n * math.log(N),
        empty_cells=empty,
    )


# ---------------------------------------------------------------------------
# annulus trio: one map, three embeddings


def _polar_points(spacing: float, r_lo: float, r_hi: float, boost_from: float, boost: int):
    rows = []
    r = r_lo
    while r <= r_hi + 1e-12:
        factor = boost if r >= boost_from else 1
        count = max(8, math.ceil(2.0 * math.pi * r * factor / spacing))
        theta = np.arange(count) * (2.0 * math.pi / count)
        rows.append(np.column_stack([r * np.cos(theta), r * np.sin(theta)]))
        r += spacing
    return np.vstack(rows)


def _square_step(pts: np.ndarray) -> np.ndarray:
    x, y = pts[:, 0], pts[:, 1]
    return np.column_stack([x * x - y * y, 2.0 * x * y])


def build_annulus(
    variant: str = "disc",
    mesh: float | None = None,
    family_spacing: float = 0.035,
) -> GalleryBundle:
    """Bundle for the squaring map under one of three embeddings.

    disc: points r*e(theta) in the punctured disc; squaring sends radii to
    their squares, so orbits fall toward the puncture and only samples near
    the missing rim keep doubling their angular separation.  inverted: the
    radius is measured from the rim instead, orbits climb toward the unit
    circle and compact annuli keep the growth.  sphere: both ends collapse
    to poles of a round sphere, and the growth dies entirely.
    """
    if variant not in ("disc", "inverted", "sphere"):
        raise ConfigError(f"config: unknown annulus variant {variant!r}")
    for key, value in (("mesh", mesh), ("family_spacing", family_spacing)):
        if value is not None and not 0 < value < math.inf:
            raise ConfigError(f"config: annulus {key} must be a finite number > 0")

    if variant in ("disc", "inverted"):
        mesh = 0.05 if mesh is None else mesh
        spacing = 0.7 * mesh
        if variant == "disc":
            # Squaring halves the distance to the puncture on a log scale, so
            # a ring at 1 - delta feeds angle doubling for about log2(1/delta)
            # steps before its radius collapses.  Rim rings at geometric
            # depths carry the growth; a sparse polar grid covers the rest.
            rings = []
            for delta, count in ((0.001, 3600), (0.004, 900), (0.016, 225)):
                theta = np.arange(count) * (2.0 * math.pi / count)
                r = 1.0 - delta
                rings.append(np.column_stack([r * np.cos(theta), r * np.sin(theta)]))
            rings.append(_polar_points(spacing, spacing / 2, 0.95, 2.0, 1))
            pts = np.vstack(rings)
            step = _square_step
        else:
            pts = _polar_points(spacing, spacing / 2, 1.0 - spacing / 2, 0.85, 3)

            def step(pts_: np.ndarray) -> np.ndarray:
                r = np.hypot(pts_[:, 0], pts_[:, 1])
                q = _square_step(pts_)
                scale = np.where(r > 0, (2.0 - r) / np.maximum(r, 1e-300), 1.0)
                return q * scale[:, None]

        def domain(pts_: np.ndarray) -> np.ndarray:
            return pts_[:, 0] ** 2 + pts_[:, 1] ** 2 <= 1.0 + 1e-9

        system = DynSystem(name=f"annulus-{variant}", dim=2, step=step, domain=domain)
        cloud = PointCloud(pts, mesh, f"annulus-{variant}|polar")
        radii = (0.5, 0.6, 0.7)
        member_pts = _polar_points(family_spacing, 0.3, max(radii), 2.0, 1)
        rr = np.hypot(member_pts[:, 0], member_pts[:, 1])
        members = tuple(
            PointCloud(
                member_pts[rr <= hi + 1e-12].copy(),
                family_spacing,
                f"annulus-{variant}|0.3<=r<={hi}",
            )
            for hi in radii
        )
        return GalleryBundle(
            name=f"annulus-{variant}",
            system=system,
            metric=MetricSpec.euclidean(),
            cloud=cloud,
            family=CompactFamily(members),
            target=math.log(2),
            eps_list=(0.8, 0.4, 0.2) if variant == "disc" else (1.2, 0.8, 0.4),
            n_max=9,
            rho=6.0,
        )

    # sphere: latitude rings, both boundary circles collapsed to poles
    mesh = 0.1 if mesh is None else mesh
    spacing = 0.7 * mesh

    def sphere_step(p: np.ndarray) -> np.ndarray:
        z = min(max(float(p[2]), -1.0), 1.0)
        xx = math.acos(z) / math.pi
        theta = math.atan2(float(p[1]), float(p[0]))
        phi = math.pi * xx * xx
        s = math.sin(phi)
        return np.array([s * math.cos(2 * theta), s * math.sin(2 * theta), math.cos(phi)])

    def sphere_domain(p: np.ndarray) -> bool:
        return abs(float(np.dot(p, p)) - 1.0) < 1e-6

    rows = []
    n_lat = math.ceil(math.pi / spacing)
    for a in range(1, n_lat):
        phi = a * math.pi / n_lat
        count = max(6, math.ceil(2.0 * math.pi * math.sin(phi) / spacing))
        theta = np.arange(count) * (2.0 * math.pi / count)
        rows.append(
            np.column_stack(
                [
                    math.sin(phi) * np.cos(theta),
                    math.sin(phi) * np.sin(theta),
                    np.full(count, math.cos(phi)),
                ]
            )
        )
    pts = np.vstack(rows)
    system = DynSystem(
        name="annulus-sphere",
        dim=3,
        step=pointwise(sphere_step),
        domain=pointwise(sphere_domain),
    )
    cloud = PointCloud(pts, mesh, "annulus-sphere|latlong")
    lat = np.arccos(np.clip(pts[:, 2], -1, 1))
    cuts = (2.2, 2.6, math.pi)
    members = tuple(
        PointCloud(pts[lat <= c + 1e-12].copy(), mesh, f"annulus-sphere|lat<={c:g}")
        for c in cuts
    )
    return GalleryBundle(
        name="annulus-sphere",
        system=system,
        metric=MetricSpec.euclidean(),
        cloud=cloud,
        family=CompactFamily(members),
        target=0.0,
        eps_list=(1.2, 0.8, 0.4),
        # the deep window lets the estimator see the counts go flat
        n_max=13,
        rho=4.0,
    )


# ---------------------------------------------------------------------------
# doubling baseline and the bare interval map


def build_doubling(grid: int = 4096) -> GalleryBundle:
    """Angle doubling on a circle grid: the compact sanity baseline."""
    if isinstance(grid, bool) or not isinstance(grid, (int, np.integer)) or grid < 16:
        raise ConfigError("config: doubling grid must be an integer >= 16")
    theta = np.arange(grid) * (2.0 * math.pi / grid)
    pts = np.column_stack([np.cos(theta), np.sin(theta)])

    def domain(pts_: np.ndarray) -> np.ndarray:
        return np.abs(pts_[:, 0] ** 2 + pts_[:, 1] ** 2 - 1.0) < 1e-6

    # Renormalizing after the square keeps long orbits on the circle; the
    # magnitude error otherwise doubles each step and breaches the domain
    # tolerance around step 30.
    def step(pts_: np.ndarray) -> np.ndarray:
        q = _square_step(pts_)
        return q / np.linalg.norm(q, axis=1, keepdims=True)

    system = DynSystem(name="doubling", dim=2, step=step, domain=domain)
    mesh = 2.0 * math.pi / grid
    cloud = PointCloud(pts, mesh, f"doubling|grid{grid}")
    members = tuple(
        cloud.subset(np.arange(grid // den), f"doubling|arc1/{den}")
        for den in (4, 2, 1)
    )
    return GalleryBundle(
        name="doubling",
        system=system,
        metric=MetricSpec.euclidean(),
        cloud=cloud,
        family=CompactFamily(members),
        target=math.log(2),
        eps_list=(0.04, 0.02, 0.01),
        n_max=12,
        rho=4.0,
    )


def build_interval_homeo(mesh: float = 0.0125) -> GalleryBundle:
    """The crumple base map alone on (0, 1]: a zero-entropy homeomorphism."""
    if not 0 < mesh <= 0.25:
        raise ConfigError("config: mesh must be in (0, 0.25]")
    xs = np.arange(mesh, 1.0 + 1e-12, mesh)[:, None]

    def step(p: np.ndarray) -> np.ndarray:
        return np.array([interval_step(float(p[0]))])

    def inverse(p: np.ndarray) -> np.ndarray:
        return np.array([interval_step_inv(float(p[0]))])

    def domain(p: np.ndarray) -> bool:
        return 0.0 < float(p[0]) <= 1.0 + 1e-9

    system = DynSystem(
        name="interval-homeo",
        dim=1,
        step=pointwise(step),
        domain=pointwise(domain),
        inverse=pointwise(inverse),
    )
    cloud = PointCloud(xs, mesh, "interval-homeo|grid")
    members = tuple(
        cloud.subset(np.flatnonzero(xs[:, 0] >= lo), f"interval-homeo|[{lo:g},1]")
        for lo in (0.25, 0.0625, mesh / 2)
    )
    return GalleryBundle(
        name="interval-homeo",
        system=system,
        metric=MetricSpec.euclidean(),
        cloud=cloud,
        family=CompactFamily(members),
        # monotone interval map: counts stay near their order-1 values
        target=0.0,
        eps_list=(0.2, 0.1, 0.05),
        n_max=8,
    )


# ---------------------------------------------------------------------------
# registry


def build_bundle(name: str, **params) -> GalleryBundle:
    """Build a bundle by CLI name with keyword overrides."""
    builders = {
        "crumple": build_crumple,
        "escape": build_escape,
        "annulus": build_annulus,
        "doubling": build_doubling,
        "interval-homeo": build_interval_homeo,
    }
    if name not in builders:
        raise ConfigError(
            f"config: unknown gallery name {name!r}; choose from {sorted(builders)}"
        )
    try:
        return builders[name](**params)
    except TypeError as exc:
        raise ConfigError(f"config: bad parameters for {name}: {exc}") from None


def default_suite() -> tuple[GalleryBundle, ...]:
    """The acceptance line-up: every bundle the cross-definition suite runs on."""
    return (
        build_doubling(),
        build_crumple(2, direction="forward"),
        build_crumple(2, direction="inverse"),
        build_crumple(3, direction="forward"),
        build_crumple(3, direction="inverse"),
        build_annulus("disc"),
        build_annulus("inverted"),
        build_annulus("sphere"),
        build_escape(2),
        build_escape(3),
        build_interval_homeo(),
    )


# ---------------------------------------------------------------------------
# the three-estimator pipeline

ALL_METHODS = ("bowen_dinaburg", "compacta", "friedland")


@dataclass(frozen=True)
class BundleRun:
    """The three estimates on one bundle and the verdict across them.

    ``bundle`` carries the scales, orders and rho the run used.  An estimate
    that was not asked for is None, and so is its table; ``verdict`` is None
    unless all three ran.  ``elapsed`` is the wall time of the run in seconds.
    """

    bundle: GalleryBundle
    bd_table: CountTable | None
    bd: EntropyEstimate | None
    bc: EntropyEstimate | None
    fr_table: CountTable | None
    fr: EntropyEstimate | None
    verdict: InequalityVerdict | None
    elapsed: float


def run_bundle(bundle: GalleryBundle, methods: tuple[str, ...] = ALL_METHODS) -> BundleRun:
    """Direct counts, compact exhaustion and the lifted shift, in that order.

    The run uses the bundle's scales, orders and rho (``with_settings``
    changes them); ``methods`` names the estimators to run (see
    ``ALL_METHODS``).  The verdict uses the default slack of
    ``inequality_report``.  The lifted estimate has a euclidean base metric,
    so it refuses a bundle with any other metric.
    """
    start = time.perf_counter()
    system, cloud, eps_list, n_max = bundle.system, bundle.cloud, bundle.eps_list, bundle.n_max
    if "friedland" in methods and bundle.metric.kind != "euclidean":
        raise ConfigError(
            "config: the lifted estimate needs a euclidean base metric,"
            f" got {bundle.metric.describe()}"
        )
    bd_table = bd = bc = fr_table = fr = verdict = None
    if "bowen_dinaburg" in methods:
        bd_table = bd_count_table(system, cloud, bundle.metric, eps_list, n_max)
        bd = entropy_estimate(bd_table)
    if "compacta" in methods:
        bc = compacta_estimate(system, bundle.metric, bundle.family, eps_list, n_max)
    if "friedland" in methods:
        fr_table = friedland_count_table(system, cloud, eps_list, n_max, rho=bundle.rho)
        fr = entropy_estimate(fr_table)
    if bd is not None and bc is not None and fr is not None:
        verdict = inequality_report(bd, bc, fr)
    return BundleRun(bundle, bd_table, bd, bc, fr_table, fr, verdict, time.perf_counter() - start)
