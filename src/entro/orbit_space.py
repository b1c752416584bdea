"""Entropy through the space of orbit sequences.

A point is lifted to its forward orbit; orbit sequences carry the weighted
sum metric ``dhat(x, y) = sum_i rho^(-i) d(x_i, y_i)`` and the dynamics turns
into the index shift.  Estimating entropy of the shift under dhat gives a
third route to the same number, one that never needs compact subsets.

Sequences are truncated at a length where the dropped tail is below a fixed
tolerance, so lifted points are ordinary finite vectors of stacked blocks.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import DynSystem, build_orbit_table
from .errors import ConfigError, NotSemiconjugateError, ShapeError, TooLargeError
from .estimators import EntropyEstimate, entropy_estimate
from .metric_core import (
    EXACT_CAP,
    CountTable,
    MetricSpec,
    PointCloud,
    _checked_scales,
    _count_table,
    _is_count,
    _is_seed,
    _orbit_stream,
    counts_from_matrix,
    last_orbit_matrix,
)

__all__ = [
    "choose_truncation",
    "lift_orbit",
    "dhat_dist",
    "shift_system",
    "friedland_count_table",
    "friedland_estimate",
    "MetricComparisonReport",
    "metric_comparison_check",
    "SemiconjReport",
    "semiconj_check",
]


def dhat_dist(x_blocks, y_blocks, rho: float) -> float:
    """Weighted orbit-sequence distance: sum of rho^(-i) base distances."""
    xs = np.asarray(x_blocks, dtype=float)
    ys = np.asarray(y_blocks, dtype=float)
    if xs.shape != ys.shape:
        raise ShapeError(f"shape: {xs.shape} vs {ys.shape}")
    steps = np.linalg.norm(xs - ys, axis=1)
    weights = rho ** -np.arange(len(steps), dtype=float)
    return float(np.dot(weights, steps))


def choose_truncation(rho: float, diameter: float, tail_tol: float = 1e-6) -> int:
    """Smallest M making the dropped tail of dhat provably below tail_tol.

    Every dropped term is at most rho^(-i) * diameter, so the tail after M
    terms is at most rho^(-M) * diameter / (1 - 1/rho).
    """
    if not 1 < rho < math.inf:
        raise ConfigError("config: rho must be a finite number > 1")
    if not 0 < tail_tol < math.inf:
        raise ConfigError("config: tail_tol must be a finite number > 0")
    if not 0 <= diameter < math.inf:
        raise ConfigError("config: diameter must be a finite number >= 0")
    if diameter == 0:
        return 1
    factor = diameter / (1 - 1 / rho)
    m = max(1, math.ceil(math.log(factor / tail_tol) / math.log(rho)))
    while rho ** -m * factor >= tail_tol:
        m += 1
    return m


def _iterate_diameter(system: DynSystem, cloud: PointCloud, depth: int = 4) -> float | None:
    """The diameter under which dhat's tail is cut, or None for a start outside the domain.

    dhat's dropped terms are distances between iterates, not between cloud
    points, so the bound is the bounding-box diagonal of the cloud's first
    min(depth, 4) iterates (as many as every orbit stays in the domain for),
    floored at 1e-12 for ``choose_truncation``.
    """
    probe = build_orbit_table(system, cloud, min(depth, 4), allow_truncation=True)
    if probe.depth == 0:
        return None
    flat = probe.orbits.reshape(-1, cloud.dim)
    return max(float(np.linalg.norm(flat.max(axis=0) - flat.min(axis=0))), 1e-12)


def lift_orbit(system: DynSystem, cloud: PointCloud, truncation: int) -> PointCloud:
    """Lift every cloud point to its stacked length-M orbit vector."""
    if not _is_count(truncation):
        raise ConfigError(f"config: truncation must be an int >= 1, got {truncation!r}")
    table = build_orbit_table(system, cloud, truncation)
    flat = table.orbits.reshape(cloud.size, truncation * cloud.dim)
    return PointCloud(flat.copy(), cloud.mesh, f"{cloud.label}|lift({truncation})")


def shift_system(system: DynSystem, truncation: int) -> DynSystem:
    """The index shift on stacked orbit vectors of the given system.

    Acting on a lifted orbit, dropping the first block and appending the step
    of the last block is exactly starting the orbit one iterate later, so
    lifting intertwines the base map with this shift.  A stacked vector is
    in the domain when every block is in the base domain.
    """
    if not _is_count(truncation):
        raise ConfigError(f"config: truncation must be an int >= 1, got {truncation!r}")
    d = system.dim

    def domain(pts: np.ndarray) -> np.ndarray:
        blocks = system.domain(pts.reshape(len(pts) * truncation, d))
        return blocks.reshape(len(pts), truncation).all(axis=1)

    def step(pts: np.ndarray) -> np.ndarray:
        return np.concatenate([pts[:, d:], system.step(pts[:, -d:])], axis=1)

    inverse = None
    if system.inverse is not None:
        def inverse(pts: np.ndarray) -> np.ndarray:
            return np.concatenate([system.inverse(pts[:, :d]), pts[:, :-d]], axis=1)

    return DynSystem(
        name=f"shift[{system.name},M={truncation}]",
        dim=truncation * d,
        step=step,
        domain=domain,
        inverse=inverse,
    )


def friedland_count_table(
    system: DynSystem,
    cloud: PointCloud,
    eps_list: list[float],
    n_max: int,
    rho: float = 2.0,
) -> CountTable:
    """Counts for the shift on lifted orbit sequences under the dhat metric.

    The base metric of dhat is euclidean; there is no spec to pass.
    Sequences keep m blocks, enough that the dropped tail is below 1e-6
    (``choose_truncation`` on ``_iterate_diameter`` of the first
    min(n_max, 4) iterates); the table's ``truncation`` records m.  The
    order-n matrices come from the one orbit stream of ``metric_core``,
    ``_orbit_stream``, with a window of m iterates (the direct table's
    window is one iterate).  It holds their running max plus the upper half
    of S in one array, which is freed when the table returns, or as soon as
    ``_count_table`` finds every pair separated at the largest scale.
    Scales are taken as in ``bd_count_table``: a scale that is not
    a number, is not finite and > 0, or is listed twice is refused before any orbit
    is built, and each is recorded as a Python float.

    Orbits that leave the domain truncate the table, as in
    ``bd_count_table``.  Lifted order n reads iterates up to n + m - 2, so
    an orbit table that stops at depth D < m + n_max - 1 gives the orders
    n <= D - m + 1, and ``truncated_at`` counts those lifted orders (0 when
    D < m).  A start outside the domain leaves no rows, ``truncated_at`` 0
    and ``truncation`` None, as no iterate is there to take m from.  An
    ``n_max`` that is not an int >= 1 is refused before any orbit is built.
    """
    if not _is_count(n_max):
        raise ConfigError(f"config: n_max must be an int >= 1, got {n_max!r}")
    if not 1 < rho < math.inf:
        raise ConfigError("config: rho must be a finite number > 1")
    eps_list = _checked_scales(eps_list)

    diam = _iterate_diameter(system, cloud, n_max)
    if diam is None:
        return replace(_count_table(iter(()), eps_list, cloud.size, 0, n_max), rho=rho)
    m = choose_truncation(rho, diam)

    table = build_orbit_table(system, cloud, m + n_max - 1, allow_truncation=True)
    orders = max(table.depth - m + 1, 0)
    return replace(_count_table(_orbit_stream(table.orbits, rho, m), eps_list, cloud.size,
                                orders, n_max), rho=rho, truncation=m)


def friedland_estimate(
    system: DynSystem,
    cloud: PointCloud,
    eps_list: list[float],
    n_max: int,
    rho: float = 2.0,
) -> EntropyEstimate:
    """Headline entropy of the shift on lifted orbit sequences.

    The settings the table used are its ``rho`` and ``truncation`` fields,
    not part of the estimate.
    """
    table = friedland_count_table(system, cloud, eps_list, n_max, rho=rho)
    return entropy_estimate(table)


# ---------------------------------------------------------------------------
# consistency checks


@dataclass(frozen=True)
class MetricComparisonReport:
    """Sampled two-sided comparison between dhat and the order-n max metrics.

    The cutoff ``n_tail`` is the smallest length whose dropped dhat tail is
    below eps.  forward: dhat < rho^(-n) * eps forces every base distance
    before step n below eps.  reverse: base distances before step n_tail all
    below eps force dhat below (n_tail + 1) * eps.  Both violation counts
    should be zero.
    """

    pairs_checked: int
    forward_hits: int
    forward_violations: int
    reverse_hits: int
    reverse_violations: int
    eps: float
    n_tail: int
    rho: float
    truncation: int

    @property
    def passed(self) -> bool:
        return self.forward_violations == 0 and self.reverse_violations == 0

    def line(self) -> str:
        status = "pass" if self.passed else "fail"
        return (
            f"metric-comparison(eps={self.eps:g}, rho={self.rho:g}): {status} "
            f"[{self.pairs_checked} pairs, forward {self.forward_violations} bad "
            f"of {self.forward_hits}, reverse {self.reverse_violations} bad "
            f"of {self.reverse_hits}]"
        )


def metric_comparison_check(
    system: DynSystem,
    cloud: PointCloud,
    rho: float = 2.0,
    eps: float = 0.1,
    sample_pairs: int = 500,
    seed: int = 0,
) -> MetricComparisonReport:
    """Test the dhat vs d_n comparison inequalities on sampled point pairs.

    ``n_tail`` and the pairs' orbit length m come from ``_iterate_diameter``
    of the cloud's first four iterates, so m is the lifted table's m
    whenever that table has n_max >= 4 and eps is above its 1e-6 tail.  An
    eps that is not a finite number > 0 (a bool included), a rho outside
    (1, inf), a ``sample_pairs`` that is not an int >= 1, a seed that is not
    an int >= 0, and a cloud of fewer than two points, which has no pair to
    sample, are refused before any orbit is built.
    """
    if isinstance(eps, bool) or not isinstance(eps, numbers.Real) or not 0 < eps < math.inf:
        raise ConfigError("config: eps must be a finite number > 0")
    if not 1 < rho < math.inf:
        raise ConfigError("config: rho must be a finite number > 1")
    if not _is_count(sample_pairs):
        raise ConfigError(f"config: sample_pairs must be an int >= 1, got {sample_pairs!r}")
    if not _is_seed(seed):
        raise ConfigError(f"config: seed must be an int >= 0, got {seed!r}")
    if cloud.size < 2:
        raise ConfigError(f"config: metric comparison needs >= 2 points, got {cloud.size}")
    # no start in the domain leaves diam 0, and the strict table below raises at step 0
    diam = _iterate_diameter(system, cloud) or 0.0
    n_tail = choose_truncation(rho, diam, tail_tol=eps)
    m = max(choose_truncation(rho, diam), n_tail + 1)
    table = build_orbit_table(system, cloud, m)
    orbits = table.orbits

    rng = np.random.default_rng(seed)
    k = min(sample_pairs, cloud.size * (cloud.size - 1) // 2)
    ii = rng.integers(0, cloud.size, size=4 * k + 8)
    jj = rng.integers(0, cloud.size, size=4 * k + 8)
    keep = ii != jj
    ii, jj = ii[keep][:k], jj[keep][:k]

    weights = rho ** -np.arange(m, dtype=float)
    fwd_hits = fwd_bad = rev_hits = rev_bad = 0
    for a, b in zip(ii, jj):
        steps = np.linalg.norm(orbits[a] - orbits[b], axis=1)
        dh = float(np.dot(weights, steps))
        if dh < rho ** -n_tail * eps:
            fwd_hits += 1
            if float(steps[:n_tail].max()) >= eps:
                fwd_bad += 1
        if float(steps[:n_tail].max()) < eps:
            rev_hits += 1
            if dh >= (n_tail + 1) * eps:
                rev_bad += 1
    return MetricComparisonReport(
        pairs_checked=int(len(ii)),
        forward_hits=fwd_hits,
        forward_violations=fwd_bad,
        reverse_hits=rev_hits,
        reverse_violations=rev_bad,
        eps=eps,
        n_tail=n_tail,
        rho=rho,
        truncation=m,
    )


@dataclass(frozen=True)
class SemiconjReport:
    """Count comparison across a factor map.

    If h carries the upstairs dynamics onto the downstairs one and shrinks
    distances no worse than the stated modulus, every downstairs separated
    set pulls back, so upstairs counts dominate.
    """

    residual: float
    eps_down: float
    delta_up: float
    n: int
    sep_up: int
    sep_down: int
    span_up: int
    span_down: int

    @property
    def passed(self) -> bool:
        return self.sep_up >= self.sep_down and self.span_up >= self.span_down

    def line(self) -> str:
        status = "pass" if self.passed else "fail"
        return (
            f"factor-counts(n={self.n}): {status} "
            f"[sep {self.sep_up}>={self.sep_down}, span {self.span_up}>={self.span_down}, "
            f"residual {self.residual:.3g}]"
        )


def semiconj_check(
    up_system: DynSystem,
    down_system: DynSystem,
    h,
    cloud: PointCloud,
    eps_down: float,
    n: int,
    delta_up: float | None = None,
    modulus=None,
    down_spec: MetricSpec | None = None,
) -> SemiconjReport:
    """Verify count domination across a factor map on a small cloud.

    ``h`` maps a (k, up dim) array of upstairs points to the (k, down dim)
    array of their downstairs images; ``modulus`` bounds how far h can
    spread a distance (default: identity, i.e. 1-Lipschitz), and
    ``delta_up`` is the upstairs scale whose modulus value stays within
    ``eps_down`` (default eps_down itself).  Upstairs distances are
    euclidean, and h must intertwine the two steps within 1e-9.  The cloud
    must fit the exact counter; greedy counts cannot certify an inequality.
    An ``n`` that is not an int >= 1 is refused before any orbit is built.
    """
    if not _is_count(n):
        raise ConfigError(f"config: n must be >= 1 and an int, got {n!r}")
    if cloud.size > EXACT_CAP:
        raise TooLargeError(
            f"too-large: factor check needs exact counts, cap {EXACT_CAP}, got {cloud.size}"
        )
    down_spec = down_spec or MetricSpec.euclidean()
    delta_up = eps_down if delta_up is None else delta_up
    mod = modulus or (lambda t: t)
    if mod(delta_up) > eps_down + 1e-12:
        raise ConfigError(
            f"config: modulus({delta_up:g}) = {mod(delta_up):g} exceeds eps_down {eps_down:g}"
        )

    up_table = build_orbit_table(up_system, cloud, n + 1)
    down_pts = h(cloud.points)
    pushed = h(up_table.orbits[:, 1, :])
    worst = float(np.linalg.norm(pushed - down_system.step(down_pts), axis=1).max())
    if worst > 1e-9:
        raise NotSemiconjugateError(
            f"not-semiconjugate: residual {worst:.3g} exceeds 1e-09"
        )

    down_cloud = PointCloud(down_pts, cloud.mesh, f"{cloud.label}|image")
    down_table = build_orbit_table(down_system, down_cloud, n)
    up_mat, _ = last_orbit_matrix(up_table.orbits[:, :n], MetricSpec.euclidean())
    down_mat, _ = last_orbit_matrix(down_table.orbits, down_spec)
    sep_up, span_up = counts_from_matrix(up_mat, delta_up)
    sep_down, span_down = counts_from_matrix(down_mat, eps_down)
    return SemiconjReport(
        residual=worst,
        eps_down=eps_down,
        delta_up=delta_up,
        n=n,
        sep_up=len(sep_up),
        sep_down=len(sep_down),
        span_up=len(span_up),
        span_down=len(span_down),
    )
