"""Dynamical systems as array rules, orbits, and orbit-metric counting.

A system is a step rule on an embedded space together with a domain
predicate.  Orbits that leave the domain raise ``EscapeError`` carrying the
first bad step; the counting front end can instead truncate the table at the
largest step every orbit survives.

The order-n orbit metric between two points is the max over the first n
iterates of the base distance.  Count tables are built incrementally: one
running-max distance matrix per n, shared by all epsilon values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, EscapeError, UndefinedPointError
from .metric_core import (
    CountTable,
    MetricSpec,
    PointCloud,
    count_table,
    counts_from_matrix,
    farthest_point_order,
    last_orbit_matrix,
    orbit_metric_matrices,
    pairwise_dist,
)

__all__ = [
    "DynSystem",
    "pointwise",
    "OrbitTable",
    "iterate_orbit",
    "build_orbit_table",
    "bd_dist",
    "bd_count_table",
    "TransportVerdict",
    "inverse_transport_check",
]


@dataclass(frozen=True)
class DynSystem:
    """A continuous self-map presented as array rules.

    ``step`` and ``inverse`` map a (k, dim) float array of points to the
    (k, dim) array of their images, and ``domain`` returns k bools; a rule
    written for one point is lifted with ``pointwise``.  ``inverse`` is None
    for a map with no inverse.
    """

    name: str
    dim: int
    step: Callable[[np.ndarray], np.ndarray]
    domain: Callable[[np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray], np.ndarray] | None = None

    @property
    def invertible(self) -> bool:
        return self.inverse is not None


def pointwise(rule: Callable[[np.ndarray], object]) -> Callable[[np.ndarray], np.ndarray]:
    """Lift a rule on one point to an array rule that applies it row by row."""

    def on_rows(pts: np.ndarray) -> np.ndarray:
        return np.array([rule(p) for p in pts])

    return on_rows


def iterate_orbit(system: DynSystem, x, n: int) -> np.ndarray:
    """The first ``n`` orbit points (x, f x, ..., f^(n-1) x) as an (n, d) array."""
    start = PointCloud(np.reshape(x, (1, system.dim)), np.inf)
    return build_orbit_table(system, start, n).orbits[0]


@dataclass(frozen=True)
class OrbitTable:
    """Precomputed orbits for every cloud point: orbits[i, k] = f^k(point i)."""

    depth: int
    orbits: np.ndarray  # (size, depth, dim)


def build_orbit_table(
    system: DynSystem,
    cloud: PointCloud,
    depth: int,
    allow_truncation: bool = False,
) -> OrbitTable:
    """Iterate every cloud point ``depth - 1`` times.

    With ``allow_truncation`` the table stops at the largest depth every
    orbit survives instead of raising; the returned depth says how far it got.
    A step rule that raises ``UndefinedPointError`` at step k counts as an
    escape at step k.
    """
    if depth < 1:
        raise ConfigError("config: orbit depth must be >= 1")
    pts = cloud.points
    ok0 = system.domain(pts)
    if not ok0.all():
        bad = int(np.flatnonzero(~ok0)[0])
        raise EscapeError(0, pts[bad])
    orbits = np.empty((cloud.size, depth, cloud.dim))
    orbits[:, 0, :] = pts
    cur = pts
    reached = depth
    for k in range(1, depth):
        try:
            cur = system.step(cur)
        except UndefinedPointError as exc:
            if allow_truncation:
                reached = k
                break
            raise UndefinedPointError(k, exc.point) from None
        ok = system.domain(cur)
        if not ok.all():
            if allow_truncation:
                reached = k
                break
            bad = int(np.flatnonzero(~ok)[0])
            raise EscapeError(k, orbits[bad, k - 1])
        orbits[:, k, :] = cur
    return OrbitTable(reached, orbits[:, :reached, :])


def bd_dist(system: DynSystem, spec: MetricSpec, x, y, n: int) -> float:
    """Order-n orbit distance: max base distance along the first n iterates."""
    ox = iterate_orbit(system, x, n)
    oy = iterate_orbit(system, y, n)
    return max(pairwise_dist(ox[i], oy[i], spec) for i in range(n))


def bd_count_table(
    system: DynSystem,
    cloud: PointCloud,
    spec: MetricSpec,
    eps_list: list[float],
    n_max: int,
) -> CountTable:
    """Separated/spanning counts over the (eps, n) grid under orbit metrics.

    The table's ``mode`` says whether its counts are exact or greedy (see
    ``count_table``).  If some orbit escapes at step t < n_max the table
    stops at n = t and ``truncated_at`` is t.
    """
    if n_max < 1:
        raise ConfigError("config: n_max must be >= 1")
    table = build_orbit_table(system, cloud, n_max, allow_truncation=True)
    truncated = table.depth if table.depth < n_max else None
    matrices = orbit_metric_matrices(table.orbits, spec)
    return count_table(matrices, eps_list, cloud.size, truncated)


@dataclass(frozen=True)
class TransportVerdict:
    """Outcome of pushing a separated witness through the inverse map."""

    passed: bool
    eps: float
    n: int
    witness_size: int
    min_separation: float

    def line(self) -> str:
        status = "pass" if self.passed else "fail"
        return (
            f"inverse-transport(eps={self.eps:g}, n={self.n}): {status} "
            f"[witness {self.witness_size}, min pairwise {self.min_separation:.6g}]"
        )


def inverse_transport_check(
    system: DynSystem,
    cloud: PointCloud,
    spec: MetricSpec,
    eps: float,
    n: int,
) -> TransportVerdict:
    """Check that f^(n-1) of an (n,eps)-separated set is separated under f^(-1).

    Takes the separated witness of ``counts_from_matrix``, maps it forward
    n-1 steps, rebuilds backward orbits with the inverse rule, and verifies
    every pair clears eps at some backward step.
    Index reversal makes this an identity on the set of step distances, so
    it must pass with no slack.
    """
    if system.inverse is None:
        raise ConfigError(f"config: system {system.name!r} has no inverse")
    table = build_orbit_table(system, cloud, n)
    dmat, seed = last_orbit_matrix(table.orbits, spec)
    sep, _ = counts_from_matrix(dmat, eps, order=farthest_point_order(dmat, seed))
    witness = np.array(sep, dtype=np.intp)

    # backward orbits of the transported set, recomputed through the inverse
    tips = table.orbits[witness, n - 1, :]
    back = np.empty((len(witness), n, cloud.dim))
    back[:, 0, :] = tips
    cur = tips
    for k in range(1, n):
        cur = system.inverse(cur)
        back[:, k, :] = cur

    bmat, _ = last_orbit_matrix(back, spec)
    iu = np.triu_indices(len(witness), k=1)
    min_sep = float(bmat[iu].min()) if len(iu[0]) else float("inf")
    return TransportVerdict(
        passed=bool(min_sep >= eps),
        eps=eps,
        n=n,
        witness_size=len(witness),
        min_separation=min_sep,
    )
