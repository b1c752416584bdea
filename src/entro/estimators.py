"""Entropy estimates from count tables.

The growth rate of a count sequence is its least-squares slope on a log
scale.  Per epsilon, the fit window is the largest contiguous block of n
values whose counts stay below a saturation cap (a fixed fraction of the
cloud size); the headline estimate is the rate at the smallest epsilon that
agrees with the next coarser one.  All rates are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial import cKDTree

from .errors import ConfigError, WindowError
from .metric_core import CountTable, MetricSpec, PointCloud
from . import dynamics as _dyn

__all__ = [
    "PerEpsRate",
    "MemberOutcome",
    "EntropyEstimate",
    "CompactFamily",
    "growth_rate",
    "entropy_estimate",
    "compacta_estimate",
    "InequalityVerdict",
    "inequality_report",
    "counts_csv_text",
]

# Fit windows keep the n values whose separated count is below this fraction
# of the cloud size, and a window shorter than MIN_WINDOW is flagged.
SATURATION_FRACTION = 0.9
MIN_WINDOW = 4


def growth_rate(counts, window: tuple[int, int]) -> float:
    """Least-squares slope of log(counts) against n over an inclusive window.

    ``counts[k]`` is the count at n = k+1.  Windows shorter than three
    samples are refused.
    """
    vals = np.asarray(counts, dtype=float)
    n_lo, n_hi = window
    if n_lo < 1 or n_hi > len(vals) or n_hi - n_lo + 1 < 3:
        raise WindowError(f"window: need >= 3 samples inside 1..{len(vals)}, got {window}")
    seg = vals[n_lo - 1 : n_hi]
    if not (seg > 0).all():
        raise ConfigError("config: counts must be positive to fit a growth rate")
    xs = np.arange(n_lo, n_hi + 1, dtype=float)
    slope = np.polyfit(xs, np.log(seg), 1)[0]
    return float(slope)


@dataclass(frozen=True)
class PerEpsRate:
    epsilon: float
    rate: float
    window: tuple[int, int]
    saturated: bool


@dataclass(frozen=True)
class MemberOutcome:
    """One compact member's count table and headline, which is None when its
    orbits escaped."""

    label: str
    size: int
    headline: float | None
    table: CountTable

    @property
    def escaped_at(self) -> int | None:
        """The step some orbit of the member escaped at, 0 for a start
        outside the domain, or None."""
        return self.table.truncated_at


@dataclass(frozen=True)
class EntropyEstimate:
    """One headline rate plus the per-epsilon evidence behind it.

    ``stabilized_at`` is the epsilon whose rate agreed with the next coarser
    one and set the headline, or None when no adjacent pair agreed.
    ``truncated_at`` comes from the count table; ``members`` holds a compacta
    estimate's member outcomes in family order.
    """

    headline: float
    per_eps: tuple[PerEpsRate, ...]
    method: str
    stabilized_at: float | None
    truncated_at: int | None = None
    members: tuple[MemberOutcome, ...] = ()

    @property
    def headline_log2(self) -> float:
        return self.headline / math.log(2)

    @property
    def stable(self) -> bool:
        return self.stabilized_at is not None

    @property
    def diagnostics(self) -> tuple[str, ...]:
        """The report's note lines, rendered from the typed fields."""
        notes = []
        for m in self.members:
            outcome = (
                f"headline {m.headline:.4f}" if m.escaped_at is None
                else f"escaped at step {m.escaped_at}"
            )
            notes.append(f"member({m.label or m.size}): {outcome}")
        if self.members:
            kept = sum(m.escaped_at is None for m in self.members)
            notes.append(f"supremum over {kept} members")
        notes += [
            f"saturated(eps={pe.epsilon:g}, window={pe.window})"
            for pe in self.per_eps if pe.saturated
        ]
        if self.stabilized_at is None:
            notes.append("unstable: no adjacent epsilon pair agreed; using smallest epsilon")
        else:
            notes.append(f"stabilized at eps={self.stabilized_at:g}")
        if self.truncated_at is not None:
            table = "lifted" if self.method == "friedland" else "direct"
            notes.append(f"{table} table truncated at n={self.truncated_at}")
        return tuple(notes)


def _fit_window(counts: list[int], cap: float) -> tuple[tuple[int, int], bool]:
    """Largest contiguous run of n with count < cap; flags saturation.

    Falls back to the first three n values when no run is usable, so a rate
    can always be reported (flagged) on tables with n_max >= 6.
    """
    valid = [c < cap for c in counts]
    runs: list[tuple[int, int]] = []
    start = None
    for i, ok in enumerate(valid + [False]):
        if ok and start is None:
            start = i
        elif not ok and start is not None:
            runs.append((start + 1, i))
            start = None
    if runs:
        best = max(runs, key=lambda r: (r[1] - r[0], -r[0]))
        length = best[1] - best[0] + 1
        if length >= MIN_WINDOW:
            saturated = best[1] < len(counts) or not all(valid)
            return best, saturated
        if length >= 3:
            return best, True
    return (1, min(3, len(counts))), True


def entropy_estimate(table: CountTable, stabilization_tol: float = 0.05) -> EntropyEstimate:
    """Headline entropy from a count table via per-epsilon growth rates.

    Rates are fitted to the separated counts.  Needs at least three epsilon
    values, each once, and n_max >= 6 so the stabilization scan has
    something to work with; a table truncated before n = 6 (at n = 0 it
    has no rows) is refused as truncated first, naming the direct or the
    lifted table and a lifted table's m when it has one (a start outside
    the domain leaves none).  Adjacent rates closer than
    ``stabilization_tol`` agree.
    Saturated windows are flagged rather than hidden; disagreement across
    epsilon is reported as ``unstable`` and the smallest-epsilon rate is used.
    The method is "friedland" when ``table.rho`` is set (lifted tables only).
    """
    if not stabilization_tol > 0:
        raise ConfigError("config: stabilization_tol must be > 0")
    cut = table.truncated_at
    if cut is not None and cut < 6:
        name = "direct" if table.rho is None else "lifted"
        blocks = f" (m={table.truncation})" if table.truncation is not None else ""
        raise ConfigError(f"config: {name} table{blocks} truncated at n={cut}; need n >= 6")
    eps_vals = sorted(table.eps_values(), reverse=True)
    if len(eps_vals) < 3:
        raise ConfigError("config: need >= 3 epsilon values to extrapolate")
    if max(r.n for r in table.rows) < 6:
        raise ConfigError("config: need n_max >= 6 to extrapolate")

    cap = SATURATION_FRACTION * table.cloud_size
    per: list[PerEpsRate] = []
    for eps in eps_vals:
        pairs = table.counts_for(eps, "sep")
        if len({n for n, _ in pairs}) < len(pairs):
            raise ConfigError(f"config: scale eps={eps:g} repeats in the count table")
        counts = [c for _, c in pairs]
        window, saturated = _fit_window(counts, cap)
        per.append(PerEpsRate(eps, max(0.0, growth_rate(counts, window)), window, saturated))

    headline = per[-1].rate
    stabilized = None
    for i in range(len(per) - 1, 0, -1):
        if abs(per[i].rate - per[i - 1].rate) < stabilization_tol:
            headline = per[i].rate
            stabilized = per[i].epsilon
            break
    method = "friedland" if table.rho is not None else "bowen_dinaburg"
    return EntropyEstimate(headline, tuple(per), method, stabilized, table.truncated_at)


@dataclass(frozen=True)
class CompactFamily:
    """Nested samples of an exhausting family of compact subsets."""

    members: tuple[PointCloud, ...]

    def __post_init__(self):
        if not self.members:
            raise ConfigError("config: compact family needs >= 1 member")
        for a, b in zip(self.members, self.members[1:]):
            gap = float(cKDTree(b.points).query(a.points)[0].max())
            if gap > 1e-9:
                raise ConfigError(
                    f"config: family members not nested (gap {gap:g} between "
                    f"sizes {a.size} and {b.size})"
                )


def compacta_estimate(
    system,
    spec: MetricSpec,
    family: CompactFamily,
    eps_list: list[float],
    n_max: int,
) -> EntropyEstimate:
    """Entropy as a supremum over compact subsets.

    The members are counted one after another, each by ``bd_count_table``
    (orbits run in the full space; only the separated subsets are drawn from
    the member), and the headline is the max over member headlines; a member
    whose points equal an earlier one's, bit for bit, shares its table.
    Members whose orbits escape are skipped: a truncated table escapes at
    its ``truncated_at``, which is 0 for a start outside the domain.
    ``members`` of the result holds each member's table and headline.
    """
    results: list[EntropyEstimate] = []
    outcomes: list[MemberOutcome] = []
    for member in family.members:
        table = next((m.table for c, m in zip(family.members, outcomes)
                      if np.array_equal(c.points, member.points)), None)
        if table is None:
            table = _dyn.bd_count_table(system, member, spec, eps_list, n_max)
        headline = None
        if table.truncated_at is None:
            results.append(entropy_estimate(table))
            headline = results[-1].headline
        outcomes.append(MemberOutcome(member.label, member.size, headline, table))
    if not results:
        raise ConfigError("config: every family member escaped; nothing to estimate")
    best = max(results, key=lambda est: est.headline)
    return replace(best, method="compacta", members=tuple(outcomes))


@dataclass(frozen=True)
class InequalityVerdict:
    """Cross-definition consistency: sequence-space vs direct vs compacta."""

    fr_bd_ok: bool
    bd_bc_ok: bool
    bd: float
    bc: float
    fr: float
    slack: float

    @property
    def passed(self) -> bool:
        return self.fr_bd_ok and self.bd_bc_ok

    def line(self) -> str:
        a = "pass" if self.fr_bd_ok else "fail"
        b = "pass" if self.bd_bc_ok else "fail"
        return f"FR≈BD: {a}; BD≥Bc: {b}"


def inequality_report(
    bd: EntropyEstimate, bc: EntropyEstimate, fr: EntropyEstimate, slack: float = 0.15
) -> InequalityVerdict:
    """Check |FR - BD| <= slack and BD >= Bc - slack on the estimates' headlines."""
    if not slack >= 0:
        raise ConfigError("config: slack must be >= 0")
    return InequalityVerdict(
        fr_bd_ok=bool(abs(fr.headline - bd.headline) <= slack),
        bd_bc_ok=bool(bd.headline >= bc.headline - slack),
        bd=bd.headline,
        bc=bc.headline,
        fr=fr.headline,
        slack=slack,
    )


def counts_csv_text(
    system: str, tables: list[tuple[str, CountTable, EntropyEstimate | None]]
) -> str:
    """Count rows of each ``(metric name, table, estimate)`` as CSV text.

    Each row carries the fitted rate of its epsilon, or nan when the entry
    has no estimate.  Lines end in LF; the header is written even when there
    are no tables.
    """
    lines = ["system,metric,epsilon,n,sep,span,mode,rate"]
    for metric_name, table, est in tables:
        rates = {pe.epsilon: pe.rate for pe in est.per_eps} if est is not None else {}
        for row in table.rows:
            rate = rates.get(row.epsilon, float("nan"))
            lines.append(
                f"{system},{metric_name},{row.epsilon!r},{row.n},"
                f"{row.sep_count},{row.span_count},{table.mode},{rate!r}"
            )
    return "\n".join(lines) + "\n"
