"""Entropy estimates from count tables.

The growth rate of a count sequence is its least-squares slope on a log
scale.  Per epsilon, the fit window is the largest contiguous block of n
values whose counts stay below a saturation cap (a fixed fraction of the
cloud size); the headline estimate is the rate at the smallest epsilon that
agrees with the next coarser one.  All rates are in nats.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import ConfigError, EscapeError, WindowError
from .metric_core import CountTable, MetricSpec, PointCloud
from . import dynamics as _dyn

__all__ = [
    "ExtrapolationRule",
    "PerEpsRate",
    "EntropyEstimate",
    "CompactFamily",
    "growth_rate",
    "entropy_estimate",
    "compacta_estimate",
    "InequalityVerdict",
    "inequality_report",
    "estimate_csv_text",
    "write_estimate_csv",
]


@dataclass(frozen=True)
class ExtrapolationRule:
    """Knobs for turning a count table into one number."""

    stabilization_tol: float = 0.05
    saturation_fraction: float = 0.9
    min_window: int = 4
    counts: str = "sep"

    def __post_init__(self):
        if self.stabilization_tol <= 0:
            raise ConfigError("config: stabilization_tol must be > 0")
        if not 0 < self.saturation_fraction <= 1:
            raise ConfigError("config: saturation_fraction must be in (0, 1]")
        if self.min_window < 3:
            raise ConfigError("config: min_window must be >= 3")
        if self.counts not in ("sep", "span"):
            raise ConfigError("config: counts must be 'sep' or 'span'")


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
class EntropyEstimate:
    """One headline rate plus the per-epsilon evidence behind it."""

    headline: float
    per_eps: tuple[PerEpsRate, ...]
    method: str
    diagnostics: tuple[str, ...] = ()

    @property
    def headline_log2(self) -> float:
        return self.headline / math.log(2)

    @property
    def stable(self) -> bool:
        return not any(d.startswith("unstable") for d in self.diagnostics)


def _fit_window(counts: list[int], cap: float, min_window: int) -> tuple[tuple[int, int], bool]:
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
        if length >= min_window:
            saturated = best[1] < len(counts) or not all(valid)
            return best, saturated
        if length >= 3:
            return best, True
    return (1, min(3, len(counts))), True


def entropy_estimate(
    table: CountTable,
    rule: ExtrapolationRule | None = None,
    method: str = "bowen_dinaburg",
) -> EntropyEstimate:
    """Headline entropy from a count table via per-epsilon growth rates.

    Needs at least three epsilon values and n_max >= 6 so the stabilization
    scan has something to work with.  Saturated windows are flagged rather
    than hidden; disagreement across epsilon is reported as ``unstable`` and
    the smallest-epsilon rate is used.
    """
    rule = rule or ExtrapolationRule()
    eps_vals = sorted(table.eps_values(), reverse=True)
    if len(eps_vals) < 3:
        raise ConfigError("config: need >= 3 epsilon values to extrapolate")
    n_seen = {r.n for r in table.rows}
    if not n_seen or max(n_seen) < 6:
        raise ConfigError("config: need n_max >= 6 to extrapolate")

    cap = rule.saturation_fraction * table.cloud_size
    per: list[PerEpsRate] = []
    notes: list[str] = []
    for eps in eps_vals:
        pairs = table.counts_for(eps, rule.counts)
        counts = [c for _, c in pairs]
        window, saturated = _fit_window(counts, cap, rule.min_window)
        rate = max(0.0, growth_rate(counts, window))
        per.append(PerEpsRate(eps, rate, window, saturated))
        if saturated:
            notes.append(f"saturated(eps={eps:g}, window={window})")

    headline = per[-1].rate
    stabilized = None
    for i in range(len(per) - 1, 0, -1):
        if abs(per[i].rate - per[i - 1].rate) < rule.stabilization_tol:
            headline = per[i].rate
            stabilized = per[i].epsilon
            break
    if stabilized is None:
        notes.append("unstable: no adjacent epsilon pair agreed; using smallest epsilon")
    else:
        notes.append(f"stabilized at eps={stabilized:g}")
    if table.truncated_at is not None:
        notes.append(f"orbit table truncated at n={table.truncated_at}")
    return EntropyEstimate(headline, tuple(per), method, tuple(notes))


@dataclass(frozen=True)
class CompactFamily:
    """Nested samples of an exhausting family of compact subsets."""

    members: tuple[PointCloud, ...]
    description: str = ""

    def __post_init__(self):
        if not self.members:
            raise ConfigError("config: compact family needs >= 1 member")
        for a, b in zip(self.members, self.members[1:]):
            gap = float(cdist(a.points, b.points).min(axis=1).max())
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
    rule: ExtrapolationRule | None = None,
) -> EntropyEstimate:
    """Entropy as a supremum over compact subsets.

    Each member cloud gets its own count table (orbits run in the full space;
    only the separated subsets are drawn from the member) and the headline is
    the max over member headlines.  Members whose orbits escape are flagged
    and skipped.
    """
    results: list[tuple[PointCloud, EntropyEstimate]] = []
    notes: list[str] = []
    for member in family.members:
        try:
            table = _dyn.bd_count_table(system, member, spec, eps_list, n_max)
            est = entropy_estimate(table, rule, method="bowen_dinaburg")
        except EscapeError as exc:
            notes.append(f"member({member.label or member.size}): escaped at step {exc.step}")
            continue
        results.append((member, est))
        notes.append(
            f"member({member.label or member.size}): headline {est.headline:.4f}"
        )
    if not results:
        raise ConfigError("config: every family member escaped; nothing to estimate")
    best_member, best = max(results, key=lambda me: me[1].headline)
    notes.append(f"supremum over {len(results)} members")
    return EntropyEstimate(
        best.headline, best.per_eps, "compacta", tuple(notes) + best.diagnostics
    )


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


def _headline(value) -> float:
    return float(getattr(value, "headline", value))


def inequality_report(bd, bc, fr, slack: float = 0.15) -> InequalityVerdict:
    """Check |FR - BD| <= slack and BD >= Bc - slack on headline values."""
    if slack < 0:
        raise ConfigError("config: slack must be >= 0")
    hbd, hbc, hfr = _headline(bd), _headline(bc), _headline(fr)
    return InequalityVerdict(
        fr_bd_ok=bool(abs(hfr - hbd) <= slack),
        bd_bc_ok=bool(hbd >= hbc - slack),
        bd=hbd,
        bc=hbc,
        fr=hfr,
        slack=slack,
    )


def estimate_csv_text(table: CountTable, estimate: EntropyEstimate) -> str:
    """Counts with the per-epsilon fitted rate attached to each row.

    Rows end in CRLF, the ``csv.writer`` default.
    """
    rate_by_eps = {p.epsilon: p.rate for p in estimate.per_eps}
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["epsilon", "n", "sep", "span", "rate"])
    for r in table.rows:
        writer.writerow(
            [repr(r.epsilon), r.n, r.sep_count, r.span_count,
             repr(rate_by_eps.get(r.epsilon, float("nan")))]
        )
    return buf.getvalue()


def write_estimate_csv(table: CountTable, estimate: EntropyEstimate, path: str) -> None:
    """Write ``estimate_csv_text`` to ``path``."""
    with open(path, "w", newline="") as fh:
        fh.write(estimate_csv_text(table, estimate))
