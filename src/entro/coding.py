"""Symbolic coding of a two-piece interval exchange and its word complexity.

The exchange swaps [0, alpha) and (alpha, 1): points below the cut shift up
by 1 - alpha, points above shift down by alpha.  Coding a point by which
piece each iterate lands in produces, for a well-chosen irrational-like cut,
words whose number of distinct length-L factors grows like L + 1.  That
linear growth is the zero-entropy signature this module measures; compare
it against the exponential counts of the expanding gallery systems.

Exact arithmetic: when both the cut and the start are ``Fraction`` values
the orbit runs on integer residues, so factor counts carry no float error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dynamics import DynSystem, pointwise
from .errors import ConfigError, UndefinedPointError
from .estimators import growth_rate

__all__ = [
    "GOLDEN_ALPHA",
    "iet_step",
    "code_word",
    "symbol_orbit",
    "WordComplexity",
    "word_complexity",
    "coded_entropy",
    "symbol_frequency",
    "iet_system",
]

# A deep continued-fraction convergent of the golden rotation number: close
# enough to irrational that factor counts stay Sturmian far beyond any L
# this module is asked for, yet exactly representable.
GOLDEN_ALPHA = Fraction(832040, 1346269)

_GUARD = 1e-9


def _is_exact(alpha, x) -> bool:
    return isinstance(alpha, Fraction) and isinstance(x, Fraction)


def iet_step(x, alpha):
    """One step of the exchange.  Points on (or within 1e-9 of, in float
    mode) the discontinuity set {0, alpha, 1} have no well-defined symbol
    and raise ``UndefinedPointError``."""
    if _is_exact(alpha, x):
        if x == 0 or x == 1 or x == alpha:
            raise UndefinedPointError(0, np.array([float(x)]))
        if not 0 < x < 1:
            raise ConfigError(f"config: point {x} outside (0, 1)")
        return x + (1 - alpha) if x < alpha else x - alpha
    xf, af = float(x), float(alpha)
    for b in (0.0, af, 1.0):
        if abs(xf - b) < _GUARD:
            raise UndefinedPointError(0, np.array([xf]))
    if not 0.0 < xf < 1.0:
        raise ConfigError(f"config: point {xf} outside (0, 1)")
    return xf + (1.0 - af) if xf < af else xf - af


def symbol_orbit(alpha, x0, length: int) -> tuple[np.ndarray, int]:
    """Code ``length`` iterates: symbol 0 below the cut, 1 above.

    Returns the symbol array and the number of guard hits.  A guard hit
    (orbit touching the discontinuity set) ends the coding early, so the
    array may be shorter than requested; the count is 0 or 1.  A cut
    outside (0, 1) is refused, and so is a start outside [0, 1], exact or
    float (0 and 1 are guard hits).
    """
    if length < 1:
        raise ConfigError("config: length must be >= 1")
    if not 0 < alpha < 1:
        raise ConfigError("config: alpha must lie in (0, 1)")
    syms = np.empty(length, dtype=np.uint8)
    if _is_exact(alpha, x0):
        if not 0 <= x0 <= 1:
            raise ConfigError(f"config: point {x0} outside (0, 1)")
        q = alpha.denominator
        d = math.lcm(q, x0.denominator)
        a = alpha.numerator * (d // q)
        t = d - a
        r = x0.numerator * (d // x0.denominator) % d
        for i in range(length):
            if r == 0 or r == a:
                return syms[:i], 1
            syms[i] = 0 if r < a else 1
            r = (r + t) % d
        return syms, 0
    x = float(x0)
    af = float(alpha)
    for i in range(length):
        try:
            x_next = iet_step(x, af)
        except UndefinedPointError:
            return syms[:i], 1
        syms[i] = 0 if x < af else 1
        x = x_next
    return syms, 0


def code_word(x0, alpha, length: int) -> tuple[int, ...]:
    """The coding of a single point as a tuple of symbols."""
    syms, hits = symbol_orbit(alpha, x0, length)
    if hits:
        raise UndefinedPointError(len(syms), np.array([float(x0)]))
    return tuple(int(s) for s in syms)


@dataclass(frozen=True)
class WordComplexity:
    """Distinct-factor counts p(L) for L = 1..L_max over one coded orbit."""

    counts: tuple[int, ...]
    orbit_len: int
    guard_hits: int

    def of(self, length: int) -> int:
        return self.counts[length - 1]


def word_complexity(alpha, L_max: int, orbit_len: int) -> WordComplexity:
    """Count distinct length-L windows of the coded orbit of 1/2 for L = 1..L_max.

    Requires orbit_len >= 10 * L_max so every factor has room to recur.
    """
    if L_max < 1:
        raise ConfigError("config: L_max must be >= 1")
    if orbit_len < 10 * L_max:
        raise ConfigError(
            f"config: orbit_len {orbit_len} too short; need >= 10 * L_max = {10 * L_max}"
        )
    x0 = Fraction(1, 2) if isinstance(alpha, Fraction) else 0.5
    syms, hits = symbol_orbit(alpha, x0, orbit_len)
    if len(syms) < L_max:
        raise ConfigError(
            f"config: orbit hit the discontinuity set after {len(syms)} symbols;"
            f" need at least L_max = {L_max}"
        )
    # rank[i] is the sorted position of the length-L window at i among the
    # distinct ones; a window one longer is its prefix's rank and one more
    # symbol, so ranks stay below the orbit length for every L
    rank = np.zeros(len(syms) + 1, dtype=np.intp)
    counts = []
    for L in range(1, L_max + 1):
        code = rank[: len(syms) - L + 1] * 2 + syms[L - 1 :]
        words, rank = np.unique(code, return_inverse=True)
        counts.append(len(words))
    return WordComplexity(tuple(counts), orbit_len=len(syms), guard_hits=hits)


def coded_entropy(alpha, L_max: int = 80) -> float:
    """Growth rate of log p(L) fitted over the upper half of 1..L_max.

    The rate is ``estimators.growth_rate`` over L = max(1, L_max // 2) ..
    L_max, clamped at 0.  The coded orbit has max(10 * L_max, 20000)
    symbols.  Linear complexity makes this tend to zero like 1/L;
    exponential word growth would make it level off at the per-symbol
    entropy.  The fit needs three lengths, so ``L_max`` below 3 is refused.
    """
    if L_max < 3:
        raise ConfigError(f"config: L_max must be >= 3 to fit a rate, got {L_max}")
    wc = word_complexity(alpha, L_max, max(10 * L_max, 20_000))
    return max(0.0, growth_rate(wc.counts, (max(1, L_max // 2), L_max)))


def symbol_frequency(alpha) -> float:
    """Fraction of the first 10000 iterates of 1/2 coded 0; for the exchange
    this tracks the cut."""
    x0 = Fraction(1, 2) if isinstance(alpha, Fraction) else 0.5
    syms, _ = symbol_orbit(alpha, x0, 10_000)
    if len(syms) == 0:
        raise ConfigError("config: orbit produced no symbols")
    return float(np.mean(syms == 0))


def iet_system(alpha) -> DynSystem:
    """The exchange as a 1-d system, for cross-checking against the
    separated-count estimators (it should report entropy near zero).  A
    cut outside (0, 1) is refused."""
    if not 0 < alpha < 1:
        raise ConfigError("config: alpha must lie in (0, 1)")
    af = float(alpha)

    def step(p: np.ndarray) -> np.ndarray:
        return np.array([iet_step(float(p[0]), af)])

    def inverse(p: np.ndarray) -> np.ndarray:
        y = float(p[0])
        for b in (0.0, 1.0 - af, 1.0):
            if abs(y - b) < _GUARD:
                raise UndefinedPointError(0, np.array([y]))
        x = y - (1.0 - af) if y > 1.0 - af else y + af
        return np.array([x])

    def domain(p: np.ndarray) -> bool:
        x = float(p[0])
        return 0.0 < x < 1.0

    return DynSystem(
        name=f"iet[{af:.6f}]",
        dim=1,
        step=pointwise(step),
        domain=pointwise(domain),
        inverse=pointwise(inverse),
    )
