"""Interval-exchange coding: linear factor growth, checked two ways."""

import math
from fractions import Fraction

import numpy as np
import pytest

from entro import (
    ConfigError,
    MetricSpec,
    PointCloud,
    UndefinedPointError,
    bd_count_table,
    entropy_estimate,
)
from entro.coding import (
    GOLDEN_ALPHA,
    code_word,
    coded_entropy,
    iet_step,
    iet_system,
    symbol_frequency,
    symbol_orbit,
    word_complexity,
)


def factor_set_oracle(alpha: Fraction, length: int) -> set:
    """Factors collected from many independent starting points.

    Enumerates codings directly through ``code_word`` (one tuple per start,
    no sliding windows), so it shares no counting machinery with
    ``word_complexity``.
    """
    words = set()
    for i in range(1, 977):
        try:
            words.add(code_word(Fraction(i, 977), alpha, length))
        except UndefinedPointError:
            continue
    return words


def window_counts(syms: np.ndarray, L_max: int) -> list[int]:
    """p(L) as the number of distinct rows among all length-L windows."""
    return [
        int(np.unique(np.lib.stride_tricks.sliding_window_view(syms, L), axis=0).shape[0])
        for L in range(1, L_max + 1)
    ]


class TestWordComplexity:
    def test_linear_growth_against_multistart_oracle(self):
        for L in (1, 2, 3, 5, 8, 13, 20):
            words = factor_set_oracle(GOLDEN_ALPHA, L)
            assert len(words) == L + 1

    def test_single_orbit_sees_every_factor(self):
        wc = word_complexity(GOLDEN_ALPHA, 20, 5000)
        assert wc.counts == tuple(L + 1 for L in range(1, 21))
        assert wc.guard_hits == 0
        assert wc.orbit_len == 5000
        oracle = factor_set_oracle(GOLDEN_ALPHA, 13)
        syms, _ = symbol_orbit(GOLDEN_ALPHA, Fraction(1, 2), 5000)
        windows = {
            tuple(int(v) for v in syms[i : i + 13]) for i in range(5000 - 12)
        }
        assert windows == oracle

    @pytest.mark.parametrize(
        "alpha, x0", [(GOLDEN_ALPHA, Fraction(1, 2)), (math.sqrt(2) - 1, 0.5)]
    )
    def test_rank_refinement_matches_window_rows(self, alpha, x0):
        wc = word_complexity(alpha, 70, 3000)
        syms, _ = symbol_orbit(alpha, x0, 3000)
        assert list(wc.counts) == window_counts(syms, 70)

    def test_hand_value(self):
        wc = word_complexity(GOLDEN_ALPHA, 5, 200)
        assert wc.of(5) == 6

    def test_guards(self):
        with pytest.raises(ConfigError):
            word_complexity(GOLDEN_ALPHA, 0, 100)
        with pytest.raises(ConfigError):
            word_complexity(GOLDEN_ALPHA, 10, 50)
        # with the cut at 1/2 the coded orbit starts on the discontinuity
        with pytest.raises(ConfigError, match="discontinuity"):
            word_complexity(Fraction(1, 2), 10, 200)

    @pytest.mark.parametrize("alpha", [0.0, Fraction(0), 1.0, 1.5, -0.25, math.nan])
    def test_cut_outside_unit_interval_refused(self, alpha):
        """A cut outside (0, 1) leaves one piece, whose coding would report
        p(L) = 1 or a discontinuity hit; every entry point refuses it."""
        for call in (lambda: word_complexity(alpha, 5, 100),
                     lambda: symbol_orbit(alpha, 0.5, 10),
                     lambda: symbol_frequency(alpha),
                     lambda: iet_system(alpha)):
            with pytest.raises(ConfigError, match=r"alpha must lie in \(0, 1\)"):
                call()


class TestSymbolOrbit:
    def test_exact_and_float_codings_agree(self):
        exact, hits_e = symbol_orbit(GOLDEN_ALPHA, Fraction(1, 2), 1000)
        approx, hits_f = symbol_orbit(float(GOLDEN_ALPHA), 0.5, 1000)
        assert hits_e == 0 and hits_f == 0
        assert np.array_equal(exact, approx)

    def test_first_symbols_by_hand(self):
        # 1/2 sits below the cut (~0.618), lands at ~0.882, then ~0.264
        syms, _ = symbol_orbit(GOLDEN_ALPHA, Fraction(1, 2), 3)
        assert list(syms) == [0, 1, 0]

    def test_guard_hit_truncates(self):
        # r_i = (3 - i) * alpha mod 1 walks into the cut itself at i = 2
        x0 = (3 * GOLDEN_ALPHA) % 1
        syms, hits = symbol_orbit(GOLDEN_ALPHA, x0, 50)
        assert hits == 1
        assert len(syms) == 2

    def test_length_guard(self):
        with pytest.raises(ConfigError):
            symbol_orbit(GOLDEN_ALPHA, Fraction(1, 2), 0)

    @pytest.mark.parametrize("x0", [Fraction(3, 2), Fraction(-1, 2)])
    def test_start_outside_unit_interval_refused(self, x0):
        """An exact start is not taken modulo 1: it is refused as the float
        start is."""
        with pytest.raises(ConfigError, match=rf"config: point {x0} outside \(0, 1\)"):
            symbol_orbit(GOLDEN_ALPHA, x0, 10)
        with pytest.raises(ConfigError, match=rf"config: point {float(x0)} outside \(0, 1\)"):
            symbol_orbit(float(GOLDEN_ALPHA), float(x0), 10)

    def test_code_word_raises_on_guard_hit(self):
        x0 = (2 * GOLDEN_ALPHA) % 1
        with pytest.raises(UndefinedPointError):
            code_word(x0, GOLDEN_ALPHA, 10)


class TestIetStep:
    def test_exact_matches_float(self):
        for num in (1, 2, 5, 9):
            x = Fraction(num, 13)
            exact = iet_step(x, GOLDEN_ALPHA)
            approx = iet_step(num / 13, float(GOLDEN_ALPHA))
            assert float(exact) == pytest.approx(approx, abs=1e-12)

    def test_is_the_rotation_by_complement(self):
        # both branches shift by 1 - alpha mod 1
        shift = 1 - GOLDEN_ALPHA
        for num in (1, 3, 8, 11):
            x = Fraction(num, 13)
            assert iet_step(x, GOLDEN_ALPHA) == (x + shift) % 1

    def test_discontinuity_guards(self):
        with pytest.raises(UndefinedPointError):
            iet_step(GOLDEN_ALPHA, GOLDEN_ALPHA)
        with pytest.raises(UndefinedPointError):
            iet_step(float(GOLDEN_ALPHA) + 1e-12, float(GOLDEN_ALPHA))
        with pytest.raises(ConfigError):
            iet_step(Fraction(3, 2), GOLDEN_ALPHA)


class TestFrequencyAndEntropy:
    def test_symbol_frequency_tracks_the_cut(self):
        freq = symbol_frequency(GOLDEN_ALPHA)
        assert freq == pytest.approx(float(GOLDEN_ALPHA), abs=0.01)

    def test_coded_entropy_is_near_zero(self):
        assert coded_entropy(GOLDEN_ALPHA) < 0.02

    @pytest.mark.parametrize("L_max", [1, 2])
    def test_coded_entropy_needs_three_lengths(self, L_max):
        """One or two lengths give no fitted rate, so they are refused."""
        with pytest.raises(ConfigError, match="L_max must be >= 3"):
            coded_entropy(GOLDEN_ALPHA, L_max)

    def test_exponential_alphabet_would_not_pass(self):
        # sanity for the fit itself: exponential counts level off at log 2
        L = np.arange(40, 81, dtype=float)
        ys = np.log(2.0**L)
        slope = float(np.polyfit(L, ys, 1)[0])
        assert slope > 0.6


class TestIetSystem:
    def test_inverse_undoes_step(self):
        system = iet_system(GOLDEN_ALPHA)
        for x in (0.1, 0.3, 0.55, 0.8, 0.97):
            p = np.array([[x]])
            assert system.inverse(system.step(p))[0, 0] == pytest.approx(x, abs=1e-12)

    def test_separated_counts_stay_flat(self):
        """Cross-check: the rotation should register entropy near zero."""
        system = iet_system(GOLDEN_ALPHA)
        xs = np.arange(0.01, 0.995, 0.01)[:, None]
        cloud = PointCloud(xs, 0.01, "iet-grid")
        table = bd_count_table(
            system, cloud, MetricSpec.euclidean(), [0.2, 0.1, 0.05], 6
        )
        est = entropy_estimate(table)
        assert est.headline < 0.1
