import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from specoord.game import PowerAllocation, capacity
from specoord.symmetric import (DiscreteGame, Region, classify_game,
                                discrete_game_payoffs, h_lim1, h_lim2,
                                payoff_quad, recommend_strategy,
                                symmetric_game_instance,
                                symmetric_iwf_iterates)

snr_range = st.floats(min_value=0.1, max_value=1e4)
h_range = st.floats(min_value=0.0, max_value=0.99)


class TestPayoffQuad:
    def test_reference_point(self):
        q = payoff_quad(0.3, 10)
        assert q.T == pytest.approx(1.9068905956085187, rel=1e-12)
        assert q.R == pytest.approx(1.7297158093186487, rel=1e-12)
        assert q.P == pytest.approx(1.5849625007211560, rel=1e-12)
        assert q.N == pytest.approx(1.2776686658059389, rel=1e-12)
        assert q.ordering() == "T>R>P>N"

    def test_no_coupling_degenerates(self):
        q = payoff_quad(0.0, 10)
        assert q.T == q.P == pytest.approx(2.584962500721156, rel=1e-12)
        assert q.R == q.N == pytest.approx(1.7297158093186487, rel=1e-12)

    def test_temptation_margin_vanishes_near_full_coupling(self):
        q = payoff_quad(1 - 1e-6, 10)
        assert 0 < q.T - q.R < 1e-4

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            payoff_quad(1.0, 10)
        with pytest.raises(ValueError):
            payoff_quad(-0.1, 10)
        with pytest.raises(ValueError, match="h must"):
            payoff_quad(math.nan, 10)
        with pytest.raises(ValueError):
            payoff_quad(0.3, 0.0)

    @given(h=h_range, snr=snr_range)
    def test_payoffs_finite_nonnegative(self, h, snr):
        q = payoff_quad(h, snr)
        for v in (q.T, q.R, q.P, q.N):
            assert math.isfinite(v) and v >= 0

    @given(h=h_range, snr=snr_range)
    def test_symmetric_profile_beats_alternating(self, h, snr):
        # 2 max(R, P) > T + N everywhere; 2R > T + N outside the deadlock
        # region, where the favoured symmetric profile is mutual cooperation.
        q = payoff_quad(h, snr)
        assert 2 * max(q.R, q.P) > q.T + q.N
        if classify_game(h, snr).region is not Region.DEADLOCK:
            assert 2 * q.R > q.T + q.N


class TestThresholds:
    def test_h_lim1_values(self):
        assert h_lim1(1) == pytest.approx(math.sqrt(2) - 1, rel=1e-15)
        assert h_lim1(10) == pytest.approx(0.23166247903554, rel=1e-12)

    def test_h_lim1_vanishes_at_high_snr(self):
        assert h_lim1(1e8) < 1e-3

    def test_h_lim2_value(self):
        assert h_lim2(10) == pytest.approx(0.5473318808264498, rel=1e-12)

    def test_h_lim2_matches_polynomial_solver(self):
        for snr in (0.5, 1.0, 10.0, 100.0, 2500.0):
            inv = 1.0 / snr
            roots = np.roots([1.0, 0.5 + 2 * inv, -0.5, -inv])
            wanted = [r.real for r in roots
                      if abs(r.imag) < 1e-9 and 0 < r.real < 1]
            assert len(wanted) == 1
            assert h_lim2(snr) == pytest.approx(wanted[0], rel=1e-9)

    def test_h_lim2_cubic_residual(self):
        for snr in (0.2, 1.0, 7.0, 50.0, 1e4):
            h = h_lim2(snr)
            residual = h ** 3 + h ** 2 * (0.5 + 2 / snr) - 0.5 * h - 1 / snr
            assert abs(residual) < 1e-9

    @given(snr=snr_range)
    def test_thresholds_ordered(self, snr):
        assert 0 < h_lim1(snr) < h_lim2(snr) < 1

    def test_payoff_differences_vanish_at_thresholds(self):
        for snr in (0.5, 2.0, 10.0, 300.0):
            q1 = payoff_quad(h_lim1(snr), snr)
            assert abs(q1.R - q1.P) < 1e-6
            q2 = payoff_quad(h_lim2(snr), snr)
            assert abs(q2.P - q2.N) < 1e-6

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            h_lim1(0)
        with pytest.raises(ValueError):
            h_lim2(-1)

    @given(exponent=st.floats(min_value=-4.0, max_value=9.0))
    def test_h_lim2_matches_roots_over_snr_range(self, exponent,
                                                 terminates):
        snr = 10.0 ** exponent
        inv = 1.0 / snr
        roots = np.roots([1.0, 0.5 + 2 * inv, -0.5, -inv])
        wanted = [r.real for r in roots if abs(r.imag) < 1e-9 and 0 < r.real < 1]
        assert len(wanted) == 1
        h = terminates(h_lim2, snr)
        assert 0 < h < 1
        assert h == pytest.approx(wanted[0], rel=0, abs=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 5e-324])
class TestNonFiniteSnr:
    # Each of these used to return nan, or to fail deep inside with a
    # ZeroDivisionError, instead of naming the field at entry.  A subnormal
    # snr passed, and 1/snr overflowed: h_lim1 gave nan and h_lim2 gave 1.
    @pytest.mark.parametrize("fn", [h_lim1, h_lim2])
    def test_thresholds(self, fn, bad):
        with pytest.raises(ValueError, match="snr must be finite"):
            fn(bad)

    @pytest.mark.parametrize("fn", [payoff_quad, classify_game])
    def test_payoffs_and_classification(self, fn, bad):
        with pytest.raises(ValueError, match="snr must be finite"):
            fn(0.5, bad)


class TestClassify:
    def test_three_regions_at_snr_ten(self):
        assert classify_game(0.1, 10).region is Region.DEADLOCK
        assert classify_game(0.3, 10).region is Region.PRISONERS_DILEMMA
        assert classify_game(0.7, 10).region is Region.CHICKEN

    def test_region_codes(self):
        assert classify_game(0.1, 10).region.code == "A"
        assert classify_game(0.3, 10).region.code == "B"
        assert classify_game(0.7, 10).region.code == "C"

    def test_orderings_follow_regions(self):
        assert classify_game(0.1, 10).ordering == "T>P>R>N"
        assert classify_game(0.3, 10).ordering == "T>R>P>N"
        assert classify_game(0.7, 10).ordering == "T>R>N>P"

    def test_exact_threshold_flags_boundary(self):
        for h in (h_lim1(10), h_lim2(10)):
            result = classify_game(h, 10)
            assert result.boundary
            assert result.region is Region.PRISONERS_DILEMMA
        assert not classify_game(0.3, 10).boundary

    def test_carries_thresholds(self):
        result = classify_game(0.3, 10)
        assert result.h_lim1 == h_lim1(10)
        assert result.h_lim2 == h_lim2(10)


class TestRecommend:
    def test_rule(self):
        assert recommend_strategy(0.1, 10) == "iwf"
        assert recommend_strategy(0.3, 10) == "fdm"
        assert recommend_strategy(0.7, 10) == "fdm"


class TestFixedPoint:
    @given(h=h_range)
    def test_half_half_is_stationary(self, h):
        out = symmetric_iwf_iterates(h, (0.5, 0.5), 3)
        assert np.all(out == 0.5)

    def test_iterates_from_zero(self):
        out = symmetric_iwf_iterates(0.5, (0.0, 0.0), 3)
        assert np.allclose(out[:, 0], [0.0, 0.25, 0.375, 0.4375], rtol=1e-15)

    def test_geometric_contraction(self):
        h = 0.7
        out = symmetric_iwf_iterates(h, (0.1, 0.9), 6)
        err = np.abs(out[:, 0] - 0.5)
        ratios = err[2:] / err[1:-1]
        assert np.allclose(ratios, h, rtol=1e-9)

    def test_no_coupling_converges_in_one_step(self):
        out = symmetric_iwf_iterates(0.0, (0.03, 0.98), 1)
        assert np.all(out[1] == 0.5)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            symmetric_iwf_iterates(0.5, (1.2, 0.0), 1)
        for h in (-0.1, 1.0, math.nan):  # the closed forms' h check
            with pytest.raises(ValueError, match=r"h must satisfy 0 <= h < 1"):
                symmetric_iwf_iterates(h, (0.5, 0.5), 1)

    @pytest.mark.parametrize("sweeps", [-1, -2, 2.5, 2.0, True, "3"])
    def test_rejects_bad_sweeps(self, sweeps):
        # -1 used to raise a raw IndexError, -2 numpy's "negative
        # dimensions" ValueError and 2.5 a TypeError.
        with pytest.raises(ValueError, match="sweeps"):
            symmetric_iwf_iterates(0.5, (0.0, 1.0), sweeps)

    def test_zero_sweeps_returns_the_start_row(self):
        out = symmetric_iwf_iterates(0.5, (0.2, 0.7), 0)
        assert out.shape == (1, 2)
        assert out.tolist() == [[0.2, 0.7]]

    def test_numpy_integer_sweeps(self):
        assert symmetric_iwf_iterates(0.5, (0.0, 0.0), np.int64(3)).shape == (4, 2)


class TestDiscreteGame:
    def test_cell_layout(self):
        game = discrete_game_payoffs(0.3, 10)
        q = game.quad
        assert np.array_equal(game.payoffs_row, [[q.R, q.N], [q.T, q.P]])
        assert np.array_equal(game.payoffs_col, game.payoffs_row.T)

    def test_fdm_cell_sums_to_twice_reward(self):
        game = discrete_game_payoffs(0.4, 25)
        total = game.payoffs_row[0, 0] + game.payoffs_col[0, 0]
        assert total == pytest.approx(2 * game.quad.R, rel=1e-12)

    def test_competition_dominates_outside_chicken(self):
        assert discrete_game_payoffs(0.1, 10).pure_nash_cells() == [(1, 1)]
        assert discrete_game_payoffs(0.3, 10).pure_nash_cells() == [(1, 1)]

    def test_chicken_has_two_asymmetric_equilibria(self):
        cells = discrete_game_payoffs(0.7, 10).pure_nash_cells()
        assert cells == [(0, 1), (1, 0)]


class TestGameInstance:
    def test_tone_level_capacities_reproduce_payoffs(self):
        h, snr = 0.3, 10.0
        channel, noise, budgets = symmetric_game_instance(h, snr)
        q = payoff_quad(h, snr)
        coop0 = PowerAllocation(0, np.array([1.0, 0.0]), 1.0)
        coop1 = PowerAllocation(1, np.array([0.0, 1.0]), 1.0)
        flat0 = PowerAllocation(0, np.array([0.5, 0.5]), 1.0)
        flat1 = PowerAllocation(1, np.array([0.5, 0.5]), 1.0)
        tempt0 = PowerAllocation(0, np.array([(1 + h) / 2, (1 - h) / 2]), 1.0)
        assert budgets == [1.0, 1.0]
        assert capacity(0, [coop0, coop1], channel, noise) == pytest.approx(
            q.R, rel=1e-12)
        assert capacity(0, [flat0, flat1], channel, noise) == pytest.approx(
            q.P, rel=1e-12)
        assert capacity(0, [tempt0, coop1], channel, noise) == pytest.approx(
            q.T, rel=1e-12)
        assert capacity(1, [tempt0, coop1], channel, noise) == pytest.approx(
            q.N, rel=1e-12)

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            symmetric_game_instance(0.3, 10, power=0.0)
