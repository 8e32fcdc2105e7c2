import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from specoord import waterfilling
from specoord.channel import (ChannelMatrixSet, NoiseProfile, FrequencyGrid,
                              make_uniform_grid, symmetric_two_band_channel)
from specoord.game import (AT_MOST_POWER, FULL_POWER, PowerAllocation,
                           Receiver, _fill, capacity, is_nash_equilibrium)
from specoord.waterfilling import (GAUSS_SEIDEL, JACOBI, EffectiveNoise,
                                   InfeasibleError, achievable_rate,
                                   effective_noise, iterate_iwf,
                                   waterfill_fm, waterfill_ra)


def eff_of(values, usable=None, user=0):
    values = np.asarray(values, dtype=float)
    if usable is None:
        usable = np.isfinite(values)
    return EffectiveNoise(user, values, np.asarray(usable, dtype=bool))


def unit_grid(k):
    return make_uniform_grid(0, k, k)


class TestEffectiveNoise:
    def test_interference_plus_noise_over_gain(self):
        grid = unit_grid(1)
        gains = np.array([[[1.0, 0.3], [0.0, 1.0]]])
        channel = ChannelMatrixSet(gains, grid)
        noise = NoiseProfile(np.array([[0.1], [0.1]]))
        other = PowerAllocation(1, np.array([1.0]), 1.0)
        eff = effective_noise(0, [other], channel, noise)
        assert eff.values[0] == pytest.approx(0.4, rel=1e-12)
        assert eff.usable[0]

    def test_gap_scales_floor(self):
        grid = unit_grid(1)
        gains = np.array([[[1.0, 0.3], [0.0, 1.0]]])
        channel = ChannelMatrixSet(gains, grid)
        noise = NoiseProfile(np.array([[0.1], [0.1]]))
        other = PowerAllocation(1, np.array([1.0]), 1.0)
        eff = effective_noise(0, [other], channel, noise, gap=2.0)
        assert eff.values[0] == pytest.approx(0.8, rel=1e-12)

    def test_own_allocation_ignored(self):
        channel = symmetric_two_band_channel(0.3)
        noise = NoiseProfile.white(0.1, 2, 2)
        own = PowerAllocation(0, np.array([5.0, 5.0]), 10.0)
        with_own = effective_noise(0, [own], channel, noise)
        without = effective_noise(0, [], channel, noise)
        assert np.array_equal(with_own.values, without.values)

    def test_zero_direct_gain_marked_unusable(self):
        grid = unit_grid(2)
        gains = np.array([[[0.0, 0.0], [0.0, 1.0]],
                          [[1.0, 0.0], [0.0, 1.0]]])
        channel = ChannelMatrixSet(gains, grid)
        noise = NoiseProfile.white(0.1, 2, 2)
        eff = effective_noise(0, [], channel, noise)
        assert not eff.usable[0] and math.isinf(eff.values[0])
        assert eff.usable[1]

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_usable_value(self, bad):
        with pytest.raises(ValueError, match="finite and > 0"):
            EffectiveNoise(0, [0.5, bad], [True, True])

    @pytest.mark.parametrize("values,usable", [([0.5, 0.5], [True]),
                                               ([[0.5, 0.5]], [[True, True]])])
    def test_rejects_values_and_usable_not_matching_vectors(self, values, usable):
        with pytest.raises(ValueError, match="^values and usable must be "
                           "matching 1-D arrays$"):
            EffectiveNoise(0, values, usable)

    def test_unusable_tone_may_hold_anything(self):
        eff = EffectiveNoise(0, [0.5, math.nan], [True, False])
        assert eff.usable.tolist() == [True, False]

    def test_rate_skips_a_zero_on_an_unusable_tone(self):
        # The rate used to divide the power on every tone by its value, so a
        # zero on an unusable tone raised a divide-by-zero RuntimeWarning.
        eff = EffectiveNoise(0, [0.5, 0.0], [True, False])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rate = achievable_rate(np.array([1.0, 2.0]), eff, unit_grid(2))
        assert rate == pytest.approx(math.log2(3.0), rel=1e-15)


class TestAchievableRateSizes:
    """achievable_rate refuses a grid or a power vector of another size,
    as waterfill_ra and waterfill_fm refuse the grid."""

    def test_rejects_a_grid_of_another_size(self):
        # It used to rate the first three of four tones: 6.0, not 3.0.
        grid = FrequencyGrid(np.array([0.0, 1.0, 3.0, 6.0, 10.0]))
        with pytest.raises(ValueError, match="does not match grid"):
            achievable_rate(np.ones(3), eff_of([1.0, 1.0, 1.0]), grid)

    @pytest.mark.parametrize("size", [2, 5])
    def test_rejects_a_power_vector_of_another_size(self, size):
        # A 5-tone vector used to be rated on its first three tones.
        with pytest.raises(ValueError, match="power does not match"):
            achievable_rate(np.ones(size), eff_of([1.0, 1.0, 1.0]), unit_grid(3))


class TestFloorRules:
    """achievable_rate, waterfill_ra and waterfill_fm apply the rules of
    every other entry: powers finite and >= 0, and the finite-rate rule,
    power / floor and budget / floor finite on every usable tone.  Each
    refusal names its argument."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_rate_refuses_bad_powers(self, bad):
        # nan and inf used to be rated nan and inf, with no warning.
        with pytest.raises(ValueError) as exc:
            achievable_rate(np.array([bad, 0.0]), eff_of([1e-3, 1.0]), unit_grid(2))
        assert str(exc.value) == "powers must be finite and non-negative"

    def test_rate_refuses_a_power_past_the_rule(self):
        with pytest.raises(ValueError) as exc:
            achievable_rate(np.array([1e10, 0.0]), eff_of([1e-300, 1.0]),
                            unit_grid(2))
        assert str(exc.value) == ("power is too large: power / floor overflows "
                                  "on a usable tone")

    @pytest.mark.parametrize("fill", [
        lambda eff, budget: waterfill_ra(eff, budget, unit_grid(2)),
        lambda eff, budget: waterfill_fm(eff, budget, 1.0, unit_grid(2)),
    ], ids=["ra", "fm"])
    def test_fill_refuses_a_budget_past_the_rule(self, fill):
        # waterfill_ra used to accept it, and the rate of its fill overflowed.
        with pytest.raises(ValueError) as exc:
            fill(eff_of([1e-300, 1.0]), 1e10)
        assert str(exc.value) == ("budget is too large: budget / floor overflows "
                                  "on a usable tone")
        # Within the rule the fill and its rate stay finite.
        alloc, _ = fill(eff_of([1e-290, 1.0]), 1e10)
        assert math.isfinite(achievable_rate(alloc.power, eff_of([1e-290, 1.0]),
                                             unit_grid(2)))

    def test_an_unusable_tone_is_outside_the_rule(self):
        eff = eff_of([1.0, 1e-300], usable=[True, False])
        alloc, _ = waterfill_ra(eff, 1e10, unit_grid(2))
        assert achievable_rate(np.array([1e10, 1e300]), eff, unit_grid(2)) == (
            achievable_rate(alloc.power, eff, unit_grid(2)))


class TestWaterfillRa:
    def test_both_tones_active(self):
        alloc, mu = waterfill_ra(eff_of([1.0, 3.0]), 4.0, unit_grid(2))
        assert np.allclose(alloc.power, [3.0, 1.0], rtol=1e-12)
        assert mu == pytest.approx(4.0, rel=1e-12)
        assert alloc.mode == FULL_POWER

    def test_high_floor_left_inactive(self):
        alloc, mu = waterfill_ra(eff_of([1.0, 3.0]), 1.0, unit_grid(2))
        assert np.allclose(alloc.power, [1.0, 0.0], atol=1e-15)
        assert mu == pytest.approx(2.0, rel=1e-12)

    def test_zero_budget(self):
        alloc, _ = waterfill_ra(eff_of([1.0, 3.0]), 0.0, unit_grid(2))
        assert np.all(alloc.power == 0)

    def test_nonuniform_widths(self):
        grid = FrequencyGrid(np.array([0.0, 1.0, 3.0]))
        alloc, mu = waterfill_ra(eff_of([1.0, 1.0]), 2.0, grid)
        assert mu == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert np.allclose(alloc.power, [1.0 / 3.0, 5.0 / 3.0], rtol=1e-12)

    def test_unusable_tone_gets_nothing(self):
        alloc, _ = waterfill_ra(eff_of([1.0, math.inf]), 2.0, unit_grid(2))
        assert alloc.power[1] == 0.0
        assert alloc.total == pytest.approx(2.0, rel=1e-12)

    def test_all_unusable_raises(self):
        with pytest.raises(InfeasibleError):
            waterfill_ra(eff_of([math.inf, math.inf]), 1.0, unit_grid(2))

    def test_all_unusable_zero_budget_ok(self):
        alloc, _ = waterfill_ra(eff_of([math.inf]), 0.0, unit_grid(1))
        assert np.all(alloc.power == 0)

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            waterfill_ra(eff_of([1.0]), -1.0, unit_grid(1))

    @pytest.mark.parametrize("floors", [[0.02], [0.02, 0.5]])
    def test_budget_below_an_ulp_of_the_floor(self, floors):
        # budget + floor rounds to the floor, so no level clears it; the
        # cheapest tone still takes the whole budget.
        alloc, mu = waterfill_ra(eff_of(floors), 1e-184, unit_grid(len(floors)))
        assert alloc.power[0] == 1e-184 and alloc.total == 1e-184
        assert mu == 0.02

    @given(floors=st.lists(st.floats(min_value=1e-3, max_value=1e3),
                           min_size=1, max_size=8),
           budget=st.floats(min_value=1e-3, max_value=1e3))
    def test_kkt_conditions(self, floors, budget):
        grid = unit_grid(len(floors))
        alloc, mu = waterfill_ra(eff_of(floors), budget, grid)
        floors = np.asarray(floors)
        assert alloc.total == pytest.approx(budget, rel=1e-12)
        active = alloc.power > 0
        levels = floors[active] + alloc.power[active]
        assert np.allclose(levels, mu, rtol=1e-9)
        assert np.all(floors[~active] >= mu * (1 - 1e-9))


def reference_ra_fill(tones, floors, widths, k, budget):
    """The rate-adaptive fill by sorting the per-Hz floors and taking the
    longest feasible prefix, on arrays: the path that _fill on one or two
    usable tones, and the float loop's scalar fill on two, must reproduce
    bit for bit."""
    nu = floors / widths
    if budget == 0:
        return np.zeros(k), float(nu.min())
    order = nu.argsort(kind="stable")
    nu_s, n_s, w_s = nu[order], floors[order], widths[order]
    fits = (budget + np.add.accumulate(n_s)) / np.add.accumulate(w_s) > nu_s
    fits[0] = True
    m = int(fits.nonzero()[0][-1]) + 1
    active, w_act, n_act = tones[order[:m]], w_s[:m], n_s[:m]
    w_sum = float(w_act.sum())
    mu = (budget + float(n_act.sum())) / w_sum
    power = np.zeros(k)
    active_power = mu * w_act - n_act
    power[active] = active_power
    deficit = budget - float(power.sum())
    active_power += deficit * w_act / w_sum
    power[active] = active_power
    mu += deficit / w_sum
    np.maximum(power, 0.0, out=power)
    return power, float(mu)


@st.composite
def few_tone_fills(draw, two=False):
    """(tones, floors, widths, k, budget): one or two usable tones (two
    when two is set) among k <= 6, floors from 1e-12 to 1e6, equal per-Hz
    floors on some pairs, and budgets of 0, below half an ulp of every
    floor, or up to 1e12."""
    k = draw(st.integers(2 if two else 1, 6))
    m = 2 if two else draw(st.integers(1, min(k, 2)))
    tones = np.sort(draw(st.permutations(range(k)))[:m])
    floors = [draw(st.floats(1e-12, 1e6))]
    widths = [draw(st.floats(1e-3, 1e6))]
    if m == 2:
        if draw(st.booleans()):
            # Scaling both by a power of two keeps floor/width exact.
            scale = 2.0 ** draw(st.integers(-3, 3))
            floors.append(floors[0] * scale)
            widths.append(widths[0] * scale)
        else:
            floors.append(draw(st.floats(1e-12, 1e6)))
            widths.append(draw(st.floats(1e-3, 1e6)))
    kind = draw(st.sampled_from(["zero", "below an ulp", "any"]))
    if kind == "zero":
        budget = 0.0
    elif kind == "below an ulp":
        budget = min(floors) * draw(st.floats(1e-30, 1e-17))
    else:
        budget = draw(st.floats(1e-12, 1e12))
    return tones, np.array(floors), np.array(widths), k, budget


def on_few_tone_fills(two=False):
    """Run test(self, case) on few_tone_fills(two) and two hand-picked
    cases."""
    def decorate(test):
        # A tie with a budget too small to lift the level off it: the whole
        # budget goes to the first of the two tones, as a stable sort orders.
        test = example(case=(np.array([1, 3]), np.array([0.5, 0.5]),
                             np.array([1.0, 1.0]), 5, 1e-20))(test)
        # Rounding leaves a residue that the uniform shift of the level
        # removes.
        test = example(case=(np.array([0, 2]), np.array([0.1, 0.3]),
                             np.array([1.0, 3.0]), 3, 1.3))(test)
        return settings(max_examples=400)(given(case=few_tone_fills(two))(test))
    return decorate


class TestFillOnFewTones:
    """_fill on one or two usable tones, and the scalar two-tone fill of
    the two-user float loop (_pair_sweeps) on two, give the bits of the
    sorted-prefix path."""

    @on_few_tone_fills()
    def test_matches_the_sorted_prefix_path(self, case):
        tones, floors, widths, k, budget = case
        power, mu, short = _fill(tones, floors, widths, k, budget)
        want_power, want_mu = reference_ra_fill(tones, floors, widths, k, budget)
        assert short is None
        assert power.tobytes() == want_power.tobytes()
        assert mu == want_mu

    @on_few_tone_fills(two=True)
    def test_pair_matches_the_sorted_prefix_path(self, case):
        tones, floors, widths, k, budget = case
        assume(budget > 0)  # a zero budget takes no fill
        # One sweep of the float loop from zero powers, where user 0's
        # floors are its noise (unit direct gains, no crosstalk) on tones
        # 0 and 1, in the case's order, and user 1 idles at budget 0 on
        # two tones of its own.
        rx = Receiver(np.zeros((2, 2)), np.arange(2), widths, np.ones(2),
                      floors, 0)
        idle = Receiver(np.zeros((2, 2)), np.arange(2), *np.ones((3, 2)), 1)
        p = [[0.0, 0.0], [0.0, 0.0]]
        waterfilling._pair_sweeps([rx, idle], p, [budget, 0.0], 1.0, 1, 0.0,
                                  False)
        power = np.zeros(k)
        power[tones] = p[0]
        want_power, _ = reference_ra_fill(tones, floors, widths, k, budget)
        assert power.tobytes() == want_power.tobytes()


class TestWaterfillFm:
    def test_single_tone_inversion(self):
        alloc, mu = waterfill_fm(eff_of([1.0]), 5.0, 1.0, unit_grid(1))
        assert alloc.power[0] == pytest.approx(1.0, rel=1e-12)
        assert mu == pytest.approx(2.0, rel=1e-12)
        assert alloc.mode == AT_MOST_POWER

    def test_zero_target(self):
        alloc, _ = waterfill_fm(eff_of([1.0, 3.0]), 5.0, 0.0, unit_grid(2))
        assert np.all(alloc.power == 0)

    def test_two_tone_level_is_exact(self):
        alloc, mu = waterfill_fm(eff_of([1.0, 1.0]), 2.0, 1.0, unit_grid(2))
        assert mu == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert np.allclose(alloc.power, math.sqrt(2.0) - 1.0, rtol=1e-15)

    def test_boundary_target_returns_ra_allocation(self):
        eff = eff_of([0.5, 1.5, 4.0])
        grid = unit_grid(3)
        ra, _ = waterfill_ra(eff, 3.0, grid)
        max_rate = achievable_rate(ra.power, eff, grid)
        fm, _ = waterfill_fm(eff, 3.0, max_rate, grid)
        assert np.allclose(fm.power, ra.power, rtol=1e-9, atol=1e-12)

    def test_rate_matches_target(self, rng):
        for _ in range(50):
            k = int(rng.integers(1, 7))
            eff = eff_of(rng.uniform(0.01, 10.0, k))
            grid = unit_grid(k)
            budget = float(rng.uniform(0.5, 20.0))
            ra, _ = waterfill_ra(eff, budget, grid)
            max_rate = achievable_rate(ra.power, eff, grid)
            target = float(rng.uniform(0.05, 0.95)) * max_rate
            alloc, _ = waterfill_fm(eff, budget, target, grid)
            assert achievable_rate(alloc.power, eff, grid) == pytest.approx(
                target, rel=1e-9)
            assert alloc.total <= budget * (1 + 1e-9)

    def test_power_is_minimal(self, rng):
        for _ in range(50):
            k = int(rng.integers(1, 7))
            eff = eff_of(rng.uniform(0.01, 10.0, k))
            grid = unit_grid(k)
            target = float(rng.uniform(0.1, 3.0))
            alloc, _ = waterfill_fm(eff, 1e9, target, grid)
            shaved = alloc.power * 0.999
            assert achievable_rate(shaved, eff, grid) < target

    def test_infeasible_reports_max_achievable(self):
        eff = eff_of([1.0, 3.0])
        grid = unit_grid(2)
        ra, _ = waterfill_ra(eff, 4.0, grid)
        max_rate = achievable_rate(ra.power, eff, grid)
        with pytest.raises(InfeasibleError) as exc:
            waterfill_fm(eff, 4.0, max_rate * 1.01, grid)
        assert exc.value.max_achievable == pytest.approx(max_rate, rel=1e-12)

    def test_no_usable_tones(self):
        with pytest.raises(InfeasibleError):
            waterfill_fm(eff_of([math.inf]), 1.0, 0.5, unit_grid(1))

    def test_rejects_negative_target(self):
        with pytest.raises(ValueError):
            waterfill_fm(eff_of([1.0]), 1.0, -0.1, unit_grid(1))

    @pytest.mark.parametrize("target", [0.0, 0.5])
    def test_rejects_a_grid_of_another_size_at_any_target(self, target):
        # At target 0 it used to return a 3-tone allocation.
        with pytest.raises(ValueError, match="does not match grid"):
            waterfill_fm(eff_of([1.0, 2.0, 3.0]), 1.0, target, unit_grid(4))

    def test_rejects_nan_target(self):
        # It used to surface as a nan power, rejected as a bad allocation.
        with pytest.raises(ValueError, match="target_rate"):
            waterfill_fm(eff_of([1.0]), 1.0, math.nan, unit_grid(1))

    def test_tiny_floors_keep_precision(self):
        # Floors far below 1 exercise the closed form where a bracketed
        # search with an absolute tolerance would give up early.
        scale = 1e-13
        eff = eff_of([scale, 3 * scale])
        grid = unit_grid(2)
        budget = 4 * scale
        ra, _ = waterfill_ra(eff, budget, grid)
        max_rate = achievable_rate(ra.power, eff, grid)
        target = 0.6 * max_rate
        alloc, _ = waterfill_fm(eff, budget, target, grid)
        assert achievable_rate(alloc.power, eff, grid) == pytest.approx(
            target, rel=1e-12)


class TestIterateIwf:
    def test_gauss_seidel_trajectory(self):
        channel = symmetric_two_band_channel(0.5)
        noise = NoiseProfile.white(0.1, 2, 2)
        start = [PowerAllocation(0, np.array([0.0, 1.0]), 1.0),
                 PowerAllocation(1, np.array([1.0, 0.0]), 1.0)]
        one = iterate_iwf(channel, noise, [1.0, 1.0], max_iter=1,
                          initial=start)
        assert one.allocations[0].power[0] == pytest.approx(0.25, rel=1e-12)
        assert one.allocations[1].power[1] == pytest.approx(0.375, rel=1e-12)
        two = iterate_iwf(channel, noise, [1.0, 1.0], max_iter=2,
                          initial=start)
        assert two.allocations[0].power[0] == pytest.approx(0.4375, rel=1e-12)

    def test_symmetric_converges_to_flat_split(self):
        channel = symmetric_two_band_channel(0.5)
        noise = NoiseProfile.white(0.1, 2, 2)
        start = [PowerAllocation(0, np.array([0.0, 1.0]), 1.0),
                 PowerAllocation(1, np.array([1.0, 0.0]), 1.0)]
        report = iterate_iwf(channel, noise, [1.0, 1.0], initial=start)
        assert report.converged
        for alloc in report.allocations:
            assert np.allclose(alloc.power, 0.5, atol=1e-9)

    def test_no_coupling_flat_after_one_sweep(self):
        channel = symmetric_two_band_channel(0.0)
        noise = NoiseProfile.white(0.1, 2, 2)
        report = iterate_iwf(channel, noise, [1.0, 1.0], max_iter=1)
        for alloc in report.allocations:
            assert np.allclose(alloc.power, 0.5, rtol=1e-12)

    def test_fixed_point_is_nash(self):
        channel = symmetric_two_band_channel(0.3)
        noise = NoiseProfile.white(0.1, 2, 2)
        report = iterate_iwf(channel, noise, [1.0, 1.0])
        assert report.converged
        result = is_nash_equilibrium(list(report.allocations), channel, noise,
                                     tol=1e-8)
        assert result.is_nash

    def test_jacobi_reaches_same_fixed_point(self):
        channel = symmetric_two_band_channel(0.3)
        noise = NoiseProfile.white(0.1, 2, 2)
        gs = iterate_iwf(channel, noise, [1.0, 1.0], schedule=GAUSS_SEIDEL)
        ja = iterate_iwf(channel, noise, [1.0, 1.0], schedule=JACOBI)
        assert gs.converged and ja.converged
        for a, b in zip(gs.allocations, ja.allocations):
            assert np.allclose(a.power, b.power, atol=1e-8)

    def test_fm_mode_hits_targets(self):
        channel = symmetric_two_band_channel(0.3)
        noise = NoiseProfile.white(0.1, 2, 2)
        report = iterate_iwf(channel, noise, [1.0, 1.0], mode="fm",
                             targets=[0.8, None])
        assert report.converged and report.shortfall_users == ()
        rate = capacity(0, list(report.allocations), channel, noise)
        assert rate == pytest.approx(0.8, rel=1e-8)
        assert report.allocations[0].total < 1.0
        assert report.allocations[1].total == pytest.approx(1.0, rel=1e-12)

    def test_fm_infeasible_falls_back_to_ra(self):
        channel = symmetric_two_band_channel(0.3)
        noise = NoiseProfile.white(0.1, 2, 2)
        report = iterate_iwf(channel, noise, [1.0, 1.0], mode="fm",
                             targets=[50.0, None])
        assert report.shortfall_users == (0,)
        assert report.allocations[0].total == pytest.approx(1.0, rel=1e-12)

    def test_reports_non_convergence(self):
        channel = symmetric_two_band_channel(0.5)
        noise = NoiseProfile.white(0.1, 2, 2)
        start = [PowerAllocation(0, np.array([0.0, 1.0]), 1.0),
                 PowerAllocation(1, np.array([1.0, 0.0]), 1.0)]
        report = iterate_iwf(channel, noise, [1.0, 1.0], max_iter=2,
                             initial=start)
        assert not report.converged and report.iterations == 2
        assert report.changes.size == 2

    def test_input_validation(self):
        channel = symmetric_two_band_channel(0.3)
        noise = NoiseProfile.white(0.1, 2, 2)
        with pytest.raises(ValueError):
            iterate_iwf(channel, noise, [1.0])
        with pytest.raises(ValueError):
            iterate_iwf(channel, noise, [1.0, 1.0], mode="xx")
        with pytest.raises(ValueError):
            iterate_iwf(channel, noise, [1.0, 1.0], schedule="sorted")
        with pytest.raises(ValueError):
            iterate_iwf(channel, noise, [1.0, 1.0], mode="fm")
        with pytest.raises(ValueError):
            iterate_iwf(channel, noise, [1.0, 1.0],
                        initial=[PowerAllocation(0, np.zeros(2), 1.0)] )


def dsl_like_instance(seed):
    """A 2-user channel with 64 uneven tones, masked (zero-gain) tones for
    both users, weak crosstalk, uneven noise and uneven budgets."""
    rng = np.random.default_rng(seed)
    k = 64
    grid = FrequencyGrid(np.cumsum(np.r_[0.0, rng.uniform(0.5, 2.0, k)]))
    gains = rng.uniform(0.0, 0.05, (k, 2, 2))
    for u in (0, 1):
        gains[:, u, u] = np.where(rng.random(k) < 0.2, 0.0,
                                  rng.uniform(0.1, 2.0, k))
    noise = NoiseProfile(rng.uniform(1e-3, 0.1, (2, k)))
    budgets = [float(b) for b in rng.uniform(5.0, 40.0, 2)]
    return ChannelMatrixSet(gains, grid), noise, budgets


class TestJacobiRelations:
    """Relations of Jacobi IWF that need no reference solver, bit for bit."""

    @pytest.mark.parametrize("seed", range(5))
    def test_scaling_budgets_and_noise_scales_the_powers(self, seed):
        channel, noise, budgets = dsl_like_instance(seed)
        base = iterate_iwf(channel, noise, budgets, schedule=JACOBI)
        scaled = iterate_iwf(channel, NoiseProfile(4 * noise.values),
                             [4 * b for b in budgets], schedule=JACOBI)
        assert base.converged
        assert scaled.iterations == base.iterations
        for a, b in zip(scaled.allocations, base.allocations):
            assert a.power.tobytes() == (4 * b.power).tobytes()

    @pytest.mark.parametrize("seed", range(5))
    def test_relabelling_the_users_relabels_the_powers(self, seed):
        channel, noise, budgets = dsl_like_instance(seed)
        base = iterate_iwf(channel, noise, budgets, schedule=JACOBI)
        swapped = iterate_iwf(
            ChannelMatrixSet(channel.gains[:, ::-1, ::-1].copy(), channel.grid),
            NoiseProfile(noise.values[::-1].copy()), budgets[::-1],
            schedule=JACOBI)
        assert swapped.iterations == base.iterations
        for u in (0, 1):
            assert swapped.allocations[u].user == u
            assert (swapped.allocations[u].power.tobytes()
                    == base.allocations[1 - u].power.tobytes())


    @pytest.mark.parametrize("seed", range(5))
    def test_a_user_without_crosstalk_plays_alone(self, seed):
        # Both relations above hold for a solver that transposes the
        # crosstalk, since relabelling reverses both gain axes; this one
        # fixes which axis is the receiver.
        channel, noise, budgets = dsl_like_instance(seed)
        gains = channel.gains.copy()
        gains[:, 0, 1] = 0.0  # nothing from user 1 reaches receiver 0
        channel = ChannelMatrixSet(gains, channel.grid)
        report = iterate_iwf(channel, noise, budgets, schedule=JACOBI)
        alone, _ = waterfill_ra(effective_noise(0, (), channel, noise),
                                budgets[0], channel.grid)
        assert report.allocations[0].power.tobytes() == alone.power.tobytes()


class TestIterateIwfEntryChecks:
    """Bad settings fail at entry, naming the field, even with max_iter=0."""

    def setup_method(self):
        self.channel = symmetric_two_band_channel(0.5)
        self.noise = NoiseProfile.white(0.1, 2, 2)

    @pytest.mark.parametrize("tol", [math.nan, -1.0])
    def test_rejects_bad_tol(self, tol):
        # Both used to run every sweep and report converged=False.
        with pytest.raises(ValueError, match="tol"):
            iterate_iwf(self.channel, self.noise, [1.0, 1.0], tol=tol)

    @pytest.mark.parametrize("max_iter", [0, 5])
    def test_rejects_an_infinite_gap(self, max_iter):
        # It used to pass the entry check, and fail in the first sweep as
        # "usable effective noise must be finite and > 0".
        with pytest.raises(ValueError, match="gap must be finite"):
            iterate_iwf(self.channel, self.noise, [1.0, 1.0], gap=math.inf,
                        max_iter=max_iter)

    def test_rejects_negative_max_iter(self):
        # It used to return a report of 0 sweeps.
        with pytest.raises(ValueError, match="max_iter"):
            iterate_iwf(self.channel, self.noise, [1.0, 1.0], max_iter=-1)

    @pytest.mark.parametrize("budget", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("max_iter", [0, 5])
    def test_rejects_bad_budget_naming_the_user(self, budget, max_iter):
        with pytest.raises(ValueError, match=r"budgets\[1\]"):
            iterate_iwf(self.channel, self.noise, [1.0, budget],
                        max_iter=max_iter)

    @pytest.mark.parametrize("target", [math.nan, -1.0])
    def test_rejects_bad_target_naming_the_user(self, target):
        with pytest.raises(ValueError, match=r"^targets\[1\] must be >= 0$"):
            iterate_iwf(self.channel, self.noise, [1.0, 1.0], mode="fm",
                        targets=[1.0, target], max_iter=0)

    @pytest.mark.parametrize("targets", [[1.0, 2.0, 3.0], [None, 2.0]])
    def test_rejects_targets_outside_fm_mode(self, targets):
        with pytest.raises(ValueError, match="targets"):
            iterate_iwf(self.channel, self.noise, [1.0, 1.0], mode="ra",
                        targets=targets, max_iter=0)

    def test_zero_budget_and_zero_target_are_valid(self):
        report = iterate_iwf(self.channel, self.noise, [1.0, 0.0], mode="fm",
                             targets=[0.0, 1.0], tol=0.0)
        assert report.converged
        assert report.shortfall_users == (1,)
        assert [a.mode for a in report.allocations] == [AT_MOST_POWER, FULL_POWER]
        assert all(not a.power.any() for a in report.allocations)


class TestNoiseShape:
    """A noise profile must hold one row per user and one column per tone."""

    def setup_method(self):
        grid = unit_grid(4)
        gains = np.tile(np.array([[1.0, 0.2], [0.3, 1.0]]), (4, 1, 1))
        self.channel = ChannelMatrixSet(gains, grid)

    @pytest.mark.parametrize("shape", [(2, 3), (3, 4)])
    def test_iterate_iwf_rejects_mismatched_noise(self, shape):
        noise = NoiseProfile(np.full(shape, 0.1))
        with pytest.raises(ValueError, match=r"noise.*\(%d, %d\).*\(2, 4\)" % shape):
            iterate_iwf(self.channel, noise, [1.0, 1.0])

    @pytest.mark.parametrize("shape", [(2, 3), (3, 4)])
    def test_effective_noise_rejects_mismatched_noise(self, shape):
        noise = NoiseProfile(np.full(shape, 0.1))
        with pytest.raises(ValueError, match=r"noise.*\(%d, %d\).*\(2, 4\)" % shape):
            effective_noise(0, [], self.channel, noise)


def reference_iwf(channel, noise, budgets, mode="ra", targets=None,
                  max_iter=500, tol=1e-10, schedule=GAUSS_SEIDEL,
                  initial=None, gap=1.0):
    """iterate_iwf written with the public per-user steps, one dataclass
    per step: the loop the array version must reproduce bit for bit."""
    n, k = channel.num_users, channel.num_tones
    budgets = [float(b) for b in budgets]
    targets = list(targets) if mode == "fm" else [None] * n
    if initial is None:
        allocs = [PowerAllocation(i, np.zeros(k), budgets[i], AT_MOST_POWER)
                  for i in range(n)]
    else:
        allocs = sorted(initial, key=lambda a: a.user)
    changes, converged, iterations, shortfall = [], False, 0, set()
    for sweep in range(max_iter):
        snapshot = list(allocs)
        basis = snapshot if schedule == JACOBI else allocs
        delta = 0.0
        for i in range(n):
            eff = effective_noise(i, basis, channel, noise, gap)
            if targets[i] is None:
                new, _ = waterfill_ra(eff, budgets[i], channel.grid)
                shortfall.discard(i)
            else:
                try:
                    new, _ = waterfill_fm(eff, budgets[i], targets[i], channel.grid)
                    shortfall.discard(i)
                except InfeasibleError:
                    new, _ = waterfill_ra(eff, budgets[i], channel.grid)
                    shortfall.add(i)
            delta = max(delta, float(np.abs(new.power - snapshot[i].power).max()))
            allocs[i] = new
        changes.append(delta)
        iterations = sweep + 1
        if delta <= tol * max(max(budgets), 1e-300):
            converged = True
            break
    return allocs, iterations, converged, np.array(changes), tuple(sorted(shortfall))


class TestIterateIwfMatchesReference:
    """The array loop gives the same bits as the per-user public steps."""

    @staticmethod
    def instance(seed, n=3, k=9, masked=True):
        rng = np.random.default_rng(seed)
        gains = 0.4 * rng.random((k, n, n))
        for i in range(n):
            gains[:, i, i] = 0.5 + rng.random(k)
        if masked:
            gains[rng.integers(k), 0, 0] = 0.0      # one masked tone
        grid = FrequencyGrid(np.cumsum(np.r_[0.0, 0.5 + rng.random(k)]))
        noise = NoiseProfile(0.02 + 0.1 * rng.random((n, k)))
        return ChannelMatrixSet(gains, grid), noise, list(1.0 + rng.random(n))

    @pytest.mark.parametrize("schedule", [GAUSS_SEIDEL, JACOBI])
    @pytest.mark.parametrize("case", [
        dict(mode="ra"),
        dict(mode="ra", gap=2.0, max_iter=7),
        dict(mode="fm", targets=[2.0, None, 1.5]),
        dict(mode="fm", targets=[80.0, 1.0, None]),   # user 0 unreachable
        dict(mode="ra", initial=True),
        dict(mode="fm", targets=[2.0, None, 1.5], initial=True, max_iter=0),
        dict(mode="ra", max_iter=0),
        # Five users put three or four crosstalk terms in a floor sum, where
        # their order shows in the bits.  User 4 has nothing to spend on its
        # target and falls back to full-budget play.
        dict(mode="fm", users=5, zero_budget=4,
             targets=[2.0, None, 1.5, None, 1.0]),
    ])
    def test_bit_identical(self, schedule, case):
        case = dict(case)
        channel, noise, budgets = self.instance(seed=11, n=case.pop("users", 3))
        if "zero_budget" in case:
            budgets[case.pop("zero_budget")] = 0.0
        kwargs = dict(case, schedule=schedule)
        if kwargs.get("initial"):
            rng = np.random.default_rng(5)
            kwargs["initial"] = [PowerAllocation(i, rng.random(channel.num_tones),
                                                 budgets[i])
                                 for i in (2, 0, 1)]
        report = iterate_iwf(channel, noise, budgets, **kwargs)
        allocs, iterations, converged, changes, shortfall = reference_iwf(
            channel, noise, budgets, **kwargs)
        assert report.iterations == iterations
        assert report.converged == converged
        assert report.changes.tobytes() == changes.tobytes()
        assert report.shortfall_users == shortfall
        for got, want in zip(report.allocations, allocs):
            assert (got.user, got.mode, got.budget) == (want.user, want.mode,
                                                        want.budget)
            assert got.power.tobytes() == want.power.tobytes()
        targets = case.get("targets")
        if targets and case.get("max_iter", 1):
            # The FM cases exercise both the fixed-margin response and the
            # full-budget fallback of an unreachable target.
            modes = [a.mode for a in report.allocations]
            assert modes[1 if targets[0] == 80.0 else 0] == AT_MOST_POWER
            assert (shortfall == (0,)) == (targets[0] == 80.0)

    @pytest.mark.parametrize("users,tones,case", [
        (3, 9, dict(mode="ra")),
        (3, 9, dict(mode="fm", targets=[80.0, 1.0, None])),
        (3, 9, dict(mode="ra", max_iter=0)),
        (2, 2, dict(mode="ra")),      # the Python-float sweeps
        (2, 2, dict(mode="ra", max_iter=0)),
    ])
    def test_builds_one_allocation_per_user(self, monkeypatch, users, tones,
                                            case):
        # With no initial allocations the loop starts from a zero matrix:
        # it used to build N zero allocations and stack them with
        # power_matrix, 2N allocations in all.
        channel, noise, budgets = self.instance(seed=11, n=users, k=tones,
                                                masked=tones > 2)
        built, stacked = [], []
        init = PowerAllocation.__post_init__
        stack = waterfilling.power_matrix

        def post_init(alloc):
            built.append(alloc)
            init(alloc)

        def power_matrix(*args):
            stacked.append(args)
            return stack(*args)

        monkeypatch.setattr(PowerAllocation, "__post_init__", post_init)
        monkeypatch.setattr(waterfilling, "power_matrix", power_matrix)
        report = iterate_iwf(channel, noise, budgets, **case)
        assert len(built) == users
        assert all(a is b for a, b in zip(built, report.allocations))
        assert stacked == []


def iwf_outcome(solve, channel, noise, budgets, **kwargs):
    """What a solver returns, as comparable values, or the error it raises
    (type and message).  Numpy's overflow warnings are silenced: the float
    loop has none to give, and both must end in the same error."""
    try:
        with np.errstate(all="ignore"):
            out = solve(channel, noise, budgets, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)
    if isinstance(out, tuple):  # reference_iwf's
        allocs, iterations, converged, changes, shortfall = out
    else:
        allocs, iterations, converged, changes, shortfall = (
            out.allocations, out.iterations, out.converged, out.changes,
            out.shortfall_users)
    return ([(a.user, a.mode, a.budget, a.power.tobytes()) for a in allocs],
            iterations, converged, changes.tobytes(), shortfall)


@st.composite
def two_user_games(draw):
    """(channel, noise, budgets, kwargs) of a 2-user game: most often on
    two tones that both users can use, which iterate_iwf runs on Python
    floats, else on one tone or with a masked tone for one or both users,
    which take the matrix loop.  Crosstalk gains up to 0.999, drawn per
    tone and direction, SNR from 1e-1 to 1e4, gap >= 1, zero budgets,
    skewed starts that may hold power on a masked tone, and 0, 1, 3 or 60
    sweeps."""
    # About one game in eight is outside the float loop's domain.
    layout = draw(st.sampled_from(["two tones"] * 14 + ["one tone", "masked"]))
    k = 1 if layout == "one tone" else 2
    gains = np.empty((k, 2, 2))
    for t in range(k):
        for i in range(2):
            for j in range(2):
                gains[t, i, j] = draw(st.floats(0.5, 2.0) if i == j
                                      else st.floats(0.0, 0.999))
    if layout == "masked":
        for i in draw(st.sampled_from([(0,), (1,), (0, 1)])):
            gains[draw(st.integers(0, 1)), i, i] = 0.0
    elif layout == "one tone":
        for i in range(2):
            if draw(st.booleans()):
                gains[0, i, i] = 0.0
    widths = [draw(st.floats(0.5, 2.0)) for _ in range(k)]
    channel = ChannelMatrixSet(gains, FrequencyGrid(np.cumsum([0.0] + widths)))
    snr = [10.0 ** draw(st.floats(-1.0, 4.0)) for _ in range(2)]
    noise = NoiseProfile(np.array([[draw(st.floats(0.5, 2.0)) / s
                                    for _ in range(k)] for s in snr]))
    budgets = [draw(st.just(0.0) | st.floats(0.1, 10.0)) for _ in range(2)]
    kwargs = dict(schedule=draw(st.sampled_from([GAUSS_SEIDEL, JACOBI])),
                  max_iter=draw(st.sampled_from([0, 1, 3, 60])),
                  gap=draw(st.just(1.0) | st.floats(1.0, 10.0)))
    if draw(st.booleans()):
        kwargs.update(mode="fm", targets=[None, None])
    if draw(st.booleans()):
        initial = []
        for i in range(2):
            total, share = draw(st.floats(0.0, 10.0)), draw(st.floats(0.0, 1.0))
            power = [total * share, total * (1.0 - share)][:k]
            initial.append(PowerAllocation(i, np.array(power), total))
        kwargs["initial"] = initial[::draw(st.sampled_from([1, -1]))]
    return channel, noise, budgets, kwargs


def overflowing_game(noise_row, direct, budgets):
    """A 2-user game on two tones whose user 0 sees noise_row over direct
    gains direct: floors or water levels past the float range."""
    gains = np.tile(np.array([[1.0, 0.3], [0.2, 1.0]]), (2, 1, 1))
    gains[:, 0, 0] = direct
    noise = NoiseProfile(np.array([noise_row, [0.1, 0.1]]))
    return ChannelMatrixSet(gains, unit_grid(2)), noise, budgets


class TestTwoUserFloatLoop:
    """iterate_iwf's sweeps on Python floats, for two rate-adaptive users
    on two tones that both can use, give the bits, the reports and the
    errors of the per-user public steps; so does the matrix loop that
    other two-user games take."""

    @settings(max_examples=200, deadline=None)
    @given(game=two_user_games())
    def test_matches_the_reference(self, game):
        channel, noise, budgets, kwargs = game
        got = iwf_outcome(iterate_iwf, channel, noise, budgets, **kwargs)
        assert got == iwf_outcome(reference_iwf, channel, noise, budgets,
                                  **kwargs)
        if kwargs["max_iter"] == 0 and "initial" in kwargs:
            # The caller's own allocations come back, sorted by user.
            report = iterate_iwf(channel, noise, budgets, **kwargs)
            want = sorted(kwargs["initial"], key=lambda a: a.user)
            assert all(a is b for a, b in zip(report.allocations, want))

    @pytest.mark.parametrize("schedule", [GAUSS_SEIDEL, JACOBI])
    @pytest.mark.parametrize("game,message", [
        # A floor past the float range: both tones, or the second only.
        (([1e300, 1e300], [1e-10, 1e-10], [1.0, 1.0]), "effective noise"),
        (([0.1, 1e300], [1.0, 1e-10], [1.0, 1.0]), "effective noise"),
        # Finite floors whose water level overflows: the one usable tone
        # of user 0 is the second, where its power turns nan.
        (([0.1, 1e308], [0.0, 1.0], [1e308, 1.0]), "powers"),
        # Two floors whose sum overflows.
        (([1e308, 1e308], [1.0, 1.0], [1.0, 1.0]), "powers"),
        # A budget with no usable tone to spend it on.
        (([0.1, 0.1], [0.0, 0.0], [1.0, 1.0]), "no usable tones"),
    ])
    def test_raises_the_reference_error(self, schedule, game, message):
        channel, noise, budgets = overflowing_game(*game)
        got = iwf_outcome(iterate_iwf, channel, noise, budgets,
                          schedule=schedule)
        assert got == iwf_outcome(reference_iwf, channel, noise, budgets,
                                  schedule=schedule)
        assert message in got[1]

    def test_runs_only_where_its_exactness_holds(self, monkeypatch):
        calls = []
        loop = waterfilling._pair_sweeps

        def counted(*args):
            calls.append(args)
            return loop(*args)

        monkeypatch.setattr(waterfilling, "_pair_sweeps", counted)

        def takes_it(users, tones, masked=None, **kwargs):
            rng = np.random.default_rng(3)
            gains = 0.2 * rng.random((tones, users, users))
            for i in range(users):
                gains[:, i, i] = 1.0
            if masked is not None:  # the second tone of that user
                gains[1, masked, masked] = 0.0
            channel = ChannelMatrixSet(gains, unit_grid(tones))
            noise = NoiseProfile(np.full((users, tones), 0.1))
            del calls[:]
            iterate_iwf(channel, noise, [1.0] * users, **kwargs)
            return len(calls) == 1

        assert takes_it(2, 2) and takes_it(2, 2, schedule=JACOBI)
        assert takes_it(2, 2, mode="fm", targets=[None, None])
        assert not takes_it(2, 1)
        assert not takes_it(2, 2, masked=0) and not takes_it(2, 2, masked=1)
        assert not takes_it(2, 3)
        assert not takes_it(3, 2)
        assert not takes_it(2, 2, mode="fm", targets=[0.5, None])
