import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from specoord import dfdm, game, oracle, waterfilling
from specoord.channel import (ChannelMatrixSet, NoiseProfile,
                              make_uniform_grid, symmetric_two_band_channel)
from specoord.dfdm import _Sweep, dfdm_allocate, dfdm_vs_fmiwf_region
from specoord.game import (AT_MOST_POWER, FULL_POWER, PowerAllocation,
                           capacity, is_nash_equilibrium, power_matrix,
                           sinr_per_tone, validate_strategy)
from specoord.oracle import brute_force_pareto
from specoord.waterfilling import achievable_rate, effective_noise, iterate_iwf


def one_tone_instance(direct=1.0, coupling=0.0, noise=1.0):
    grid = make_uniform_grid(0, 1, 1)
    gains = np.array([[[direct, coupling], [0.0, 1.0]]])
    return (ChannelMatrixSet(gains, grid),
            NoiseProfile(np.array([[noise], [noise]])))


class TestCapacity:
    def test_unit_everything(self):
        channel, noise = one_tone_instance()
        alloc = PowerAllocation(0, np.array([1.0]), 1.0)
        assert capacity(0, [alloc], channel, noise) == pytest.approx(1.0)

    def test_with_interferer(self):
        channel, noise = one_tone_instance(coupling=0.3, noise=0.1)
        allocs = [PowerAllocation(0, np.array([1.0]), 1.0),
                  PowerAllocation(1, np.array([1.0]), 1.0)]
        assert capacity(0, allocs, channel, noise) == pytest.approx(
            math.log2(1 + 1 / 0.4), rel=1e-12)

    def test_gap_penalty(self):
        channel, noise = one_tone_instance(coupling=0.3, noise=0.1)
        allocs = [PowerAllocation(0, np.array([1.0]), 1.0),
                  PowerAllocation(1, np.array([1.0]), 1.0)]
        assert capacity(0, allocs, channel, noise, gap=2.0) == pytest.approx(
            math.log2(1 + 1 / 0.8), rel=1e-12)

    @pytest.mark.parametrize("gap", [0.5, float("nan"), float("inf")])
    def test_rejects_bad_gap(self, gap):
        # A nan gap must not come out as a nan rate.
        channel, noise = one_tone_instance()
        alloc = PowerAllocation(0, np.array([1.0]), 1.0)
        with pytest.raises(ValueError, match="gap"):
            capacity(0, [alloc], channel, noise, gap=gap)

    def test_additive_over_tones(self, rng):
        grid = make_uniform_grid(0, 5, 5)
        gains = rng.uniform(0.1, 2.0, (5, 2, 2))
        channel = ChannelMatrixSet(gains, grid)
        noise = NoiseProfile(rng.uniform(0.05, 1.0, (2, 5)))
        allocs = [PowerAllocation(u, rng.uniform(0, 1, 5), 10.0) for u in (0, 1)]
        total = capacity(0, allocs, channel, noise, gap=1.5)
        per_tone = 0.0
        for k in range(5):
            sub_channel = ChannelMatrixSet(
                gains[k:k + 1], make_uniform_grid(k, k + 1, 1))
            sub_noise = NoiseProfile(noise.values[:, k:k + 1])
            sub = [PowerAllocation(u, allocs[u].power[k:k + 1], 10.0)
                   for u in (0, 1)]
            per_tone += capacity(0, sub, sub_channel, sub_noise, gap=1.5)
        assert total == pytest.approx(per_tone, rel=1e-12)

    def test_monotone_in_powers(self):
        channel, noise = one_tone_instance(coupling=0.3, noise=0.1)

        def rate(own, other):
            return capacity(0, [PowerAllocation(0, np.array([own]), 9.0),
                                PowerAllocation(1, np.array([other]), 9.0)],
                            channel, noise)

        assert rate(1.1, 1.0) > rate(1.0, 1.0)
        assert rate(1.0, 1.1) < rate(1.0, 1.0)

    def test_zero_direct_gain_tone_contributes_nothing(self):
        channel, noise = one_tone_instance(direct=0.0)
        alloc = PowerAllocation(0, np.array([1.0]), 1.0)
        assert capacity(0, [alloc], channel, noise) == 0.0


class TestValidateStrategy:
    def test_full_power_ok(self):
        alloc = PowerAllocation(0, np.array([0.5, 0.5]), 1.0, FULL_POWER)
        assert validate_strategy(alloc) == []

    def test_full_power_undershoot(self):
        alloc = PowerAllocation(0, np.array([0.3, 0.3]), 1.0, FULL_POWER)
        problems = validate_strategy(alloc)
        assert len(problems) == 1 and "0.6" in problems[0]

    def test_at_most_accepts_undershoot(self):
        alloc = PowerAllocation(0, np.array([0.3, 0.3]), 1.0, AT_MOST_POWER)
        assert validate_strategy(alloc) == []

    def test_negative_power_rejected_at_construction(self):
        with pytest.raises(ValueError):
            PowerAllocation(0, np.array([1.5, -0.5]), 1.0, FULL_POWER)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_power_rejected_at_construction(self, bad):
        with pytest.raises(ValueError, match="finite"):
            PowerAllocation(0, np.array([0.5, bad]), 1.0, FULL_POWER)

    @pytest.mark.parametrize("mode", [FULL_POWER, AT_MOST_POWER])
    @pytest.mark.parametrize("budget", [math.nan, -1.0])
    def test_bad_budget_rejected_at_construction(self, mode, budget):
        # A nan budget used to pass, and validate_strategy, whose every
        # comparison with it is false, then reported the allocation valid.
        with pytest.raises(ValueError, match="budget"):
            PowerAllocation(0, np.array([0.5, 0.5]), budget, mode)

    def test_infinite_budget_rejected_at_construction(self):
        # An infinite budget used to pass, and validate_strategy then
        # reported a full-power allocation of finite total as valid.
        with pytest.raises(ValueError, match="budget must be finite"):
            PowerAllocation(0, np.array([0.5, 0.5]), math.inf)

    def test_overspend_rejected_in_both_modes(self):
        for mode in (FULL_POWER, AT_MOST_POWER):
            alloc = PowerAllocation(0, np.array([0.7, 0.7]), 1.0, mode)
            assert validate_strategy(alloc), mode


class TestPowerMatrix:
    def test_stacks_by_user(self):
        allocs = [PowerAllocation(1, np.array([1.0, 2.0]), 3.0),
                  PowerAllocation(0, np.array([0.5, 0.0]), 1.0)]
        mat = power_matrix(allocs, 2, 2)
        assert np.array_equal(mat, [[0.5, 0.0], [1.0, 2.0]])

    def test_rejects_duplicate_user(self):
        allocs = [PowerAllocation(0, np.array([1.0]), 1.0)] * 2
        with pytest.raises(ValueError):
            power_matrix(allocs, 2, 1)

    def test_rejects_out_of_range_user(self):
        with pytest.raises(ValueError):
            power_matrix([PowerAllocation(5, np.array([1.0]), 1.0)], 2, 1)


class TestSinr:
    def test_matches_hand_formula(self):
        channel, noise = one_tone_instance(direct=0.8, coupling=0.3, noise=0.1)
        allocs = [PowerAllocation(0, np.array([2.0]), 2.0),
                  PowerAllocation(1, np.array([1.0]), 1.0)]
        sinr = sinr_per_tone(0, allocs, channel, noise)
        assert sinr[0] == pytest.approx(0.8 * 2.0 / (0.3 * 1.0 + 0.1), rel=1e-12)


class TestNashCheck:
    def test_flat_profile_is_nash_on_symmetric_channel(self):
        channel = symmetric_two_band_channel(0.3)
        noise = NoiseProfile.white(0.1, 2, 2)
        flat = [PowerAllocation(u, np.array([0.5, 0.5]), 1.0) for u in (0, 1)]
        result = is_nash_equilibrium(flat, channel, noise, tol=1e-6)
        assert result.is_nash
        assert result.worst_gain <= 1e-6

    def test_lopsided_profile_is_not_nash(self):
        channel = symmetric_two_band_channel(0.3)
        noise = NoiseProfile.white(0.1, 2, 2)
        allocs = [PowerAllocation(0, np.array([1.0, 0.0]), 1.0),
                  PowerAllocation(1, np.array([0.5, 0.5]), 1.0)]
        result = is_nash_equilibrium(allocs, channel, noise, tol=1e-6)
        assert not result.is_nash
        assert result.worst_gain > 1e-3

    def test_single_user_waterfill_is_nash(self):
        channel, noise = one_tone_instance(noise=0.5)
        alloc = PowerAllocation(0, np.array([2.0]), 2.0)
        result = is_nash_equilibrium([alloc], channel, noise, tol=1e-9)
        assert result.is_nash


class TestUnderflowingFloor:
    """A floor that underflows to 0 is refused by every measure of the
    profile, as iterate_iwf and effective_noise refuse it."""

    MEASURES = [
        lambda a, ch, nz: capacity(0, a, ch, nz),
        lambda a, ch, nz: sinr_per_tone(0, a, ch, nz),
        lambda a, ch, nz: is_nash_equilibrium(a, ch, nz),
    ]

    @pytest.mark.parametrize("measure", MEASURES,
                             ids=["capacity", "sinr", "nash"])
    def test_refused(self, measure):
        # capacity and sinr_per_tone used to divide by the zero floor: a
        # RuntimeWarning, and inf without -W error.  At zero power and
        # budget the finite-rate rule passes, so the floor check fires.
        channel, noise = one_tone_instance(direct=1e300, noise=1e-300)
        alloc = [PowerAllocation(0, np.array([0.0]), 0.0)]
        with pytest.raises(ValueError, match="effective noise must be finite"):
            measure(alloc, channel, noise)


class TestFiniteRateRule:
    """capacity, sinr_per_tone and is_nash_equilibrium refuse a profile that
    breaks the finite-rate rule, as iterate_iwf refuses its budgets.  The
    rule holds each allocation's budget and power total, and a refusal
    names the allocation by its position and the value that broke it."""

    @pytest.mark.parametrize("measure", TestUnderflowingFloor.MEASURES,
                             ids=["capacity", "sinr", "nash"])
    @pytest.mark.parametrize("total,budget", [(1e307, 1e307), (1e307, 1.0),
                                              (1.0, 1e307)])
    def test_refused_by_name(self, measure, total, budget):
        # They used to give inf rates, [inf, 0] SINRs and a nan worst gain,
        # after numpy's overflow RuntimeWarning; then to name budgets[0]
        # with the larger of the budget and the total.
        channel = symmetric_two_band_channel(0.5)
        noise = NoiseProfile.white(1e-300, 2, 2)
        allocs = [PowerAllocation(u, np.eye(2)[u] * total, budget, AT_MOST_POWER)
                  for u in (0, 1)]
        broke = "total" if total > budget else "budget"
        with pytest.raises(ValueError) as exc:
            measure(allocs, channel, noise)
        assert str(exc.value) == (f"allocations[0].{broke} = 1e+307 is too large: "
                                  f"{broke} * direct / (gap * noise) overflows on a tone")
        with pytest.raises(ValueError, match=r"^budgets\[0\] = 1e\+307 is too "
                           r"large: budget \* direct "):
            iterate_iwf(channel, noise, [1e307, 1e307])

    @pytest.mark.parametrize("measure", TestUnderflowingFloor.MEASURES,
                             ids=["capacity", "sinr", "nash"])
    def test_names_the_allocation_by_position(self, measure):
        # User 0's allocation comes second, and user 1's is within the rule.
        channel = symmetric_two_band_channel(0.5)
        noise = NoiseProfile.white(1e-300, 2, 2)
        allocs = [PowerAllocation(1, np.zeros(2), 1e-10, AT_MOST_POWER),
                  PowerAllocation(0, np.array([1e307, 0.0]), 1.0, AT_MOST_POWER)]
        with pytest.raises(ValueError, match=r"^allocations\[1\]\.total = 1e\+307 "):
            measure(allocs, channel, noise)

    @pytest.mark.parametrize("measure", TestUnderflowingFloor.MEASURES,
                             ids=["capacity", "sinr", "nash"])
    def test_total_past_the_float_range(self, measure):
        # Finite powers whose sum overflows: refused by name, with no
        # overflow warning from the sum.
        channel = symmetric_two_band_channel(0.5)
        allocs = [PowerAllocation(0, np.full(2, 1e308), 1.0, AT_MOST_POWER)]
        with pytest.raises(ValueError) as exc:
            measure(allocs, channel, NoiseProfile.white(1.0, 2, 2))
        assert str(exc.value) == "allocations[0].total must be finite"


class TestNoiseShape:
    """A noise profile must hold one row per user and one column per tone."""

    def setup_method(self):
        grid = make_uniform_grid(0, 4, 4)
        gains = np.tile(np.array([[1.0, 0.2], [0.3, 1.0]]), (4, 1, 1))
        self.channel = ChannelMatrixSet(gains, grid)
        self.allocs = [PowerAllocation(u, np.full(4, 0.25), 1.0) for u in (0, 1)]

    @pytest.mark.parametrize("shape", [(2, 3), (3, 4)])
    def test_sinr_per_tone_rejects_mismatched_noise(self, shape):
        noise = NoiseProfile(np.full(shape, 0.1))
        with pytest.raises(ValueError, match=r"noise.*\(%d, %d\).*\(2, 4\)" % shape):
            sinr_per_tone(0, self.allocs, self.channel, noise)

    @pytest.mark.parametrize("shape", [(2, 3), (3, 4)])
    def test_capacity_rejects_mismatched_noise(self, shape):
        noise = NoiseProfile(np.full(shape, 0.1))
        with pytest.raises(ValueError, match=r"noise.*\(%d, %d\).*\(2, 4\)" % shape):
            capacity(0, self.allocs, self.channel, noise)


class TestUserIndex:
    """A receiver index must name a user of the channel."""

    @pytest.mark.parametrize("user", [-1, 2])
    @pytest.mark.parametrize("measure", [
        # At user -1 all three used to answer for user 1.
        capacity, sinr_per_tone, effective_noise])
    def test_rejects_unknown_user(self, measure, user):
        channel = symmetric_two_band_channel(0.3)
        noise = NoiseProfile.white(0.1, 2, 2)
        allocs = [PowerAllocation(u, np.array([0.5, 0.5]), 1.0) for u in (0, 1)]
        with pytest.raises(ValueError, match="user"):
            measure(user, allocs, channel, noise)


class TestWeakCrosstalk:
    """Crosstalk 17 orders of magnitude below the direct gain.

    Adding the user's own signal to the interference and subtracting it
    again would lose the crosstalk to rounding: the SINR would read 1e20
    and the certificate would see a rate no water-filling can reach.
    """

    def setup_method(self):
        gains = np.array([[[1.0, 1e-17], [1e-17, 1.0]]])
        self.channel = ChannelMatrixSet(gains, make_uniform_grid(0, 1, 1))
        self.noise = NoiseProfile(np.full((2, 1), 1e-20))
        self.allocs = [PowerAllocation(u, np.array([1.0]), 1.0) for u in (0, 1)]

    def test_sinr_keeps_the_crosstalk(self):
        sinr = sinr_per_tone(0, self.allocs, self.channel, self.noise)
        assert sinr[0] == pytest.approx(1.0 / (1e-17 + 1e-20), rel=1e-12)

    def test_capacity_keeps_the_crosstalk(self):
        rate = capacity(0, self.allocs, self.channel, self.noise)
        # log2(1 + 9.99e16) = 56.4713; dropping the crosstalk gives 66.4386.
        assert rate == pytest.approx(math.log2(1.0 + 1.0 / (1e-17 + 1e-20)),
                                     rel=1e-12)

    def test_certificate_gain_is_not_negative(self):
        # One tone and the full budget on it: each user already plays its
        # best response, so no deviation can lose rate either.
        result = is_nash_equilibrium(self.allocs, self.channel, self.noise)
        assert result.worst_gain >= 0.0


@st.composite
def masked_profiles(draw):
    """2-4 users on 1-12 tones; some direct gains are zero (masked tones),
    crosstalk spans 18 orders of magnitude and the gap is >= 1.  Every
    user keeps one usable tone so that its best response exists."""
    n = draw(st.integers(2, 4))
    k = draw(st.integers(1, 12))
    magnitude = st.floats(-18.0, 0.0).map(lambda e: 10.0 ** e)
    gains = draw(arrays(float, (k, n, n), elements=magnitude))
    direct = draw(arrays(float, (k, n), elements=st.one_of(
        st.just(0.0), st.floats(0.01, 10.0))))
    for i in range(n):
        direct[i % k, i] = max(direct[i % k, i], 0.5)
        gains[:, i, i] = direct[:, i]
    noise = draw(arrays(float, (n, k), elements=magnitude.map(lambda v: v * 1e-2)))
    allocs = []
    for i in range(n):
        power = draw(arrays(float, k, elements=st.floats(0.0, 1.0)))
        slack = draw(st.floats(1.0, 2.0))
        allocs.append(PowerAllocation(i, power, float(power.sum()) * slack,
                                      AT_MOST_POWER))
    gap = draw(st.one_of(st.just(1.0), st.floats(1.0, 10.0)))
    return (ChannelMatrixSet(gains, make_uniform_grid(0, k, k)),
            NoiseProfile(noise), allocs, gap)


class TestOneFloor:
    """capacity, effective_noise and the certificate share one floor."""

    @given(masked_profiles())
    def test_capacity_is_the_rate_on_the_effective_noise(self, profile):
        channel, noise, allocs, gap = profile
        for a in allocs:
            eff = effective_noise(a.user, allocs, channel, noise, gap)
            assert capacity(a.user, allocs, channel, noise, gap) == \
                achievable_rate(a.power, eff, channel.grid)

    @given(masked_profiles())
    def test_best_response_never_loses_rate(self, profile):
        channel, noise, allocs, gap = profile
        result = is_nash_equilibrium(allocs, channel, noise, gap=gap)
        for a, gain in zip(allocs, result.gains):
            rate = capacity(a.user, allocs, channel, noise, gap)
            assert gain >= -1e-12 * max(1.0, rate)


# Every public entry of one instance, with the gap it runs at (sinr_per_tone
# has none).  The instance is 2 users on 4 tones at unit budgets; the
# entries of BUDGETED also take the budget list, b.
TWO_USERS = [PowerAllocation(u, np.full(4, 0.25), 1.0) for u in (0, 1)]
UNIT = [1.0, 1.0]
ENTRIES = {
    "capacity": lambda ch, nz, gap: capacity(0, TWO_USERS, ch, nz, gap),
    "sinr_per_tone": lambda ch, nz, gap: sinr_per_tone(0, TWO_USERS, ch, nz),
    "is_nash_equilibrium":
        lambda ch, nz, gap: is_nash_equilibrium(TWO_USERS, ch, nz, gap=gap),
    "effective_noise":
        lambda ch, nz, gap: effective_noise(0, TWO_USERS, ch, nz, gap),
    "iterate_iwf": lambda ch, nz, gap, b=UNIT: iterate_iwf(ch, nz, b, gap=gap),
    "dfdm_allocate":
        lambda ch, nz, gap: dfdm_allocate(ch, nz, 1, 0.5, 1.0, gap=gap),
    "_Sweep": lambda ch, nz, gap, b=UNIT: _Sweep(ch, nz, b, 1, gap),
    "dfdm_vs_fmiwf_region": lambda ch, nz, gap, b=UNIT:
        dfdm_vs_fmiwf_region(ch, nz, b, [0.5], 1, gap),
    "brute_force_pareto":
        lambda ch, nz, gap, b=UNIT: brute_force_pareto(ch, nz, b, 3, gap),
}
TWO_USER_ONLY = ["_Sweep", "dfdm_vs_fmiwf_region", "brute_force_pareto"]
BUDGETED = ["iterate_iwf", *TWO_USER_ONLY]


def four_tone_channel():
    gains = np.tile(np.array([[1.0, 0.2], [0.3, 1.0]]), (4, 1, 1))
    return ChannelMatrixSet(gains, make_uniform_grid(0, 4, 4))


class TestInstanceCheck:
    """Every public entry checks its instance once, by name."""

    @pytest.mark.parametrize("name", ENTRIES)
    @pytest.mark.parametrize("shape", [(2, 3), (3, 4)])
    def test_refuses_a_mismatched_noise_shape(self, name, shape):
        noise = NoiseProfile(np.full(shape, 0.1))
        with pytest.raises(ValueError, match=r"noise has shape \(%d, %d\).*"
                           r"needs \(users, tones\) = \(2, 4\)" % shape):
            ENTRIES[name](four_tone_channel(), noise, 1.0)

    @pytest.mark.parametrize("name", [n for n in ENTRIES if n != "sinr_per_tone"])
    @pytest.mark.parametrize("gap", [0.5, float("nan"), float("inf")])
    def test_refuses_a_bad_gap(self, name, gap):
        # The oracle used to report rates above capacity at a gap below 1,
        # and an empty frontier at a nan gap.
        noise = NoiseProfile(np.full((2, 4), 0.1))
        with pytest.raises(ValueError, match="gap must be finite and >= 1"):
            ENTRIES[name](four_tone_channel(), noise, gap)

    @pytest.mark.parametrize("name", BUDGETED)
    @pytest.mark.parametrize("budgets,message", [
        # One budget used to raise a raw IndexError, and a third was ignored.
        pytest.param([1.0], "budgets: 1 given for 2 users", id="one"),
        pytest.param([1.0] * 3, "budgets: 3 given for 2 users", id="three"),
        # In the oracle a negative budget gave a front holding nan, and a
        # nan one an empty argmax.
        pytest.param([1.0, -1.0], r"budgets\[1\] must be finite and >= 0",
                     id="negative"),
        pytest.param([math.nan, 1.0], r"budgets\[0\] must be finite and >= 0",
                     id="nan-first"),
        pytest.param([1.0, math.nan], r"budgets\[1\] must be finite and >= 0",
                     id="nan-second"),
    ])
    def test_refuses_bad_budgets(self, name, budgets, message):
        noise = NoiseProfile(np.full((2, 4), 0.1))
        with pytest.raises(ValueError, match=message):
            ENTRIES[name](four_tone_channel(), noise, 1.0, budgets)

    @pytest.mark.parametrize("name", TWO_USER_ONLY)
    def test_refuses_a_channel_of_another_user_count(self, name):
        # A third user used to drop out of a DFDM round's allocations.
        gains = np.tile(np.eye(3) + 0.1, (4, 1, 1))
        channel = ChannelMatrixSet(gains, make_uniform_grid(0, 4, 4))
        noise = NoiseProfile(np.full((3, 4), 0.1))
        with pytest.raises(ValueError, match="needs a 2-user channel, got 3 users"):
            ENTRIES[name](channel, noise, 1.0, [1.0] * 3)

    @pytest.mark.parametrize("users", [2, 3])
    def test_runs_once_per_solver_call(self, monkeypatch, users):
        calls = []
        check = game._receivers

        def counted(*args, **kwargs):
            calls.append(args)
            return check(*args, **kwargs)

        for module in (game, waterfilling, dfdm, oracle):
            monkeypatch.setattr(module, "_receivers", counted)
        gains = np.tile(np.eye(users) + 0.1, (4, 1, 1))
        channel = ChannelMatrixSet(gains, make_uniform_grid(0, 4, 4))
        noise = NoiseProfile(np.full((users, 4), 0.1))

        def checks(call):
            del calls[:]
            call()
            return len(calls)

        allocs = iterate_iwf(channel, noise, [1.0] * users).allocations
        assert checks(lambda: iterate_iwf(channel, noise, [1.0] * users)) == 1
        assert checks(lambda: is_nash_equilibrium(allocs, channel, noise)) == 1
        if users == 2:
            for name, entry in ENTRIES.items():
                assert checks(lambda: entry(channel, noise, 1.0)) == 1, name

    @pytest.mark.parametrize("name", BUDGETED)
    @pytest.mark.parametrize("budgets,bad", [
        ([1e308, 1.0], 0),
        # The bound overflows in the division on a tone of small noise.
        ([1.0, 1e300], 1),
    ])
    def test_refuses_a_budget_past_the_finite_rate_rule(self, name, budgets,
                                                        bad):
        noise = NoiseProfile(np.array([[0.1] * 4, [0.1, 0.1, 0.1, 1e-10]]))
        with pytest.raises(ValueError, match=r"budgets\[%d\] .* too large" % bad):
            ENTRIES[name](four_tone_channel(), noise, 1.0, budgets)

    def test_lets_the_largest_finite_bound_through(self):
        # direct / noise = 1 on every tone: the bound is the budget itself.
        channel = ChannelMatrixSet(np.tile(np.eye(2), (2, 1, 1)),
                                   make_uniform_grid(0, 2, 2))
        noise = NoiseProfile(np.ones((2, 2)))
        big = float(np.finfo(float).max)
        report = iterate_iwf(channel, noise, [big, 1.0], max_iter=1)
        assert report.allocations[0].budget == big
