import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from specoord.channel import ChannelMatrixSet, NoiseProfile, make_uniform_grid
from specoord.dfdm import (dfdm_allocate, dfdm_round, dfdm_vs_fmiwf_region,
                           find_cutoff)
from specoord.game import PowerAllocation
from specoord.waterfilling import (EffectiveNoise, InfeasibleError,
                                   achievable_rate, effective_noise,
                                   waterfill_ra)


def solo_channel(num_tones):
    grid = make_uniform_grid(0, num_tones, num_tones)
    gains = np.ones((num_tones, 1, 1))
    return ChannelMatrixSet(gains, grid), NoiseProfile.white(1.0, 1, num_tones)


def coupled_channel(num_tones=8, b01=0.4, b10=0.3, noise=0.1):
    grid = make_uniform_grid(0, num_tones, num_tones)
    gains = np.tile(np.array([[1.0, b01], [b10, 1.0]]), (num_tones, 1, 1))
    return ChannelMatrixSet(gains, grid), NoiseProfile.white(noise, 2,
                                                             num_tones)


def rate_above(channel, noise, cutoff, budget, others=()):
    eff = effective_noise(0, others, channel, noise)
    usable = eff.usable.copy()
    usable[:cutoff] = False
    if not usable.any():
        return 0.0
    sub = EffectiveNoise(0, eff.values, usable)
    alloc, _ = waterfill_ra(sub, budget, channel.grid)
    return achievable_rate(alloc.power, sub, channel.grid)


class TestFindCutoff:
    def test_zero_target_keeps_everything_free(self):
        channel, noise = solo_channel(4)
        assert find_cutoff(channel, noise, 0, 0.0, 4.0) == 4

    def test_full_band_target_forces_cutoff_zero(self):
        channel, noise = solo_channel(4)
        full = rate_above(channel, noise, 0, 4.0)
        assert find_cutoff(channel, noise, 0, full, 4.0) == 0

    def test_flat_channel_hand_case(self):
        # Budget 4 over flat unit floors: rate above cutoff c is
        # (4-c) log2(1 + 4/(4-c)); target 2 log2(3) is met at c=2, not c=3.
        channel, noise = solo_channel(4)
        target = 2 * math.log2(3.0)
        assert find_cutoff(channel, noise, 0, target, 4.0) == 2

    def test_cutoff_is_maximal(self):
        channel, noise = solo_channel(6)
        target = 0.55 * rate_above(channel, noise, 0, 6.0)
        cut = find_cutoff(channel, noise, 0, target, 6.0)
        assert rate_above(channel, noise, cut, 6.0) >= target * (1 - 1e-12)
        assert rate_above(channel, noise, cut + 1, 6.0) < target

    def test_monotone_in_target(self):
        channel, noise = solo_channel(8)
        full = rate_above(channel, noise, 0, 8.0)
        targets = np.linspace(0.1, 1.0, 12) * full
        cuts = [find_cutoff(channel, noise, 0, float(t), 8.0) for t in targets]
        assert np.all(np.diff(cuts) <= 0)

    def test_infeasible_target_reports_max(self):
        channel, noise = solo_channel(4)
        full = rate_above(channel, noise, 0, 4.0)
        with pytest.raises(InfeasibleError) as exc:
            find_cutoff(channel, noise, 0, full * 1.01, 4.0)
        assert exc.value.max_achievable == pytest.approx(full, rel=1e-12)

    @given(data=st.data())
    def test_cutoff_sits_on_the_floor(self, data):
        # Masked tones (zero direct gain) anywhere in the band and an
        # interfering far user.  The target is either a fraction of the
        # full-band rate or the rate of the band above tone `above`,
        # computed on a channel cut there: equal to rate_above(above) in
        # exact arithmetic, but summed in another order.
        k = data.draw(st.integers(1, 24))
        gains = data.draw(arrays(float, (k, 2, 2), elements=st.floats(0.0, 1.0)))
        direct = data.draw(arrays(float, (k, 2), elements=st.one_of(
            st.just(0.0), st.floats(0.01, 10.0))))
        direct[data.draw(st.integers(0, k - 1)), 0] = 1.0
        gains[:, 0, 0], gains[:, 1, 1] = direct[:, 0], direct[:, 1]
        noise = data.draw(arrays(float, (2, k), elements=st.floats(1e-4, 1.0)))
        far = data.draw(arrays(float, k, elements=st.floats(0.0, 1.0)))
        budget = data.draw(st.floats(0.1, 10.0))

        def instance(lo):
            return (ChannelMatrixSet(gains[lo:], make_uniform_grid(lo, k, k - lo)),
                    NoiseProfile(noise[:, lo:]),
                    [PowerAllocation(1, far[lo:], float(k))])

        channel, full_noise, others = instance(0)
        above = 0
        if data.draw(st.booleans()):
            above = data.draw(st.integers(0, k - 1))
            sub_channel, sub_noise, sub_others = instance(above)
            target = rate_above(sub_channel, sub_noise, 0, budget, sub_others)
        else:
            target = data.draw(st.one_of(st.just(1.0), st.floats(0.01, 1.0))) * \
                rate_above(channel, full_noise, 0, budget, others)
        cut = find_cutoff(channel, full_noise, 0, target, budget, others)
        floor = target * (1 - 1e-12)
        assert cut >= above
        assert rate_above(channel, full_noise, cut, budget, others) >= floor
        if cut < k:
            assert rate_above(channel, full_noise, cut + 1, budget, others) < floor


class TestDfdmAllocate:
    def test_no_power_below_cutoff(self):
        channel, noise = coupled_channel()
        far_eff = effective_noise(0, [], channel, noise)
        far_init, _ = waterfill_ra(far_eff, 1.0, channel.grid)
        res = dfdm_allocate(channel, noise, 1, 0.4, 1.0, others=[far_init])
        assert res.cutoff_index == 7
        assert np.all(res.allocation.power[:res.cutoff_index] == 0.0)
        assert res.cutoff_hz == channel.grid.edges[res.cutoff_index]

    def test_interference_below_cutoff_is_exactly_zero(self):
        channel, noise = coupled_channel()
        far_eff = effective_noise(0, [], channel, noise)
        far_init, _ = waterfill_ra(far_eff, 1.0, channel.grid)
        res = dfdm_allocate(channel, noise, 1, 0.4, 1.0, others=[far_init])
        far_after = effective_noise(0, [res.allocation], channel, noise)
        cut = res.cutoff_index
        assert np.array_equal(far_after.values[:cut], far_eff.values[:cut])

    def test_hits_target_with_minimal_power(self):
        channel, noise = coupled_channel()
        res = dfdm_allocate(channel, noise, 1, 2.5, 1.0)
        assert res.achieved_rate == pytest.approx(2.5, rel=1e-9)
        assert res.allocation.total < 1.0
        assert res.target_rate == 2.5 and res.feasible

    def test_zero_target_allocates_nothing(self):
        channel, noise = coupled_channel()
        res = dfdm_allocate(channel, noise, 1, 0.0, 1.0)
        assert np.all(res.allocation.power == 0)
        assert res.cutoff_index == channel.num_tones

    def test_max_target_recovers_rate_adaptive_play(self):
        channel, noise = solo_channel(4)
        eff = effective_noise(0, [], channel, noise)
        ra, _ = waterfill_ra(eff, 4.0, channel.grid)
        full = achievable_rate(ra.power, eff, channel.grid)
        res = dfdm_allocate(channel, noise, 0, full, 4.0)
        assert res.cutoff_index == 0
        assert np.allclose(res.allocation.power, ra.power, rtol=1e-9,
                           atol=1e-12)
        assert res.allocation.total == pytest.approx(4.0, rel=1e-9)

    def test_infeasible_propagates(self):
        channel, noise = solo_channel(4)
        with pytest.raises(InfeasibleError):
            dfdm_allocate(channel, noise, 0, 100.0, 4.0)


class TestRegionSweep:
    def test_dfdm_weakly_dominates_fm_iwf(self):
        channel, noise = coupled_channel()
        far_eff = effective_noise(0, [], channel, noise)
        far_init, _ = waterfill_ra(far_eff, 1.0, channel.grid)
        near_eff = effective_noise(1, [far_init], channel, noise)
        cap, _ = waterfill_ra(near_eff, 1.0, channel.grid)
        near_max = achievable_rate(cap.power, near_eff, channel.grid)
        rds = np.linspace(0.4, near_max * 0.95, 8)
        curves = dfdm_vs_fmiwf_region(channel, noise, [1.0, 1.0], rds,
                                      near_user=1)
        dfdm = curves["dfdm"].points
        iwf = curves["fm-iwf"].points
        assert np.allclose(dfdm[:, 0], rds) and np.allclose(iwf[:, 0], rds)
        assert np.all(dfdm[:, 1] >= iwf[:, 1] - 1e-9)
        assert np.all(np.diff(dfdm[:, 1]) <= 1e-9)

    def test_no_coupling_makes_protocols_equal(self):
        channel, noise = coupled_channel(b01=0.0, b10=0.0)
        rds = np.linspace(0.5, 3.0, 5)
        curves = dfdm_vs_fmiwf_region(channel, noise, [1.0, 1.0], rds,
                                      near_user=1)
        clean = curves["dfdm"].points[:, 1]
        assert np.allclose(clean, curves["fm-iwf"].points[:, 1], rtol=1e-9)
        assert np.allclose(clean, clean[0], rtol=1e-9)

    def test_requires_two_users(self):
        grid = make_uniform_grid(0, 2, 2)
        channel = ChannelMatrixSet(np.ones((2, 3, 3)), grid)
        noise = NoiseProfile.white(0.1, 3, 2)
        with pytest.raises(ValueError):
            dfdm_vs_fmiwf_region(channel, noise, [1.0] * 3, [0.5])


class TestDfdmRound:
    def test_requires_two_users(self):
        # A third user used to drop out of the returned allocations.
        grid = make_uniform_grid(0, 2, 2)
        channel = ChannelMatrixSet(np.ones((2, 3, 3)), grid)
        noise = NoiseProfile.white(0.1, 3, 2)
        with pytest.raises(ValueError, match="got 3 users"):
            dfdm_round(channel, noise, [1.0] * 3, 0.5)
