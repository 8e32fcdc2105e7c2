import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from specoord.channel import (ChannelMatrixSet, FrequencyGrid, NoiseProfile,
                              format_float, make_uniform_grid)
from specoord.dfdm import (_Sweep, dfdm_allocate, dfdm_vs_fmiwf_region,
                           find_cutoff)
from specoord.game import AT_MOST_POWER, PowerAllocation, capacity
from specoord.scenario import build_channel, load_config, run_scenario
from specoord.waterfilling import (EffectiveNoise, InfeasibleError,
                                   achievable_rate, effective_noise,
                                   iterate_iwf, waterfill_fm, waterfill_ra)


def solo_channel(num_tones):
    grid = make_uniform_grid(0, num_tones, num_tones)
    gains = np.ones((num_tones, 1, 1))
    return ChannelMatrixSet(gains, grid), NoiseProfile.white(1.0, 1, num_tones)


def coupled_channel(num_tones=8, b01=0.4, b10=0.3, noise=0.1):
    grid = make_uniform_grid(0, num_tones, num_tones)
    gains = np.tile(np.array([[1.0, b01], [b10, 1.0]]), (num_tones, 1, 1))
    return ChannelMatrixSet(gains, grid), NoiseProfile.white(noise, 2,
                                                             num_tones)


def public_probe(eff, cutoff, budget, grid):
    """Rate above a cutoff through the public API: mask the tones below it
    in a new EffectiveNoise, water-fill the budget and rate the result."""
    usable = eff.usable.copy()
    usable[:cutoff] = False
    if not usable.any():
        return 0.0
    sub = EffectiveNoise(eff.user, eff.values, usable)
    alloc, _ = waterfill_ra(sub, budget, grid)
    return achievable_rate(alloc.power, sub, grid)


def rate_above(channel, noise, cutoff, budget, others=()):
    eff = effective_noise(0, others, channel, noise)
    return public_probe(eff, cutoff, budget, channel.grid)


def reference_cutoff(channel, noise, user, target, budget, others, gap):
    """Scan every cutoff with the public probe.  Returns the largest cutoff
    whose rate meets target * (1 - 1e-12) (None if none does) and the
    rate of every cutoff, the full band's first."""
    eff = effective_noise(user, others, channel, noise, gap)
    rates = [public_probe(eff, c, budget, channel.grid)
             for c in range(channel.num_tones + 1)]
    meets = [c for c, r in enumerate(rates) if r >= target * (1 - 1e-12)]
    return (meets[-1] if meets else None), rates


def random_instance(seed, dark_top=False):
    """A 2-user channel with uneven tone widths, masked (zero-gain) tones
    for both users and gap > 1; with dark_top the near user's direct gain
    is also zero on the top third of the band, so every usable tone lies
    below the high cutoffs."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(3, 40))
    grid = FrequencyGrid(np.cumsum(np.r_[0.0, rng.uniform(0.1, 3.0, k)]) * 1e3)
    gains = rng.uniform(0.0, 0.5, (k, 2, 2))
    for u in (0, 1):
        gains[:, u, u] = np.where(rng.random(k) < 0.3, 0.0,
                                  rng.uniform(0.05, 5.0, k))
    near = seed % 2
    gains[rng.integers(0, k // 2 + 1), near, near] = 1.0
    if dark_top:
        gains[k - k // 3:, near, near] = 0.0
    noise = NoiseProfile(rng.uniform(1e-3, 1.0, (2, k)))
    far = PowerAllocation(1 - near, rng.uniform(0.0, 1.0, k), float(k))
    gap = float(rng.uniform(1.5, 8.0))
    budget = float(rng.uniform(0.5, 20.0))
    return ChannelMatrixSet(gains, grid), noise, near, [far], gap, budget


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

    @pytest.mark.parametrize("target", [math.nan, -1.0])
    def test_rejects_bad_target(self, target):
        # A nan target used to return cutoff 0 and a negative one cutoff K.
        channel, noise = solo_channel(4)
        with pytest.raises(ValueError, match="target_rate"):
            find_cutoff(channel, noise, 0, target, 4.0)

    @pytest.mark.parametrize("user", [-1, 5])
    def test_rejects_unknown_user(self, user):
        channel, noise = coupled_channel()
        with pytest.raises(ValueError, match="user"):
            find_cutoff(channel, noise, user, 0.4, 1.0)

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


class TestKernelProbes:
    """find_cutoff and dfdm_allocate probe on the receiver kernel; every
    cutoff and every full-band rate must equal a scan with the public-API
    probe, and every cutoff the scan accepts must be filled."""

    @pytest.mark.parametrize("seed,dark_top",
                             [(s, False) for s in range(6)] + [(6, True), (7, True)])
    def test_matches_the_public_probe_scan(self, seed, dark_top):
        channel, noise, near, others, gap, budget = random_instance(seed, dark_top)
        _, rates = reference_cutoff(channel, noise, near, 0.0, budget, others,
                                    gap)
        if dark_top:
            assert rates[-1 - channel.num_tones // 3] == 0.0
        # Each probe's own rate as a target, the full-band rate among them,
        # and a target just above it but within the 1e-12 tolerance, which
        # dfdm_allocate used to refuse as infeasible.
        for target in [t * f for t in rates for f in (1.0, 1 + 5e-13)]:
            want, _ = reference_cutoff(channel, noise, near, target, budget,
                                       others, gap)
            got = find_cutoff(channel, noise, near, target, budget, others, gap)
            assert got == want
            res = dfdm_allocate(channel, noise, near, target, budget, others,
                                gap)
            assert res.cutoff_index == want
            assert res.achieved_rate >= target * (1 - 1e-12)

    @pytest.mark.parametrize("seed,dark_top", [(0, False), (1, False), (6, True)])
    def test_infeasible_reports_the_public_full_band_rate(self, seed, dark_top):
        channel, noise, near, others, gap, budget = random_instance(seed, dark_top)
        _, rates = reference_cutoff(channel, noise, near, 0.0, budget, others,
                                    gap)
        with pytest.raises(InfeasibleError) as exc:
            find_cutoff(channel, noise, near, rates[0] * 1.001, budget, others,
                        gap)
        assert exc.value.max_achievable == rates[0]


class TestDfdmAllocate:
    def test_no_power_below_cutoff(self):
        channel, noise = coupled_channel()
        far_eff = effective_noise(0, [], channel, noise)
        far_init, _ = waterfill_ra(far_eff, 1.0, channel.grid)
        res = dfdm_allocate(channel, noise, 1, 0.4, 1.0, others=[far_init])
        assert res.cutoff_index == 7
        assert np.all(res.allocation.power[:res.cutoff_index] == 0.0)
        assert res.cutoff_hz == channel.grid.edges[res.cutoff_index]
        assert (res.allocation.user, res.allocation.mode,
                res.allocation.budget) == (1, AT_MOST_POWER, 1.0)

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
        assert res.target_rate == 2.5

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

    def test_rejects_negative_target(self):
        # It used to return a DfdmResult with target -1.
        channel, noise = coupled_channel()
        with pytest.raises(ValueError, match="target_rate"):
            dfdm_allocate(channel, noise, 1, -1.0, 1.0)

    def test_fmiwf_rejects_negative_target(self):
        channel, noise = coupled_channel()
        with pytest.raises(ValueError, match="^target_rate must be >= 0$"):
            _Sweep(channel, noise, [1.0, 1.0], 1, 1.0).fmiwf(-1.0)

    @pytest.mark.parametrize("solve", [dfdm_allocate, find_cutoff])
    def test_refuses_a_budget_past_the_finite_rate_rule(self, solve):
        # budget * direct / (gap * noise) overflows on every tone.  It used
        # to overflow in the fill (numpy's RuntimeWarning), then to fail
        # with "powers must be finite and non-negative".
        channel, noise = coupled_channel(4, noise=1e-10)
        with pytest.raises(ValueError, match=r"^budget = 1e\+308 is too large: "
                           r"budget \* direct / \(gap \* noise\) overflows"):
            solve(channel, noise, 1, 1.0, 1e308)

    def test_finite_rate_rule_counts_the_gap(self):
        # direct / noise = 1e10 on every tone: a gap of 10 brings the bound
        # back into the float range.
        channel, noise = coupled_channel(4, noise=1e-10)
        with pytest.raises(ValueError, match="^budget = "):
            dfdm_allocate(channel, noise, 1, 0.0, 1e300)
        res = dfdm_allocate(channel, noise, 1, 0.0, 1e300, gap=1e10)
        assert res.cutoff_index == 4


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

    def test_empty_sweep_gives_empty_curves(self):
        # It used to raise "points width does not match columns".
        channel, noise = coupled_channel()
        curves = dfdm_vs_fmiwf_region(channel, noise, [1.0, 1.0], [])
        assert {m: c.points.shape for m, c in curves.items()} == {
            "dfdm": (0, 2), "fm-iwf": (0, 2)}


class TestTwoUserEntry:
    """A sweep and the region curves take two budgets and a near user of 0
    or 1."""

    SOLVERS = [
        lambda ch, nz, b, near: _Sweep(ch, nz, b, near, 1.0).round(0.4),
        lambda ch, nz, b, near: dfdm_vs_fmiwf_region(ch, nz, b, [0.4], near),
    ]

    @pytest.mark.parametrize("solve", SOLVERS, ids=["round", "region"])
    @pytest.mark.parametrize("near", [2, -1])
    def test_rejects_unknown_near_user(self, solve, near):
        # Both used to raise a raw IndexError.
        channel, noise = coupled_channel()
        with pytest.raises(ValueError, match="near_user"):
            solve(channel, noise, [1.0, 1.0], near)


def opening(channel, noise, far, budget, gap):
    """The far user's opening move by the public water-filling layer:
    rate-adaptive water-filling against background noise."""
    eff = effective_noise(far, (), channel, noise, gap)
    return waterfill_ra(eff, budget, channel.grid)[0]


def full_band_rate(channel, noise, near, budget, far_initial, gap):
    eff = effective_noise(near, [far_initial], channel, noise, gap)
    alloc, _ = waterfill_ra(eff, budget, channel.grid)
    return achievable_rate(alloc.power, eff, channel.grid)


def reference_round(channel, noise, budgets, target, near, gap, far_initial):
    """One DFDM round by the per-step public recipe: find_cutoff, then
    waterfill_fm on the near user's effective noise masked below the
    cutoff, the far user's waterfill_ra against that, then capacity for
    both users.  Returns (cutoff, achieved rate, allocations in user order,
    near rate, far rate): what each round of a shared sweep must reproduce
    bit for bit."""
    far = 1 - near
    cut = find_cutoff(channel, noise, near, target, budgets[near],
                      [far_initial], gap)
    eff = effective_noise(near, [far_initial], channel, noise, gap)
    usable = eff.usable.copy()
    usable[:cut] = False
    masked = EffectiveNoise(near, eff.values, usable)
    near_alloc, _ = waterfill_fm(masked, budgets[near], target, channel.grid)
    achieved = achievable_rate(near_alloc.power, masked, channel.grid)
    far_eff = effective_noise(far, [near_alloc], channel, noise, gap)
    far_best, _ = waterfill_ra(far_eff, budgets[far], channel.grid)
    allocs = sorted([near_alloc, far_best], key=lambda a: a.user)
    return (cut, achieved, allocs,
            capacity(near, allocs, channel, noise, gap),
            capacity(far, allocs, channel, noise, gap))


# Target fractions of the full-band rate: unsorted, repeated, zero and the
# full band itself.
FRACTIONS = [0.6, 0.0, 0.3, 0.6, 1.0, 0.05, 0.9, 0.0, 0.3]


class TestSharedSweep:
    """The rounds of one sweep share the near floor, the full-band fill and
    the probe memo; each must equal the per-step recipe bit for bit."""

    @pytest.mark.parametrize("seed,dark_top",
                             [(s, False) for s in range(6)] + [(6, True), (7, True)])
    def test_rounds_match_the_recipe(self, seed, dark_top):
        # random_instance has masked tones, gap > 1 and near user seed % 2.
        channel, noise, near, others, gap, budget = random_instance(seed, dark_top)
        far = 1 - near
        budgets = [budget, 0.5 * budget + 1.0]
        far_initial = opening(channel, noise, far, budgets[far], gap)
        sweep = _Sweep(channel, noise, budgets, near, gap)
        full = full_band_rate(channel, noise, near, budgets[near], far_initial,
                              gap)
        assert (sweep.near, sweep.far) == (near, far)
        assert sweep.search.full == full
        assert sweep.far_free == capacity(far, [far_initial], channel, noise,
                                          gap)
        for frac in FRACTIONS:
            target = frac * full
            p, near_rate, far_rate, (cutoff, rate) = sweep.round(target)
            cut, achieved, want, want_near, want_far = reference_round(
                channel, noise, budgets, target, near, gap, far_initial)
            assert (cutoff, rate) == (cut, achieved)
            # The public DfdmResult of the same step holds the same bits.
            res = dfdm_allocate(channel, noise, near, target, budgets[near],
                                [far_initial], gap)
            assert (res.cutoff_index, res.cutoff_hz) == (cut, channel.grid.edges[cut])
            assert (res.achieved_rate, res.target_rate) == (achieved, target)
            near_alloc = res.allocation
            assert (near_alloc.user, near_alloc.mode, near_alloc.budget) == (
                near, AT_MOST_POWER, want[near].budget)
            assert near_alloc.power.tobytes() == p[near].tobytes()
            assert p.shape == (2, channel.num_tones)
            for u, exp in enumerate(want):
                assert p[u].tobytes() == exp.power.tobytes()
            assert (near_rate, far_rate) == (want_near, want_far)
        # An infeasible round reports the recipe's full-band rate and
        # leaves the sweep usable.
        with pytest.raises(InfeasibleError) as exc:
            sweep.round(full * 1.001)
        assert exc.value.max_achievable == full
        assert sweep.round(0.3 * full)[1] == reference_round(
            channel, noise, budgets, 0.3 * full, near, gap, far_initial)[3]

    @pytest.mark.parametrize("seed", range(40))
    def test_fmiwf_rates_match_capacity(self, seed):
        # The sweep runs FM-IWF far user first on the receivers it holds:
        # the report of iterate_iwf on the instance labelled far user 0,
        # near user 1, and the same rate bits as capacity, which builds the
        # receivers afresh.  The last target is out of the near user's reach.
        channel, noise, near, _, gap, budget = random_instance(seed, seed == 6)
        budgets = [budget, 0.5 * budget + 1.0]
        ordered = ((channel, noise, budgets) if near == 1
                   else relabelled(channel, noise, budgets))
        role = {near: 1, 1 - near: 0}  # a user's label in the ordered instance
        sweep = _Sweep(channel, noise, budgets, near, gap)
        full = sweep.search.full
        for target in [f * full for f in (0.0, 0.3, 0.4, 0.6, 0.9)] + [2 * full + 1]:
            p, near_rate, far_rate, run = sweep.fmiwf(target)
            want = iterate_iwf(*ordered, mode="fm", targets=[None, target],
                               gap=gap)
            assert p.shape == (2, channel.num_tones)
            for u in (0, 1):
                exp = want.allocations[role[u]]
                assert p[u].tobytes() == exp.power.tobytes()
            assert (len(run.changes), run.converged) == (want.iterations,
                                                         want.converged)
            assert np.array(run.changes).tobytes() == want.changes.tobytes()
            assert want.shortfall_users == ((role[near],) if run.shortfall
                                            else ())
            allocs = [PowerAllocation(u, p[u], budgets[u]) for u in (0, 1)]
            assert near_rate == capacity(near, allocs, channel, noise, gap)
            assert far_rate == capacity(1 - near, allocs, channel, noise, gap)
        assert run.shortfall

    @pytest.mark.parametrize("near,gap_db,plan", [
        (1, 0.0, None),
        (0, 3.0, [[[0.3e6, 0.9e6]], None]),
        (1, 6.0, [None, [[0.2e6, 0.5e6], [0.7e6, 1.1e6]]]),
    ])
    def test_scenario_rows_match_the_recipe(self, tmp_path, near, gap_db, plan):
        cfg = {
            "name": "rows",
            "grid": {"f_start_hz": 0.0, "f_end_hz": 1.2e6, "num_tones": 48},
            "channel": {"kind": "synthetic", "lengths_km": [2.5, 0.7],
                        "group_sizes": [6, 9]},
            "noise_psd_dbm_hz": -135.0, "budgets_mw": [20.0, 30.0],
            "methods": ["dfdm"], "sweep": {"count": 7, "max_fraction": 1.0},
            "near_user": near, "gap_db": gap_db, "band_plan_hz": plan,
            "output_dir": str(tmp_path)}
        config = load_config(cfg)
        channel = build_channel(config)
        noise = NoiseProfile.from_psd_dbm_hz(config.noise_psd_dbm_hz,
                                             channel.grid, 2)
        budgets, gap, far = list(config.budgets_mw), config.gap, 1 - near
        far_initial = opening(channel, noise, far, budgets[far], gap)
        full = full_band_rate(channel, noise, near, budgets[near], far_initial,
                              gap)
        # The scenario's targets: 7 from 0.1 of the full-band rate to all of it.
        targets = list(np.linspace(0.1 * full, 1.0 * full, 7))
        report = run_scenario(config)
        want = []
        for t in targets:
            *_, near_rate, far_rate = reference_round(
                channel, noise, budgets, t, near, gap, far_initial)
            want.append(("dfdm", format_float(t), format_float(near_rate),
                         format_float(far_rate)))
        assert report["rows"] == want
        assert report["near_max_bps"] == full


def relabelled(channel, noise, budgets):
    """The same instance with the two users' labels swapped: both gain axes,
    the noise rows and the budgets reversed."""
    return (ChannelMatrixSet(channel.gains[:, ::-1, ::-1].copy(), channel.grid),
            NoiseProfile(noise.values[::-1].copy()), budgets[::-1])


class TestRelabelling:
    """Swapping the users' labels and the near user relabels the outcome of
    a DFDM round, of an FM-IWF run and of the region sweep's two curves,
    bit for bit."""

    @pytest.mark.parametrize("seed,dark_top,dense",
                             [(s, False, s > 1) for s in range(4)] + [(6, True, False)])
    def test_round_relabels(self, seed, dark_top, dense):
        channel, noise, near, _, gap, budget = random_instance(seed, dark_top)
        if dense:  # every tone usable by both users
            gains = channel.gains.copy()
            for u in (0, 1):
                gains[:, u, u] = np.maximum(gains[:, u, u], 0.05)
            channel = ChannelMatrixSet(gains, channel.grid)
        budgets = [budget, 0.5 * budget + 1.0]
        sweep = _Sweep(channel, noise, budgets, near, gap)
        swapped = _Sweep(*relabelled(channel, noise, budgets), 1 - near, gap)
        for frac in (0.0, 0.3, 0.8, 1.0):
            p, _, _, (cutoff, rate) = sweep.round(frac * sweep.search.full)
            p2, _, _, (cutoff2, rate2) = swapped.round(frac * sweep.search.full)
            assert cutoff2 == cutoff
            assert rate2 == rate
            assert p2[::-1].tobytes() == p.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_region_dfdm_curve_relabels(self, seed):
        channel, noise, near, _, gap, budget = random_instance(seed)
        budgets = [budget, 0.5 * budget + 1.0]
        full = _Sweep(channel, noise, budgets, near, gap).search.full
        rds = [0.5 * full, 0.0, 0.9 * full, 0.5 * full]
        curves = dfdm_vs_fmiwf_region(channel, noise, budgets, rds, near, gap)
        curves2 = dfdm_vs_fmiwf_region(*relabelled(channel, noise, budgets),
                                       rds, 1 - near, gap)
        for method in ("dfdm", "fm-iwf"):
            assert (curves2[method].points.tobytes()
                    == curves[method].points.tobytes())

    @pytest.mark.parametrize("seed", range(8))
    def test_fmiwf_relabels(self, seed):
        # Gauss-Seidel in index order settled on other fixed points for
        # some of these when near was user 0.
        channel, noise, near, _, gap, budget = random_instance(seed)
        budgets = [budget, 0.5 * budget + 1.0]
        sweep = _Sweep(channel, noise, budgets, near, gap)
        swapped = _Sweep(*relabelled(channel, noise, budgets), 1 - near, gap)
        for frac in (0.0, 0.3, 0.6, 0.9):
            p, near_rate, far_rate, run = sweep.fmiwf(frac * sweep.search.full)
            p2, near_rate2, far_rate2, run2 = swapped.fmiwf(
                frac * sweep.search.full)
            assert (near_rate2, far_rate2) == (near_rate, far_rate)
            assert (np.array(run2.changes).tobytes()
                    == np.array(run.changes).tobytes())
            assert (run2.converged, run2.shortfall) == (run.converged,
                                                        run.shortfall)
            assert p2[::-1].tobytes() == p.tobytes()


class TestOneReachRule:
    """Every caller decides whether the near user's full budget carries
    its target by game._carries: DFDM, the fixed-margin fill on the same
    floor, a sweep's DFDM round and FM-IWF run, and iterate_iwf."""

    @given(seed=st.integers(0, 39),
           rel=st.floats(min_value=-3e-12, max_value=3e-12))
    @example(seed=3, rel=0.0)
    @example(seed=3, rel=5e-13)
    def test_all_callers_agree_at_the_full_band_rate(self, seed, rel):
        # At rel = 5e-13 DFDM carried the target, while the fixed-margin
        # fill refused it and FM-IWF reported a shortfall.
        channel, noise, near, _, gap, budget = random_instance(seed)
        gains = channel.gains.copy()
        gains[:, near, 1 - near] = 0.0  # one near floor for every caller
        channel = ChannelMatrixSet(gains, channel.grid)
        budgets = [budget, 0.5 * budget + 1.0]
        sweep = _Sweep(channel, noise, budgets, near, gap)
        target = sweep.search.full * (1 + rel)
        targets = [None, None]
        targets[near] = target
        eff = effective_noise(near, [], channel, noise, gap)

        def carries(solve):
            try:
                solve()
            except InfeasibleError:
                return False
            return True

        got = [
            carries(lambda: dfdm_allocate(channel, noise, near, target,
                                          budgets[near], gap=gap)),
            carries(lambda: waterfill_fm(eff, budgets[near], target,
                                         channel.grid)),
            carries(lambda: sweep.round(target)),
            not sweep.fmiwf(target)[3].shortfall,
            not iterate_iwf(channel, noise, budgets, mode="fm",
                            targets=targets, gap=gap).shortfall_users,
        ]
        assert got == [got[0]] * len(got)
        assert got[0] or rel > 0


class TestFmiwfOrder:
    """FM-IWF can have more than one fixed point, and the update order
    picks one in silence.  Over random_instance seeds 0-39 at 0.3, 0.6 and
    0.9 of the near user's full-band rate, with budgets [b, 0.5 b + 1],
    far first and near first agree within 1e-6 except at 0.9 for seeds 3,
    22 and 33."""

    def test_far_first_and_near_first_reach_different_fixed_points(self):
        channel, noise, near, _, gap, budget = random_instance(3)
        budgets = [budget, 0.5 * budget + 1.0]
        sweep = _Sweep(channel, noise, budgets, near, gap)
        target = 0.9 * sweep.search.full
        _, _, far_first, run = sweep.fmiwf(target)
        # Near first: iterate_iwf on the instance relabelled near user 0.
        assert near == 1
        channel2, noise2, budgets2 = relabelled(channel, noise, budgets)
        report = iterate_iwf(channel2, noise2, budgets2, mode="fm",
                             targets=[target, None], gap=gap)
        near_first = capacity(1, report.allocations, channel2, noise2, gap)
        assert run.converged and report.converged
        assert not run.shortfall and not report.shortfall_users
        assert far_first == pytest.approx(46148.6, abs=0.05)
        assert near_first == pytest.approx(42688.3, abs=0.05)
        assert far_first - near_first > 0.01 * far_first
