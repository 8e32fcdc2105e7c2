"""Dynamic frequency-division at the tone level.

The near (strong) user picks the highest cutoff frequency that still lets it
reach its rate target using only tones above the cutoff, then spends the
least power that meets the target there.  Interference onto far users below
the cutoff is exactly zero, which is the whole point: the near user can
afford the high end of the spectrum, the far user cannot.

The protocol is one-shot: the near user measures the received noise floor
(background noise plus whatever the others currently transmit), allocates,
and the far user re-water-fills once in response.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import ChannelMatrixSet, NoiseProfile
from .game import PowerAllocation, _check_inputs, _fill, _rate, capacity
from .oracle import RateRegionCurve
from .waterfilling import (EffectiveNoise, InfeasibleError, IwfReport,
                           achievable_rate, effective_noise, iterate_iwf,
                           waterfill_fm, waterfill_ra)


@dataclass(frozen=True)
class DfdmResult:
    """Outcome of a dynamic-FDM allocation for the near user."""

    cutoff_index: int
    cutoff_hz: float
    allocation: PowerAllocation
    achieved_rate: float
    target_rate: float


def _masked(eff: EffectiveNoise, cutoff: int) -> EffectiveNoise:
    usable = eff.usable.copy()
    usable[:cutoff] = False
    return EffectiveNoise(user=eff.user, values=eff.values, usable=usable)


def find_cutoff(channel: ChannelMatrixSet, noise: NoiseProfile, user: int,
                target_rate: float, budget: float,
                others: Sequence[PowerAllocation] = (),
                gap: float = 1.0) -> int:
    """Largest cutoff index k such that tones k..K-1 still carry the target.

    The achievable rate (rate-adaptive water-filling of the full budget on
    the remaining tones) is non-increasing in the cutoff, so a binary
    search applies.  Returns K for a zero target, once the inputs pass their
    checks; raises InfeasibleError when even the full band cannot carry the
    target.  The full-band rate comes from waterfill_ra, which checks the
    budget; the probes run on the receiver kernel.
    """
    if not target_rate >= 0:  # also rejects nan
        raise ValueError("target_rate must be >= 0")
    k = channel.num_tones
    eff = effective_noise(user, others, channel, noise, gap)
    if target_rate == 0:
        return k
    full = 0.0
    if eff.usable.any():
        alloc, _ = waterfill_ra(eff, budget, channel.grid)
        full = achievable_rate(alloc.power, eff, channel.grid)
    floor = target_rate * (1 - 1e-12)
    if full < floor:
        raise InfeasibleError(
            f"target {target_rate} exceeds full-band rate {full}",
            max_achievable=full)

    # The usable tones at or above a cutoff are a suffix of the usable
    # tones, so each probe fills and rates views of one gather.
    tones = eff.usable.nonzero()[0]
    floors, widths = eff.values[tones], channel.grid.widths[tones]

    def rate_above(cutoff: int) -> float:
        s = int(np.searchsorted(tones, cutoff))
        if s == tones.size:
            return 0.0
        power, _, _ = _fill(tones[s:], floors[s:], widths[s:], k, budget)
        return _rate(power, tones[s:], floors[s:], widths[s:])

    lo, hi = 0, k  # rate_above(lo) >= target, rate_above(hi) < target
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if rate_above(mid) >= floor:
            lo = mid
        else:
            hi = mid
    return lo


def dfdm_allocate(channel: ChannelMatrixSet, noise: NoiseProfile, user: int,
                  target_rate: float, budget: float,
                  others: Sequence[PowerAllocation] = (),
                  gap: float = 1.0) -> DfdmResult:
    """Cutoff search plus minimum-power allocation above the cutoff."""
    cutoff = find_cutoff(channel, noise, user, target_rate, budget, others, gap)
    eff = _masked(effective_noise(user, others, channel, noise, gap), cutoff)
    alloc, _ = waterfill_fm(eff, budget, target_rate, channel.grid)
    achieved = achievable_rate(alloc.power, eff, channel.grid)
    return DfdmResult(cutoff_index=cutoff,
                      cutoff_hz=float(channel.grid.edges[cutoff]),
                      allocation=alloc, achieved_rate=achieved,
                      target_rate=target_rate)


def _far_user(near_user: int) -> int:
    if near_user not in (0, 1):
        raise ValueError(f"near_user must be 0 or 1, got {near_user!r}")
    return 1 - near_user


def far_alone(channel: ChannelMatrixSet, noise: NoiseProfile, far_user: int,
              budget: float, gap: float = 1.0) -> PowerAllocation:
    """The far user's opening move: water-filling against background noise."""
    eff = effective_noise(far_user, (), channel, noise, gap)
    return waterfill_ra(eff, budget, channel.grid)[0]


def dfdm_round(channel: ChannelMatrixSet, noise: NoiseProfile,
               budgets: Sequence[float], target_rate: float,
               near_user: int = 1, gap: float = 1.0,
               far_initial: PowerAllocation | None = None
               ) -> tuple[DfdmResult, tuple[PowerAllocation, PowerAllocation]]:
    """One dynamic-FDM round on a 2-user channel.

    The far user water-fills against background noise (`far_initial`, when
    given, is that allocation, so a sweep computes it once), the near user
    measures and runs dfdm_allocate, and the far user best-responds once.
    Returns the near user's DfdmResult and both allocations in user order.
    """
    budgets = _check_inputs(channel, noise, gap, budgets, users=2)
    far_user = _far_user(near_user)
    if far_initial is None:
        far_initial = far_alone(channel, noise, far_user, budgets[far_user], gap)
    res = dfdm_allocate(channel, noise, near_user, target_rate,
                        budgets[near_user], others=[far_initial], gap=gap)
    far_eff = effective_noise(far_user, [res.allocation], channel, noise, gap)
    far_best, _ = waterfill_ra(far_eff, budgets[far_user], channel.grid)
    allocs = (far_best, res.allocation) if far_user == 0 else (res.allocation, far_best)
    return res, allocs


def near_fmiwf(channel: ChannelMatrixSet, noise: NoiseProfile,
               budgets: Sequence[float], target_rate: float,
               near_user: int = 1, gap: float = 1.0) -> IwfReport:
    """Fixed-margin IWF with the near user holding target_rate.

    The far user plays rate-adaptively; both iterate to a fixed point.
    """
    targets: list[float | None] = [float(target_rate)] * 2
    targets[_far_user(near_user)] = None
    return iterate_iwf(channel, noise, budgets, mode="fm", targets=targets,
                       gap=gap)


def dfdm_vs_fmiwf_region(channel: ChannelMatrixSet, noise: NoiseProfile,
                         budgets: Sequence[float], rd_values,
                         near_user: int = 1, gap: float = 1.0
                         ) -> dict[str, RateRegionCurve]:
    """Far-user rate against the near user's target, for both protocols.

    Per target: one dfdm_round, and one near_fmiwf run to a fixed point.
    Points are (target, far rate).
    """
    budgets = _check_inputs(channel, noise, gap, budgets, users=2)
    far_user = _far_user(near_user)
    far_initial = far_alone(channel, noise, far_user, budgets[far_user], gap)

    dfdm_pts, iwf_pts = [], []
    for rd in rd_values:
        _, allocs = dfdm_round(channel, noise, budgets, float(rd), near_user,
                               gap, far_initial)
        dfdm_pts.append((rd, capacity(far_user, allocs, channel, noise, gap)))
        report = near_fmiwf(channel, noise, budgets, rd, near_user, gap)
        iwf_pts.append((rd, capacity(far_user, report.allocations, channel,
                                     noise, gap)))

    return {"dfdm": RateRegionCurve("dfdm", np.array(dfdm_pts)),
            "fm-iwf": RateRegionCurve("fm-iwf", np.array(iwf_pts))}
