"""Dynamic frequency-division at the tone level.

The near (strong) user picks the highest cutoff frequency that still lets it
reach its rate target using only tones above the cutoff, then spends the
least power that meets the target there.  Interference onto far users below
the cutoff is exactly zero, which is the whole point: the near user can
afford the high end of the spectrum, the far user cannot.

The protocol is one-shot: the near user measures the received noise floor
(background noise plus whatever the others currently transmit), allocates,
and the far user re-water-fills once in response.

One sweep of near-user targets owns the near/far comparison of DFDM with
fixed-margin IWF (FM-IWF).  What its targets share is built once, on the
receiver kernel's plain arrays: the near and far roles, the far user's
opening move and that move's rate, both receivers, the near user's floor
against the opening, the full-band fill and its rate, and a memo of the
rate above each cutoff, which does not depend on the target.  A DFDM round
then bisects on the memo, fills above its cutoff, lets the far user
respond, and rates both users; an FM-IWF fixed point is rated on the same
two receivers.  find_cutoff, dfdm_allocate and dfdm_round are one-target
uses of the same search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import ChannelMatrixSet, NoiseProfile
from .game import (AT_MOST_POWER, PowerAllocation, _check_budget,
                   _check_inputs, _fill, _floor, _rate, _receiver, power_matrix)
from .oracle import RateRegionCurve
from .waterfilling import (InfeasibleError, IwfReport, _fill_fm, effective_noise,
                           iterate_iwf, waterfill_ra)


@dataclass(frozen=True)
class DfdmResult:
    """Outcome of a dynamic-FDM allocation for the near user."""

    cutoff_index: int
    cutoff_hz: float
    allocation: PowerAllocation
    achieved_rate: float
    target_rate: float


class _Search:
    """One user's cutoff search against fixed others, for any number of
    targets.

    Holds the receiver's arrays, its effective noise on its usable tones,
    the full-band rate-adaptive rate (0.0 with no usable tone) and a memo of
    the rate above each cutoff.  The usable tones at or above a cutoff are a
    suffix of the usable tones, so each probe fills and rates views of the
    one gather, and the memo is keyed by where that suffix starts.
    """

    def __init__(self, channel: ChannelMatrixSet, noise: NoiseProfile,
                 user: int, budget: float, others: Sequence[PowerAllocation],
                 gap: float):
        p = power_matrix(others, channel.num_users, channel.num_tones)
        self.rx = _receiver(channel, noise, user, gap)
        self.floors = _floor(user, p, self.rx, gap)
        _check_budget(budget)
        self.user, self.budget = user, budget
        self.k, self.edges = channel.num_tones, channel.grid.edges
        self._memo: dict[int, float] = {}
        self.full = self.rate_above(0)

    def _above(self, s: int) -> tuple:
        _, tones, widths, _, _ = self.rx
        return tones[s:], self.floors[s:], widths[s:]

    def rate_above(self, cutoff: int) -> float:
        """Rate of the budget water-filled on the usable tones >= cutoff."""
        s = int(np.searchsorted(self.rx[1], cutoff))
        if s not in self._memo:
            rate = 0.0
            if s < self.rx[1].size:
                above = self._above(s)
                power, _, _ = _fill(*above, self.k, self.budget)
                rate = _rate(power, *above)
            self._memo[s] = rate
        return self._memo[s]

    def cutoff(self, target: float) -> int:
        """Largest cutoff index k such that tones k..K-1 still carry the
        target; K for a zero target.  Raises InfeasibleError when even the
        full band cannot carry it."""
        if not target >= 0:  # also rejects nan
            raise ValueError("target_rate must be >= 0")
        if target == 0:
            return self.k
        floor = target * (1 - 1e-12)
        if self.full < floor:
            raise InfeasibleError(
                f"target {target} exceeds full-band rate {self.full}",
                max_achievable=self.full)
        lo, hi = 0, self.k  # rate_above(lo) >= target, rate_above(hi) < target
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.rate_above(mid) >= floor:
                lo = mid
            else:
                hi = mid
        return lo

    def allocate(self, target: float) -> DfdmResult:
        """The cutoff, then the least power above it that meets the target."""
        cutoff = self.cutoff(target)
        above = self._above(int(np.searchsorted(self.rx[1], cutoff)))
        power, _ = _fill_fm(*above, self.k, self.budget, target)
        return DfdmResult(
            cutoff_index=cutoff, cutoff_hz=float(self.edges[cutoff]),
            allocation=PowerAllocation(self.user, power, self.budget,
                                       AT_MOST_POWER),
            achieved_rate=_rate(power, *above), target_rate=target)


def find_cutoff(channel: ChannelMatrixSet, noise: NoiseProfile, user: int,
                target_rate: float, budget: float,
                others: Sequence[PowerAllocation] = (),
                gap: float = 1.0) -> int:
    """Largest cutoff index k such that tones k..K-1 still carry the target.

    The achievable rate (rate-adaptive water-filling of the full budget on
    the remaining tones) is non-increasing in the cutoff, so a binary
    search applies.  Returns K for a zero target, once the inputs pass their
    checks; raises InfeasibleError, carrying the full-band rate, when even
    the full band cannot carry the target.
    """
    return _Search(channel, noise, user, budget, others, gap).cutoff(target_rate)


def dfdm_allocate(channel: ChannelMatrixSet, noise: NoiseProfile, user: int,
                  target_rate: float, budget: float,
                  others: Sequence[PowerAllocation] = (),
                  gap: float = 1.0) -> DfdmResult:
    """Cutoff search plus minimum-power allocation above the cutoff."""
    return _Search(channel, noise, user, budget, others, gap).allocate(target_rate)


def _far_user(near_user: int) -> int:
    if near_user not in (0, 1):
        raise ValueError(f"near_user must be 0 or 1, got {near_user!r}")
    return 1 - near_user


def far_alone(channel: ChannelMatrixSet, noise: NoiseProfile, far_user: int,
              budget: float, gap: float = 1.0) -> PowerAllocation:
    """The far user's opening move: water-filling against background noise."""
    eff = effective_noise(far_user, (), channel, noise, gap)
    return waterfill_ra(eff, budget, channel.grid)[0]


class _Sweep:
    """A near user's target sweep on one 2-user instance, for both protocols.

    The roles come from near_user.  The far user opens by water-filling
    against background noise, and far_free is that opening's rate.  The near
    user's search against the opening is shared by every DFDM round, so
    later rounds reuse the probes of earlier ones.  Any profile is rated on
    the two receivers the sweep holds.  round (DFDM) and fmiwf (FM-IWF)
    return (allocs, near_rate, far_rate, detail): both allocations in user
    order, both rates, and the near user's DfdmResult or the IwfReport.
    """

    def __init__(self, channel: ChannelMatrixSet, noise: NoiseProfile,
                 budgets: Sequence[float], near_user: int, gap: float):
        self.budgets = _check_inputs(channel, noise, gap, budgets, users=2)
        self.near, self.far = near_user, _far_user(near_user)
        self.channel, self.noise, self.gap = channel, noise, gap
        opening = far_alone(channel, noise, self.far, self.budgets[self.far], gap)
        self.search = _Search(channel, noise, self.near, self.budgets[self.near],
                              [opening], gap)
        self.far_rx = _receiver(channel, noise, self.far, gap)
        alone = power_matrix([opening], 2, channel.num_tones)
        self.far_free = self._rate_of(self.far, alone)

    def _rate_of(self, user: int, p: np.ndarray) -> float:
        rx = self.search.rx if user == self.near else self.far_rx
        return _rate(p[user], rx[1], _floor(user, p, rx, self.gap), rx[2])

    def rated(self, allocs: Sequence[PowerAllocation]) -> tuple:
        """(allocs, near rate, far rate) of a 2-user profile."""
        p = power_matrix(allocs, 2, self.search.k)
        return allocs, self._rate_of(self.near, p), self._rate_of(self.far, p)

    def round(self, target: float) -> tuple:
        near, far, search = self.near, self.far, self.search
        res = search.allocate(target)
        p = np.zeros((2, search.k))
        p[near] = res.allocation.power
        _, tones, widths, _, _ = self.far_rx
        floors = _floor(far, p, self.far_rx, self.gap)
        power, _, _ = _fill(tones, floors, widths, search.k, self.budgets[far])
        p[far] = power
        far_best = PowerAllocation(far, power, self.budgets[far])
        allocs = ((far_best, res.allocation) if far == 0
                  else (res.allocation, far_best))
        return (allocs, self._rate_of(near, p),
                _rate(power, tones, floors, widths), res)

    def fmiwf(self, target: float) -> tuple:
        report = near_fmiwf(self.channel, self.noise, self.budgets, target,
                            self.near, self.gap)
        return (*self.rated(report.allocations), report)


def dfdm_round(channel: ChannelMatrixSet, noise: NoiseProfile,
               budgets: Sequence[float], target_rate: float,
               near_user: int = 1, gap: float = 1.0
               ) -> tuple[DfdmResult, tuple[PowerAllocation, PowerAllocation]]:
    """One dynamic-FDM round on a 2-user channel.

    The far user water-fills against background noise (far_alone), the near
    user measures and runs dfdm_allocate, and the far user best-responds
    once.  Returns the near user's DfdmResult and both allocations in user
    order.
    """
    allocs, _, _, res = _Sweep(channel, noise, budgets, near_user,
                               gap).round(target_rate)
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

    Per target: one DFDM round, and one near_fmiwf run to a fixed point, on
    one shared sweep.  Points are (target, far rate).
    """
    sweep = _Sweep(channel, noise, budgets, near_user, gap)
    dfdm_pts, iwf_pts = [], []
    for rd in rd_values:
        dfdm_pts.append((rd, sweep.round(float(rd))[2]))
        iwf_pts.append((rd, sweep.fmiwf(rd)[2]))

    return {"dfdm": RateRegionCurve("dfdm", np.array(dfdm_pts)),
            "fm-iwf": RateRegionCurve("fm-iwf", np.array(iwf_pts))}
