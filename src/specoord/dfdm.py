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
rate on each suffix of the near user's usable tones, keyed by where the
suffix starts.  A DFDM round bisects over that key, fills above its
cutoff, lets the far user respond with the step that made the opening,
and rates both users.  FM-IWF runs its Gauss-Seidel loop on the same two
receivers, far user first, so its first sweep reuses the opening and the
near floor against it; with the order set by role, not by index, swapping
the users' labels and near_user relabels it exactly.  A suffix carries a
target by game._carries, the one feasibility rule of the package.
find_cutoff and dfdm_allocate are one-target uses of the same search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .channel import ChannelMatrixSet, NoiseProfile
from .game import (AT_MOST_POWER, PowerAllocation, Receiver, _TOO_LARGE,
                   _carries, _check_budget, _check_target, _fill, _floor,
                   _overflowing_budget, _rate, _receivers, power_matrix)
from .oracle import RateRegionCurve
from .waterfilling import MAX_ITER, TOL, InfeasibleError, _step


@dataclass(frozen=True)
class DfdmResult:
    """Outcome of a dynamic-FDM allocation for the near user."""

    cutoff_index: int
    cutoff_hz: float
    allocation: PowerAllocation
    achieved_rate: float
    target_rate: float


class _Search:
    """One receiver's cutoff search against the others' powers p, an (N, K)
    matrix, for any number of targets; budget is checked by the caller.

    Holds the Receiver, its effective noise on its usable tones, the
    full-band rate-adaptive rate (0.0 with no usable tone) and a memo of
    the rate on each suffix of the usable tones, keyed by where the suffix
    starts.  The search bisects over that key, and each probe fills and
    rates views of the one gather.
    """

    def __init__(self, rx: Receiver, budget: float, p: np.ndarray, gap: float):
        self.rx, self.floors = rx, _floor(p, rx, gap)
        self.budget, self.k = budget, p.shape[1]
        self._memo: dict[int, float] = {}
        self.full = self.rate_from(0)

    def _above(self, s: int) -> tuple:
        return self.rx.tones[s:], self.floors[s:], self.rx.widths[s:]

    def rate_from(self, s: int) -> float:
        """Rate of the budget water-filled on the s-th usable tone on."""
        if s not in self._memo:
            rate = 0.0
            if s < self.rx.tones.size:
                above = self._above(s)
                power, _, _ = _fill(*above, self.k, self.budget)
                rate = _rate(power, *above)
            self._memo[s] = rate
        return self._memo[s]

    def allocate(self, target: float) -> tuple:
        """The cutoff, then the least power above it that meets the target:
        (cutoff index, power, achieved rate).

        A suffix carries the target by _carries, the one feasibility
        rule, which the fill above the cutoff follows too.  The cutoff is
        the first tone of the shortest such suffix (K for a zero target).
        """
        _check_target(target)
        tones = self.rx.tones
        lo = hi = tones.size  # the empty suffix carries a zero target
        if target > 0:
            if not _carries(self.full, target):
                raise InfeasibleError(
                    f"target {target} exceeds full-band rate {self.full}",
                    max_achievable=self.full)
            lo = 0  # rate_from(lo) carries the target, rate_from(hi) not
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if _carries(self.rate_from(mid), target):
                    lo = mid
                else:
                    hi = mid
        cutoff = int(tones[lo]) if lo < tones.size else self.k
        above = self._above(lo)
        power, _, _ = _fill(*above, self.k, self.budget, target)
        return cutoff, power, _rate(power, *above)


def find_cutoff(channel: ChannelMatrixSet, noise: NoiseProfile, user: int,
                target_rate: float, budget: float,
                others: Sequence[PowerAllocation] = (),
                gap: float = 1.0) -> int:
    """Largest cutoff index k such that tones k..K-1 still carry the target.

    The achievable rate (rate-adaptive water-filling of the full budget on
    the remaining tones) is non-increasing in the cutoff, so a binary
    search over the suffixes of the usable tones applies.  Tones k..K-1
    carry the target by game._carries, the rule dfdm_allocate fills by.
    Returns K for a zero target, once the inputs pass their checks;
    raises InfeasibleError, carrying the full-band rate, when even the
    full band cannot carry the target.
    """
    return dfdm_allocate(channel, noise, user, target_rate, budget, others,
                         gap).cutoff_index


def dfdm_allocate(channel: ChannelMatrixSet, noise: NoiseProfile, user: int,
                  target_rate: float, budget: float,
                  others: Sequence[PowerAllocation] = (),
                  gap: float = 1.0) -> DfdmResult:
    """Cutoff search plus minimum-power allocation above the cutoff."""
    p = power_matrix(others, channel.num_users, channel.num_tones)
    _, (rx,) = _receivers(channel, noise, gap, [user])
    _check_budget(budget)
    if _overflowing_budget([budget], rx.direct[None], rx.noise[None],
                           gap) is not None:
        raise ValueError(f"budget = {budget!r} {_TOO_LARGE.format('budget')}")
    cutoff, power, achieved = _Search(rx, budget, p, gap).allocate(target_rate)
    return DfdmResult(cutoff, float(channel.grid.edges[cutoff]),
                      PowerAllocation(user, power, budget, AT_MOST_POWER),
                      achieved, target_rate)


class _FmRun(NamedTuple):
    """An FM-IWF run's convergence record: each sweep's largest per-tone
    change, whether the last one reached the tolerance, and whether the
    near user's target was out of reach (it then played full budget)."""

    changes: tuple
    converged: bool
    shortfall: bool


class _Sweep:
    """A near user's target sweep on one 2-user instance, for both protocols.

    The roles come from near_user.  The far user's one step, _far_step,
    opens against silence (far_free is the opening's rate) and ends each
    DFDM round.  The near user's search against the opening is shared by
    every DFDM round, so later rounds reuse the probes of earlier ones, and
    by FM-IWF's first sweep.  Any (2, K) power matrix p, in user order, is
    rated, and its SINR taken, on the two receivers the sweep holds.
    round (DFDM) and fmiwf (FM-IWF) return (p, near_rate, far_rate,
    detail): the near user's (cutoff index, achieved rate), or the _FmRun.
    """

    def __init__(self, channel: ChannelMatrixSet, noise: NoiseProfile,
                 budgets: Sequence[float], near_user: int, gap: float):
        self.budgets, receivers = _receivers(channel, noise, gap, (0, 1),
                                             budgets, users=2)
        if near_user not in (0, 1):
            raise ValueError(f"near_user must be 0 or 1, got {near_user!r}")
        self.near, self.far = near_user, 1 - near_user
        self.gap = gap
        self.receivers, self.far_rx = receivers, receivers[self.far]
        # The opening profile: the far user's move, the near user silent.
        self.opening = np.zeros((2, channel.num_tones))
        self.far_free = self._far_step(self.opening)
        self.search = _Search(receivers[self.near], self.budgets[self.near],
                              self.opening, gap)

    def _far_fill(self, p: np.ndarray) -> tuple:
        """The far user's rate-adaptive fill against the near row of p, a
        (2, K) profile, on the far receiver: (power, floors)."""
        floors = _floor(p, self.far_rx, self.gap)
        power, _, _ = _fill(self.far_rx.tones, floors, self.far_rx.widths,
                            p.shape[1], self.budgets[self.far])
        return power, floors

    def _far_step(self, p: np.ndarray) -> float:
        """Water-fill the far row of p; return the far user's rate."""
        p[self.far], floors = self._far_fill(p)
        return _rate(p[self.far], self.far_rx.tones, floors, self.far_rx.widths)

    def _rate_of(self, user: int, p: np.ndarray) -> float:
        rx = self.receivers[user]
        return _rate(p[user], rx.tones, _floor(p, rx, self.gap), rx.widths)

    def rated(self, p: np.ndarray) -> tuple:
        """(near rate, far rate) of a (2, K) power matrix."""
        return self._rate_of(self.near, p), self._rate_of(self.far, p)

    def sinr(self, p: np.ndarray) -> np.ndarray:
        """Both users' received SINR on every tone of p, (2, K), no gap
        applied: zero on a user's unusable tones."""
        out = np.zeros(p.shape)
        for rx in self.receivers:
            out[rx.user, rx.tones] = p[rx.user, rx.tones] / _floor(p, rx, 1.0)
        return out

    def round(self, target: float) -> tuple:
        cutoff, p_near, achieved = self.search.allocate(target)
        p = np.zeros((2, self.search.k))
        p[self.near] = p_near
        far_rate = self._far_step(p)
        return p, self._rate_of(self.near, p), far_rate, (cutoff, achieved)

    def fmiwf(self, target: float) -> tuple:
        """Gauss-Seidel fixed-margin IWF, the far user first: it plays
        rate-adaptively, the near user holds target at the least power.

        Sweep 1 starts from the opening and the near floor against it, so
        only the near user's fill is new; each later sweep is the far
        user's step, then the near user's.  An unreachable target falls
        back to the near user's full-budget fill for that sweep.  The loop
        stops when a sweep's largest per-tone change drops to TOL times the
        larger budget, or after MAX_ITER sweeps.  Powers and record equal
        iterate_iwf(mode="fm") on the instance labelled far user 0, near
        user 1, relabelled to the sweep's users.
        """
        _check_target(target)
        target = float(target)
        near, far, search = self.near, self.far, self.search
        rx, budget, k = search.rx, self.budgets[near], search.k
        p = self.opening.copy()
        floors = search.floors
        far_step = _step(p[far], p[near])  # the opening's step from silence
        limit = TOL * max(max(self.budgets), 1e-300)
        changes = []
        for sweep in range(MAX_ITER):
            if sweep:
                power, _ = self._far_fill(p)
                far_step = _step(power, p[far])
                p[far] = power
                floors = _floor(p, rx, self.gap)
            power, _, short = _fill(rx.tones, floors, rx.widths, k, budget,
                                    target)
            changes.append(max(0.0, far_step, _step(power, p[near])))
            p[near] = power
            if changes[-1] <= limit:
                break
        # The last near floor is against the last far move: it rates the
        # near user, and only the far user needs one more floor.
        near_rate = _rate(p[near], rx.tones, floors, rx.widths)
        run = _FmRun(tuple(changes), changes[-1] <= limit, short is not None)
        return p, near_rate, self._rate_of(far, p), run


def dfdm_vs_fmiwf_region(channel: ChannelMatrixSet, noise: NoiseProfile,
                         budgets: Sequence[float], rd_values,
                         near_user: int = 1, gap: float = 1.0
                         ) -> dict[str, RateRegionCurve]:
    """Far-user rate against the near user's target, for both protocols.

    Per target: one DFDM round, and one FM-IWF run to a fixed point, on
    one shared sweep.  Points are (target, far rate).
    """
    sweep = _Sweep(channel, noise, budgets, near_user, gap)
    dfdm_pts, iwf_pts = [], []
    for rd in rd_values:
        dfdm_pts.append((rd, sweep.round(float(rd))[2]))
        iwf_pts.append((rd, sweep.fmiwf(rd)[2]))

    return {"dfdm": RateRegionCurve("dfdm", np.array(dfdm_pts)),
            "fm-iwf": RateRegionCurve("fm-iwf", np.array(iwf_pts))}
