"""The Gaussian interference game: strategies, payoffs, and equilibrium checks.

Players share K tones.  A strategy for player i is a non-negative power
vector over the tones subject to a total-power budget; the payoff is the
Shannon rate with all interference treated as noise, optionally derated by
an SNR gap for practical coding schemes.

The numeric kernel works on plain arrays, one receiver at a time:
_receivers checks an instance once and returns a Receiver record per user
(gain row, usable tones, widths, direct gains, noise), _floor is its
effective noise (interference plus noise over its own gain), _rate its rate
and _fill its water-filling response.  Payoffs, the Nash certificate, the
water-filling module and the DFDM cutoff search all run on it.  Its
reductions call the ufuncs (np.add.reduce, np.minimum.reduce) directly:
the same pairwise sums as np.sum and .sum(), without their dispatch.

_fill sorts the per-Hz floors and takes the longest feasible prefix, on
any number of tones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .channel import ChannelMatrixSet, NoiseProfile, _check_range

FULL_POWER = "full-power"
AT_MOST_POWER = "at-most-power"

# Relative slack used when validating budget constraints.
BUDGET_RTOL = 1e-9
# The messages of the kernel's checks, shared by every loop that runs them.
_BAD_POWER = "powers must be finite and non-negative"
_BAD_FLOOR = "usable effective noise must be finite and > 0"
_NO_TONES = "no usable tones to allocate power on"


class InfeasibleError(ValueError):
    """A rate target cannot be met; carries the best achievable rate."""

    def __init__(self, message: str, max_achievable: float | None = None):
        super().__init__(message)
        self.max_achievable = max_achievable


@dataclass(frozen=True)
class PowerAllocation:
    """One player's per-tone transmit power.

    mode records which budget constraint the allocation is meant to satisfy:
    FULL_POWER for rate-adaptive play (sum equals the budget) or
    AT_MOST_POWER for fixed-margin play (sum may fall below it).
    """

    user: int
    power: np.ndarray
    budget: float
    mode: str = FULL_POWER

    def __post_init__(self):
        power = np.asarray(self.power, dtype=float)
        power.flags.writeable = False
        object.__setattr__(self, "power", power)
        if power.ndim != 1:
            raise ValueError("power must be a 1-D vector")
        _check_range(power, _BAD_POWER)
        _check_budget(self.budget)
        if self.mode not in (FULL_POWER, AT_MOST_POWER):
            raise ValueError(f"unknown mode {self.mode!r}")

    @property
    def total(self) -> float:
        return float(self.power.sum())


def _check_budget(budget: float, name: str = "budget") -> None:
    if not 0 <= budget < np.inf:  # also rejects nan
        raise ValueError(f"{name} must be finite and >= 0")


def _check_target(target: float, name: str = "target_rate") -> None:
    if not target >= 0:  # also rejects nan
        raise ValueError(f"{name} must be >= 0")


def _carries(rate, target):
    """The package's one feasibility rule, elementwise on arrays."""
    return rate >= target * (1 - 1e-12)


@dataclass(frozen=True)
class NashResult:
    """A profile's Nash certificate.  gains and rates hold each user's
    best-response gain and its rate (as capacity gives it), in the order
    of the allocations."""

    is_nash: bool
    worst_gain: float
    gains: np.ndarray
    rates: np.ndarray


def power_matrix(allocations: Sequence[PowerAllocation], num_users: int,
                 num_tones: int) -> np.ndarray:
    """Stack allocations into an (N, K) matrix, validating user indices."""
    out = np.zeros((num_users, num_tones))
    seen = set()
    for alloc in allocations:
        if not 0 <= alloc.user < num_users:
            raise ValueError(f"allocation for unknown user {alloc.user}")
        if alloc.user in seen:
            raise ValueError(f"duplicate allocation for user {alloc.user}")
        if alloc.power.size != num_tones:
            raise ValueError("allocation length does not match tone count")
        seen.add(alloc.user)
        out[alloc.user] = alloc.power
    return out


# The finite-rate rule's refusal of a value; {} names the value's kind.
_TOO_LARGE = "is too large: {} * direct / (gap * noise) overflows on a tone"


def _direct(channel: ChannelMatrixSet) -> np.ndarray:
    """The (N, K) direct gains of each user on each tone."""
    return np.diagonal(channel.gains, axis1=1, axis2=2).T


def _overflowing_budget(budgets: Sequence[float], direct: np.ndarray,
                        noise: np.ndarray, gap: float) -> int | None:
    """The finite-rate rule: the index of the first budget whose
    budget * direct / (gap * noise) overflows on a tone of its row of the
    (rows, K) direct and noise, or None.

    A floor is at least gap * noise / direct and a power at most its
    budget, so the rule keeps every SINR, rate term and rate finite.
    """
    with np.errstate(over="ignore"):
        snr = np.array(budgets)[:, None] * direct / (gap * noise)
    finite = np.logical_and.reduce(snr < np.inf, axis=1)
    return None if finite.all() else int(finite.argmin())


class Receiver(NamedTuple):
    """One user's receiver on plain arrays: its (K, N) slice of the gain
    stack, its usable tones (direct gain > 0), and the widths, direct gains
    and noise on them, which are views when every tone is usable."""

    gains_in: np.ndarray
    tones: np.ndarray
    widths: np.ndarray
    direct: np.ndarray
    noise: np.ndarray
    user: int


def _receivers(channel: ChannelMatrixSet, noise: NoiseProfile, gap: float,
               wanted: Sequence[int], budgets: Sequence[float] | None = None,
               users: int | None = None) -> tuple:
    """The one entry check of a solver instance; returns (the budgets as
    floats, the Receiver of each user in wanted)."""
    if users is not None and channel.num_users != users:
        raise ValueError(f"needs a {users}-user channel, got {channel.num_users} users")
    want = (channel.num_users, channel.num_tones)
    if noise.values.shape != want:
        raise ValueError(f"noise has shape {noise.values.shape}, but the channel "
                         f"needs (users, tones) = {want}")
    if not 1 <= gap < math.inf:  # also rejects nan
        raise ValueError("gap must be finite and >= 1")
    if budgets is not None:
        budgets = [float(b) for b in budgets]
        if len(budgets) != channel.num_users:
            raise ValueError(f"budgets: {len(budgets)} given for {channel.num_users} users")
        for i, b in enumerate(budgets):
            _check_budget(b, f"budgets[{i}]")
        i = _overflowing_budget(budgets, _direct(channel), noise.values, gap)
        if i is not None:
            raise ValueError(f"budgets[{i}] = {budgets[i]!r} "
                             f"{_TOO_LARGE.format('budget')}")
    receivers = []
    for user in wanted:
        if not 0 <= user < channel.num_users:
            raise ValueError(f"user {user} is not in [0, {channel.num_users})")
        gains_in = channel.gains[:, user, :]
        direct, noise_row = gains_in[:, user], noise.values[user]
        widths = channel.grid.widths
        tones = (direct > 0).nonzero()[0]
        if tones.size < direct.size:
            widths, direct, noise_row = widths[tones], direct[tones], noise_row[tones]
        receivers.append(Receiver(gains_in, tones, widths, direct, noise_row, user))
    return budgets, receivers


def _floor(p: np.ndarray, rx: Receiver, gap: float) -> np.ndarray:
    """Effective noise of one receiver on its usable tones against p, the
    (N, K) power matrix, leaving its own row out; checked to be finite and
    > 0."""
    own = p[rx.user].copy()
    p[rx.user] = 0.0
    interference = np.einsum("kj,jk->k", rx.gains_in, p)
    p[rx.user] = own
    if rx.tones.size < interference.size:
        interference = interference[rx.tones]
    floors = gap * (interference + rx.noise) / rx.direct
    _check_range(floors, _BAD_FLOOR, positive=True)
    return floors


def _rate(power: np.ndarray, tones: np.ndarray, floors: np.ndarray,
          widths: np.ndarray) -> float:
    """Rate of power (over all K tones) against floors on the usable tones,
    summed over all K tones so that every caller rounds alike."""
    terms = np.zeros(power.size)
    terms[tones] = widths * np.log1p(power[tones] / floors)
    return float(np.add.reduce(terms) / np.log(2.0))


def _fill(tones: np.ndarray, floors: np.ndarray, widths: np.ndarray, k: int,
          budget: float, target: float | None = None
          ) -> tuple[np.ndarray, float, float | None]:
    """The one water-filling core, on plain arrays.

    tones are the usable tone indices out of k tones; floors and widths
    hold the effective noise and the tone widths on them.  With no target
    it is the rate-adaptive response to the whole budget; with a target,
    the fixed-margin response, whose level comes from the same sort of the
    per-Hz floors.  Returns (power over the k tones, mu, short).  short is
    None unless the full-budget rate does not carry the target (_carries):
    it is then that rate, and power and mu are the full-budget response;
    a carried target at or past it keeps that level.  Inputs are not
    validated here; the callers check budgets and targets, and _floor
    checks the floors.

    Levels past the float range, from a budget or floors near its top,
    give numpy's overflow RuntimeWarning on one tone as on many; the inf
    or nan powers are left for the callers' checks to refuse.
    """
    if target == 0:
        return (np.zeros(k),
                float(np.minimum.reduce(floors / widths)) if tones.size else 0.0,
                None)
    unmet = None if target is None else 0.0
    if tones.size == 0:
        if budget > 0:
            raise InfeasibleError(_NO_TONES, max_achievable=0.0)
        return np.zeros(k), 0.0, unmet
    if budget == 0:
        return np.zeros(k), float(np.minimum.reduce(floors / widths)), unmet

    nu = floors / widths
    order = nu.argsort(kind="stable")
    nu_s = nu[order]
    n_s = floors[order]
    w_s = widths[order]
    # add.accumulate is cumsum without the method's dispatch cost, which
    # dominates on the few tones of the two-user game.
    w_cum = np.add.accumulate(w_s)
    mu_candidates = (budget + np.add.accumulate(n_s)) / w_cum
    # The feasible prefix is where the level clears the worst included floor.
    fits = mu_candidates > nu_s
    fits[0] = True  # also when the budget is below an ulp of the cheapest floor
    m = int(fits.nonzero()[0][-1]) + 1
    active, w_act, n_act = tones[order[:m]], w_s[:m], n_s[:m]
    # Scalars as Python floats: the same values, cheaper to combine.
    w_sum = float(np.add.reduce(w_act))
    mu = (budget + float(np.add.reduce(n_act))) / w_sum
    power = np.zeros(k)
    active_power = mu * w_act - n_act
    power[active] = active_power
    # Remove the rounding residue by a uniform shift of the water level.
    deficit = budget - float(np.add.reduce(power))
    active_power += deficit * w_act / w_sum
    power[active] = active_power
    mu += deficit / w_sum
    np.maximum(power, 0.0, out=power)
    if target is None:
        return power, float(mu), None

    max_rate = _rate(power, tones, floors, widths)
    if not _carries(max_rate, target):
        return power, float(mu), max_rate
    if target < max_rate:
        # Overflowing prefix levels are harmless: an inf level never fits
        # under the next floor, so those prefixes are skipped.
        with np.errstate(over="ignore"):
            levels = 2.0 ** ((target + np.add.accumulate(w_s * np.log2(nu_s)))
                             / w_cum)
        fits = np.ones(nu_s.size, dtype=bool)
        fits[:-1] = levels[:-1] <= nu_s[1:]
        mu = levels[int(np.argmax(fits))]
    power = np.zeros(k)
    power[tones] = np.maximum(0.0, mu * widths - floors)
    return power, float(mu), None


def _profile(allocations: Sequence[PowerAllocation], channel: ChannelMatrixSet,
             noise: NoiseProfile, gap: float, wanted: Sequence[int]) -> tuple:
    """The (N, K) power matrix of allocations and the Receivers of wanted.
    The finite-rate rule holds each allocation's budget and power total; a
    refusal names allocations[i] and which of the two broke the rule."""
    p = power_matrix(allocations, channel.num_users, channel.num_tones)
    _, receivers = _receivers(channel, noise, gap, wanted)
    with np.errstate(over="ignore"):  # an inf total is refused by name
        totals = [alloc.total for alloc in allocations]
    largest = np.zeros(channel.num_users)  # 0 for a user with no allocation
    for i, (alloc, total) in enumerate(zip(allocations, totals)):
        if total == math.inf:
            raise ValueError(f"allocations[{i}].total must be finite")
        largest[alloc.user] = max(alloc.budget, total)
    user = _overflowing_budget(largest, _direct(channel), noise.values, gap)
    if user is not None:
        i = next(i for i, alloc in enumerate(allocations) if alloc.user == user)
        name = "budget" if allocations[i].budget >= totals[i] else "total"
        raise ValueError(f"allocations[{i}].{name} = {float(largest[user])!r} "
                         f"{_TOO_LARGE.format(name)}")
    return p, receivers


def sinr_per_tone(user: int, allocations: Sequence[PowerAllocation],
                  channel: ChannelMatrixSet, noise: NoiseProfile) -> np.ndarray:
    """Received SINR of one user on every tone (no gap applied)."""
    p, (rx,) = _profile(allocations, channel, noise, 1.0, [user])
    sinr = np.zeros(channel.num_tones)
    sinr[rx.tones] = p[user, rx.tones] / _floor(p, rx, 1.0)
    return sinr


def capacity(user: int, allocations: Sequence[PowerAllocation],
             channel: ChannelMatrixSet, noise: NoiseProfile,
             gap: float = 1.0) -> float:
    """Achievable rate of one user, summed over tones.

    Per tone the rate is width * log2(1 + SINR / gap) where the SINR treats
    all other users' transmissions as Gaussian noise.  gap >= 1 is the
    linear SNR gap of the coding scheme (1 for Shannon capacity).
    """
    p, (rx,) = _profile(allocations, channel, noise, gap, [user])
    return _rate(p[user], rx.tones, _floor(p, rx, gap), rx.widths)


def validate_strategy(alloc: PowerAllocation) -> list[str]:
    """Return human-readable constraint violations (empty list when valid)."""
    total, budget = alloc.total, alloc.budget
    slack = BUDGET_RTOL * max(budget, 1.0)
    if alloc.mode == FULL_POWER and abs(total - budget) > slack:
        return [f"total power {total!r} != budget {budget!r}"]
    if total > budget + slack:
        return [f"total power {total!r} exceeds budget {budget!r}"]
    return []


def is_nash_equilibrium(allocations: Sequence[PowerAllocation],
                        channel: ChannelMatrixSet, noise: NoiseProfile,
                        tol: float = 1e-6, gap: float = 1.0) -> NashResult:
    """Check the no-profitable-deviation property of a strategy profile.

    For each user the best response (rate-adaptive water-filling at full
    budget against the others' fixed allocations) is computed; the profile
    passes when no user can improve its rate by more than
    tol * max(1, current rate).
    """
    p, receivers = _profile(allocations, channel, noise, gap,
                            [a.user for a in allocations])
    rates, gains = np.empty((2, len(allocations)))
    for idx, (alloc, rx) in enumerate(zip(allocations, receivers)):
        floors = _floor(p, rx, gap)
        rates[idx] = _rate(p[rx.user], rx.tones, floors, rx.widths)
        best, _, _ = _fill(rx.tones, floors, rx.widths, p.shape[1], alloc.budget)
        gains[idx] = _rate(best, rx.tones, floors, rx.widths) - rates[idx]
    worst = float(gains.max()) if gains.size else 0.0
    ok = all(g <= tol * max(1.0, r) for g, r in zip(gains, rates))
    return NashResult(is_nash=bool(ok), worst_gain=worst, gains=gains,
                      rates=rates)
