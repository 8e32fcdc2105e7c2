"""The Gaussian interference game: strategies, payoffs, and equilibrium checks.

Players share K tones.  A strategy for player i is a non-negative power
vector over the tones subject to a total-power budget; the payoff is the
Shannon rate with all interference treated as noise, optionally derated by
an SNR gap for practical coding schemes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import ChannelMatrixSet, NoiseProfile

FULL_POWER = "full-power"
AT_MOST_POWER = "at-most-power"

# Relative slack used when validating budget constraints.
BUDGET_RTOL = 1e-9


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
        _check_power(power)
        _check_budget(self.budget)
        if self.mode not in (FULL_POWER, AT_MOST_POWER):
            raise ValueError(f"unknown mode {self.mode!r}")

    @property
    def total(self) -> float:
        return float(self.power.sum())


def _check_power(power: np.ndarray) -> None:
    # min and max are nan when any entry is, which fails both tests.
    if power.size and not (power.min() >= 0 and power.max() < np.inf):
        raise ValueError("powers must be finite and non-negative")


def _check_budget(budget: float, name: str = "budget") -> None:
    if not 0 <= budget < np.inf:  # also rejects nan
        raise ValueError(f"{name} must be finite and >= 0")


@dataclass(frozen=True)
class NashResult:
    is_nash: bool
    worst_gain: float
    gains: np.ndarray


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


def _check_inputs(channel: ChannelMatrixSet, noise: NoiseProfile, gap: float) -> None:
    want = (channel.num_users, channel.num_tones)
    if noise.values.shape != want:
        raise ValueError(f"noise has shape {noise.values.shape}, but the channel "
                         f"needs (users, tones) = {want}")
    if not gap >= 1:  # also rejects nan
        raise ValueError("gap must be >= 1")


def _floor(gains_in: np.ndarray, p: np.ndarray, tones: np.ndarray,
           direct: np.ndarray, noise_row: np.ndarray, gap: float) -> np.ndarray:
    """Effective noise of one receiver on its usable tones, on plain arrays.

    gains_in is the receiver's (K, N) slice of the gain stack and p the
    (N, K) power matrix with the receiver's own row zeroed.  tones are the
    usable tone indices; direct and noise_row hold the direct gains and the
    noise on those tones.
    """
    interference = np.einsum("kj,jk->k", gains_in, p)
    if tones.size < interference.size:
        interference = interference[tones]
    return gap * (interference + noise_row) / direct


def _rate(power: np.ndarray, values: np.ndarray, usable: np.ndarray,
          w: np.ndarray) -> float:
    with np.errstate(invalid="ignore"):
        ratio = np.where(usable, power / values, 0.0)
    return float(np.sum(w * np.log1p(ratio)) / np.log(2.0))


def _user_floor(user: int, p: np.ndarray, channel: ChannelMatrixSet,
                noise: NoiseProfile, gap: float) -> tuple[np.ndarray, np.ndarray]:
    """One user's _floor against p, its own row left out, as (values,
    usable) over all tones; unusable tones get +inf."""
    _check_inputs(channel, noise, gap)
    direct = channel.direct_gains(user)
    usable = direct > 0
    own = p[user].copy()
    p[user] = 0.0
    values = np.full(direct.size, np.inf)
    values[usable] = _floor(channel.gains[:, user, :], p, usable.nonzero()[0],
                            direct[usable], noise.values[user][usable], gap)
    p[user] = own
    return values, usable


def sinr_per_tone(user: int, allocations: Sequence[PowerAllocation],
                  channel: ChannelMatrixSet, noise: NoiseProfile) -> np.ndarray:
    """Received SINR of one user on every tone (no gap applied)."""
    p = power_matrix(allocations, channel.num_users, channel.num_tones)
    return p[user] / _user_floor(user, p, channel, noise, 1.0)[0]


def capacity(user: int, allocations: Sequence[PowerAllocation],
             channel: ChannelMatrixSet, noise: NoiseProfile,
             gap: float = 1.0) -> float:
    """Achievable rate of one user, summed over tones.

    Per tone the rate is width * log2(1 + SINR / gap) where the SINR treats
    all other users' transmissions as Gaussian noise.  gap >= 1 is the
    linear SNR gap of the coding scheme (1 for Shannon capacity).
    """
    p = power_matrix(allocations, channel.num_users, channel.num_tones)
    values, usable = _user_floor(user, p, channel, noise, gap)
    return _rate(p[user], values, usable, channel.grid.widths)


def validate_strategy(alloc: PowerAllocation, mode: str | None = None) -> list[str]:
    """Return human-readable constraint violations (empty list when valid)."""
    mode = alloc.mode if mode is None else mode
    problems = []
    total, budget = alloc.total, alloc.budget
    slack = BUDGET_RTOL * max(budget, 1.0)
    if mode == FULL_POWER:
        if abs(total - budget) > slack:
            problems.append(f"total power {total!r} != budget {budget!r}")
    elif mode == AT_MOST_POWER:
        if total > budget + slack:
            problems.append(f"total power {total!r} exceeds budget {budget!r}")
    else:
        problems.append(f"unknown mode {mode!r}")
    return problems


def is_nash_equilibrium(allocations: Sequence[PowerAllocation],
                        channel: ChannelMatrixSet, noise: NoiseProfile,
                        tol: float = 1e-6, gap: float = 1.0) -> NashResult:
    """Check the no-profitable-deviation property of a strategy profile.

    For each user the best response (rate-adaptive water-filling at full
    budget against the others' fixed allocations) is computed; the profile
    passes when no user can improve its rate by more than
    tol * max(1, current rate).
    """
    from . import waterfilling  # local import, waterfilling depends on this module

    k = channel.num_tones
    p = power_matrix(allocations, channel.num_users, k)
    w = channel.grid.widths
    rates, gains = np.empty((2, len(allocations)))
    for idx, alloc in enumerate(allocations):
        values, usable = _user_floor(alloc.user, p, channel, noise, gap)
        tones = usable.nonzero()[0]
        floors = values[tones]
        waterfilling._check_floor(floors)
        rates[idx] = _rate(p[alloc.user], values, usable, w)
        _check_budget(alloc.budget)
        best, _, _ = waterfilling._fill(tones, floors, w[tones], k, alloc.budget)
        gains[idx] = _rate(best, values, usable, w) - rates[idx]
    worst = float(gains.max()) if gains.size else 0.0
    ok = all(g <= tol * max(1.0, r) for g, r in zip(gains, rates))
    return NashResult(is_nash=bool(ok), worst_gain=worst, gains=gains)
