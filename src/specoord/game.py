"""The Gaussian interference game: strategies, payoffs, and equilibrium checks.

Players share K tones.  A strategy for player i is a non-negative power
vector over the tones subject to a total-power budget; the payoff is the
Shannon rate with all interference treated as noise, optionally derated by
an SNR gap for practical coding schemes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
        if self.budget < 0:
            raise ValueError("budget must be >= 0")
        if self.mode not in (FULL_POWER, AT_MOST_POWER):
            raise ValueError(f"unknown mode {self.mode!r}")

    @property
    def total(self) -> float:
        return float(self.power.sum())


def _check_power(power: np.ndarray) -> None:
    if not np.isfinite(power).all() or (power < 0).any():
        raise ValueError("powers must be finite and non-negative")


@dataclass(frozen=True)
class GameOutcome:
    """Rates and allocations at the end of a play of the game."""

    rates: np.ndarray
    allocations: tuple
    iterations: int = 0
    converged: bool = True
    meta: dict = field(default_factory=dict)


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


def sinr_per_tone(user: int, allocations: Sequence[PowerAllocation],
                  channel: ChannelMatrixSet, noise: NoiseProfile) -> np.ndarray:
    """Received SINR of one user on every tone (no gap applied)."""
    p = power_matrix(allocations, channel.num_users, channel.num_tones)
    signal = channel.direct_gains(user) * p[user]
    interference = np.einsum("kj,jk->k", channel.gains[:, user, :], p)
    interference -= signal
    return signal / (interference + noise.values[user])


def capacity(user: int, allocations: Sequence[PowerAllocation],
             channel: ChannelMatrixSet, noise: NoiseProfile,
             gap: float = 1.0) -> float:
    """Achievable rate of one user, summed over tones.

    Per tone the rate is width * log2(1 + SINR / gap) where the SINR treats
    all other users' transmissions as Gaussian noise.  gap >= 1 is the
    linear SNR gap of the coding scheme (1 for Shannon capacity).
    """
    if gap < 1:
        raise ValueError("gap must be >= 1")
    s = sinr_per_tone(user, allocations, channel, noise)
    return float(np.sum(channel.grid.widths * np.log1p(s / gap)) / np.log(2.0))


def validate_strategy(alloc: PowerAllocation, mode: str | None = None) -> list[str]:
    """Return human-readable constraint violations (empty list when valid)."""
    mode = alloc.mode if mode is None else mode
    problems = []
    if np.any(alloc.power < 0):
        problems.append("negative per-tone power")
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

    gains = np.empty(len(allocations))
    for idx, alloc in enumerate(allocations):
        current = capacity(alloc.user, allocations, channel, noise, gap)
        eff = waterfilling.effective_noise(alloc.user, allocations, channel, noise, gap)
        best, _ = waterfilling.waterfill_ra(eff, alloc.budget, channel.grid)
        best_rate = waterfilling.achievable_rate(best.power, eff, channel.grid)
        gains[idx] = best_rate - current
    worst = float(gains.max()) if gains.size else 0.0
    rates = np.array([capacity(a.user, allocations, channel, noise, gap)
                      for a in allocations])
    ok = all(g <= tol * max(1.0, r) for g, r in zip(gains, rates))
    return NashResult(is_nash=bool(ok), worst_gain=worst, gains=gains)


def outcome_for(allocations: Sequence[PowerAllocation], channel: ChannelMatrixSet,
                noise: NoiseProfile, gap: float = 1.0, iterations: int = 0,
                converged: bool = True, **meta) -> GameOutcome:
    rates = np.array([capacity(a.user, allocations, channel, noise, gap)
                      for a in allocations])
    return GameOutcome(rates=rates, allocations=tuple(allocations),
                       iterations=iterations, converged=converged, meta=dict(meta))
