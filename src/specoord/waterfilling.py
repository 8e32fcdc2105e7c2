"""Water-filling power control and the iterative water-filling loop.

Single-user water-filling comes in two flavours: rate-adaptive (RA), which
spends a fixed budget to maximise rate, and fixed-margin (FM), which spends
the least power that reaches a target rate.  Both reduce the multi-user
problem to a single-user one through the effective noise, i.e. interference
plus noise referred to the user's own channel gain.

The iterative loop plays these best responses in sequence; its fixed points
are Nash equilibria of the underlying interference game.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from .channel import ChannelMatrixSet, FrequencyGrid, NoiseProfile
from .game import (AT_MOST_POWER, FULL_POWER, PowerAllocation,
                   _check_noise_shape, _check_power, power_matrix)

GAUSS_SEIDEL = "gauss-seidel"
JACOBI = "jacobi"


class InfeasibleError(ValueError):
    """A rate target cannot be met; carries the best achievable rate."""

    def __init__(self, message: str, max_achievable: float | None = None):
        super().__init__(message)
        self.max_achievable = max_achievable


@dataclass(frozen=True)
class EffectiveNoise:
    """Interference-plus-noise divided by the user's own gain, per tone.

    Tones where the user's direct gain is zero are flagged unusable; their
    value is stored as +inf so that allocation code naturally avoids them.
    """

    user: int
    values: np.ndarray
    usable: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        usable = np.asarray(self.usable, dtype=bool)
        values.flags.writeable = False
        usable.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "usable", usable)
        if values.shape != usable.shape or values.ndim != 1:
            raise ValueError("values and usable must be matching 1-D arrays")
        _check_floor(values, usable)


def _check_floor(values: np.ndarray, usable: np.ndarray) -> None:
    v = values[usable]
    if (v <= 0).any() or not np.isfinite(v).all():
        raise ValueError("usable effective noise must be finite and > 0")


@dataclass(frozen=True)
class IwfReport:
    """Outcome of an iterative water-filling run."""

    allocations: tuple
    iterations: int
    converged: bool
    changes: np.ndarray          # max per-tone power change after each sweep
    mode: str
    schedule: str
    shortfall_users: tuple = ()  # users whose FM target was unreachable at the end


def effective_noise(user: int, allocations: Sequence[PowerAllocation],
                    channel: ChannelMatrixSet, noise: NoiseProfile,
                    gap: float = 1.0) -> EffectiveNoise:
    """gap * (interference + noise) / direct_gain for one user.

    The user's own allocation, if present in `allocations`, is ignored.
    """
    if gap < 1:
        raise ValueError("gap must be >= 1")
    _check_noise_shape(channel, noise)
    p = power_matrix(allocations, channel.num_users, channel.num_tones)
    p[user] = 0.0
    direct = channel.direct_gains(user)
    usable = direct > 0
    values = _floor(channel.gains[:, user, :], p, direct, usable,
                    noise.values[user], gap)
    return EffectiveNoise(user=user, values=values, usable=usable)


def _floor(gains_in: np.ndarray, p: np.ndarray, direct: np.ndarray,
           usable: np.ndarray, noise_row: np.ndarray, gap: float) -> np.ndarray:
    """Effective noise values of one receiver on plain arrays.

    gains_in is the receiver's (K, N) slice of the gain stack and p the
    (N, K) power matrix with the receiver's own row zeroed.  Unusable
    tones get +inf.
    """
    interference = np.einsum("kj,jk->k", gains_in, p)
    values = np.full(direct.size, np.inf)
    values[usable] = gap * (interference[usable] + noise_row[usable]) / direct[usable]
    return values


def achievable_rate(power: np.ndarray, eff: EffectiveNoise,
                    grid: FrequencyGrid) -> float:
    """Rate of a power vector against an effective noise floor."""
    return _rate(power, eff.values, eff.usable, grid.widths)


def _rate(power: np.ndarray, values: np.ndarray, usable: np.ndarray,
          w: np.ndarray) -> float:
    with np.errstate(invalid="ignore"):
        ratio = np.where(usable, power / values, 0.0)
    return float(np.sum(w * np.log1p(ratio)) / np.log(2.0))


def waterfill_ra(eff: EffectiveNoise, budget: float,
                 grid: FrequencyGrid) -> tuple[PowerAllocation, float]:
    """Rate-adaptive water-filling: maximise rate spending the whole budget.

    Returns the allocation and the water level mu.  On active tones the
    per-Hz sum of noise floor and power density equals mu; inactive tones
    have a floor at or above it.  Solved exactly by sorting the per-Hz
    floors and picking the active set in closed form.
    """
    power, mu = _ra(eff.values, eff.usable, budget, grid.widths)
    return PowerAllocation(eff.user, power, budget, FULL_POWER), mu


def _ra(values: np.ndarray, usable: np.ndarray, budget: float,
        w: np.ndarray) -> tuple[np.ndarray, float]:
    """waterfill_ra on plain arrays: (power, mu)."""
    if budget < 0 or not np.isfinite(budget):
        raise ValueError("budget must be finite and >= 0")
    k = values.size
    if w.size != k:
        raise ValueError("effective noise does not match grid")
    idx = usable.nonzero()[0]
    if idx.size == 0:
        if budget > 0:
            raise InfeasibleError("no usable tones to allocate power on",
                                  max_achievable=0.0)
        return np.zeros(k), 0.0

    n_u, w_u = values[idx], w[idx]
    nu = n_u / w_u
    if budget == 0:
        return np.zeros(k), float(nu.min())

    order = nu.argsort(kind="stable")
    nu_s = nu[order]
    n_s = n_u[order]
    w_s = w_u[order]
    mu_candidates = (budget + n_s.cumsum()) / w_s.cumsum()
    # The feasible prefix is where the level clears the worst included floor.
    m = int((mu_candidates > nu_s).nonzero()[0][-1]) + 1
    active, w_act = idx[order[:m]], w_s[:m]
    w_sum = w_act.sum()
    mu = (budget + n_s[:m].sum()) / w_sum
    power = np.zeros(k)
    power[active] = mu * w_act - n_s[:m]
    # Remove the rounding residue by a uniform shift of the water level.
    deficit = budget - power.sum()
    power[active] += deficit * w_act / w_sum
    mu += deficit / w_sum
    np.maximum(power, 0.0, out=power)
    return power, float(mu)


def waterfill_fm(eff: EffectiveNoise, budget: float, target_rate: float,
                 grid: FrequencyGrid) -> tuple[PowerAllocation, float]:
    """Fixed-margin water-filling: cheapest allocation reaching target_rate.

    For a fixed active set of the m cheapest per-Hz floors the level solving
    sum(w log2(mu/nu)) = target is mu = 2^((target + sum(w log2 nu)) / sum(w));
    the correct m is the smallest one whose level fits under the next floor.
    The result keeps the water-filling shape and is therefore the
    minimum-power allocation for the target.  Raises InfeasibleError
    (carrying the best achievable rate) when the target exceeds the
    rate-adaptive rate at the full budget.
    """
    power, mu = _fm(eff.values, eff.usable, budget, target_rate, grid.widths)
    return PowerAllocation(eff.user, power, budget, AT_MOST_POWER), mu


def _fm(values: np.ndarray, usable: np.ndarray, budget: float,
        target_rate: float, w: np.ndarray) -> tuple[np.ndarray, float]:
    """waterfill_fm on plain arrays: (power, mu)."""
    if target_rate < 0:
        raise ValueError("target_rate must be >= 0")
    k = values.size
    idx = usable.nonzero()[0]
    if target_rate == 0:
        level = float((values[idx] / w[idx]).min()) if idx.size else 0.0
        return np.zeros(k), level
    if idx.size == 0:
        raise InfeasibleError("no usable tones", max_achievable=0.0)

    full, mu_cap = _ra(values, usable, budget, w)
    max_rate = _rate(full, values, usable, w)
    if target_rate > max_rate:
        raise InfeasibleError(
            f"target rate {target_rate} exceeds achievable {max_rate}",
            max_achievable=max_rate)

    if target_rate == max_rate:
        mu = mu_cap
    else:
        nu = values[idx] / w[idx]
        order = np.argsort(nu, kind="stable")
        nu_s = nu[order]
        w_s = w[idx][order]
        # Overflowing prefix levels are harmless: an inf level never fits
        # under the next floor, so those prefixes are skipped.
        with np.errstate(over="ignore"):
            levels = 2.0 ** ((target_rate + np.cumsum(w_s * np.log2(nu_s)))
                             / np.cumsum(w_s))
        fits = np.ones(nu_s.size, dtype=bool)
        fits[:-1] = levels[:-1] <= nu_s[1:]
        m = int(np.argmax(fits)) + 1
        mu = float(levels[m - 1])
    power = np.zeros(k)
    power[idx] = np.maximum(0.0, mu * w[idx] - values[idx])
    return power, float(mu)


def iterate_iwf(channel: ChannelMatrixSet, noise: NoiseProfile,
                budgets: Sequence[float], mode: str = "ra",
                targets: Sequence[float | None] | None = None,
                max_iter: int = 500, tol: float = 1e-10,
                schedule: str = GAUSS_SEIDEL,
                initial: Sequence[PowerAllocation] | None = None,
                gap: float = 1.0) -> IwfReport:
    """Iterated best-response water-filling over all users.

    mode "ra": every user spends its full budget to maximise rate.
    mode "fm": users with a target rate spend the least power achieving it
    (capped by their budget; an unreachable target degrades to full-budget
    RA play for that sweep); users whose target is None play RA.

    Users update in index order by default (Gauss-Seidel); schedule JACOBI
    makes all users respond to the previous sweep's allocations instead.
    Convergence is declared when the largest per-tone power change in a
    sweep drops to tol * max(budgets).  Non-convergence is reported in the
    result, not raised.
    """
    n, k = channel.num_users, channel.num_tones
    budgets = [float(b) for b in budgets]
    if len(budgets) != n:
        raise ValueError("need one budget per user")
    _check_noise_shape(channel, noise)
    if gap < 1:
        raise ValueError("gap must be >= 1")
    if mode not in ("ra", "fm"):
        raise ValueError("mode must be 'ra' or 'fm'")
    if schedule not in (GAUSS_SEIDEL, JACOBI):
        raise ValueError(f"unknown schedule {schedule!r}")
    if mode == "fm":
        if targets is None:
            raise ValueError("fm mode needs per-user targets")
        targets = list(targets)
        if len(targets) != n:
            raise ValueError("need one target (or None) per user")
    else:
        targets = [None] * n

    if initial is None:
        allocs = [PowerAllocation(i, np.zeros(k), budgets[i], AT_MOST_POWER)
                  for i in range(n)]
    else:
        allocs = list(initial)
        if sorted(a.user for a in allocs) != list(range(n)):
            raise ValueError("initial allocations must cover every user once")
        allocs.sort(key=lambda a: a.user)

    # The loop works on one (N, K) power matrix and plain arrays; the
    # dataclasses are built once, at return, with each user's last mode.
    p = power_matrix(allocs, n, k)
    modes: list[str | None] = [None] * n
    w = channel.grid.widths
    gains, noise_values = channel.gains, noise.values
    gains_in = [gains[:, i, :] for i in range(n)]
    direct = [channel.direct_gains(i) for i in range(n)]
    usable = [d > 0 for d in direct]
    changes = []
    converged = False
    iterations = 0
    shortfall: set[int] = set()
    for sweep in range(max_iter):
        basis = p.copy() if schedule == JACOBI else p
        delta = 0.0
        for i in range(n):
            own = basis[i].copy()
            basis[i] = 0.0
            values = _floor(gains_in[i], basis, direct[i], usable[i],
                            noise_values[i], gap)
            basis[i] = own
            _check_floor(values, usable[i])
            if targets[i] is None:
                power, _ = _ra(values, usable[i], budgets[i], w)
                modes[i] = FULL_POWER
                shortfall.discard(i)
            else:
                try:
                    power, _ = _fm(values, usable[i], budgets[i], targets[i], w)
                    modes[i] = AT_MOST_POWER
                    shortfall.discard(i)
                except InfeasibleError:
                    power, _ = _ra(values, usable[i], budgets[i], w)
                    modes[i] = FULL_POWER
                    shortfall.add(i)
            _check_power(power)
            delta = max(delta, float(np.abs(power - own).max()))
            p[i] = power
        changes.append(delta)
        iterations = sweep + 1
        if delta <= tol * max(max(budgets), 1e-300):
            converged = True
            break

    allocs = [a if m is None else PowerAllocation(i, p[i], budgets[i], m)
              for i, (a, m) in enumerate(zip(allocs, modes))]
    return IwfReport(allocations=tuple(allocs), iterations=iterations,
                     converged=converged, changes=np.array(changes),
                     mode=mode, schedule=schedule,
                     shortfall_users=tuple(sorted(shortfall)))
