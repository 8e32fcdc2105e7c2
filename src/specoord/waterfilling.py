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
                   _check_budget, _check_inputs, _floor, _rate,
                   _user_floor, power_matrix)

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
        _check_floor(values[usable])


def _check_floor(floors: np.ndarray) -> None:
    """Effective noise on usable tones must be finite and > 0."""
    # min and max are nan when any entry is, which fails both tests.
    if floors.size and not (floors.min() > 0 and floors.max() < np.inf):
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
    p = power_matrix(allocations, channel.num_users, channel.num_tones)
    return EffectiveNoise(user, *_user_floor(user, p, channel, noise, gap))


def achievable_rate(power: np.ndarray, eff: EffectiveNoise,
                    grid: FrequencyGrid) -> float:
    """Rate of a power vector against an effective noise floor."""
    return _rate(power, eff.values, eff.usable, grid.widths)


def waterfill_ra(eff: EffectiveNoise, budget: float,
                 grid: FrequencyGrid) -> tuple[PowerAllocation, float]:
    """Rate-adaptive water-filling: maximise rate spending the whole budget.

    Returns the allocation and the water level mu.  On active tones the
    per-Hz sum of noise floor and power density equals mu; inactive tones
    have a floor at or above it.  Solved exactly by sorting the per-Hz
    floors and picking the active set in closed form.
    """
    _check_budget(budget)
    w = grid.widths
    if w.size != eff.values.size:
        raise ValueError("effective noise does not match grid")
    tones = eff.usable.nonzero()[0]
    power, mu, _ = _fill(tones, eff.values[tones], w[tones], w.size, budget)
    return PowerAllocation(eff.user, power, budget, FULL_POWER), mu


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
    if not target_rate >= 0:  # also rejects nan
        raise ValueError("target_rate must be >= 0")
    w = grid.widths
    tones = eff.usable.nonzero()[0]
    if target_rate > 0:
        if tones.size == 0:
            raise InfeasibleError("no usable tones", max_achievable=0.0)
        _check_budget(budget)
        if w.size != eff.values.size:
            raise ValueError("effective noise does not match grid")
    power, mu, short = _fill(tones, eff.values[tones], w[tones],
                             eff.values.size, budget, target_rate)
    if short is not None:
        raise InfeasibleError(
            f"target rate {target_rate} exceeds achievable {short}",
            max_achievable=short)
    return PowerAllocation(eff.user, power, budget, AT_MOST_POWER), mu


def _fill(tones: np.ndarray, floors: np.ndarray, widths: np.ndarray, k: int,
          budget: float, target: float | None = None
          ) -> tuple[np.ndarray, float, float | None]:
    """The one water-filling core, on plain arrays.

    tones are the usable tone indices out of k tones; floors and widths
    hold the effective noise and the tone widths on them.  With no target
    it is the rate-adaptive response to the whole budget; with a target,
    the fixed-margin response, whose level comes from the same sort of the
    per-Hz floors.  Returns (power over the k tones, mu, short).  short is
    None unless the target exceeds the full-budget rate: it is then that
    rate, and power and mu are the full-budget response.  Inputs are not
    validated here; the callers check budgets, targets and floors.
    """
    if target == 0:
        return (np.zeros(k),
                float((floors / widths).min()) if tones.size else 0.0, None)
    unmet = None if target is None else 0.0
    if tones.size == 0:
        if budget > 0:
            raise InfeasibleError("no usable tones to allocate power on",
                                  max_achievable=0.0)
        return np.zeros(k), 0.0, unmet
    nu = floors / widths
    if budget == 0:
        return np.zeros(k), float(nu.min()), unmet

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
    w_sum = float(w_act.sum())
    mu = (budget + float(n_act.sum())) / w_sum
    power = np.zeros(k)
    active_power = mu * w_act - n_act
    power[active] = active_power
    # Remove the rounding residue by a uniform shift of the water level.
    deficit = budget - float(power.sum())
    active_power += deficit * w_act / w_sum
    power[active] = active_power
    mu += deficit / w_sum
    np.maximum(power, 0.0, out=power)
    if target is None:
        return power, float(mu), None

    # The full-budget rate, summed over all k tones as game._rate sums it.
    terms = np.zeros(k)
    terms[tones] = widths * np.log1p(power[tones] / floors)
    max_rate = float(np.sum(terms) / np.log(2.0))
    if target > max_rate:
        return power, float(mu), max_rate
    if target != max_rate:
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
    result, not raised.  Budgets, targets, tol and max_iter are checked at
    entry, so a bad value raises even with max_iter=0.
    """
    n, k = channel.num_users, channel.num_tones
    budgets = [float(b) for b in budgets]
    if len(budgets) != n:
        raise ValueError("need one budget per user")
    for i, b in enumerate(budgets):
        _check_budget(b, f"budgets[{i}]")
    _check_inputs(channel, noise, gap)
    if mode not in ("ra", "fm"):
        raise ValueError("mode must be 'ra' or 'fm'")
    if schedule not in (GAUSS_SEIDEL, JACOBI):
        raise ValueError(f"unknown schedule {schedule!r}")
    if not max_iter >= 0:
        raise ValueError("max_iter must be >= 0")
    if not tol >= 0:  # also rejects nan
        raise ValueError("tol must be >= 0")
    if mode == "fm":
        if targets is None:
            raise ValueError("fm mode needs per-user targets")
        targets = list(targets)
        if len(targets) != n:
            raise ValueError("need one target (or None) per user")
        for i, t in enumerate(targets):
            if t is not None and not t >= 0:
                raise ValueError(f"targets[{i}] must be >= 0")
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
    # Each user's usable tones, and its widths, direct gains and noise on
    # them, are fixed for the solve; they are views when every tone is usable.
    p = power_matrix(allocs, n, k)
    modes: list[str | None] = [None] * n
    w = channel.grid.widths
    gains, noise_values = channel.gains, noise.values
    users = []
    for i in range(n):
        direct, noise_row = gains[:, i, i], noise_values[i]
        tones = (direct > 0).nonzero()[0]
        if tones.size == k:
            users.append((gains[:, i, :], tones, w, direct, noise_row))
        else:
            users.append((gains[:, i, :], tones, w[tones], direct[tones],
                          noise_row[tones]))
    changes = []
    converged = False
    iterations = 0
    shortfall: set[int] = set()
    for sweep in range(max_iter):
        basis = p.copy() if schedule == JACOBI else p
        delta = 0.0
        for i, (gains_in, tones, widths, direct, noise_row) in enumerate(users):
            own = basis[i].copy()
            basis[i] = 0.0
            floors = _floor(gains_in, basis, tones, direct, noise_row, gap)
            basis[i] = own
            _check_floor(floors)
            power, _, short = _fill(tones, floors, widths, k, budgets[i],
                                    targets[i])
            if short is None:
                modes[i] = FULL_POWER if targets[i] is None else AT_MOST_POWER
                shortfall.discard(i)
            else:  # an unreachable target falls back to full-budget play
                modes[i] = FULL_POWER
                shortfall.add(i)
            # The core clips powers at 0, so only a nan or inf power can be
            # invalid, and either one makes the step non-finite.
            step = float(np.abs(power - own).max())
            if not step < np.inf:
                raise ValueError("powers must be finite and non-negative")
            delta = max(delta, step)
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
