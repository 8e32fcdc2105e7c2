"""Water-filling power control and the iterative water-filling loop.

Single-user water-filling comes in two flavours: rate-adaptive (RA), which
spends a fixed budget to maximise rate, and fixed-margin (FM), which spends
the least power that reaches a target rate.  Both reduce the multi-user
problem to a single-user one through the effective noise, i.e. interference
plus noise referred to the user's own channel gain; both, and the loop, run
on the receiver kernel of the game module.

The iterative loop plays these best responses in sequence; its fixed points
are Nash equilibria of the underlying interference game.  It runs on the
(N, K) power matrix, except for two users on at most two tones that both
play rate-adaptive (mode "ra", or "fm" with no targets), as in the
symmetric two-band game: there the sweeps run on Python floats, with the
same bits.  With two users, the floor of a tone has one non-trivial
product, the other user's power times its crosstalk gain; the matrix
path's einsum only adds the exact zero of the user's own row to it, which
no summation order and no fused multiply-add can round.  The fill is the
kernel's two-tone closed form, exact on any numpy (see the game module).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from .channel import ChannelMatrixSet, FrequencyGrid, NoiseProfile
from .game import (_BAD_FLOOR, _BAD_POWER, _NO_TONES, AT_MOST_POWER,
                   FULL_POWER, InfeasibleError, PowerAllocation, _check_budget,
                   _check_floor, _check_inputs, _fill, _floor, _pair, _rate,
                   _receiver, power_matrix)

GAUSS_SEIDEL = "gauss-seidel"
JACOBI = "jacobi"
# IWF's default sweep limit and convergence tolerance (relative to the
# largest budget), shared by every IWF loop.
MAX_ITER = 500
TOL = 1e-10


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
    rx = _receiver(channel, noise, user, gap)
    values = np.full(channel.num_tones, np.inf)
    usable = np.zeros(channel.num_tones, dtype=bool)
    values[rx[1]], usable[rx[1]] = _floor(user, p, rx, gap), True
    return EffectiveNoise(user, values, usable)


def achievable_rate(power: np.ndarray, eff: EffectiveNoise,
                    grid: FrequencyGrid) -> float:
    """Rate of a power vector against an effective noise floor."""
    if grid.widths.size != eff.values.size:
        raise ValueError("effective noise does not match grid")
    if np.shape(power) != eff.values.shape:
        raise ValueError("power does not match effective noise")
    tones = eff.usable.nonzero()[0]
    return _rate(power, tones, eff.values[tones], grid.widths[tones])


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
    if w.size != eff.values.size:
        raise ValueError("effective noise does not match grid")
    tones = eff.usable.nonzero()[0]
    if target_rate > 0:
        if tones.size == 0:
            raise InfeasibleError("no usable tones", max_achievable=0.0)
        _check_budget(budget)
    power, mu, short = _fill(tones, eff.values[tones], w[tones], w.size,
                             budget, target_rate)
    if short is not None:
        raise InfeasibleError(
            f"target rate {target_rate} exceeds achievable {short}",
            max_achievable=short)
    return PowerAllocation(eff.user, power, budget, AT_MOST_POWER), mu


def _step(power: np.ndarray, old: np.ndarray) -> float:
    """Largest per-tone change of a best response from old to power."""
    # The core clips powers at 0, so only a nan or inf power can be
    # invalid, and either one makes the step non-finite.
    step = float(np.maximum.reduce(np.abs(power - old)))
    if not step < np.inf:
        raise ValueError(_BAD_POWER)
    return step


def _pair_sweeps(receivers: list, p: list, budgets: list, gap: float,
                 max_iter: int, limit: float, jacobi: bool) -> list:
    """iterate_iwf's sweeps for two rate-adaptive users on at most two
    tones, on Python floats: p holds the two power rows as lists and is
    updated in place; returns the changes of the sweeps.

    Each step runs the IEEE operations of _floor, _fill and _step in the
    same order, and raises their errors.  The floor of a tone has one
    non-trivial product, the other user's; einsum only adds the exact zero
    of the own one to it.  The fill is _pair, the closed form _fill takes
    on two tones.  Both checks test every tone, as the reductions they
    replace do: Python's max and min drop a nan or not by where it stands.
    """
    k = len(p[0])
    users = []
    for i, (gains_in, tones, widths, direct, noise_row) in enumerate(receivers):
        users.append((i, tones.tolist(), gains_in[tones, 1 - i].tolist(),
                      direct.tolist(), noise_row.tolist(), widths.tolist(),
                      budgets[i]))
    changes = []
    for _ in range(max_iter):
        basis = list(p) if jacobi else p
        delta = 0.0
        for i, tones, cross, direct, noise_row, widths, budget in users:
            other = basis[1 - i]
            floors = []
            for t, g, d, z in zip(tones, cross, direct, noise_row):
                f = gap * (g * other[t] + z) / d
                if not 0.0 < f < math.inf:
                    raise ValueError(_BAD_FLOOR)
                floors.append(f)
            power = [0.0] * k
            if budget > 0:
                if not tones:
                    raise InfeasibleError(_NO_TONES, max_achievable=0.0)
                active, values, _ = _pair(tones, floors, widths, budget)
                for t, v in zip(active, values):
                    power[t] = v
            for new, old in zip(power, p[i]):
                step = abs(new - old)
                if not step < math.inf:
                    raise ValueError(_BAD_POWER)
                if step > delta:
                    delta = step
            p[i] = power
        changes.append(delta)
        if delta <= limit:
            break
    return changes


def iterate_iwf(channel: ChannelMatrixSet, noise: NoiseProfile,
                budgets: Sequence[float], mode: str = "ra",
                targets: Sequence[float | None] | None = None,
                max_iter: int = MAX_ITER, tol: float = TOL,
                schedule: str = GAUSS_SEIDEL,
                initial: Sequence[PowerAllocation] | None = None,
                gap: float = 1.0) -> IwfReport:
    """Iterated best-response water-filling over all users.

    mode "ra": every user spends its full budget to maximise rate.
    mode "fm": users with a target rate spend the least power achieving it
    (capped by their budget; an unreachable target degrades to full-budget
    RA play for that sweep); users whose target is None play RA.  Targets
    are refused outside fm mode.

    Users update in index order by default (Gauss-Seidel); schedule JACOBI
    makes all users respond to the previous sweep's allocations instead.
    Convergence is declared when the largest per-tone power change in a
    sweep drops to tol * max(budgets).  Non-convergence is reported in the
    result, not raised.  Budgets, targets, tol and max_iter are checked at
    entry, so a bad value raises even with max_iter=0, which returns the
    caller's initial allocations.

    Two users on at most two tones with no targets (mode "ra", or "fm"
    with both targets None) sweep on Python floats instead of the (N, K)
    matrix, which is exact: each floor has one non-trivial product per
    tone, and the fill is the same closed form.  The result, and any
    error raised, is the same in every bit; only numpy's overflow
    warnings, which the float loop does not give, are left out.
    """
    n, k = channel.num_users, channel.num_tones
    budgets = _check_inputs(channel, noise, gap, budgets)
    receivers = [_receiver(channel, noise, i, gap) for i in range(n)]
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
        if targets is not None:
            raise ValueError("targets need mode 'fm'")
        targets = [None] * n

    if initial is None:
        allocs = [PowerAllocation(i, np.zeros(k), budgets[i], AT_MOST_POWER)
                  for i in range(n)]
    else:
        allocs = list(initial)
        if sorted(a.user for a in allocs) != list(range(n)):
            raise ValueError("initial allocations must cover every user once")
        allocs.sort(key=lambda a: a.user)

    # The loop works on one (N, K) power matrix and each receiver's plain
    # arrays, or, for two rate-adaptive users on at most two tones, on
    # Python floats; the dataclasses are built once, at return, with each
    # user's last mode.
    p = power_matrix(allocs, n, k)
    limit = tol * max(max(budgets), 1e-300)
    modes: list[str | None] = [None] * n
    shortfall: set[int] = set()
    if n == 2 and k <= 2 and all(t is None for t in targets):
        p = p.tolist()
        changes = _pair_sweeps(receivers, p, budgets, gap, max_iter, limit,
                               schedule == JACOBI)
        if changes:
            modes = [FULL_POWER] * n
    else:
        changes = []
        for _ in range(max_iter):
            basis = p.copy() if schedule == JACOBI else p
            delta = 0.0
            for i, rx in enumerate(receivers):
                floors = _floor(i, basis, rx, gap)
                power, _, short = _fill(rx[1], floors, rx[2], k, budgets[i],
                                        targets[i])
                if short is None:
                    modes[i] = (FULL_POWER if targets[i] is None
                                else AT_MOST_POWER)
                    shortfall.discard(i)
                else:  # an unreachable target falls back to full-budget play
                    modes[i] = FULL_POWER
                    shortfall.add(i)
                delta = max(delta, _step(power, p[i]))
                p[i] = power
            changes.append(delta)
            if delta <= limit:
                break

    allocs = [a if m is None else PowerAllocation(i, p[i], budgets[i], m)
              for i, (a, m) in enumerate(zip(allocs, modes))]
    return IwfReport(allocations=tuple(allocs), iterations=len(changes),
                     converged=bool(changes) and changes[-1] <= limit,
                     changes=np.array(changes),
                     mode=mode, schedule=schedule,
                     shortfall_users=tuple(sorted(shortfall)))
