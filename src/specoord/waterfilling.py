"""Water-filling power control and the iterative water-filling loop.

Single-user water-filling comes in two flavours: rate-adaptive (RA), which
spends a fixed budget to maximise rate, and fixed-margin (FM), which spends
the least power that reaches a target rate.  Both reduce the multi-user
problem to a single-user one through the effective noise, i.e. interference
plus noise referred to the user's own channel gain; both, and the loop, run
on the receiver kernel of the game module.

The iterative loop plays these best responses in sequence; its fixed points
are Nash equilibria of the underlying interference game.  It runs on the
(N, K) power matrix, except for two users on two tones that both can use
and that both play rate-adaptive (mode "ra", or "fm" with no targets), as
in the symmetric two-band game: there the sweeps run on Python floats, one
scalar at a time (_pair_sweeps), with the same bits on any numpy.  With two
users, the floor of a tone has one non-trivial product, the other user's
power times its crosstalk gain; the matrix path's einsum only adds the
exact zero of the user's own row to it, which no summation order and no
fused multiply-add can round.  The fill is the kernel's sorted-prefix fill
written out for two tones (a tie keeps their order, as a stable sort does):
each sum that path takes (both running sums, the active widths and floors,
and the two-tone power vector) has at most one non-trivial addition, which
no summation grouping can reorder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from .channel import (ChannelMatrixSet, FrequencyGrid, NoiseProfile,
                      _check_range)
from .game import (_BAD_FLOOR, _BAD_POWER, AT_MOST_POWER, FULL_POWER,
                   InfeasibleError, PowerAllocation, _check_budget,
                   _check_target, _fill, _floor, _rate, _receivers,
                   power_matrix)

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
        _check_range(values[usable], _BAD_FLOOR, positive=True)


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
    _, (rx,) = _receivers(channel, noise, gap, [user])
    values = np.full(channel.num_tones, np.inf)
    usable = np.zeros(channel.num_tones, dtype=bool)
    values[rx.tones], usable[rx.tones] = _floor(p, rx, gap), True
    return EffectiveNoise(user, values, usable)


def _usable(eff: EffectiveNoise, grid: FrequencyGrid) -> tuple:
    """eff's usable tones, with their floors and widths on grid."""
    w = grid.widths
    if w.size != eff.values.size:
        raise ValueError("effective noise does not match grid")
    tones = eff.usable.nonzero()[0]
    return tones, eff.values[tones], w[tones]


def _check_ratio(value, floors: np.ndarray, name: str) -> None:
    """The finite-rate rule on an effective noise: value / floor is finite
    on every usable tone, value a budget or the powers on those tones.
    The rate of a power at most value then stays finite."""
    with np.errstate(over="ignore"):
        ratio = value / floors
    _check_range(ratio, f"{name} is too large: {name} / floor overflows on a "
                 "usable tone")


def achievable_rate(power: np.ndarray, eff: EffectiveNoise,
                    grid: FrequencyGrid) -> float:
    """Rate of a power vector against an effective noise floor."""
    tones, floors, widths = _usable(eff, grid)
    if np.shape(power) != eff.values.shape:
        raise ValueError("power does not match effective noise")
    power = np.asarray(power, dtype=float)
    _check_range(power, _BAD_POWER)
    _check_ratio(power[tones], floors, "power")
    return _rate(power, tones, floors, widths)


def waterfill_ra(eff: EffectiveNoise, budget: float,
                 grid: FrequencyGrid) -> tuple[PowerAllocation, float]:
    """Rate-adaptive water-filling: maximise rate spending the whole budget.

    Returns the allocation and the water level mu.  On active tones the
    per-Hz sum of noise floor and power density equals mu; inactive tones
    have a floor at or above it.  Solved exactly by sorting the per-Hz
    floors and picking the active set in closed form.
    """
    _check_budget(budget)
    usable = _usable(eff, grid)
    _check_ratio(budget, usable[1], "budget")
    power, mu, _ = _fill(*usable, eff.values.size, budget)
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
    _check_target(target_rate)
    usable = _usable(eff, grid)
    if target_rate > 0:
        if usable[0].size == 0:
            raise InfeasibleError("no usable tones", max_achievable=0.0)
        _check_budget(budget)
        _check_ratio(budget, usable[1], "budget")
    power, mu, short = _fill(*usable, eff.values.size, budget, target_rate)
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
    """iterate_iwf's sweeps for two rate-adaptive users on two tones that
    both can use, on Python floats: p holds the two power rows as lists and
    is updated in place; returns the changes of the sweeps.

    Each step runs the IEEE operations of _floor, _fill and _step in the
    same order, on scalars, and raises their errors in user order (see the
    module docstring); both checks test every tone, as those reductions do.
    """
    # Per user: its index, (crosstalk, direct, noise, width) per tone, budget.
    users = [(i, *zip(g[:, 1 - i].tolist(), d.tolist(), z.tolist(),
                      w.tolist()), budgets[i]) for g, _, w, d, z, i in receivers]
    inf = math.inf
    changes = []
    for _ in range(max_iter):
        basis = (p[0], p[1]) if jacobi else p
        delta = 0.0
        for i, (g0, d0, z0, w0), (g1, d1, z1, w1), budget in users:
            other = basis[1 - i]
            f0 = gap * (g0 * other[0] + z0) / d0
            f1 = gap * (g1 * other[1] + z1) / d1
            if not (0.0 < f0 < inf and 0.0 < f1 < inf):
                raise ValueError(_BAD_FLOOR)
            swap = f1 / w1 < f0 / w0  # a tie keeps the order, as a stable sort
            if swap:
                f0, w0, f1, w1 = f1, w1, f0, w0
            a = b = 0.0  # the powers on the cheaper tone and on the other
            if budget > 0:
                # The second tone is active when the two-tone level clears
                # its floor; the level then moves by the deficit's share.
                if (budget + (f0 + f1)) / (w0 + w1) > f1 / w1:
                    w_sum = w0 + w1
                    mu = (budget + (f0 + f1)) / w_sum
                    a, b = mu * w0 - f0, mu * w1 - f1
                    deficit = budget - (a + b)
                    b += deficit * w1 / w_sum
                    b = b if b > 0.0 or b != b else 0.0  # np.maximum(b, 0.0)
                else:
                    w_sum = w0
                    a = (budget + f0) / w_sum * w0 - f0
                    deficit = budget - a
                a += deficit * w0 / w_sum
                a = a if a > 0.0 or a != a else 0.0
            old = p[i]
            new = p[i] = [b, a] if swap else [a, b]
            s0, s1 = abs(new[0] - old[0]), abs(new[1] - old[1])
            if not (s0 < inf and s1 < inf):
                raise ValueError(_BAD_POWER)
            delta = max(delta, s0, s1)
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

    Two users on two tones that both can use, with no targets (mode "ra",
    or "fm" with both targets None), sweep on Python floats instead of the
    (N, K) matrix, which is exact (see the module docstring).  The result,
    and any error raised, is the same in every bit; only numpy's overflow
    warnings, which the float loop does not give, are left out.
    """
    n, k = channel.num_users, channel.num_tones
    budgets, receivers = _receivers(channel, noise, gap, range(n), budgets)
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
            if t is not None:
                _check_target(t, f"targets[{i}]")
    else:
        if targets is not None:
            raise ValueError("targets need mode 'fm'")
        targets = [None] * n

    if initial is None:
        p = np.zeros((n, k))
    else:
        allocs = sorted(initial, key=lambda a: a.user)
        if [a.user for a in allocs] != list(range(n)):
            raise ValueError("initial allocations must cover every user once")
        p = power_matrix(allocs, n, k)

    # The loop works on one (N, K) power matrix and each receiver's plain
    # arrays, or, for two rate-adaptive users on two usable tones, on
    # Python floats; the dataclasses are built once, at return, in the mode
    # of each user's last fill.
    limit = tol * max(max(budgets), 1e-300)
    short = [False] * n  # whether the user's last fill fell short of its target
    if (n == 2 and k == 2 and all(rx.tones.size == 2 for rx in receivers)
            and all(t is None for t in targets)):
        p = p.tolist()
        changes = _pair_sweeps(receivers, p, budgets, gap, max_iter, limit,
                               schedule == JACOBI)
    else:
        changes = []
        for _ in range(max_iter):
            basis = p.copy() if schedule == JACOBI else p
            delta = 0.0
            for i, rx in enumerate(receivers):
                floors = _floor(basis, rx, gap)
                # An unreachable target falls back to full-budget play.
                power, _, missed = _fill(rx.tones, floors, rx.widths, k,
                                         budgets[i], targets[i])
                short[i] = missed is not None
                delta = max(delta, _step(power, p[i]))
                p[i] = power
            changes.append(delta)
            if delta <= limit:
                break

    if changes or initial is None:  # no sweep: zero AT_MOST_POWER allocations
        full = [bool(changes) and (t is None or s) for t, s in zip(targets, short)]
        allocs = [PowerAllocation(i, p[i], budgets[i],
                                  FULL_POWER if full[i] else AT_MOST_POWER)
                  for i in range(n)]
    return IwfReport(allocations=tuple(allocs), iterations=len(changes),
                     converged=bool(changes) and changes[-1] <= limit,
                     changes=np.array(changes),
                     mode=mode, schedule=schedule,
                     shortfall_users=tuple(i for i in range(n) if short[i]))
