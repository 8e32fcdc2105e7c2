"""Centralised brute-force search over discretised power allocations.

Serves as ground truth at desk scale: every joint allocation of two users on
a handful of tones is enumerated on a per-tone power grid and the Pareto
frontier of the rate pairs is returned.  Distributed schemes can then be
checked for (near-)domination against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .channel import ChannelMatrixSet, NoiseProfile
from .game import _check_inputs


class SearchSpaceError(ValueError):
    """The raw search space levels**(2K) would exceed _SEARCH_CAP."""


_SEARCH_CAP = 20_000_000


@dataclass(frozen=True)
class RateRegionCurve:
    """Points of a rate-region trace, sorted by the first column.

    columns names the point coordinates; by convention the first column is
    the strong (near) user's rate "r2" and the second the weak (far) user's
    rate "r1".  Bound curves may carry three columns (r2, r1_lo, r1_hi).
    """

    method: str
    points: np.ndarray
    columns: tuple = ("r2", "r1")

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.shape[1] != len(self.columns):
            raise ValueError("points width does not match columns")
        pts = pts[np.argsort(pts[:, 0], kind="stable")]
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)


def brute_force_pareto(channel: ChannelMatrixSet, noise: NoiseProfile,
                       budgets, levels: int = 11, gap: float = 1.0) -> RateRegionCurve:
    """Pareto frontier of the two-user rate region on a power grid.

    Each user's per-tone power is restricted to {0, P/(levels-1), ..., P}
    with the total at most P.  The raw search space levels**(2K) must stay
    under _SEARCH_CAP.  Returned points are (user 1 rate, user 0 rate) pairs,
    i.e. the strong-user-first convention used across the package.

    A tone's rate term depends only on the two power levels used on it, so
    each user's rate grid is a sum over tones of a (levels, levels) table
    gathered at every pair's level indices: K * levels**2 logarithms per
    user instead of one per tone and pair.  The tones are summed in index
    order.  For K <= 2 the frontier is bit-identical to a broadcast over
    all pairs summed by `einsum`; for more tones `einsum`'s summation order
    depends on the numpy build, and the two agree to rounding.
    """
    budgets = _check_inputs(channel, noise, gap, budgets, users=2)
    k = channel.num_tones
    if levels < 2:
        raise ValueError("levels must be >= 2")
    if levels ** (2 * k) > _SEARCH_CAP:
        raise SearchSpaceError(
            f"{levels}**{2 * k} allocations exceed the cap {_SEARCH_CAP}; "
            "reduce the tone count or the number of levels")

    steps = np.array(list(product(range(levels), repeat=k)))
    steps = steps[steps.sum(axis=1) <= levels - 1]
    # User 0's power levels run along axis 0 of a tone's table, user 1's
    # along axis 1, so both users' tables index as (user 0 level, user 1 level).
    level = [np.arange(levels) * (b / (levels - 1)) for b in budgets]
    power = [level[0][:, None], level[1][None, :]]

    w = channel.grid.widths[:, None, None]
    g = channel.gains[:, :, :, None, None]
    nz = noise.values[:, :, None, None]

    # points[a, b]: (user 1, user 0) rates, the (r2, r1) convention, with
    # user 0 at steps[a] and user 1 at steps[b].
    points = np.empty((len(steps), len(steps), 2))
    for user, column in ((1, 0), (0, 1)):
        other = 1 - user
        sig = g[:, user, user] * power[user]
        den = gap * (g[:, user, other] * power[other] + nz[user])
        table = w * np.log1p(sig / den)                    # (K, levels, levels)
        # Columns first, so the large gather copies whole rows.
        total = table[0].take(steps[:, 0], 1).take(steps[:, 0], 0)
        for t in range(1, k):
            total += table[t].take(steps[:, t], 1).take(steps[:, t], 0)
        np.divide(total, np.log(2.0), out=points[..., column])
    return RateRegionCurve(method="oracle",
                           points=_pareto_front(points.reshape(-1, 2)))


# Rows in the sample whose front pre-filters _pareto_front.
_SAMPLE_ROWS = 1024


def _pareto_front(points: np.ndarray) -> np.ndarray:
    """Rows not weakly dominated by any other row (maximisation).

    Rows come out by descending x, one per x at most: the largest y among
    the rows sharing that x, kept when it beats the y of every row with a
    larger x.

    Few rows of a large cloud can reach the front.  So the front of a
    strided sample of about _SAMPLE_ROWS rows first drops every row that
    one of its rows beats (x at least as large, y larger): one comparison
    against the sample's best x + y row, then a search of the sample front
    for the rest.  A beaten row is off the front, and the row beating it is
    a row of the cloud, so the result is the same for any sample.
    """
    sample = _front(points[::max(1, len(points) // _SAMPLE_ROWS)])[::-1]
    fx, fy = sample[np.argmax(sample.sum(axis=1))]
    rest = points[~((points[:, 0] <= fx) & (points[:, 1] < fy))]
    # Sample front rows ascend in x and descend in y, so the first one with
    # x >= a row's x has the largest y of those; past the last x there is none.
    above = np.searchsorted(sample[:, 0], rest[:, 0])
    best_y = np.append(sample[:, 1], -np.inf)[above]
    return _front(rest[~(best_y > rest[:, 1])])


def _front(points: np.ndarray) -> np.ndarray:
    """_pareto_front by one sort of the whole cloud."""
    order = np.argsort(points[:, 0])
    x, y = points[order, 0], points[order, 1]
    starts = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])
    x_desc = x[starts][::-1]
    y_desc = np.maximum.reduceat(y, starts)[::-1]
    best_before = np.r_[-np.inf, np.maximum.accumulate(y_desc)[:-1]]
    keep = y_desc > best_before
    return np.column_stack((x_desc[keep], y_desc[keep]))


def dominates(a: RateRegionCurve, b: RateRegionCurve, tol: float = 0.0) -> bool:
    """True when every point of b is weakly dominated by some point of a.

    Domination is coordinate-wise: for each b point there must exist an a
    point at least as large in both coordinates, up to the additive tol.
    """
    pa, pb = a.points[:, :2], b.points[:, :2]
    if pa.size == 0:
        return pb.size == 0
    margins = np.minimum(pa[:, None, 0] - pb[None, :, 0],
                         pa[:, None, 1] - pb[None, :, 1])
    return bool(np.all(margins.max(axis=0) >= -tol))
