"""Centralised brute-force search over discretised power allocations.

Serves as ground truth at desk scale: every joint allocation of two users on
a handful of tones is enumerated on a per-tone power grid and the Pareto
frontier of the rate pairs is returned.  Distributed schemes can then be
checked for (near-)domination against it.

The rate pairs are built and filtered in blocks: each block goes through
the Pareto filter before the next one is built, so the working memory is
one block plus per-tone gathers, not the pair count, and the frontier is
the same, bit for bit, as one filter over all pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .channel import ChannelMatrixSet, NoiseProfile
from .game import _receivers


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

    With S steps per user, the (S, S) grid of pairs is never held whole.
    Each table is gathered once at user 1's steps, (levels, S) per tone,
    and the pairs come in blocks of _BLOCK_ROWS user-0 steps, each block
    filtered against the front of those before it by _pareto_front.  This
    is exact: every pair sums its tones in the same order with the same
    operations as a whole-grid sum, and a pair is dropped only when a pair
    of the grid beats it, so the frontier does not depend on the blocks.
    """
    budgets, _ = _receivers(channel, noise, gap, (), budgets, users=2)
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

    # columns[c][t][i, b]: the tone-t rate term of the user in column c of
    # the (r2, r1) convention, user 0 at level i and user 1 at steps[b].
    columns = []
    for user in (1, 0):
        other = 1 - user
        sig = g[:, user, user] * power[user]
        den = gap * (g[:, user, other] * power[other] + nz[user])
        table = w * np.log1p(sig / den)                    # (K, levels, levels)
        columns.append([table[t].take(steps[:, t], 1) for t in range(k)])
    return RateRegionCurve(method="oracle",
                           points=_pareto_front(_rate_blocks(steps, columns)))


# User-0 steps per block of rate pairs handed to _pareto_front.  At the
# two-user study's 496 steps a block's pairs take 254 KB, so a block and its
# gathers and masks stay in cache; of 16 to 64 rows, 32 timed fastest there.
_BLOCK_ROWS = 32


def _rate_blocks(steps: np.ndarray, columns: list):
    """(user 1, user 0) rate pairs of every pair of steps, user 0's step
    major, as (n, 2) blocks of _BLOCK_ROWS user-0 steps each.

    Every pair's rate sums its tones' terms in index order: a gather for
    tone 0, `+=` for each later tone, then one division by ln 2, as when
    the whole (S, S) grid is summed at once.  A block is column-major, so
    each column is written and read contiguously.
    """
    ln2 = np.log(2.0)
    for start in range(0, len(steps), _BLOCK_ROWS):
        rows = steps[start:start + _BLOCK_ROWS]
        points = np.empty((2, len(rows), len(steps)))
        for c, terms in enumerate(columns):
            total = terms[0].take(rows[:, 0], 0)
            for t in range(1, len(terms)):
                total += terms[t].take(rows[:, t], 0)
            np.divide(total, ln2, out=points[c])
        yield points.reshape(2, -1).T


def _pareto_front(blocks) -> np.ndarray:
    """Rows not weakly dominated by any other row (maximisation), over all
    rows of an iterable of (n, 2) blocks.

    Rows come out by descending x, one per x at most: the largest y among
    the rows sharing that x, kept when it beats the y of every row with a
    larger x.

    The blocks are filtered one at a time against a staircase, the front of
    the blocks before.  A row goes when the staircase's best x + y row has
    x at least as large and y larger, or else when a row of the staircase
    (found by a search of its x) has x and y at least as large; the front
    of the staircase and the rows left is the next staircase.  The first
    non-empty block, with no staircase yet, is cut by its own best x + y
    row.  A dropped row is off the front or equal to a row that stays, and
    every row that drops one is a row of the cloud, so the result is the
    same for any split into blocks.  Working memory is one block and the
    staircase.
    """
    front = np.empty((0, 2))
    fx = fy = -np.inf
    for block in blocks:
        x, y = block.T
        if not len(front) and len(block):
            fx, fy = block[np.argmax(x + y)]
        keep = (x > fx) | (y >= fy)
        x, y = x[keep], y[keep]
        # The staircase ascends in x and descends in y, so the first row
        # with x >= a row's x has the largest y of those; past the last x
        # there is none.
        stair = front[::-1]
        best_y = np.append(stair[:, 1], -np.inf)[np.searchsorted(stair[:, 0], x)]
        keep = best_y < y
        if keep.any():
            rest = np.column_stack((x[keep], y[keep]))
            front = _front(np.concatenate((front, rest)))
            fx, fy = front[np.argmax(front.sum(axis=1))]
    return front


def _front(points: np.ndarray) -> np.ndarray:
    """_pareto_front of one (n, 2) array, by one sort."""
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
