"""Centralised brute-force search over discretised power allocations.

Serves as ground truth at desk scale: every joint allocation of two users on
a handful of tones is enumerated on a per-tone power grid and the Pareto
frontier of the rate pairs is returned.  Distributed schemes can then be
checked for (near-)domination against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .channel import ChannelMatrixSet, NoiseProfile
from .game import _check_inputs


class SearchSpaceError(ValueError):
    """The enumeration would exceed the configured size cap."""


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
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.shape[1] != len(self.columns):
            raise ValueError("points width does not match columns")
        pts = pts[np.argsort(pts[:, 0], kind="stable")]
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)


def brute_force_pareto(channel: ChannelMatrixSet, noise: NoiseProfile,
                       budgets, levels: int = 11, gap: float = 1.0,
                       cap: int = 20_000_000) -> RateRegionCurve:
    """Pareto frontier of the two-user rate region on a power grid.

    Each user's per-tone power is restricted to {0, P/(levels-1), ..., P}
    with the total at most P.  The raw search space levels**(2K) must stay
    under `cap`.  Returned points are (user 1 rate, user 0 rate) pairs,
    i.e. the strong-user-first convention used across the package.
    """
    n, k = channel.num_users, channel.num_tones
    if n != 2:
        raise ValueError("the brute-force oracle handles exactly 2 users")
    _check_inputs(channel, noise, gap)
    if levels < 2:
        raise ValueError("levels must be >= 2")
    if levels ** (2 * k) > cap:
        raise SearchSpaceError(
            f"{levels}**{2 * k} allocations exceed the cap {cap}; "
            "reduce the tone count or the number of levels")

    steps = np.array(list(product(range(levels), repeat=k)))
    steps = steps[steps.sum(axis=1) <= levels - 1]
    grids = [steps * (float(b) / (levels - 1)) for b in budgets]  # (na, K), (nb, K)

    w = channel.grid.widths
    g = channel.gains
    nz = noise.values
    ln2 = np.log(2.0)

    def rates_for(user: int, own: np.ndarray, other: np.ndarray,
                  other_user: int) -> np.ndarray:
        sig = g[:, user, user] * own                      # (n_own, K)
        inter = g[:, user, other_user] * other            # (n_other, K)
        den = gap * (inter + nz[user])                    # (n_other, K)
        sinr = sig[:, None, :] / den[None, :, :]          # (n_own, n_other, K)
        return np.einsum("k,abk->ab", w, np.log1p(sinr)) / ln2

    r0 = rates_for(0, grids[0], grids[1], 1)              # (na, nb)
    r1 = rates_for(1, grids[1], grids[0], 0).T            # align to (na, nb)
    points = np.column_stack([r1.ravel(), r0.ravel()])    # (r2, r1) convention
    return RateRegionCurve(method="oracle", points=_pareto_front(points),
                           params={"levels": levels, "x_user": 1})


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
