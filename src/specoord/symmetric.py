"""Closed-form analysis of the symmetric two-band interference game.

Two users with unit direct gains share two equal bands with a common cross
coupling h (a squared magnitude, 0 <= h < 1).  Reduced to the binary choice
"cooperate" (frequency-division, stay in your own band) versus "compete"
(water-fill over both bands), the game has four canonical payoffs:

    T  temptation: compete while the other cooperates
    R  reward:     both cooperate
    P  penalty:    both compete (the water-filling equilibrium)
    N  naive:      cooperate while the other competes

Their ordering partitions the (h, snr) plane into three regions: a deadlock
region where competing is best for everyone, a prisoner's dilemma region,
and a chicken region.  The boundaries are closed-form in snr.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .channel import ChannelMatrixSet, NoiseProfile, symmetric_two_band_channel


class Region(enum.Enum):
    DEADLOCK = "A"
    PRISONERS_DILEMMA = "B"
    CHICKEN = "C"

    @property
    def code(self) -> str:
        return self.value


@dataclass(frozen=True)
class PayoffQuad:
    T: float
    R: float
    P: float
    N: float
    h: float
    snr: float

    def ordering(self) -> str:
        pairs = sorted((("T", self.T), ("R", self.R), ("P", self.P), ("N", self.N)),
                       key=lambda kv: -kv[1])
        return ">".join(name for name, _ in pairs)


@dataclass(frozen=True)
class GameRegion:
    region: Region
    ordering: str
    boundary: bool
    h_lim1: float
    h_lim2: float


def _check_snr(snr: float) -> None:
    # Also rejects nan, and a subnormal snr, whose 1/snr overflows.
    if not (0 < snr < math.inf and 1.0 / snr < math.inf):
        raise ValueError("snr must be finite and > 0, with a finite 1/snr")


def _check_h(h: float) -> None:
    if not 0.0 <= h < 1.0:  # also rejects nan
        raise ValueError("h must satisfy 0 <= h < 1")


def _check_h_snr(h: float, snr: float) -> None:
    _check_h(h)
    _check_snr(snr)


def payoff_quad(h: float, snr: float) -> PayoffQuad:
    """The four canonical payoffs at cross coupling h and SNR = P/N0.

    Each user has total power P over two unit-use bands with in-band noise
    N0.  Competing means water-filling against the other's allocation; when
    the other side cooperates the best response puts (1+h)/2 of the power
    in the own band and (1-h)/2 in the other.
    """
    _check_h_snr(h, snr)
    inv = 1.0 / snr
    T = 0.5 * np.log2(1 + ((1 + h) / 2) / inv) + 0.5 * np.log2(1 + ((1 - h) / 2) / (inv + h))
    R = 0.5 * np.log2(1 + 1 / inv)
    P = float(np.log2(1 + 0.5 / (inv + 0.5 * h)))
    N = 0.5 * np.log2(1 + 1 / (inv + (1 - h) / 2 * h))
    return PayoffQuad(T=float(T), R=float(R), P=P, N=float(N), h=h, snr=snr)


def h_lim1(snr: float) -> float:
    """Coupling above which mutual cooperation beats mutual competition.

    Positive root of h^2 + 2 h / snr - 1 / snr = 0, i.e. R = P.
    """
    _check_snr(snr)
    inv = 1.0 / snr
    return inv * (math.sqrt(1.0 + snr) - 1.0)


def h_lim2(snr: float) -> float:
    """Coupling above which the naive payoff beats mutual competition (P = N).

    Root in (0, 1) of f(h) = h^3 + h^2 (1/2 + 2/snr) - h/2 - 1/snr = 0.
    f(0) < 0 < f(1) and f is convex for h >= 0, so the cubic has exactly
    one positive root and Newton's method started at h = 1 falls
    monotonically onto it.  The loop returns at the first step that does
    not fall; a strictly falling sequence of floats in (0, 1] is finite.
    """
    _check_snr(snr)
    inv = 1.0 / snr
    a = 0.5 + 2 * inv
    h = 1.0
    while True:
        f = ((h + a) * h - 0.5) * h - inv
        step = h - f / ((3 * h + 2 * a) * h - 0.5)
        if not step < h:
            return h
        h = step


def classify_game(h: float, snr: float) -> GameRegion:
    """Assign (h, snr) to its payoff-ordering region.

    Region A (deadlock, T>P>R>N) below h_lim1, region B (prisoner's
    dilemma, T>R>P>N) between the limits, region C (chicken, T>R>N>P)
    above h_lim2.  An h exactly on a limit is reported as region B with
    the boundary flag set.
    """
    _check_h_snr(h, snr)
    l1, l2 = h_lim1(snr), h_lim2(snr)
    return GameRegion(region=region_between(h, l1, l2),
                      ordering=payoff_quad(h, snr).ordering(),
                      boundary=h == l1 or h == l2, h_lim1=l1, h_lim2=l2)


def region_between(h: float, l1: float, l2: float) -> Region:
    """The region of coupling h given the limits h_lim1 = l1, h_lim2 = l2.

    A (deadlock) below l1, C (chicken) above l2, B (prisoner's dilemma)
    between them, limits included.  The limits depend on snr alone, so a
    caller sweeping h at fixed snr computes them once per snr.
    """
    if h < l1:
        return Region.DEADLOCK
    if h > l2:
        return Region.CHICKEN
    return Region.PRISONERS_DILEMMA


def recommend_strategy(h: float, snr: float) -> str:
    """Distributed rule of thumb: water-fill only in the deadlock region.

    Everywhere else frequency division is mutually preferable; by
    pre-agreement user 0 takes band 1 (index 0) and user 1 band 2.
    """
    return "iwf" if classify_game(h, snr).region is Region.DEADLOCK else "fdm"


def symmetric_iwf_iterates(h: float, start: tuple[float, float],
                           sweeps: int) -> np.ndarray:
    """Simultaneous best-response iterates of the off-band fractions.

    Row t holds (alpha_t, beta_t) with alpha_t = ((2 beta_{t-1} - 1) h + 1) / 2
    and symmetrically for beta; row 0 is the start.  Useful for checking the
    geometric approach to the fixed point against tone-level water-filling.
    """
    _check_h(h)
    if (isinstance(sweeps, bool) or not isinstance(sweeps, numbers.Integral)
            or sweeps < 0):
        raise ValueError("sweeps must be an integer >= 0")
    a, b = float(start[0]), float(start[1])
    if not (0 <= a <= 1 and 0 <= b <= 1):
        raise ValueError("start fractions must lie in [0, 1]")
    out = np.empty((sweeps + 1, 2))
    out[0] = (a, b)
    for t in range(1, sweeps + 1):
        a, b = ((2 * b - 1) * h + 1) / 2, ((2 * a - 1) * h + 1) / 2
        out[t] = (a, b)
    return out


@dataclass(frozen=True)
class DiscreteGame:
    """2x2 bimatrix of the cooperate/compete game; row player is user 0.

    Index 0 = cooperate (FDM), 1 = compete (water-fill).  payoffs_row[i, j]
    is user 0's rate when user 0 plays i and user 1 plays j; the game is
    symmetric so user 1's payoffs are the transpose.
    """

    payoffs_row: np.ndarray
    payoffs_col: np.ndarray
    quad: PayoffQuad

    def pure_nash_cells(self) -> list[tuple[int, int]]:
        cells = []
        for i in range(2):
            for j in range(2):
                row_ok = self.payoffs_row[i, j] >= self.payoffs_row[1 - i, j]
                col_ok = self.payoffs_col[i, j] >= self.payoffs_col[i, 1 - j]
                if row_ok and col_ok:
                    cells.append((i, j))
        return cells


def discrete_game_payoffs(h: float, snr: float) -> DiscreteGame:
    q = payoff_quad(h, snr)
    row = np.array([[q.R, q.N], [q.T, q.P]])
    row.flags.writeable = False
    col = row.T
    return DiscreteGame(payoffs_row=row, payoffs_col=col, quad=q)


def symmetric_game_instance(h: float, snr: float, power: float = 1.0
                            ) -> tuple[ChannelMatrixSet, NoiseProfile, list[float]]:
    """Tone-level instance whose capacities reproduce the closed forms.

    Each band is half a unit wide and carries in-band noise power / snr, so
    per-band rates come out as 0.5 * log2(1 + ...) like the payoff table.
    """
    _check_h_snr(h, snr)
    if power <= 0:
        raise ValueError("power must be > 0")
    channel = symmetric_two_band_channel(h)
    noise = NoiseProfile(np.full((2, 2), power / snr))
    return channel, noise, [power, power]
