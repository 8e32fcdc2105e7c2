"""Closed-form rate bounds for near-far interference channels.

A weak (far) user confined to the first band shares it with a strong (near)
user who also owns a second, private band.  Two coordination questions are
answered in closed form:

* how much does fixed-margin iterative water-filling by the strong user
  ("the bully") really cost the weak user, bracketed between explicit lower
  and upper bounds as a function of the strong user's rate target; and

* how do those brackets compare with dynamic frequency-division (the strong
  user retreats to the top of the spectrum), again as closed-form bounds.

Two parameterisations appear: a fully symmetric two-band setup with unit
band widths (power split formulas, interference-minimal politeness) and a
banded setup with PSD-level noise and arbitrary widths W1, W2 (rate-region
bounds).  Users are indexed as in the rest of the package: user 0 weak/far,
user 1 strong/near.

The rate-region brackets are evaluated over arrays of strong-user targets:
each bracket formula has one implementation, on plain arrays, and the
one-target functions (rr_iwf_bounds, dfdm_lambda_bounds, dfdm_rate_bounds,
dfdm_r1) call it on a single target.  rate_bounds_table evaluates both
brackets over a whole sweep in one pass.  The arrays see only IEEE
arithmetic, min/max clamps and np.log2, each applied elementwise in the
order the one-target formula states it, so a table row holds the same bits
as the one-target results; 2**x stays Python's float power, one target at
a time.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .game import InfeasibleError, _carries
from .oracle import RateRegionCurve


@dataclass(frozen=True)
class NearFarParams:
    """Channel couplings, powers, and noise for the two-band near-far model.

    alpha: weak user's direct gain in band 1 (its only band)
    beta:  coupling of the strong user into the weak user's receiver
    gamma: coupling of the weak user into the strong user's receiver
    power: per-user total power budget (both users share the same P)
    n1, n2: noise PSD at the weak / strong receiver (power per Hz)
    w1, w2: widths of band 1 / band 2
    tau:   politeness of the strong user, the fraction of its budget spent
    """

    alpha: float
    beta: float
    gamma: float = 0.0
    power: float = 1.0
    n1: float = 1.0
    n2: float = 1.0
    w1: float = 1.0
    w2: float = 1.0
    tau: float = 1.0

    def __post_init__(self):
        # Each test is a chained comparison, which a nan fails.
        for name in ("alpha", "power", "n1", "n2", "w1", "w2"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0")
        for name in ("beta", "gamma"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        if not 0 < self.tau <= 1:
            raise ValueError("tau must lie in (0, 1]")

    @property
    def rho(self) -> float:
        """Bandwidth fraction of band 1."""
        return self.w1 / (self.w1 + self.w2)

    def _require_symmetric(self, what: str) -> None:
        if self.w1 != self.w2:
            raise ValueError(f"{what} assumes equal band widths (w1 == w2)")

    @property
    def n2_band(self) -> float:
        """Strong receiver's in-band noise power in either (equal) band."""
        return self.n2 * self.w1

    @property
    def n1_band(self) -> float:
        return self.n1 * self.w1


@dataclass(frozen=True)
class RateBoundPair:
    """Lower/upper bracket on the weak user's rate for one method."""

    lower: float
    upper: float
    method: str
    flags: dict

    def __post_init__(self):
        _check_ordered(self.lower, self.upper)


def _check_ordered(lower, upper) -> None:
    """Refuse a bracket, or an array of brackets, whose lower bound exceeds
    its upper bound by more than rounding."""
    size = np.abs(upper)
    if np.any(lower > upper + 1e-12 * np.where(size > 1.0, size, 1.0)):
        raise ValueError("lower bound exceeds upper bound")


# --- symmetric two-band forms (unit-style bands, equal widths) -------------


def bully_power_split(params: NearFarParams) -> tuple[float, float]:
    """Water-filling split (P1, P2) of the strong user's spent power tau*P.

    The strong user sees its own noise plus gamma*P of crosstalk in band 1
    (the weak user always spends everything there), so the water level puts
    P*(tau - gamma)/2 into band 1 and P*(tau + gamma)/2 into band 2.  For
    tau < gamma band 1 falls below the water level; the split clamps to
    (0, tau*P) with a warning.
    """
    params._require_symmetric("bully_power_split")
    p, tau, gamma = params.power, params.tau, params.gamma
    if tau < gamma:
        warnings.warn("tau < gamma: strong user leaves band 1 entirely",
                      RuntimeWarning, stacklevel=2)
        return 0.0, tau * p
    return p * (tau - gamma) / 2.0, p * (tau + gamma) / 2.0


def symmetric_nearfar_rates(params: NearFarParams) -> tuple[float, float]:
    """(C1, C2): both users' rates under the bully split.

    C1 = log2(1 + alpha P / (beta P1 + N1)) for the weak user and
    C2 = log2(1 + P1 / (N2 + gamma P)) + log2(1 + P2 / N2) for the strong
    user, with per-band noise N_i = PSD * width.
    """
    params._require_symmetric("symmetric_nearfar_rates")
    p1, p2 = bully_power_split(params)
    return (weak_user_rate_for_p1(params, p1),
            strong_user_rate_for_split(params, p1, p2))


def weak_user_rate_for_p1(params: NearFarParams, p1: float) -> float:
    return float(np.log2(1 + params.alpha * params.power /
                         (params.beta * p1 + params.n1_band)))


def strong_user_rate_for_split(params: NearFarParams, p1: float, p2: float) -> float:
    n2b = params.n2_band
    gp = params.gamma * params.power
    return float(np.log2(1 + p1 / (n2b + gp)) + np.log2(1 + p2 / n2b))


def strong_user_rate(params: NearFarParams, tau: float) -> float:
    """C2 as a function of the politeness tau (monotone increasing)."""
    p1, p2 = bully_power_split(replace(params, tau=tau))
    return strong_user_rate_for_split(params, p1, p2)


def tau_for_strong_rate(params: NearFarParams, r2: float) -> float:
    """Invert C2(tau) over tau in [max(gamma, 1e-12), 1].

    With A = N2 + gamma P and B = N2 the band noise seen by the strong
    user, both bands' signal-plus-noise equal c + u with c = N2 + gamma P/2
    and u = tau P / 2, so 2^C2 = (c + u)^2 / (A B) and u is the positive
    root of that quadratic.
    """
    params._require_symmetric("tau_for_strong_rate")
    lo = max(params.gamma, 1e-12)
    lo_rate, hi_rate = strong_user_rate(params, lo), strong_user_rate(params, 1.0)
    if not lo_rate <= r2 <= hi_rate:  # also rejects nan
        raise ValueError(f"r2 must lie in [{lo_rate}, {hi_rate}] for these parameters")
    if r2 == hi_rate:
        return 1.0
    n2b, gp = params.n2_band, params.gamma * params.power
    u = 2.0 ** (0.5 * r2) * math.sqrt((n2b + gp) * n2b) - (n2b + 0.5 * gp)
    return min(1.0, max(lo, 2.0 * u / params.power))


def interference_min_p1(params: NearFarParams) -> float:
    """Least band-1 power preserving the strong user's rate at politeness 1.

    Moving the strong user from the water-filling split at politeness tau to
    full power spent as unevenly as possible, the band-1 share solves a
    quadratic; its minimal root is

        P1~ = P1 - (P/2) (1 - tau) Delta,
        1 + Delta = sqrt((1 + 4 N2/P + 2 gamma + tau) / (1 - tau)),

    with N2 the in-band noise.  Delta >= 0 always, so P1~ <= P1: the polite
    strong user never needs more band-1 power than water-filling uses.  A
    negative root clamps to zero (rate preservation then becomes slack).
    For tau = 1 the split is already optimal and P1~ = P1.
    """
    params._require_symmetric("interference_min_p1")
    p, tau, gamma = params.power, params.tau, params.gamma
    if tau < gamma:
        raise ValueError("interference_min_p1 needs tau >= gamma")
    p1, _ = bully_power_split(params)
    if tau == 1.0:
        return p1
    n2b = params.n2_band
    delta = math.sqrt((1 + 4 * n2b / p + 2 * gamma + tau) / (1 - tau)) - 1.0
    return max(0.0, p1 - 0.5 * p * (1 - tau) * delta)


# --- banded forms: fixed-margin IWF bounds (arbitrary W1, W2) ---------------


def geometric_mean_snr(params: NearFarParams) -> float:
    """Bandwidth-weighted geometric mean of the strong user's band SNRs:
    (P/(N2 W1))^rho * (P/(N2 W2))^(1-rho) with rho = W1/(W1+W2)."""
    rho = params.rho
    return float((params.power / (params.n2 * params.w1)) ** rho *
                 (params.power / (params.n2 * params.w2)) ** (1 - rho))


def _exp2(x: float) -> float:
    """2**x by Python's float power, saturated to inf where it overflows.
    The array forms call it one target at a time: numpy's power and exp2
    may round differently."""
    try:
        return 2.0 ** x
    except OverflowError:
        return math.inf


def _scaled(coupling: float, power):
    """coupling * power, zero for a zero coupling even at a saturated power."""
    return coupling * power if coupling else np.zeros_like(power)


def _check_r2(r2: float, positive: bool = False) -> None:
    """The target rule of the FM-IWF forms (r2 >= 0, which nan and inf
    break), then with positive that of the DFDM forms (r2 > 0)."""
    if not 0 <= r2 < math.inf:
        raise ValueError("r2 must be finite and >= 0")
    if positive and r2 == 0:
        raise ValueError("r2 must be finite and > 0")


def strong_tau_for_rate(params: NearFarParams, r2: float) -> float:
    """Exact politeness for a flat-PSD strong user to reach r2 (gamma = 0).

    A target past the float range of 2**(r2/(W1+W2)) gives tau = inf.
    """
    _check_r2(r2)
    wt = params.w1 + params.w2
    s = _exp2(r2 / wt) - 1.0
    return s * params.n2 * wt / params.power


def rr_iwf_bounds(r2: float, params: NearFarParams) -> RateBoundPair:
    """Closed-form bracket on the weak user's rate under fixed-margin IWF.

    A strong user holding rate r2 with minimum power transmits a flat PSD,
    and its politeness tau is bracketed through the geometric-mean SNR:

        2^(r2/(W1+W2) - 1) / gsnr  <=  tau  <=  2^(r2/(W1+W2) + 1) / gsnr.

    More interference means less weak-user rate, so the tau upper bound
    (exponent +1) yields the rate lower bound and vice versa:

        lower = W1 log2(1 + alpha P / (beta P 2^(r2/(W1+W2)+1)/gsnr + W1 N1))
        upper = same with exponent r2/(W1+W2) - 1.

    flags: "bandwidth_limited" marks spectral efficiency >= 1 bit/s/Hz
    (r2 >= W1 + W2), required for the tau lower bound and hence for the
    rate upper bound to be meaningful; "feasible" marks tau <= 1 by the
    one rule, game._carries.  Past the float range of 2**(r2/(W1+W2)) tau
    is inf, the target infeasible, and both bounds are 0 (the
    interference-free rate when beta = 0).
    """
    tau = strong_tau_for_rate(params, r2)  # checks r2
    flags = {"bandwidth_limited": bool(r2 >= params.w1 + params.w2),
             "feasible": bool(_carries(_strong_rate_of_lambda(1.0, params), r2)),
             "tau": tau}
    (lower,), (upper,) = _fmiwf_bracket(np.array([r2]), params)
    return RateBoundPair(lower=float(lower), upper=float(upper),
                         method="fm-iwf", flags=flags)


def _fmiwf_bracket(r2: np.ndarray, params: NearFarParams) -> tuple:
    """rr_iwf_bounds' (lower, upper) at each target of the array r2.

    A zero gsnr, where P/(N2 W) underflows, saturates tau to inf.
    """
    gsnr = geometric_mean_snr(params)
    x = r2 / (params.w1 + params.w2)
    bp = params.beta * params.power
    bracket = []
    for shift in (1, -1):
        tau = np.fromiter(map(_exp2, (x + shift).tolist()), float, x.size)
        with np.errstate(divide="ignore"):
            tau /= gsnr
        bracket.append(_weak_band1_rate(_scaled(bp, tau), params))
    return tuple(bracket)


def rr_iwf_exact_tau_r1(r2: float, params: NearFarParams) -> float:
    """Weak-user rate estimate using the unrelaxed politeness bound.

    Keeps the rho^rho (1-rho)^(1-rho) factor (instead of relaxing it to 1/2)
    and the flat-PSD band-1 share rho * tau * P of the interference, so at
    high SNR it tracks the simulated fixed-margin IWF rate closely.  A
    zero gsnr * factor, where P/(N2 W) underflows, saturates tau to inf.
    """
    _check_r2(r2)
    rho = params.rho
    scale = geometric_mean_snr(params) * (rho ** rho * (1 - rho) ** (1 - rho))
    tau_exact = (_exp2(r2 / (params.w1 + params.w2)) / scale if scale
                 else math.inf)
    return float(_weak_band1_rate(
        _scaled(params.beta * rho, tau_exact) * params.power, params))


def _weak_band1_rate(inter, params: NearFarParams):
    """Weak user's band-1 rate W1 log2(1 + alpha P / (inter + W1 N1)) under
    each interference power of inter."""
    ap, noise = params.alpha * params.power, params.w1 * params.n1
    return params.w1 * np.log2(1 + ap / (inter + noise))


def _strong_rate_of_lambda(lam: float, params: NearFarParams) -> float:
    """Strong user's flat-PSD rate x log2(1 + P / (x N2)) over the band
    x = lam W1 + W2."""
    band = lam * params.w1 + params.w2
    return float(band * np.log2(1 + params.power / (band * params.n2)))


def fdm_threshold_rate(params: NearFarParams) -> float:
    """Strong-user rate below which static FDM leaves band 1 untouched:
    W2 log2(1 + P / (W2 N2))."""
    return _strong_rate_of_lambda(0.0, params)


def fdm_weak_user_rate(params: NearFarParams) -> float:
    """Weak user's interference-free rate W1 log2(1 + alpha P / (W1 N1))."""
    return float(_weak_band1_rate(0.0, params))


# --- banded forms: dynamic FDM bounds ---------------------------------------


def dfdm_lambda_bounds(r2: float, params: NearFarParams
                       ) -> tuple[float, float, bool]:
    """Bracket on the band-1 fraction lambda the strong user must claim.

    Under dynamic FDM the strong user spreads full power flat over
    lambda*W1 + W2 of spectrum; lambda solves
    r2 = (lambda W1 + W2) log2(1 + P / ((lambda W1 + W2) N2)).  Bounding
    the in-band SNR by its extremes gives

        lambda_min = (r2 / log2(1 + P/(N2 W2)) - W2) / W1
        lambda_max = (r2 / log2(1 + P/(N2 (W1+W2))) - W2) / W1,

    both clamped to [0, 1].  The raw lambda_max exceeding 1 means r2 is not
    achievable at all: the third return value, by game._carries.
    """
    _check_r2(r2, positive=True)
    lam_min, lam_max, feasible = _lambda_bracket(np.array([r2]), params)
    return float(lam_min[0]), float(lam_max[0]), bool(feasible[0])


def _lambda_bracket(r2: np.ndarray, params: NearFarParams) -> tuple:
    """dfdm_lambda_bounds' (lambda_min, lambda_max, feasible) at each target
    of the array r2.

    A log2 term that rounds to 0 (an in-band SNR below the float spacing
    of 1) saturates lambda to inf: no band carries the target.
    """
    snr2 = params.power / params.n2
    band2 = math.log2(1 + snr2 / params.w2)
    full = math.log2(1 + snr2 / (params.w1 + params.w2))
    with np.errstate(divide="ignore"):
        lam_min = (r2 / band2 - params.w2) / params.w1
        lam_max_raw = (r2 / full - params.w2) / params.w1
    return (np.clip(lam_min, 0.0, 1.0), np.clip(lam_max_raw, 0.0, 1.0),
            _carries(_strong_rate_of_lambda(1.0, params), r2))


def solve_lambda(r2: float, params: NearFarParams) -> float:
    """Exact band-1 fraction for the strong user's dynamic-FDM target.

    The rate x log2(1 + s/x), s = P/N2, is concave and increasing in the
    band x = lambda W1 + W2, so Newton's method started at lambda = 0 rises
    monotonically onto the root.  The loop returns at the first step that
    does not rise or would pass lambda = 1; a strictly rising sequence of
    floats in [0, 1] is finite.  A target the full-spectrum rate does not
    carry (game._carries) raises InfeasibleError carrying that rate; below
    the band-2-only rate lambda is 0, from the full-spectrum rate on 1.
    """
    _check_r2(r2, positive=True)
    r_at_1 = _strong_rate_of_lambda(1.0, params)
    if not _carries(r_at_1, r2):
        raise InfeasibleError(f"r2 {r2} exceeds the full-spectrum rate {r_at_1}",
                              max_achievable=r_at_1)
    if r2 <= _strong_rate_of_lambda(0.0, params):
        return 0.0
    if r2 >= r_at_1:
        return 1.0
    s = params.power / params.n2
    lam = 0.0
    while True:
        q = s / (lam * params.w1 + params.w2)
        # d rate / d lambda = W1 (ln(1 + q) - q / (1 + q)) / ln 2
        slope = params.w1 * (math.log1p(q) - q / (1 + q)) / math.log(2.0)
        if not slope > 0:  # flat to rounding, at an in-band SNR near 1e-16
            return lam
        step = lam + (r2 - _strong_rate_of_lambda(lam, params)) / slope
        if not lam < step <= 1.0:
            return lam
        lam = step


def dfdm_r1(lam: float, params: NearFarParams) -> float:
    """Weak-user rate when the strong user claims a fraction lam of band 1.

    The weak user water-fills its power over the clean (1-lam) W1 and the
    interfered lam W1 parts of band 1:

        R1 = (1-lam) W1 log2(1 + alpha P (1 + lam W1/(lam W1 + W2)) / N1)
           + lam W1 log2(1 + alpha P (1 - (1-lam) W1/(lam W1 + W2))
                             / (N1 + beta P/(lam W1 + W2)))

    Monotone decreasing in lam for the regimes of interest (W1 <= W2 in
    particular); at lam = 0 it collapses to the interference-free form and
    at lam = 1 to full-band interference.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must lie in [0, 1]")
    return float(_dfdm_r1(np.array([lam]), params)[0])


def _dfdm_r1(lam: np.ndarray, params: NearFarParams) -> np.ndarray:
    """dfdm_r1 at each fraction of the array lam."""
    w1, w2, n1 = params.w1, params.w2, params.n1
    ap, bp = params.alpha * params.power, params.beta * params.power
    band = lam * w1 + w2
    clean = (1 - lam) * w1 * np.log2(1 + ap * (1 + lam * w1 / band) / n1)
    hit = lam * w1 * np.log2(1 + ap * (1 - (1 - lam) * w1 / band)
                             / (n1 + bp / band))
    return clean + hit


def dfdm_rate_bounds(r2: float, params: NearFarParams) -> RateBoundPair:
    """Weak-user rate bracket under dynamic FDM, via the lambda bracket.

    R1 decreases with lambda, so upper = dfdm_r1(lambda_min) and
    lower = dfdm_r1(lambda_max).
    """
    lam_min, lam_max, feasible = dfdm_lambda_bounds(r2, params)
    (lower,), (upper,) = _dfdm_bracket(np.array([lam_min]),
                                       np.array([lam_max]), params)
    return RateBoundPair(lower=float(lower), upper=float(upper),
                         method="dfdm", flags={"feasible": feasible,
                                               "lambda_min": lam_min,
                                               "lambda_max": lam_max})


def _dfdm_bracket(lam_min: np.ndarray, lam_max: np.ndarray,
                  params: NearFarParams) -> tuple:
    """(lower, upper) weak-user rates at each lambda bracket, ordered as
    Python's min and max order them, which keep the first of a nan pair."""
    a, b = _dfdm_r1(lam_max, params), _dfdm_r1(lam_min, params)
    return np.where(b < a, b, a), np.where(b > a, b, a)


def rate_bounds_table(r2_values, params: NearFarParams) -> np.ndarray:
    """Both weak-user brackets at every strong-user target, in one pass.

    Returns an (n, 4) array whose rows are (fmiwf_lo, fmiwf_hi, dfdm_lo,
    dfdm_hi): rr_iwf_bounds' and dfdm_rate_bounds' brackets, to the bit.
    The targets are checked before any bracket is evaluated, and the first
    target that breaks a rule decides the error: "r2 must be finite and
    >= 0" for a negative, nan or infinite one, "... > 0" for a zero.
    """
    r2 = np.asarray(r2_values, dtype=float).reshape(-1)
    refused = ~((r2 > 0) & (r2 < math.inf))
    if refused.any():
        _check_r2(float(r2[refused.argmax()]), positive=True)
    table = np.empty((r2.size, 4))
    table[:, 0], table[:, 1] = _fmiwf_bracket(r2, params)
    lam_min, lam_max, _ = _lambda_bracket(r2, params)
    table[:, 2], table[:, 3] = _dfdm_bracket(lam_min, lam_max, params)
    _check_ordered(table[:, 0::2], table[:, 1::2])
    return table


# --- comparison sweep --------------------------------------------------------


def compare_regions(params: NearFarParams, r2_values) -> dict[str, RateRegionCurve]:
    """Weak-user rate versus strong-user rate for three behaviours.

    For each strong-user rate r2: (i) fixed-margin IWF using the
    water-filling split at the politeness that reaches r2, (ii) the
    interference-minimal split preserving the same strong-user rate, and
    (iii) the dynamic-FDM closed-form bracket.  Requires unit band widths
    so that all three live on the same axes: the symmetric forms give
    rates per band, the DFDM bracket rates over the bands' widths.
    """
    if not params.w1 == params.w2 == 1:
        raise ValueError("compare_regions needs unit band widths (w1 == w2 == 1):"
                         " its symmetric forms give rates per band, its DFDM"
                         " bracket rates over the widths")
    r2_values = np.asarray(list(r2_values), dtype=float)
    iwf_pts, polite_pts = [], []
    for r2 in r2_values:
        tau = tau_for_strong_rate(params, r2)
        at_tau = replace(params, tau=tau)
        p1, _ = bully_power_split(at_tau)
        iwf_pts.append((r2, weak_user_rate_for_p1(params, p1)))
        p1_min = interference_min_p1(at_tau)
        polite_pts.append((r2, weak_user_rate_for_p1(params, p1_min)))
    dfdm = rate_bounds_table(r2_values, params)[:, 2:]
    return {
        "fm-iwf": RateRegionCurve("fm-iwf", np.array(iwf_pts)),
        "interference-min": RateRegionCurve("interference-min",
                                            np.array(polite_pts)),
        "dfdm-bounds": RateRegionCurve("dfdm-bounds",
                                       np.column_stack([r2_values, dfdm]),
                                       columns=("r2", "r1_lo", "r1_hi")),
    }
