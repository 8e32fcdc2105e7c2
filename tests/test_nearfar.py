import contextlib
import io
import math
import os
import tempfile
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specoord.channel import _texts, _write_rows
from specoord.cli import main
from specoord.game import InfeasibleError
from specoord.nearfar import (NearFarParams, RateBoundPair, bully_power_split,
                              compare_regions, dfdm_lambda_bounds, dfdm_r1,
                              dfdm_rate_bounds, fdm_threshold_rate,
                              fdm_weak_user_rate, geometric_mean_snr,
                              interference_min_p1, rate_bounds_table,
                              rr_iwf_bounds,
                              rr_iwf_exact_tau_r1, solve_lambda,
                              strong_tau_for_rate,
                              strong_user_rate, symmetric_nearfar_rates,
                              tau_for_strong_rate, weak_user_rate_for_p1)
from specoord.nearfar import _strong_rate_of_lambda

BASE = NearFarParams(alpha=0.01, beta=0.5, gamma=0.0, power=1.0,
                     n1=0.01, n2=0.01)


def _log_uniform(lo, hi):
    return st.floats(min_value=lo, max_value=hi).map(lambda e: 10.0 ** e)


class TestParams:
    def test_rho(self):
        assert NearFarParams(alpha=1, beta=0, w1=1, w2=3).rho == 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            NearFarParams(alpha=0.0, beta=0.1)
        with pytest.raises(ValueError):
            NearFarParams(alpha=1.0, beta=-0.1)
        with pytest.raises(ValueError):
            NearFarParams(alpha=1.0, beta=0.1, tau=0.0)
        with pytest.raises(ValueError):
            NearFarParams(alpha=1.0, beta=0.1, n2=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["alpha", "beta", "gamma", "power",
                                       "n1", "n2", "w1", "w2", "tau"])
    def test_non_finite_field_rejected(self, field, bad):
        # A nan field used to pass and put NaN into every bound.
        kwargs = {"alpha": 1.0, "beta": 0.1, field: bad}
        with pytest.raises(ValueError, match=field):
            NearFarParams(**kwargs)

    def test_bound_pair_ordering_enforced(self):
        with pytest.raises(ValueError):
            RateBoundPair(lower=2.0, upper=1.0, method="x", flags={})


class TestBullySplit:
    def test_symmetric_waterfill(self):
        p = NearFarParams(alpha=1, beta=0, gamma=0.0, power=1.0)
        assert bully_power_split(p) == (0.5, 0.5)

    def test_crosstalk_shifts_power_away(self):
        p = NearFarParams(alpha=1, beta=0, gamma=0.1, power=1.0)
        p1, p2 = bully_power_split(p)
        assert p1 == pytest.approx(0.45, rel=1e-15)
        assert p2 == pytest.approx(0.55, rel=1e-15)

    def test_boundary_tau_equals_gamma(self):
        p = NearFarParams(alpha=1, beta=0, gamma=0.4, power=2.0, tau=0.4)
        assert bully_power_split(p) == (0.0, 0.8)

    @pytest.mark.parametrize("fn", [bully_power_split, symmetric_nearfar_rates,
                                    interference_min_p1])
    def test_refuses_unequal_widths(self, fn):
        with pytest.raises(ValueError, match=r"^\w+ assumes equal band widths "
                           r"\(w1 == w2\)$"):
            fn(NearFarParams(alpha=1, beta=0, w1=1.0, w2=2.0))

    def test_tau_below_gamma_clamps_with_warning(self):
        p = NearFarParams(alpha=1, beta=0, gamma=0.5, power=1.0, tau=0.3)
        with pytest.warns(RuntimeWarning):
            p1, p2 = bully_power_split(p)
        assert (p1, p2) == (0.0, 0.3)

    def test_spent_power_sums_to_tau_p(self):
        p = NearFarParams(alpha=1, beta=0, gamma=0.1, power=3.0, tau=0.7)
        p1, p2 = bully_power_split(p)
        assert p1 + p2 == pytest.approx(0.7 * 3.0, rel=1e-12)


class TestSymmetricRates:
    def test_reference_point(self):
        c1, c2 = symmetric_nearfar_rates(BASE)
        assert c1 == pytest.approx(math.log2(1 + 0.01 / 0.26), rel=1e-12)
        assert c1 == pytest.approx(0.0544477840223765, rel=1e-12)
        assert c2 == pytest.approx(2 * math.log2(51), rel=1e-12)

    def test_no_band1_power_is_interference_free(self):
        c1 = weak_user_rate_for_p1(BASE, 0.0)
        assert c1 == pytest.approx(math.log2(1 + 0.01 / 0.01), rel=1e-12)

    def test_strong_rate_monotone_in_tau(self):
        taus = np.linspace(0.05, 1.0, 20)
        rates = [strong_user_rate(BASE, t) for t in taus]
        assert np.all(np.diff(rates) > 0)

    def test_tau_inversion_round_trip(self):
        for tau in (0.2, 0.5, 0.93, 1.0):
            r2 = strong_user_rate(BASE, tau)
            assert tau_for_strong_rate(BASE, r2) == pytest.approx(tau, rel=1e-9)

    def test_tau_inversion_rejects_out_of_range(self):
        too_high = strong_user_rate(BASE, 1.0) * 1.01
        with pytest.raises(ValueError):
            tau_for_strong_rate(BASE, too_high)
        with pytest.raises(ValueError, match="r2 must lie"):
            tau_for_strong_rate(BASE, math.nan)

    @given(gamma=st.floats(min_value=1e-3, max_value=0.9),
           frac=st.floats(min_value=0.0, max_value=1.0),
           power=st.floats(min_value=0.1, max_value=100.0),
           n2=st.floats(min_value=1e-3, max_value=10.0),
           width=st.floats(min_value=0.1, max_value=10.0))
    def test_tau_round_trip_with_crosstalk(self, gamma, frac, power, n2, width,
                                           terminates):
        p = NearFarParams(alpha=0.01, beta=0.5, gamma=gamma, power=power,
                          n2=n2, w1=width, w2=width)
        tau = gamma + frac * (1.0 - gamma)
        r2 = strong_user_rate(p, tau)
        got = terminates(tau_for_strong_rate, p, r2)
        assert gamma <= got <= 1.0
        assert got == pytest.approx(tau, rel=1e-9)


class TestInterferenceMin:
    def test_clamped_root(self):
        p = replace(BASE, tau=0.6)
        # Delta = sqrt(1.64 / 0.4) - 1, putting the root just above zero.
        delta = math.sqrt(1.64 / 0.4) - 1.0
        expected = 0.3 - 0.5 * 0.4 * delta
        assert interference_min_p1(p) == pytest.approx(expected, rel=1e-12)
        assert interference_min_p1(p) == pytest.approx(
            0.09503086537366828, rel=1e-12)

    def test_full_politeness_keeps_waterfill_split(self):
        assert interference_min_p1(BASE) == bully_power_split(BASE)[0]

    def test_negative_root_clamps_to_zero(self):
        # Delta = sqrt(2.64 / 0.4) - 1 pushes the root to -0.0138.
        p = NearFarParams(alpha=0.01, beta=0.5, gamma=0.0, power=1.0,
                          n1=0.01, n2=0.26, tau=0.6)
        assert interference_min_p1(p) == 0.0

    def test_never_exceeds_waterfill_share(self, rng):
        for _ in range(100):
            tau = float(rng.uniform(0.05, 1.0))
            gamma = float(rng.uniform(0.0, tau * 0.99))
            p = NearFarParams(alpha=0.01, beta=0.5, gamma=gamma, power=1.0,
                              n1=0.01, n2=float(rng.uniform(1e-3, 0.1)),
                              tau=tau)
            p1, _ = bully_power_split(p)
            p1_min = interference_min_p1(p)
            assert 0.0 <= p1_min <= p1 + 1e-15

    def test_preserves_strong_rate_when_unclamped(self, rng):
        hits = 0
        for _ in range(200):
            tau = float(rng.uniform(0.5, 0.999))
            p = NearFarParams(alpha=0.01, beta=0.5, gamma=0.0, power=1.0,
                              n1=0.01, n2=float(rng.uniform(1e-4, 0.05)),
                              tau=tau)
            p1_min = interference_min_p1(p)
            if p1_min == 0.0:
                continue
            hits += 1
            p1, p2 = bully_power_split(p)
            before = math.log2(1 + p1 / p.n2_band) + math.log2(1 + p2 / p.n2_band)
            after = (math.log2(1 + p1_min / p.n2_band)
                     + math.log2(1 + (p.power - p1_min) / p.n2_band))
            assert after == pytest.approx(before, rel=1e-9)
        assert hits > 20

    def test_matches_quadratic_solved_directly(self):
        # The defining equation: full power split (q, P-q) gives the same
        # strong-user rate as the water-filling split at politeness tau.
        p = replace(BASE, n2=0.02, tau=0.8)
        p1, p2 = bully_power_split(p)
        n2b = p.n2_band
        target = (1 + p1 / n2b) * (1 + p2 / n2b)
        # (1 + q/n)(1 + (P-q)/n) = target, smaller root.
        a = -1.0
        b = p.power
        c = n2b * n2b * (1 - target) + n2b * p.power
        roots = np.roots([a, b, c])
        smallest = min(r.real for r in roots if abs(r.imag) < 1e-12)
        assert interference_min_p1(p) == pytest.approx(smallest, rel=1e-9)

    def test_requires_tau_at_least_gamma(self):
        p = NearFarParams(alpha=1, beta=0, gamma=0.5, power=1.0, tau=0.3)
        with pytest.raises(ValueError):
            interference_min_p1(p)


class TestGeometricMeanSnr:
    def test_reference_point(self):
        p = NearFarParams(alpha=1, beta=0, power=10.0, n2=1.0, w1=1.0, w2=3.0)
        expected = 10.0 ** 0.25 * (10.0 / 3.0) ** 0.75
        assert geometric_mean_snr(p) == pytest.approx(expected, rel=1e-14)
        assert geometric_mean_snr(p) == pytest.approx(4.386913376508308,
                                                      rel=1e-12)

    def test_equal_bands_plain_ratio(self):
        p = NearFarParams(alpha=1, beta=0, power=6.0, n2=2.0, w1=1.5, w2=1.5)
        assert geometric_mean_snr(p) == pytest.approx(6.0 / 3.0, rel=1e-14)

    def test_linear_in_power(self):
        p = NearFarParams(alpha=1, beta=0, power=10.0, n2=1.0, w1=1.0, w2=3.0)
        doubled = replace(p, power=20.0)
        assert geometric_mean_snr(doubled) == pytest.approx(
            2 * geometric_mean_snr(p), rel=1e-12)


class TestRrIwfBounds:
    HIGH_SNR = NearFarParams(alpha=0.01, beta=0.5, power=1.0, n1=1e-4, n2=1e-4)

    def test_reference_bracket(self):
        pair = rr_iwf_bounds(10.0, self.HIGH_SNR)
        assert pair.lower == pytest.approx(2.010888316142736, rel=1e-12)
        assert pair.upper == pytest.approx(3.598259323334614, rel=1e-12)
        assert pair.method == "fm-iwf"
        assert pair.flags["bandwidth_limited"]
        assert pair.flags["feasible"]

    def test_no_crosstalk_collapses(self):
        p = replace(self.HIGH_SNR, beta=0.0)
        pair = rr_iwf_bounds(10.0, p)
        clean = math.log2(1 + 0.01 / 1e-4)
        assert pair.lower == pytest.approx(clean, rel=1e-12)
        assert pair.upper == pytest.approx(clean, rel=1e-12)

    def test_zero_target_ordered_and_unflagged(self):
        pair = rr_iwf_bounds(0.0, self.HIGH_SNR)
        assert 0 < pair.lower <= pair.upper
        assert not pair.flags["bandwidth_limited"]

    def test_bandwidth_limited_flag_threshold(self):
        wt = self.HIGH_SNR.w1 + self.HIGH_SNR.w2
        assert not rr_iwf_bounds(wt * 0.999, self.HIGH_SNR).flags[
            "bandwidth_limited"]
        assert rr_iwf_bounds(wt, self.HIGH_SNR).flags["bandwidth_limited"]

    def test_infeasible_politeness_flagged(self):
        p = NearFarParams(alpha=0.01, beta=0.5, power=1.0, n1=1.0, n2=1.0)
        pair = rr_iwf_bounds(10.0, p)
        assert not pair.flags["feasible"]

    def test_exact_tau_estimate_inside_bracket(self):
        pair = rr_iwf_bounds(10.0, self.HIGH_SNR)
        est = rr_iwf_exact_tau_r1(10.0, self.HIGH_SNR)
        assert pair.lower <= est <= pair.upper

    def test_rejects_negative_target(self):
        with pytest.raises(ValueError):
            rr_iwf_bounds(-1.0, self.HIGH_SNR)

    @pytest.mark.parametrize("bad", [-5.0, math.nan, math.inf])
    @pytest.mark.parametrize("fn", [
        rr_iwf_exact_tau_r1, lambda r2, params: strong_tau_for_rate(params, r2)],
        ids=["rr_iwf_exact_tau_r1", "strong_tau_for_rate"])
    def test_r2_checked_at_entry(self, fn, bad):
        # Unlike rr_iwf_bounds, strong_tau_for_rate used to return a negative
        # tau for a negative r2, and rr_iwf_exact_tau_r1 a nan for a nan.
        with pytest.raises(ValueError, match="r2 must be finite and >= 0"):
            fn(bad, self.HIGH_SNR)

    @pytest.mark.parametrize("beta", [0.5, 0.0])
    def test_target_past_float_range_saturates(self, beta):
        # 2**(r2/(W1+W2)) used to raise OverflowError past r2/(W1+W2) = 1024.
        p = replace(self.HIGH_SNR, beta=beta)
        assert strong_tau_for_rate(p, 3000.0) == math.inf
        pair = rr_iwf_bounds(3000.0, p)
        assert pair.flags["tau"] == math.inf and not pair.flags["feasible"]
        # Infinite interference leaves the weak user nothing; none leaves
        # it its clean rate.
        weak = 0.0 if beta else fdm_weak_user_rate(p)
        assert pair.lower == pair.upper == weak
        assert rr_iwf_exact_tau_r1(3000.0, p) == weak

    @given(w1=st.floats(min_value=0.1, max_value=10.0),
           w2=st.floats(min_value=0.1, max_value=10.0))
    def test_bandwidth_split_factor_range(self, w1, w2):
        # rho^rho (1-rho)^(1-rho) in [1/2, 1]: relaxing it to 1/2 in the
        # closed-form bracket only widens the bracket.
        rho = w1 / (w1 + w2)
        factor = rho ** rho * (1 - rho) ** (1 - rho)
        assert 0.5 - 1e-12 <= factor <= 1.0


class TestFdmThreshold:
    def test_reference_point(self):
        p = NearFarParams(alpha=0.01, beta=0.5, power=15.0, n1=1.0, n2=1.0)
        assert fdm_threshold_rate(p) == pytest.approx(4.0, rel=1e-14)

    def test_weak_rate_matches_no_crosstalk_bounds(self):
        p = NearFarParams(alpha=0.01, beta=0.5, power=1.0, n1=1e-4, n2=1e-4)
        collapsed = rr_iwf_bounds(1.0, replace(p, beta=0.0))
        assert fdm_weak_user_rate(p) == pytest.approx(collapsed.upper,
                                                      rel=1e-12)


class TestDfdmLambda:
    P15 = NearFarParams(alpha=0.01, beta=0.5, power=15.0, n1=1.0, n2=1.0)

    def test_band2_alone_suffices(self):
        lam_min, _, feasible = dfdm_lambda_bounds(4.0, self.P15)
        assert lam_min == 0.0 and feasible

    def test_reference_bracket(self):
        lam_min, lam_max, feasible = dfdm_lambda_bounds(6.0, self.P15)
        assert lam_min == pytest.approx(0.5, rel=1e-12)
        assert lam_max == pytest.approx(6.0 / math.log2(8.5) - 1.0, rel=1e-12)
        assert feasible

    def test_infeasible_target_flagged(self):
        _, lam_max, feasible = dfdm_lambda_bounds(6.3, self.P15)
        assert not feasible and lam_max == 1.0

    def test_solve_lambda_reference(self):
        assert solve_lambda(6.0, self.P15) == pytest.approx(
            0.9050195505357886, rel=1e-10)

    def test_solve_lambda_against_bisection(self):
        def gap(lam):
            band = lam + 1.0
            return band * math.log2(1 + 15.0 / band) - 6.0

        lo, hi = 0.0, 1.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if gap(mid) < 0:
                lo = mid
            else:
                hi = mid
        assert solve_lambda(6.0, self.P15) == pytest.approx(
            0.5 * (lo + hi), abs=1e-9)

    def test_solve_lambda_clamps_small_targets(self):
        assert solve_lambda(3.9, self.P15) == 0.0

    def test_solve_lambda_rejects_infeasible(self):
        with pytest.raises(ValueError, match="exceeds"):
            solve_lambda(6.3, self.P15)

    # One rule decides feasibility at the full-spectrum rate: the two
    # brackets' flags agree, and solve_lambda solves exactly the targets
    # they flag.  The tests used to disagree within rounding of that rate.
    # W2 >= W1, where the DFDM bracket is defined (ROADMAP item 16).
    @given(w1=_log_uniform(-1.5, 1.5), wider=_log_uniform(0, 1.5),
           power=_log_uniform(-3, 3), n2=_log_uniform(-3, 2),
           shift=st.just(0.0) | st.floats(min_value=-3e-12, max_value=3e-12))
    @example(w1=1.0, wider=1.0, power=1.0, n2=1.0, shift=1e-13)
    def test_one_rule_at_the_full_spectrum_rate(self, w1, wider, power, n2,
                                                shift):
        p = NearFarParams(alpha=0.5, beta=0.2, power=power, n2=n2, w1=w1,
                          w2=w1 * wider)
        full = _strong_rate_of_lambda(1.0, p)
        r2 = full * (1 + shift)
        feasible = rr_iwf_bounds(r2, p).flags["feasible"]
        assert dfdm_rate_bounds(r2, p).flags["feasible"] == feasible
        if feasible:
            assert 0.0 <= solve_lambda(r2, p) <= 1.0
        else:
            with pytest.raises(InfeasibleError) as info:
                solve_lambda(r2, p)
            assert info.value.max_achievable == full

    @given(w1=st.floats(min_value=0.1, max_value=10.0),
           w2=st.floats(min_value=0.1, max_value=10.0),
           power=st.floats(min_value=0.1, max_value=100.0),
           n2=st.floats(min_value=1e-3, max_value=10.0),
           frac=st.sampled_from([0.0, 1.0]) | st.floats(min_value=0.0,
                                                        max_value=1.0))
    def test_solve_lambda_against_bisection_random(self, w1, w2, power, n2,
                                                   frac, terminates):
        p = NearFarParams(alpha=0.01, beta=0.5, power=power, n2=n2,
                          w1=w1, w2=w2)

        def rate(lam):
            # Same arithmetic as the library, so the end targets are exact.
            band = lam * w1 + w2
            return float(band * np.log2(1 + power / (band * n2)))

        r_lo, r_hi = rate(0.0), rate(1.0)
        r2 = r_hi if frac == 1.0 else r_lo + frac * (r_hi - r_lo)
        lam = terminates(solve_lambda, r2, p)
        assert 0.0 <= lam <= 1.0
        if frac in (0.0, 1.0):
            assert lam == frac
        lo, hi = 0.0, 1.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if rate(mid) < r2:
                lo = mid
            else:
                hi = mid
        assert lam == pytest.approx(0.5 * (lo + hi), rel=0, abs=1e-9)

    def test_solve_lambda_where_the_rate_is_flat_to_rounding(self):
        # At an SNR of 3e-16 the Newton slope rounds to 0; the solve must
        # still return a fraction instead of dividing by it.
        p = NearFarParams(alpha=1.0, beta=0.1, power=3e-16, n2=1.0)
        assert 0.0 <= solve_lambda(5e-16, p) <= 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("fn", [rr_iwf_bounds, dfdm_lambda_bounds,
                                    dfdm_rate_bounds, solve_lambda])
    def test_non_finite_r2_rejected(self, fn, bad):
        # A nan used to pass these checks: rr_iwf_bounds returned a NaN
        # bracket and dfdm_lambda_bounds clamped it to a finite one.
        with pytest.raises(ValueError, match="r2 must be finite"):
            fn(bad, self.P15)

    def test_lambda_sandwich(self):
        for r2 in np.linspace(4.2, 6.1, 25):
            lam_min, lam_max, feasible = dfdm_lambda_bounds(float(r2), self.P15)
            assert feasible
            lam = solve_lambda(float(r2), self.P15)
            assert lam_min - 1e-9 <= lam <= lam_max + 1e-9


class TestDfdmR1:
    P15 = NearFarParams(alpha=0.01, beta=0.5, power=15.0, n1=1.0, n2=1.0)

    def test_collapse_at_zero(self):
        expected = math.log2(1 + 0.01 * 15.0 / 1.0)
        assert dfdm_r1(0.0, self.P15) == pytest.approx(expected, rel=1e-12)

    def test_collapse_at_one(self):
        expected = math.log2(1 + 0.01 * 15.0 / (1.0 + 0.5 * 15.0 / 2.0))
        assert dfdm_r1(1.0, self.P15) == pytest.approx(expected, rel=1e-12)

    def test_monotone_decreasing(self):
        grid = np.linspace(0.0, 1.0, 100)
        vals = [dfdm_r1(float(l), self.P15) for l in grid]
        assert np.all(np.diff(vals) <= 1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            dfdm_r1(1.2, self.P15)

    def test_bounds_bracket_exact_lambda(self):
        pair = dfdm_rate_bounds(6.0, self.P15)
        exact = dfdm_r1(solve_lambda(6.0, self.P15), self.P15)
        assert pair.lower - 1e-12 <= exact <= pair.upper + 1e-12
        assert pair.method == "dfdm"
        assert pair.flags["feasible"]

    def test_bounds_collapse_when_band2_suffices(self):
        # Below the band-2-only rate log2(8.5)*2 even lambda_max clamps to 0.
        pair = dfdm_rate_bounds(3.0, self.P15)
        assert pair.lower == pytest.approx(pair.upper, rel=1e-12)
        assert pair.upper == pytest.approx(dfdm_r1(0.0, self.P15), rel=1e-12)


class TestCompareRegions:
    def test_containment_and_coincidence(self):
        sweep = np.linspace(2.0, strong_user_rate(BASE, 1.0), 12)
        curves = compare_regions(BASE, sweep)
        iwf = curves["fm-iwf"].points
        polite = curves["interference-min"].points
        assert np.allclose(iwf[:, 0], polite[:, 0])
        assert np.all(polite[:, 1] >= iwf[:, 1] - 1e-12)
        # At full politeness both splits agree, so the endpoints coincide.
        assert polite[-1, 1] == pytest.approx(iwf[-1, 1], rel=1e-9)
        assert curves["dfdm-bounds"].columns == ("r2", "r1_lo", "r1_hi")

    def test_no_coupling_makes_curves_identical(self):
        p = replace(BASE, beta=0.0)
        sweep = np.linspace(2.0, 8.0, 5)
        curves = compare_regions(p, sweep)
        assert np.allclose(curves["fm-iwf"].points,
                           curves["interference-min"].points, rtol=1e-12)

    @pytest.mark.parametrize("w1,w2", [(2.0, 2.0), (0.5, 0.5), (1.0, 2.0)])
    def test_refuses_non_unit_widths(self, w1, w2):
        # At w1 = w2 = 2 the curves used to disagree in units: with alpha
        # 0.2, beta 0 and n1 = n2 = 1e-3 the FM-IWF point read r1 = 6.66
        # per band, while fdm_weak_user_rate reads 13.32 over the band.
        p = replace(BASE, alpha=0.2, beta=0.0, n1=1e-3, n2=1e-3, w1=w1, w2=w2)
        with pytest.raises(ValueError, match=r"^compare_regions needs unit "
                           r"band widths \(w1 == w2 == 1\)"):
            compare_regions(p, [2.0])


    def test_empty_sweep_gives_empty_curves(self):
        # It used to raise "points width does not match columns".
        curves = compare_regions(BASE, [])
        assert {m: c.points.shape for m, c in curves.items()} == {
            "fm-iwf": (0, 2), "interference-min": (0, 2),
            "dfdm-bounds": (0, 3)}

    def test_a_target_the_tau_1_rate_carries(self):
        # 1e-13 relative past strong_user_rate(p, 1.0): rr_iwf_bounds
        # flagged it feasible, and tau_for_strong_rate refused it.
        p = NearFarParams(alpha=0.5, beta=0.2)
        r2 = 1.1699250014424292
        assert r2 > strong_user_rate(p, 1.0)
        assert rr_iwf_bounds(r2, p).flags["feasible"]
        assert tau_for_strong_rate(p, r2) == 1.0
        curves = compare_regions(p, [r2])
        assert all(c.points.shape[0] == 1 for c in curves.values())
        p1, _ = bully_power_split(replace(p, tau=1.0))
        assert curves["fm-iwf"].points.tolist() == [
            [r2, weak_user_rate_for_p1(p, p1)]]


# --- the region sweep against an independent per-target reference ---------
#
# A copy of the per-target code that `specoord region-sweep` ran before its
# brackets were evaluated over arrays of targets: one target at a time, on
# Python floats, with numpy only for log2.  It is kept here, apart from the
# package, so the parity test compares the sweep with another program.


def _ref_exp2(x):
    try:
        return 2.0 ** x
    except OverflowError:
        return math.inf


def _ref_weak_rate(inter, p):
    return float(p.w1 * np.log2(1 + p.alpha * p.power / (inter + p.w1 * p.n1)))


def _ref_dfdm_r1(lam, p):
    w1, w2 = p.w1, p.w2
    ap = p.alpha * p.power
    band = lam * w1 + w2
    clean = (1 - lam) * w1 * np.log2(1 + ap * (1 + lam * w1 / band) / p.n1)
    hit = lam * w1 * np.log2(1 + ap * (1 - (1 - lam) * w1 / band)
                             / (p.n1 + p.beta * p.power / band))
    return float(clean + hit)


def _ref_row(r2, p):
    """(fmiwf_lo, fmiwf_hi, dfdm_lo, dfdm_hi) at one target."""
    if not 0 <= r2 < math.inf:
        raise ValueError("r2 must be finite and >= 0")
    rho = p.w1 / (p.w1 + p.w2)
    gsnr = float((p.power / (p.n2 * p.w1)) ** rho *
                 (p.power / (p.n2 * p.w2)) ** (1 - rho))
    x = r2 / (p.w1 + p.w2)
    bp = p.beta * p.power
    fm_lo = _ref_weak_rate(bp * (_ref_exp2(x + 1) / gsnr) if bp else 0.0, p)
    fm_hi = _ref_weak_rate(bp * (_ref_exp2(x - 1) / gsnr) if bp else 0.0, p)
    if fm_lo > fm_hi + 1e-12 * max(1.0, abs(fm_hi)):
        raise ValueError("lower bound exceeds upper bound")
    if not 0 < r2 < math.inf:
        raise ValueError("r2 must be finite and > 0")
    snr2 = p.power / p.n2
    lam_min = (r2 / math.log2(1 + snr2 / p.w2) - p.w2) / p.w1
    lam_max = (r2 / math.log2(1 + snr2 / (p.w1 + p.w2)) - p.w2) / p.w1
    lam_min, lam_max = (min(1.0, max(0.0, v)) for v in (lam_min, lam_max))
    lo, hi = _ref_dfdm_r1(lam_max, p), _ref_dfdm_r1(lam_min, p)
    return fm_lo, fm_hi, min(lo, hi), max(lo, hi)


def _ref_table(r2_values, p):
    return np.array([_ref_row(float(r2), p) for r2 in r2_values]
                    ).reshape(len(r2_values), 4)


# Endpoints of the target range, as multiples of W1 + W2: the refused
# values, the bandwidth-limited edge near 1, and the float range of
# 2**(r2/(W1+W2) +- 1), which ends near 1024.
_ENDPOINT = st.one_of(st.sampled_from([0.0, -1.0, math.nan, 1.0, 1023.0,
                                       1025.0]),
                      st.floats(min_value=1e-3, max_value=1100.0))
_SWEEP_PARAMS = st.builds(
    NearFarParams, alpha=_log_uniform(-4, 4),
    beta=st.one_of(st.just(0.0), _log_uniform(-4, 2)),
    gamma=st.floats(min_value=0.0, max_value=1.0), power=_log_uniform(-3, 3),
    n1=_log_uniform(-300, 2), n2=_log_uniform(-300, 2),
    w1=_log_uniform(-1.5, 1.5), w2=_log_uniform(-1.5, 1.5))


def _sweep_cli(p, lo, hi, count, path):
    """Run `specoord region-sweep`; return (exit code, stderr)."""
    argv = ["region-sweep"]
    for name in ("alpha", "beta", "gamma", "power", "n1", "n2", "w1", "w2"):
        argv += [f"--{name}", repr(getattr(p, name))]
    argv += ["--r2-min", repr(lo), "--r2-max", repr(hi), "--count", str(count),
             "--output", path]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


class TestRegionSweepParity:
    WIDE = NearFarParams(alpha=0.2, beta=0.4, n1=1e-3, n2=1e-305, w1=1.5, w2=2.0)

    @settings(max_examples=150)
    @example(p=replace(WIDE, beta=0.0), lo=1030.0, hi=900.0, count=40)
    @example(p=WIDE, lo=1030.0, hi=900.0, count=40)
    @example(p=BASE, lo=2.0, hi=5.0, count=0)
    @example(p=BASE, lo=2.0, hi=5.0, count=1)
    @example(p=BASE, lo=0.0, hi=5.0, count=1)
    @given(p=_SWEEP_PARAMS, lo=_ENDPOINT, hi=_ENDPOINT,
           count=st.integers(min_value=0, max_value=40))
    def test_csv_bytes_match_the_per_target_reference(self, p, lo, hi, count):
        wt = p.w1 + p.w2
        lo, hi = lo * wt, hi * wt
        r2 = np.linspace(lo, hi, count)
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            # W1 > W2 puts a negative number into one log2 of dfdm_r1 at
            # lambda = 0; both sides then write nan.
            warnings.simplefilter("ignore", RuntimeWarning)
            got = f"{tmp}/got.csv"
            code, err = _sweep_cli(p, lo, hi, count, got)
            if count == 0:  # it used to write a header-only CSV
                assert (code, err) == (2, "config error: --count: must be >= 1\n")
                assert not os.path.exists(got)
                return
            try:
                want = _ref_table(r2, p)
            except ValueError as exc:
                assert (code, err) == (2, f"error: {exc}\n")
                assert not os.path.exists(got)
                return
            assert (code, err) == (0, "")
            _write_rows(f"{tmp}/want.csv",
                        ["r2", "fmiwf_lo", "fmiwf_hi", "dfdm_lo", "dfdm_hi"],
                        _texts(r2), want)
            with open(got, "rb") as a, open(f"{tmp}/want.csv", "rb") as b:
                assert a.read() == b.read()

    @given(p=_SWEEP_PARAMS, lo=st.floats(min_value=1e-3, max_value=1100.0),
           hi=st.floats(min_value=1e-3, max_value=1100.0),
           count=st.integers(min_value=0, max_value=40))
    def test_table_rows_are_the_one_target_brackets(self, p, lo, hi, count):
        wt = p.w1 + p.w2
        r2 = np.linspace(lo * wt, hi * wt, count)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            table = rate_bounds_table(r2, p)
            assert table.shape == (count, 4)
            assert table.tobytes() == _ref_table(r2, p).tobytes()
            for target, row in zip(r2.tolist(), table.tolist()):
                fm, db = rr_iwf_bounds(target, p), dfdm_rate_bounds(target, p)
                got = (fm.lower, fm.upper, db.lower, db.upper)
                assert np.array(got).tobytes() == np.array(row).tobytes()

    @pytest.mark.parametrize("targets,message", [
        ([1.0, 0.0, -1.0], "r2 must be finite and > 0"),
        ([1.0, -1.0, 0.0], "r2 must be finite and >= 0"),
        ([math.nan, 0.0], "r2 must be finite and >= 0"),
        ([2.0, math.inf], "r2 must be finite and >= 0")])
    def test_table_refuses_at_the_first_bad_target(self, targets, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            rate_bounds_table(targets, BASE)


class TestDegenerateSnr:
    """Brackets that the one-target code ended in ZeroDivisionError."""

    def test_in_band_snr_below_rounding_needs_all_of_band_1(self):
        # 1 + P/(N2 W2) rounds to 1, so log2 of it is 0: no band carries r2.
        p = NearFarParams(alpha=1e20, beta=0.1, power=1e-20, w2=1e5)
        assert dfdm_lambda_bounds(0.5, p) == (1.0, 1.0, False)
        pair = dfdm_rate_bounds(0.5, p)
        assert pair.lower == pair.upper == dfdm_r1(1.0, p) > 0

    def test_zero_geometric_mean_snr_saturates_tau(self):
        # P/(N2 W) underflows to 0, so the politeness bracket is infinite.
        p = NearFarParams(alpha=1e300, beta=0.1, power=1e-300, n2=1e100)
        assert geometric_mean_snr(p) == 0.0
        assert fdm_weak_user_rate(p) == 1.0
        pair = rr_iwf_bounds(1.0, p)
        assert pair.lower == pair.upper == 0.0
        assert np.array_equal(rate_bounds_table([1.0], p)[:, :2], [[0.0, 0.0]])
        # The unrelaxed estimate divided by gsnr * factor on Python floats.
        assert rr_iwf_exact_tau_r1(1.0, p) == 0.0
        assert rr_iwf_exact_tau_r1(1.0, replace(p, beta=0.0)) == \
            fdm_weak_user_rate(p)
