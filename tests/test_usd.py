"""Unambiguous state discrimination formulas and the loss threshold."""

import dataclasses
import math
import sys
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lossjm import usd

import oracles


def p_d_reference(n, r, dps=50):
    """Direct evaluation of the alternating sum in 50-digit arithmetic."""
    with mpmath.workdps(dps):
        vals = []
        for t in range(1, n + 1):
            s = mpmath.mpf(0)
            for j in range(1, n + 1):
                w = mpmath.e ** (2j * mpmath.pi * j / n)
                s += mpmath.e ** (2j * mpmath.pi * j * t / n) * mpmath.e ** (
                    mpmath.mpf(r) ** 2 * (w - 1)
                )
            assert abs(mpmath.im(s)) < mpmath.mpf(10) ** (-dps + 10)
            vals.append(float(mpmath.re(s)))
    return min(vals)


class TestPd:
    def test_two_states_analytic(self):
        r = 0.1
        assert usd.p_d(2, r) == pytest.approx(1 - math.exp(-2 * r * r), abs=1e-14)
        assert usd.p_d(2, r) == pytest.approx(0.0198013, abs=1e-7)

    def test_indistinguishable_limit(self):
        for n in (2, 3, 5):
            assert usd.p_d(n, 0.0) == 0.0
            assert usd.p_d(n, 1e-9) < 1e-8

    def test_against_extended_precision_reference(self):
        assert usd.p_d(4, 0.05) == pytest.approx(p_d_reference(4, 0.05), abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("r", [0.05, 0.3, 1.0])
    def test_series_matches_reference(self, n, r):
        ref = p_d_reference(n, r)
        assert usd.p_d(n, r) == pytest.approx(min(1.0, max(0.0, ref)), rel=1e-10, abs=1e-13)

    def test_series_and_direct_agree_at_moderate_r(self):
        for n in (2, 3, 4):
            for r in (0.05, 0.2, 0.8):
                assert usd.p_d(n, r) == pytest.approx(
                    oracles.p_d_direct(n, r), rel=1e-9, abs=1e-12
                )

    def test_direct_loses_accuracy_below_crossover(self):
        # the alternating sum cancels catastrophically for r ~ 1e-3, n >= 4;
        # the series route stays accurate (reason it is the default)
        n, r = 5, 1e-3
        exact = p_d_reference(n, r)
        series_err = abs(usd.p_d(n, r) - exact)
        assert series_err < 1e-25
        direct_err = abs(oracles.p_d_direct(n, r) - exact)
        assert direct_err > 1e3 * max(series_err, 1e-300)

    def test_clamped_to_unit_interval(self):
        for n in (2, 3, 4):
            for r in (2.0, 5.0):
                assert 0.0 <= usd.p_d(n, r) <= 1.0

    @given(st.integers(2, 6), st.floats(0.0, 1.5))
    @settings(max_examples=60, deadline=None)
    def test_probability_range(self, n, r):
        assert 0.0 <= usd.p_d(n, r) <= 1.0


def p_d_series_reference(n, r, dps=50):
    """The positive series n e^{-r^2} sum_{m = -t (mod n)} r^{2m} / m!, min over
    t, in 50-digit arithmetic, summed up to m = r^2 + 50 r (+ 50)."""
    with mpmath.workdps(dps):
        r2 = mpmath.mpf(r) ** 2
        sums, term = [mpmath.mpf(0)] * n, mpmath.mpf(1)
        for m in range(int(r2 + 50 * r) + 50):
            sums[m % n] += term
            term *= r2 / (m + 1)
        return float(n * mpmath.exp(-r2) * min(sums))


class TestLargeAmplitude:
    @pytest.mark.parametrize("n", [2, 4, 7, 40])
    @pytest.mark.parametrize("r", [27.3, 28.0, 40.0, 60.0])
    def test_matches_reference_past_exp_underflow(self, n, r):
        # e^{-r^2} underflows past r^2 ~ 745 and r^{2m}/m! overflows past
        # r ~ 26.75; p_d(4, 27.3) once returned 0.0
        ref = p_d_series_reference(n, r)
        assert usd.p_d(n, r) == pytest.approx(min(1.0, ref), rel=1e-13)

    @pytest.mark.parametrize("n, r", [(4, 300.0), (2, 28.0), (3, 28.0)])
    def test_exactly_one_past_the_bound(self, n, r):
        # (n - 1) exp(-2 r^2 sin^2(pi/n)) < 2^-54: P_D rounds to 1.0
        assert usd.p_d(n, r) == min(1.0, p_d_reference(n, r)) == 1.0

    def test_huge_amplitude_in_bounded_time(self):
        # the series would take ~r^2 = 1e10 steps
        t0 = time.perf_counter()
        assert usd.p_d(4, 1e5) == 1.0
        assert time.perf_counter() - t0 < 0.5

    def test_report_at_large_amplitude(self):
        # the report once failed its own p_lon <= p_d check here
        rep = usd.usd_report(4, 28.0, 0.5)
        assert rep.p_lon <= rep.p_d + 1e-12


def p_d_class_sums_reference(ns, r, dps=40):
    """{n: P_D(n, r)} from the positive series in dps-digit arithmetic, each
    term e^{-r^2} r^{2m} / m! built once for every n, over m from
    max(0, r^2 - 40 r - 50) to r^2 + 40 r + 50 + max(ns): the terms left out
    are below e^-800 of the largest."""
    with mpmath.workdps(dps):
        r2 = mpmath.mpf(r) ** 2
        lo = max(0, int(r2 - 40 * r - 50))
        term = mpmath.exp(-r2)
        if lo:
            term = mpmath.exp(lo * mpmath.log(r2) - mpmath.loggamma(lo + 1) - r2)
        terms = []
        for m in range(lo, int(r2 + 40 * r + 50) + max(ns)):
            terms.append((m, term))
            term *= r2 / (m + 1)
        out = {}
        for n in ns:
            sums = [mpmath.mpf(0)] * n
            for m, t in terms:
                sums[m % n] += t
            out[n] = float(min(1, n * min(sums)))
        return out


class TestOnePass:
    """The pass from the largest term, normalised by the total of its sums."""

    NS = [2, 3, 4, 5, 7, 10, 16, 40, 100]

    @pytest.mark.parametrize("r", np.geomspace(1e-3, 60.0, 25).tolist())
    def test_matches_extended_precision_series(self, r):
        # below the normal float range only the absolute error can be small
        ref = p_d_class_sums_reference(self.NS, r)
        for n in self.NS:
            assert usd.p_d(n, r) == pytest.approx(ref[n], rel=1e-13, abs=sys.float_info.min), n

    @pytest.mark.parametrize(
        "n, r", [(1000, 300.0), (100, 100.0), (1000, 50.0), (500, 200.0), (40000, 1000.0)]
    )
    def test_large_amplitude_and_count(self, n, r):
        ref = p_d_class_sums_reference([n], r)[n]
        assert usd.p_d(n, r) == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("n, r, seconds", [(1000, 300.0, 0.1), (40000, 1000.0, 0.2)])
    def test_large_amplitude_in_bounded_time(self, n, r, seconds):
        # the pass from m = 0 took ~r^2 steps, ~2 s at (1000, 300) on a
        # 2-vCPU host; at (40000, 1000) the up walk fills every class with
        # terms that are subnormal and stick there, so a floor below them
        # walks on to m = 2 r^2 (~0.4 s)
        t0 = time.perf_counter()
        usd.p_d(n, r)
        assert time.perf_counter() - t0 < seconds

    def test_huge_amplitude_below_the_bound(self):
        # r^2 = 1e8 but (n - 1) exp(-2 r^2 sin^2(pi/n)) ~ 8e4: no early
        # return, and the pass from m = 0 would take ~1e8 steps; the literal
        # is the 30-digit series over m = r^2 -+ 20 r
        t0 = time.perf_counter()
        value = usd.p_d(10**5, 1e4)
        assert time.perf_counter() - t0 < 1.0
        assert value == pytest.approx(2.9734387659888728e-05, rel=1e-12)


class TestAmplitude:
    CALLS = [
        (usd.p_d, 3),
        (usd.p_d_approx, 3),
        (usd.p_lon, 3),
        (usd.p_lon_approx, 3),
        (lambda n, r: usd.lossy_usd_success(n, r, 0.5), 3),
    ]
    IDS = ["p_d", "p_d_approx", "p_lon", "p_lon_approx", "lossy_usd_success"]

    @pytest.mark.parametrize("r", [-0.1, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("call", CALLS, ids=IDS)
    def test_rejected(self, call, r):
        f, n = call
        with pytest.raises(ValueError, match="amplitude must be finite and non-negative"):
            f(n, r)


class TestApproximations:
    def test_p_d_approx_values(self):
        assert usd.p_d_approx(2, 0.01) == pytest.approx(2e-4, rel=1e-12)
        assert usd.p_d_approx(3, 0.01) == pytest.approx(1.5e-8, rel=1e-12)

    def test_p_d_ratio_approaches_one(self):
        assert usd.p_d(2, 0.01) == pytest.approx(1 - math.exp(-2e-4), abs=1e-14)
        for n in (2, 3, 4):
            ratio = usd.p_d(n, 1e-3) / usd.p_d_approx(n, 1e-3)
            assert abs(ratio - 1) < 0.01

    def test_p_lon_ratio_approaches_one(self):
        for n in (2, 3, 4, 5):
            ratio = usd.p_lon(n, 1e-3) / usd.p_lon_approx(n, 1e-3)
            assert abs(ratio - 1) < 0.01

    @pytest.mark.parametrize("n, r", [(171, 10.0), (200, 3.0), (150, 7.0)])
    def test_forms_past_float_range(self, n, r):
        # n! (n > 170), n^(n-1) (n > 143) or r^(2(n-1)) leave the float range
        with mpmath.workdps(40):
            top = n * n * mpmath.mpf(r) ** (2 * (n - 1))
            p_d = float(top / mpmath.factorial(n))
            p_lon = float(top / mpmath.mpf(n) ** (n - 1))
        assert usd.p_d_approx(n, r) == pytest.approx(p_d, rel=1e-12, abs=0.0)
        assert usd.p_lon_approx(n, r) == pytest.approx(p_lon, rel=1e-12, abs=0.0)

    def test_forms_out_of_range(self):
        assert usd.p_d_approx(4, 1e60) == usd.p_lon_approx(4, 1e60) == math.inf
        assert usd.p_d_approx(171, 0.5) == usd.p_lon_approx(171, 0.5) == 0.0
        assert usd.p_d_approx(171, 0.0) == usd.p_lon_approx(171, 0.0) == 0.0

    def test_n2_forms_coincide(self):
        # 2! = 2^1, so both small-r forms agree for two states
        assert usd.p_d_approx(2, 0.01) == usd.p_lon_approx(2, 0.01)


class TestHugeCount:
    """A count past the series' step cap or the float range of n! and
    n^(n-1) needs no n-sized work, and each value equals the old one."""

    def test_small_r_forms_in_bounded_time(self):
        # n! and n^(n-1) at n = 1e6 took seconds to build, only to overflow
        t0 = time.perf_counter()
        assert usd.p_d_approx(10**6, 0.5) == usd.p_lon_approx(10**6, 0.5) == 0.0
        assert usd.lossy_usd_success(10**7, 0.1, 0.5) == 0.0
        assert time.perf_counter() - t0 < 0.25

    @staticmethod
    def _old_forms(n, r):
        """The small-r forms as written before the early branch to logarithms."""
        try:
            p_d = n * n * r ** (2 * (n - 1)) / math.factorial(n)
        except OverflowError:
            p_d = oracles.small_r_log_form(n, r, math.lgamma(n + 1))
        try:
            p_lon = n * n * r ** (2 * (n - 1)) / n ** (n - 1)
        except OverflowError:
            p_lon = oracles.small_r_log_form(n, r, (n - 1) * math.log(n))
        return p_d, p_lon

    @pytest.mark.parametrize("n", [143, 144, 170, 171])
    @pytest.mark.parametrize("r", [0.0, 0.3, 1.0, 10.0])
    def test_small_r_forms_at_the_float_range(self, n, r):
        assert (usd.p_d_approx(n, r), usd.p_lon_approx(n, r)) == self._old_forms(n, r)

    @pytest.mark.parametrize("r", [0.0, 0.5, 5.0])
    @pytest.mark.parametrize("step", [-1, 0, 1])
    def test_p_d_at_the_step_cap(self, r, step):
        # past n = 4001 + 2 r^2 the pass leaves a class empty: P_D is 0.0
        n = int(4001 + 2 * r * r) + step
        assert usd.p_d(n, r) == oracles.p_d_loop(n, r)
        if step > 0:
            assert usd.p_d(n, r) == 0.0


class TestPLon:
    def test_two_states_optimal(self):
        for r in (0.01, 0.1, 0.5, 1.0):
            assert abs(usd.p_lon(2, r) - usd.p_d(2, r)) < 1e-12

    def test_three_states_value(self):
        # |e^{2 pi i k/3} - 1|^2 = 3 for both factors
        expect = (1 - math.exp(-0.25)) ** 2
        assert usd.p_lon(3, 0.5) == pytest.approx(expect, rel=1e-12)
        assert usd.p_lon(3, 0.5) == pytest.approx(0.0489291, abs=1e-6)

    def test_zero_amplitude(self):
        for n in (2, 4, 7):
            assert usd.p_lon(n, 0.0) == 0.0

    def test_never_beats_optimum(self):
        for n in range(2, 7):
            for r in np.linspace(0.01, 1.0, 12):
                assert usd.p_lon(n, r) <= usd.p_d(n, r) + 1e-12

    def test_strictly_suboptimal_beyond_two(self):
        for n in (3, 4, 5):
            assert usd.p_lon(n, 0.3) < usd.p_d(n, 0.3)


class TestRootDistanceProduct:
    @pytest.mark.parametrize("n", [3, 5])
    def test_small_cases(self, n):
        assert oracles.root_distance_product(n) == pytest.approx(n * n, abs=1e-10)

    def test_identity_up_to_twenty(self):
        for n in range(2, 21):
            assert abs(oracles.root_distance_product(n) - n * n) < 1e-9


def lossy_success_reference(n, r, tau, dps=40):
    """prod_{k=1}^{n-1} (1 - exp(-tau r^2 |e^{2 pi i k/n} - 1|^2)) in dps-digit
    arithmetic, |e^{2 pi i k/n} - 1|^2 as 2 - 2 cos(2 pi k/n) and the factors at
    k and n - k as one square: each cancellation costs at most ~13 of the 40
    digits here.  A factor whose exponent is 60 or more, within e^-60 of 1,
    is left out; the product is 0 once below 1e-400, past the float range."""
    with mpmath.workdps(dps):
        x, out, tiny = mpmath.mpf(tau) * mpmath.mpf(r) ** 2, mpmath.mpf(1), mpmath.mpf("1e-400")
        for k in range(1, n // 2 + 1):
            if 4 * tau * r * r * math.sin(math.pi * k / n) ** 2 >= 60:
                continue
            f = 1 - mpmath.exp(-x * (2 - 2 * mpmath.cospi(mpmath.mpf(2 * k) / n)))
            out *= f if 2 * k == n else f * f
            if out < tiny:
                return mpmath.mpf(0)
        return out


def assert_near_product(value, n, r, tau):
    """|value - P| <= 1e-13 P for the reference P, with one subnormal ulp a
    factor of absolute slack where the product leaves the normal range."""
    ref = lossy_success_reference(n, r, tau)
    assert abs(value - ref) <= 1e-13 * ref + n * 2.0**-1074, (n, r, tau, value, ref)


class TestLossySuccess:
    def test_scaling_with_balanced_split(self):
        # at tau_b = 1/n the product reproduces the split-and-detect formula
        n, r = 3, 0.1
        assert usd.lossy_usd_success(n, r, 1.0 / n) == pytest.approx(
            usd.p_lon(n, r), rel=1e-12
        )

    def test_zero_amplitude(self):
        assert usd.lossy_usd_success(4, 0.0, 0.5) == 0.0

    def test_small_r_form(self):
        n, r, tau = 3, 1e-3, 0.5
        expect = n * n * r ** (2 * (n - 1)) * tau ** (n - 1)
        assert usd.lossy_usd_success(n, r, tau) == pytest.approx(expect, rel=0.01)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 50, 200, 1000])
    @pytest.mark.parametrize("tau", [0.01, 0.3, 0.5, 1.0])
    def test_equals_the_full_product(self, n, tau):
        # the cosine form 2 - 2 cos(2 pi k/n) was 2.6e-12 off at n = 1000, r = 2
        for r in [0.0, 0.1, 1.0, 2.0, 3.0, 5.0, 10.0, 30.0, 100.0, 1e3, 1e5]:
            assert_near_product(usd.lossy_usd_success(n, r, tau), n, r, tau)

    def test_equals_the_full_product_at_random_points(self):
        rng = np.random.default_rng(18)
        for _ in range(300):
            n = int(rng.integers(2, 3000))
            r, tau = float(10 ** rng.uniform(-2, 3)), float(rng.uniform(1e-3, 1.0))
            assert_near_product(usd.lossy_usd_success(n, r, tau), n, r, tau)

    def test_large_count_and_amplitude_in_bounded_time(self):
        # the product over every k took ~3 s on a 2-vCPU host: only k = 1,
        # 2, n - 2, n - 1 have an exponent below 40
        n, r, tau = 10**7, 1e7, 0.5
        t0 = time.perf_counter()
        value = usd.lossy_usd_success(n, r, tau)
        assert time.perf_counter() - t0 < 0.01
        # the cosine form was 3e-12 (relative) off here
        factor = -math.expm1(-4 * tau * r * r * math.sin(math.pi / n) ** 2)
        assert value == pytest.approx(factor**2, rel=1e-14)
        for n, r in ((10**5, 1e5), (10**6, 3000.0)):  # the cosine form: 8.1e-7 off at 10^6
            assert_near_product(usd.lossy_usd_success(n, r, tau), n, r, tau)


class TestThreshold:
    def test_half(self):
        # 2! = 2 fails the strict comparison against 2^1, 3! = 6 beats 2^2
        assert not usd.beats_no_loss_optimum(2, 0.5)
        assert usd.beats_no_loss_optimum(3, 0.5)
        assert usd.result4_threshold(0.5) == 3

    def test_quarter(self):
        # 6! = 720 < 4^5 = 1024 while 7! = 5040 > 4^6 = 4096
        assert Fraction(math.factorial(6)) * Fraction(0.25) ** 5 < 1
        assert Fraction(math.factorial(7)) * Fraction(0.25) ** 6 > 1
        assert usd.result4_threshold(0.25) == 7

    def test_lossless(self):
        assert usd.result4_threshold(1.0) == 2

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            usd.result4_threshold(0.0)

    @pytest.mark.parametrize("tau", [0.0, -0.5, 1.5, 2.0])
    def test_transmissivity_outside_unit_interval(self, tau):
        for call in (
            lambda: usd.beats_no_loss_optimum(3, tau),
            lambda: usd.result4_threshold(tau),
            lambda: usd.lossy_usd_success(3, 0.1, tau),
        ):
            with pytest.raises(ValueError, match=r"transmissivity must lie in \(0, 1\]"):
                call()

    @pytest.mark.parametrize("tau", [0.9, 0.5, 0.25, 0.1])
    def test_contradiction_exhibited(self, tau):
        # at the threshold the lossy split-and-detect small-r form strictly
        # exceeds the no-loss optimum's small-r form:
        # n^2 r^{2(n-1)} tau^{n-1} > n^2 r^{2(n-1)} / n!  iff  n! tau^{n-1} > 1
        n = usd.result4_threshold(tau)
        assert Fraction(math.factorial(n)) * Fraction(tau) ** (n - 1) > 1
        assert not Fraction(math.factorial(n - 1)) * Fraction(tau) ** (n - 2) > 1 or n == 2
        r = 1e-3
        lossy = usd.lossy_usd_success(n, r, tau)
        assert lossy > usd.p_d_approx(n, r)


class TestThresholdSearch:
    GRID = sorted(
        {*np.geomspace(2e-3, 1.0, 80).tolist(), 1 / 2, 1 / 3, 1 / 4}
        | {float(np.nextafter(t, s)) for t in (1 / 2, 1 / 3, 1 / 4) for s in (0.0, 1.0)}
    )

    def test_matches_loop_in_bounded_time(self):
        # the search over n = 2, 3, ... took ~1 s per tau near 2e-3
        seconds = 0.0
        for tau in self.GRID:
            t0 = time.perf_counter()
            n = usd.result4_threshold(tau)
            seconds += time.perf_counter() - t0
            assert n == oracles.threshold_loop(tau), tau
            assert usd.beats_no_loss_optimum(n, tau)
            assert n == 2 or not usd.beats_no_loss_optimum(n - 1, tau)
        assert seconds < 0.5

    def test_tiny_tau_in_bounded_time(self):
        # a search over n = 2, 3, ... would compare n! with tau^(1-n) ~2.7e9 times
        t0 = time.perf_counter()
        n = usd.result4_threshold(1e-9)
        assert time.perf_counter() - t0 < 0.1
        with mpmath.workdps(60):
            def log_ratio(m):  # log(m! tau^(m-1))
                return mpmath.loggamma(m + 1) - (m - 1) * mpmath.log(1 / mpmath.mpf(1e-9))

            assert log_ratio(n) > 0 > log_ratio(n - 1)
        assert n == 2718281796

    def test_too_close_to_call_refused(self):
        # below tau ~ 1e-12 the rounding band of the float test spans several n
        with pytest.raises(ValueError, match="agree to within rounding"):
            usd.result4_threshold(1e-13)


class TestCount:
    CALLS = [
        (usd.p_d, 0.1),
        (usd.p_d_approx, 0.1),
        (usd.p_lon, 0.1),
        (usd.p_lon_approx, 0.1),
        (usd.lossy_usd_success, 0.1, 0.5),
        (usd.beats_no_loss_optimum, 0.5),
    ]
    IDS = [call[0].__name__ for call in CALLS]

    @pytest.mark.parametrize("n", [2.5, 3.0, "3"])
    @pytest.mark.parametrize("call", CALLS, ids=IDS)
    def test_non_integer_count_rejected(self, call, n):
        # p_d(2.5, r) once returned p_d(2, r)
        f, *args = call
        with pytest.raises(ValueError, match="must be an integer"):
            f(n, *args)

    @pytest.mark.parametrize("n", [1, 0, -3])
    @pytest.mark.parametrize("call", CALLS, ids=IDS)
    def test_too_few_states_rejected(self, call, n):
        f, *args = call
        with pytest.raises(ValueError, match="need at least two states"):
            f(n, *args)

    @pytest.mark.parametrize("n", [10**306, 2**1100], ids=["lgamma-overflows", "past-float-range"])
    @pytest.mark.parametrize("call", CALLS, ids=IDS)
    def test_count_without_float_log_factorial_refused(self, call, n):
        # these once raised OverflowError, or beats_no_loss_optimum refused
        # with the false "agree to within rounding"
        f, *args = call
        with pytest.raises(ValueError, match=r"log n! is past the float range"):
            f(n, *args)

    @pytest.mark.parametrize("call", CALLS, ids=IDS)
    def test_largest_counts_answer(self, call):
        f, *args = call
        assert 0.0 <= f(10**305, *args) <= 1.0

    def test_tau_past_the_float_threshold_refused(self):
        # the threshold search once reached counts whose log n! overflowed and
        # refused with the false "agree to within rounding"
        for tau in (1e-306, 5e-324):
            with pytest.raises(ValueError, match="is too small"):
                usd.result4_threshold(tau)

    @pytest.mark.parametrize("call", CALLS, ids=IDS)
    def test_numpy_integer_count_accepted(self, call):
        f, *args = call
        assert f(np.int64(3), *args) == f(3, *args)


class TestExactThreshold:
    @given(st.integers(2, 40), st.floats(1e-6, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_matches_rational_comparison(self, n, tau):
        want = math.factorial(n) * Fraction(tau) ** (n - 1) > 1
        assert usd.beats_no_loss_optimum(n, tau) is want


class TestReport:
    def test_report_fields(self):
        rep = usd.usd_report(3, 0.01, 0.5)
        d = dataclasses.asdict(rep)
        assert d["threshold_n"] == 3
        assert d["beats_optimum"] is True
        assert 0 <= d["p_lon"] <= d["p_d"] + 1e-12
