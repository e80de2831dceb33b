"""Unambiguous state discrimination formulas and the loss threshold."""

import dataclasses
import math
import random
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
        # 2-vCPU host; at (40000, 1000) the up walk once went on through
        # subnormal terms that rounded back to themselves, to m = 2 r^2 (~0.4 s)
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
    """A count past the pass's reach or the float range of n! and n^(n-1)
    needs no n-sized work, and each value equals the old one."""

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
        # past n = 78 r + 3000, the pass's reach, a class gets no term: P_D is
        # 0.0 with no pass, and the passes that do run find the same
        n = math.floor(78 * r + 3000) + step
        assert usd.p_d(n, r) == oracles.p_d_walk(n, r) == oracles.p_d_loop(n, r) == 0.0

    def test_overflowing_square_in_bounded_time(self):
        # r^2 overflowed to inf and sin^2(pi/n) underflowed to 0.0: each
        # exponent was nan, so p_d raised OverflowError from floor(inf) and
        # the product, stopped by neither test, ran k up to n/2
        t0 = time.perf_counter()
        assert usd.p_d(10**170, 1e200) == usd.lossy_usd_success(10**170, 1e200, 0.5) == 1.0
        assert time.perf_counter() - t0 < 0.05


def pass_lengths(r):
    """The terms that the pass of ``usd.p_d`` adds up and down from its peak
    when no class sum stops it: its stop rules for an n that it cannot fill."""
    r2, top, out = r * r, math.floor(r * r), []
    for m, term, step in ((top, 1.0, 1), (top - 1, top / r2 if top else 0.0, -1)):
        count = 0
        while m >= 0 and term > 0.0:
            count += 1
            last = term
            term *= r2 / (m + 1) if step > 0 else m / r2
            m += step
            if term == last and term < sys.float_info.min:
                break
        out.append(count)
    return out


def poisson_two_tails(x, a, dps=30):
    """Chernoff's bound on P(|M - x| >= a) for M ~ Poisson(x) and 0 < a < x:
    the sum of e^{-x} (e x / k)^k at k = x + a and k = x - a."""
    with mpmath.workdps(dps):
        x, a = mpmath.mpf(x), mpmath.mpf(a)
        return sum(mpmath.exp(k * (1 + mpmath.log(x / k)) - x) for k in (x + a, x - a))


class TestFloatFormatCutoffs:
    """The pass of ``usd.p_d`` stops where the float format says: at a
    subnormal term that rounds back to itself, at 2^-54 of the least class
    sum, and past its proven reach of 78 r + 3000 terms."""

    # every (n, r) at which the tests above call p_d
    GRID = sorted(
        {(n, r) for n in range(2, 7) for r in (0.0, 1e-9, 1e-3, 0.01, 0.05, 0.1, 0.3, 0.8, 1.0)}
        | {(n, r) for n in range(2, 7) for r in (2.0, 5.0, *np.linspace(0.01, 1.0, 12).tolist())}
        | {(n, r) for n in (2, 4, 7, 40) for r in (27.3, 28.0, 40.0, 60.0)}
        | {(n, r) for n in TestOnePass.NS for r in np.geomspace(1e-3, 60.0, 25).tolist()}
        | {(4, 300.0), (4, 1e5), (1000, 300.0), (100, 100.0), (1000, 50.0), (500, 200.0)}
        | {(40000, 1000.0), (10**5, 1e4)}
    )

    def test_equals_the_walk_it_replaces(self):
        for n, r in self.GRID:
            assert usd.p_d(n, r) == oracles.p_d_walk(n, r), (n, r)

    def test_equals_the_walk_at_random_points(self):
        # where they differ, the old walk summed subnormal terms that stuck:
        # a stuck-subnormal artifact that is now 0.0
        rng = np.random.default_rng(22)
        for _ in range(300):
            n = int(np.exp(rng.uniform(math.log(2), math.log(3e4))))
            r = float(10 ** rng.uniform(-3, 2.5))
            new, old = usd.p_d(n, r), oracles.p_d_walk(n, r)
            assert new == old or new == 0.0 < old < sys.float_info.min, (n, r, new, old)

    @pytest.mark.parametrize("r", [1e-3, 0.5, 1.0, 3.0, 10.0, 40.0, 150.0, 1000.0])
    def test_pass_within_its_reach(self, r):
        up, down = pass_lengths(r)
        assert max(up, down) <= 38.63 * r + 1462  # each way, as the docstring derives
        assert up + down <= 78 * r + 3000
        # and p_d stops where the replica does: up + down classes fill, one more does not
        assert usd.p_d(up + down, r) > 0.0 == usd.p_d(up + down + 1, r)

    def test_past_the_reach_in_bounded_time(self):
        # the walk once went on through a subnormal term that rounded back to
        # itself, up to m ~ 2 r^2: 0.80 s on a 2-vCPU host to return 0.0
        t0 = time.perf_counter()
        assert usd.p_d(2 * 10**6, 1e3) == 0.0
        assert time.perf_counter() - t0 < 0.05

    @pytest.mark.parametrize(
        "n, r, old", [(10**4, 100.0, 2e-322), (10**5, 300.0, 6.57e-322), (10**5, 1000.0, None)]
    )
    def test_stuck_subnormals_sum_to_zero(self, n, r, old):
        # the old walk added such a term to class after class and returned
        # `old` (1.576e-321 at (10^5, 1000), where it takes ~1 s).  The class
        # of m = floor(r^2) + n // 2 has no member within n // 2 - 1 of r^2,
        # so P_D <= n P(|M - r^2| >= n // 2 - 1), below half the least subnormal
        assert usd.p_d(n, r) == 0.0
        assert n * poisson_two_tails(r * r, n // 2 - 1) < mpmath.mpf(2) ** -1075
        assert old is None or oracles.p_d_walk(n, r) == old


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

    def test_a_factor_of_one_ends_the_product(self):
        # the later factors have larger exponents and are 1.0 too: the
        # product over every k <= n/2 is the same float
        rng = np.random.default_rng(22)
        for _ in range(300):
            n = int(rng.integers(2, 3000))
            r, tau = float(10 ** rng.uniform(-2, 3)), float(rng.uniform(1e-3, 1.0))
            full = 1.0
            for k in range(1, n // 2 + 1):
                s = 2.0 * math.sin(math.pi * k / n) * r
                f = -math.expm1(-tau * s * s)
                full *= f if 2 * k == n else f * f
            assert usd.lossy_usd_success(n, r, tau) == full, (n, r, tau)

    def test_large_count_and_amplitude_in_bounded_time(self):
        # the product over every k took ~3 s on a 2-vCPU host: only k = 1,
        # 2, n - 2, n - 1 have a factor below 1.0
        n, r, tau = 10**7, 1e7, 0.5
        t0 = time.perf_counter()
        value = usd.lossy_usd_success(n, r, tau)
        assert time.perf_counter() - t0 < 0.01
        # the cosine form was 3e-12 (relative) off here
        factor = -math.expm1(-4 * tau * r * r * math.sin(math.pi / n) ** 2)
        assert value == pytest.approx(factor**2, rel=1e-14)
        for n, r in ((10**5, 1e5), (10**6, 3000.0)):  # the cosine form: 8.1e-7 off at 10^6
            assert_near_product(usd.lossy_usd_success(n, r, tau), n, r, tau)


def assert_least_count(tau, n):
    """n! tau^(n-1) > 1 >= (n-1)! tau^(n-2), by mpmath's loggamma at enough digits."""
    with mpmath.workdps(40 + len(str(n))):
        def log_ratio(m):
            return mpmath.loggamma(m + 1) + (m - 1) * mpmath.log(mpmath.mpf(tau))

        assert log_ratio(n) > 0 and (n == 2 or log_ratio(n - 1) < 0), (tau, n)


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
        assert_least_count(1e-9, n)
        assert n == 2718281796

    def test_once_too_close_to_call_answers(self):
        # below tau ~ 1e-12 the rounding band of the former float test spanned
        # several n, and past n = 2^14 it refused; 1e-100 once raised as well
        for tau, want in ((1e-12, 2718281828417), (1e-13, 27182818284545)):
            assert usd.result4_threshold(tau) == want
            assert_least_count(tau, want)
        t0 = time.perf_counter()
        n = usd.result4_threshold(1e-100)
        assert time.perf_counter() - t0 < 0.5
        assert len(str(n)) == 101
        assert_least_count(1e-100, n)

    def test_seeded_log_uniform_taus(self):
        # 300 taus in [1e-11, 1]; the former float band refused 3.080835799794614e-09
        rng = random.Random(5)
        for tau in [10 ** rng.uniform(-11, 0) for _ in range(300)]:
            assert_least_count(tau, usd.result4_threshold(tau))
        assert usd.result4_threshold(3.080835799794614e-09) == 882319576

    @pytest.mark.parametrize("a,b", [
        (1, 3), (1, 5), (1, 239), (0, 2), (1, 10**40), (2**60 - 1, 2**62), (3**600, 3**601),
        (5**400 - 7, 5**400 * 3 + 1),
    ], ids=["third", "fifth", "machin-239", "zero", "tiny", "near-quarter", "big-third", "big"])
    @pytest.mark.parametrize("bits", [8, 60, 1200])
    def test_fixed_point_series_within_their_bound(self, a, b, bits):
        for sign, exact in ((1, mpmath.atanh), (-1, mpmath.atan)):
            total, bound = usd._atan(a, b, bits, sign)
            with mpmath.workdps(bits // 3 + 40):
                assert abs(total - exact(mpmath.mpf(a) / b) * mpmath.mpf(2) ** bits) < bound

    LOG_ARGS = {
        "two": 2, "three": 3, "odd-53-bit": 2**53 - 1, "googol": 10**100,
        "past-floats": 3 * 2**1074 + 1,
    }

    @pytest.mark.parametrize("x", LOG_ARGS.values(), ids=LOG_ARGS)
    @pytest.mark.parametrize("bits", [60, 1200])
    def test_fixed_point_logarithms_within_their_bound(self, x, bits):
        # ln x = e ln 2 + 2 atanh((x - 2^e)/(x + 2^e)), ln 2 = 2 atanh(1/3), as _bracket sums them
        e = x.bit_length() - 1
        (s, es), (s3, e3) = usd._atan(x - (1 << e), x + (1 << e), bits, 1), usd._atan(1, 3, bits, 1)
        with mpmath.workdps(bits // 3 + 40):
            exact = mpmath.log(x) * mpmath.mpf(2) ** bits
            assert abs(2 * s + 2 * e * s3 - exact) < 2 * es + 2 * e * e3

    BRACKETS = {
        "tie": (2, 0.5), "half": (3, 0.5), "quarter": (7, 0.25),
        "width-blocks": (40000, 6.793018371443059e-05),
        "rounding-blocks": (101814, 2.6693993361968942e-05), "1e-12": (2718281828417, 1e-12),
        "count-1e305": (10**305, 0.5), "tiny-tau": (3, 5e-324),
        "past-floats": (3 * 2**1074, 5e-324),
    }

    @pytest.mark.parametrize("n,tau", BRACKETS.values(), ids=BRACKETS)
    def test_bracket_holds_the_mpmath_value(self, n, tau):
        p, q = tau.as_integer_ratio()
        for bits in (n.bit_length() + 48, 2 * (n.bit_length() + 48)):
            lo, hi, err = usd._bracket(n, p, q, bits)
            with mpmath.workdps(bits // 3 + 60):
                scale, lnfact = mpmath.mpf(2) ** (bits + 1), mpmath.loggamma(n + 1)
                two_f = scale * (lnfact + (n - 1) * mpmath.log(mpmath.mpf(tau)))
                stirling = (mpmath.mpf(n) + 0.5) * mpmath.log(n) - n + mpmath.log(2 * mpmath.pi) / 2
                two_g = two_f - scale * (lnfact - stirling)
                assert lo < two_f < hi
                # the rounding part alone: total = lo + err - floor(2^{bits+1} / (12n + 1))
                assert abs(lo + err - (2 << bits) // (12 * n + 1) - two_g) < err

    def test_precision_doubles_while_the_rounding_blocks(self, monkeypatch):
        # F = 7.8e-13: on the 2F scale the first bracket's rounding, 2 err = 1.6e-12,
        # exceeds Robbins' width, 1.3e-12, so the precision doubles once, and the
        # second bracket, [1.1e-13, 7.8e-13] on the F scale, decides
        n, tau = 101814, 2.6693993361968942e-05
        seen, bracket = [], usd._bracket
        monkeypatch.setattr(usd, "_bracket", lambda *args: seen.append(args[-1]) or bracket(*args))
        assert usd.beats_no_loss_optimum(n, tau)
        assert seen == [65, 130]
        assert_least_count(tau, n)


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

    def test_tau_past_the_float_threshold_answers(self):
        # the threshold search reaches counts whose log n! overflows a float;
        # these taus were once refused as "too small"
        for tau, digits in ((1e-306, 307), (5e-324, 324)):
            t0 = time.perf_counter()
            n = usd.result4_threshold(tau)
            assert time.perf_counter() - t0 < 5.0
            assert len(str(n)) == digits
            assert_least_count(tau, n)

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

    def test_near_ties_match_rational_comparison(self):
        # the nine floats from 4 ulps below to 4 above each root (n!)^(-1/(n-1)):
        # the bracket's edge, and the exact comparison where Robbins' width blocks
        for n in [*range(3, 61), 100, 500, 2000]:
            with mpmath.workdps(50):
                tau = float(mpmath.exp(-mpmath.loggamma(n + 1) / (n - 1)))
            for _ in range(4):
                tau = math.nextafter(tau, 0.0)
            for _ in range(9):
                want = math.factorial(n) * Fraction(tau) ** (n - 1) > 1
                assert usd.beats_no_loss_optimum(n, tau) is want, (n, tau)
                tau = math.nextafter(tau, 1.0)


class TestReport:
    def test_report_fields(self):
        rep = usd.usd_report(3, 0.01, 0.5)
        d = dataclasses.asdict(rep)
        assert d["threshold_n"] == 3
        assert d["beats_optimum"] is True
        assert 0 <= d["p_lon"] <= d["p_d"] + 1e-12

    def test_beats_optimum_is_the_threshold_decision(self):
        # the report reads n >= threshold_n; beats_no_loss_optimum decides n alone
        for tau in TestThresholdSearch.GRID:
            for n in range(2, 13):
                want = usd.beats_no_loss_optimum(n, tau)
                assert usd.usd_report(n, 0.1, tau).beats_optimum is want, (n, tau)
