"""Unambiguous discrimination of symmetric coherent states.

For the n states {|r e^{2 pi i t / n}>} the optimal no-error identification
probability is

    P_D(n, r) = min_t sum_j e^{2 pi i j t / n} exp(r^2 (e^{2 pi i j / n} - 1)),

and the split-and-detect strategy (balanced n-arm network followed by
displaced on-off detection on every arm) achieves

    P_LON(n, r) = prod_{k=1}^{n-1} (1 - exp(-(r^2/n) |e^{2 pi i k / n} - 1|^2)).

Both probabilities vanish like r^{2(n-1)} as r -> 0, with coefficients
n^2/n! and n^2/n^{n-1}.  After a loss channel the split-and-detect success
picks up a factor tau^{n-1} in that limit, which beats the no-loss optimum
whenever n! > tau^{1-n}; a threshold n exists for every positive tau.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

# p_d rescales its series by e^-690 (~3e-300): an integer exponent keeps the
# scale exact when it is carried back, to one rounding of the factor per rescale
_SHRINK_EXP = 690
_SHRINK = math.exp(-_SHRINK_EXP)

# math.lgamma(n + 1) was within 2.4 eps (relative) of log n! at each n tried
# (n = 2..2,999 and 5,000 log-spaced n up to 1e300, against 50-digit mpmath);
# log(tau), the products with n - 1 and the difference add at most 2.5 eps of
# a + b, so _LOG_SLACK (a + b) bounds the error of a - b with room to spare
_LOG_SLACK = 16 * sys.float_info.epsilon
# an exact comparison of n! with tau^{1-n} takes ~0.1 s at n = 2^14
_EXACT_MAX_N = 1 << 14


def _check_n(n: int) -> int:
    try:
        n = operator.index(n)  # int or numpy integer; a float is refused, not truncated
    except TypeError:
        raise ValueError(f"the number of states must be an integer, got {n!r}") from None
    if n < 2:
        raise ValueError("need at least two states")
    try:
        math.lgamma(n + 1)
    except OverflowError:  # n itself, or log n!, past the float range
        raise ValueError(
            "the number of states is too large: log n! is past the float range"
        ) from None
    return n


def _check_r(r: float) -> float:
    if not 0.0 <= r < math.inf:  # refuses NaN too
        raise ValueError(f"amplitude must be finite and non-negative, got {r!r}")
    return r


def _check_tau(tau: float) -> float:
    if not 0.0 < tau <= 1.0:
        raise ValueError("transmissivity must lie in (0, 1]")
    return tau


def p_d(n: int, r: float) -> float:
    """Optimal unambiguous-discrimination probability for n symmetric states.

    Each term of the min over t is resummed into a series with positive
    terms,

        S_t = n e^{-r^2} sum_{m >= 0, m = -t (mod n)} r^{2m} / m!,

    all n of them from one pass over m, each r^{2m} / m! going to the class
    of m mod n.  The series is exact and free of the catastrophic
    cancellation that hits the direct alternating sum for small r (relative
    accuracy is lost there below r ~ 1e-3 once n >= 4).  Past r^2 ~ 690 the
    terms would overflow and e^{-r^2} underflow, so the term and the sums are
    rescaled by e^-690 whenever the term passes 1e300, and the scale is
    carried into the exponent.  The pass takes ~r^2 steps, so it is skipped
    once |P_D - 1| <= (n - 1) exp(-2 r^2 sin^2(pi/n)) (from the roots-of-unity
    form S_t = sum_j e^{2 pi i jt/n} exp(r^2 (e^{2 pi i j/n} - 1))) is below
    2^-54: P_D then rounds to 1.0.  The pass stops at m = 4000 + 2 r^2, so
    for n - 1 past that some class gets no term and the result is 0.0,
    returned before the n class sums are allocated.  Values are clamped to
    [0, 1]; the raw expression can exceed 1 for large r, outside its regime
    of validity.
    """
    n, r = _check_n(n), _check_r(r)
    r2 = r * r
    cap = 4000 + 2 * r2  # the pass ends by m = cap
    if n - 1 > cap:
        return 0.0
    if (n - 1) * math.exp(-2.0 * r2 * math.sin(math.pi / n) ** 2) < 2.0**-54:
        return 1.0
    sums = [0.0] * n
    term, m, scaled = 1.0, 0, 0  # r^{2m} / m!, like the sums, times _SHRINK^scaled
    # a term this small comes only past m = r^2, where the terms fall
    while m <= cap and (m < n or term >= 1e-40 * max(min(sums), 1e-300)):
        sums[m % n] += term
        m += 1
        term *= r2 / m
        if term > 1e300:
            term, sums, scaled = term * _SHRINK, [x * _SHRINK for x in sums], scaled + 1
    return min(1.0, max(0.0, n * math.exp(scaled * _SHRINK_EXP - r2) * min(sums)))


def _log_form(n: int, r: float, log_denominator: float) -> float:
    """n^2 r^{2(n-1)} / e^log_denominator through logarithms, for the small-r
    forms when one of their float factors is out of range.  The relative error
    is a few eps times the largest logarithm (~1e-13 at n = 171, r = 10); the
    result is inf or 0.0 only when the value is out of range."""
    if r == 0.0:
        return 0.0
    try:
        return math.exp(2.0 * math.log(n) + 2 * (n - 1) * math.log(r) - log_denominator)
    except OverflowError:
        return math.inf


def p_d_approx(n: int, r: float) -> float:
    """Small-r form n^2 r^{2(n-1)} / n! of the optimal probability."""
    n, r = _check_n(n), _check_r(r)
    if n <= 170:  # n! is a float
        try:
            return n * n * r ** (2 * (n - 1)) / math.factorial(n)
        except OverflowError:  # r^{2(n-1)} past the float range
            pass
    return _log_form(n, r, math.lgamma(n + 1))


def p_lon(n: int, r: float) -> float:
    """Split-and-detect success probability over a balanced n-arm network.

    Each arm receives 1/n of the signal: ``lossy_usd_success`` at tau_b = 1/n.
    """
    return lossy_usd_success(n, r, 1.0 / _check_n(n))


def p_lon_approx(n: int, r: float) -> float:
    """Small-r form n^2 r^{2(n-1)} / n^{n-1} of the split-and-detect probability."""
    n, r = _check_n(n), _check_r(r)
    if n <= 143:  # n^{n-1} is a float
        try:
            return n * n * r ** (2 * (n - 1)) / n ** (n - 1)
        except OverflowError:  # r^{2(n-1)} past the float range
            pass
    return _log_form(n, r, (n - 1) * math.log(n))


def lossy_usd_success(n: int, r: float, tau_b: float) -> float:
    """Split-and-detect success after a loss channel of transmissivity tau_b.

    prod_{k=1}^{n-1} (1 - exp(-tau_b r^2 |e^{2 pi i k/n} - 1|^2)); for small r
    this approaches n^2 r^{2(n-1)} tau_b^{n-1}.  Every factor lies in [0, 1],
    so the product stops once it is 0.0.
    """
    n, r = _check_n(n), _check_r(r)
    _check_tau(tau_b)
    out = 1.0
    for k in range(1, n):
        out *= -math.expm1(-tau_b * r * r * (2.0 - 2.0 * math.cos(2.0 * math.pi * k / n)))
        if out == 0.0:
            break
    return out


def _beats(n: int, tau: float) -> bool:
    """n! > tau^{1-n}, for an n that ``_check_n`` accepts: in floats when
    log n! and (n - 1) log(1/tau) differ by more than _LOG_SLACK times their
    sum, else exactly in integers, as n! p^{n-1} > q^{n-1} for tau = p/q (a
    float is exactly such a ratio)."""
    a, b = math.lgamma(n + 1), (n - 1) * -math.log(tau)
    if abs(a - b) > _LOG_SLACK * (a + b):
        return a > b
    if n > _EXACT_MAX_N:
        raise ValueError(
            f"n! and tau^(1-n) agree to within rounding at tau = {tau!r}, past the "
            f"n = {_EXACT_MAX_N} limit of the exact comparison"
        )
    p, q = tau.as_integer_ratio()
    return math.factorial(n) * p ** (n - 1) > q ** (n - 1)


def beats_no_loss_optimum(n: int, tau: float) -> bool:
    """Whether n! > tau^{1-n}, decided as ``result4_threshold`` decides it."""
    return _beats(_check_n(n), _check_tau(tau))


def result4_threshold(tau: float) -> int:
    """Smallest n >= 2 with n! > tau^{1-n}.

    n! tau^{n-1} is the product of k tau over k = 2..n.  Its factors are at
    most 1 up to k = floor(1/tau) and exceed 1 past it, so the product falls
    and then rises for good: the threshold lies above floor(1/tau), and at
    most at 3/tau because n! > (n/e)^n.  Bisection between the two finds it,
    each comparison as in ``_beats``; ties such as 2! = 2 at tau = 1/2 are
    decided exactly.  Rejects tau outside (0, 1].  Raises ValueError when a
    comparison past _EXACT_MAX_N is too close to call: the float band grows
    like n log n, so that happens for 1 tau in 2,000 between 1e-9 and 1e-8,
    1 in 27 between 1e-11 and 1e-10, and every tau below 1e-12.  A tau
    below ~1e-305, whose search would reach counts with no float log n!, is
    refused before any comparison.
    """
    p, q = _check_tau(tau).as_integer_ratio()
    lo, hi = max(1, q // p), 3 * (q // p + 1)  # n = lo does not beat, n = hi does
    try:
        _check_n(hi)  # every n the bisection compares then has a float log n!
    except ValueError:
        raise ValueError(
            f"tau = {tau!r} is too small: the threshold search reaches counts whose "
            "log n! is past the float range"
        ) from None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _beats(mid, tau):
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class UsdReport:
    n: int
    r: float
    tau: float
    p_d: float
    p_lon: float
    p_d_approx: float
    p_lon_approx: float
    lossy_success: float
    threshold_n: int
    beats_optimum: bool


def usd_report(n: int, r: float, tau: float) -> UsdReport:
    report = UsdReport(
        n=n,
        r=r,
        tau=tau,
        p_d=p_d(n, r),
        p_lon=p_lon(n, r),
        p_d_approx=p_d_approx(n, r),
        p_lon_approx=p_lon_approx(n, r),
        lossy_success=lossy_usd_success(n, r, tau),
        threshold_n=result4_threshold(tau),
        beats_optimum=beats_no_loss_optimum(n, tau),
    )
    if report.p_lon > report.p_d + 1e-12:
        raise AssertionError("split-and-detect exceeded the optimal bound")
    return report
