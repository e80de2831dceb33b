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

import itertools
import math
import operator
import sys
from dataclasses import dataclass

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
    accuracy is lost there below r ~ 1e-3 once n >= 4).  The pass starts at
    the largest term, m = floor(r^2), taken as 1, walks up, then down, and
    stops at a term that is 0.0 or, once every class has one, subnormal or
    at most 1e-40 of the least sum.  The class masses sum to 1, so
    P_D = n min(sums) / sum(sums): nothing overflows, no e^{-r^2} is formed,
    and the pass takes O(n + r) steps.  It is skipped once |P_D - 1| <=
    (n - 1) exp(-2 r^2 sin^2(pi/n)) (from the roots-of-unity form S_t =
    sum_j e^{2 pi i jt/n} exp(r^2 (e^{2 pi i j/n} - 1))) is below 2^-54: P_D
    then rounds to 1.0.  Past m = 2 r^2 each term at most halves, so from
    about m = 2 r^2 + 1075 the terms are 0.0; for n - 1 past 4000 + 2 r^2
    some class gets only those, and 0.0 is returned before the n sums are
    allocated.  Values are clamped to 1, which rounding can pass.
    """
    n, r = _check_n(n), _check_r(r)
    r2 = r * r
    if n - 1 > 4000 + 2 * r2:
        return 0.0
    if (n - 1) * math.exp(-2.0 * r2 * math.sin(math.pi / n) ** 2) < 2.0**-54:
        return 1.0
    top = math.floor(r2)
    sums, floor, terms = [0.0] * n, 0.0, 0
    # r^{2m} / m! over that at m = top: up from m = top, then down from top - 1
    for m, term, step in ((top, 1.0, 1), (top - 1, top / r2 if top else 0.0, -1)):
        while m >= 0 and term > floor:
            sums[m % n] += term
            terms += 1
            if terms == n:  # the sums only grow; a subnormal term can stick
                floor = max(1e-40 * min(sums), sys.float_info.min)
            term *= r2 / (m + 1) if step > 0 else m / r2
            m += step
    return min(1.0, n * min(sums) / math.fsum(sums))


def _small_r_form(n: int, r: float, max_n: int, denominator, log_denominator) -> float:
    """n^2 r^{2(n-1)} / D(n): in floats while D(n) (n <= max_n) and r^{2(n-1)}
    are, else from log D(n), with a relative error of a few eps times the
    largest logarithm (~1e-13 at n = 171, r = 10), inf or 0.0 only out of range."""
    n, r = _check_n(n), _check_r(r)
    if n <= max_n:
        try:
            return n * n * r ** (2 * (n - 1)) / denominator(n)
        except OverflowError:  # r^{2(n-1)} past the float range
            pass
    if r == 0.0:
        return 0.0
    try:
        return math.exp(2.0 * math.log(n) + 2 * (n - 1) * math.log(r) - log_denominator(n))
    except OverflowError:
        return math.inf


def p_d_approx(n: int, r: float) -> float:
    """Small-r form n^2 r^{2(n-1)} / n! of the optimal probability."""
    return _small_r_form(n, r, 170, math.factorial, lambda n: math.lgamma(n + 1))


def p_lon(n: int, r: float) -> float:
    """Split-and-detect success probability over a balanced n-arm network.

    Each arm receives 1/n of the signal: ``lossy_usd_success`` at tau_b = 1/n.
    """
    return lossy_usd_success(n, r, 1.0 / _check_n(n))


def p_lon_approx(n: int, r: float) -> float:
    """Small-r form n^2 r^{2(n-1)} / n^{n-1} of the split-and-detect probability."""
    return _small_r_form(n, r, 143, lambda n: n ** (n - 1), lambda n: (n - 1) * math.log(n))


def lossy_usd_success(n: int, r: float, tau_b: float) -> float:
    """Split-and-detect success after a loss channel of transmissivity tau_b.

    prod_{k=1}^{n-1} (1 - exp(-tau_b r^2 |e^{2 pi i k/n} - 1|^2)); for small r
    this approaches n^2 r^{2(n-1)} tau_b^{n-1}.  Every factor lies in [0, 1],
    so the product stops once it is 0.0.  Factors with exponent
    4 tau_b r^2 sin^2(pi k/n) >= 40 are exactly 1.0 (e^-40 < 2^-54): only
    k <= K and k >= n - K, K = floor((n/pi) asin(sqrt(10 / (tau_b r^2)))) + 1,
    are multiplied, with 1e-16 under the root for the cosine's rounding.
    """
    n, r = _check_n(n), _check_r(r)
    x, K = _check_tau(tau_b) * r * r, n - 1
    if x > 10.0:
        K = min(K, math.floor(n / math.pi * math.asin(math.sqrt(10.0 / x + 1e-16))) + 1)
    out = 1.0
    for k in itertools.chain(range(1, K + 1), range(max(K + 1, n - K), n)):
        out *= -math.expm1(-x * (2.0 - 2.0 * math.cos(2.0 * math.pi * k / n)))
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
