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

import functools
import math
import operator
import sys
from dataclasses import dataclass


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

    Each term of the min over t is resummed into a positive series,
    S_t = n e^{-r^2} sum_{m = -t (mod n)} r^{2m} / m!: exact, and free of the
    cancellation that costs the alternating sum its accuracy below r ~ 1e-3
    once n >= 4.  One pass fills the n class sums, from the largest term,
    m = floor(r^2), taken as 1, up, then down; each way stops at a term that
    is 0.0 or a subnormal that rounds back to itself, or, once every class
    has a term, one that is subnormal or at most 2^-54 of the least sum:
    below half an ulp of every sum, it and the later ones change none.  The
    masses sum to 1, so P_D = n min(sums) / sum(sums), clamped to 1.  It is
    1.0 with no pass where |P_D - 1| <= (n - 1) exp(-2 r^2 sin^2(pi/n)) (from
    S_t = sum_j e^{2 pi i jt/n} exp(r^2 (e^{2 pi i j/n} - 1))) is below
    2^-54, and 0.0 past n = 78 r + 3000, the pass's reach: a class gets none.
    Where P_D is subnormal it loses relative accuracy (the floor drops the far terms):
    p_d(11057, 145.46612432842437) returns 4.5111e-319 against a true 3.409e-313.

    The reach, from the float format: with x = r^2, step j from the peak
    multiplies by at most 1/(1 + (j-1)/x), rounding twice, so normal terms
    stay within (1 + 2^-52)^{2j} <= 2 (j < 2^50, r < 1e13) of exact ones
    below exp(-j(j-1) / (2(x + j))), as ln(1 + t) >= t/(1 + t).  At j = K =
    ceil(sqrt(2L) r + 2L + 1), L = 1023 ln 2, the term is subnormal: a < 2^52
    ulps.  Past K each factor is at most 1 - g, g = (K-1)/(x + K-1) - 2^-53
    >= 0.9998 / (1 + r/37.66), and a goes to at most (1-g) a + 1/2: a - 1/(2g)
    shrinks by 1 - g a step, below 1/(2g) + 1 each unstuck step takes off an
    ulp, and each way stops within K + (52 ln 2 + 1/2)/g + 5 <= 38.63 r + 1462.
    """
    n, r = _check_n(n), _check_r(r)
    if n > 78 * r + 3000:
        return 0.0
    s = math.sin(math.pi / n) * r  # r^2 alone overflows past r ~ 1.3e154
    if (n - 1) * math.exp(-2.0 * s * s) < 2.0**-54:
        return 1.0
    r2 = r * r
    top = math.floor(r2)
    sums, floor, fill = [0.0] * n, 0.0, top + n - 1  # fill: the m of the n-th term
    for m, term, step in ((top, 1.0, 1), (top - 1, top / r2 if top else 0.0, -1)):
        while m >= 0 and term > floor:
            sums[m % n] += term
            if m == fill:  # the sums only grow
                floor = max(2.0**-54 * min(sums), sys.float_info.min)
            last = term
            term *= r2 / (m + 1) if step > 0 else m / r2
            m += step
            if term == last and term < sys.float_info.min:
                break
        fill = m - n  # the up walk added m - top terms; the down walk adds the rest
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
    this approaches n^2 r^{2(n-1)} tau_b^{n-1}.  The factors at k and n - k are
    equal, so k runs up to n/2, every factor squared but the one at k = n/2.
    Each exponent, tau_b s^2 with s = 2 sin(pi k/n) r, has no cancellation
    and no inf r^2 times a 0.0 sin^2; it grows with k: the product stops at
    the first factor that is 1.0 (so are the later ones) or once it is 0.0.
    """
    n, r, tau_b, out = _check_n(n), _check_r(r), _check_tau(tau_b), 1.0
    for k in range(1, n // 2 + 1):
        s = 2.0 * math.sin(math.pi * k / n) * r
        f = -math.expm1(-tau_b * s * s)
        out *= f if 2 * k == n else f * f
        if f == 1.0 or out == 0.0:
            break
    return out


@functools.lru_cache(maxsize=32)
def _atan(a: int, b: int, bits: int, sign: int) -> tuple[int, int]:
    """atanh (sign 1) or atan (sign -1) of z = a/b in [0, 1/3], times 2^bits, and a bound
    on its error in ulps (2^-bits): 2J + 4 for J nonzero terms.  Z = floor(2^bits z) and
    Y = floor(Z^2 / 2^bits) lie below z and z^2 by < 1 and < 2z + 1 ulps; if T lies below
    z^{2j-1} by e, floor(T Y / 2^bits) lies below z^{2j+1} by < (5/3) z + e/9 + 1, so every
    term by < 1.75, term j / (2j + 1) is off by < 1.75/(2j + 1) + 1, and the terms past the
    last sum to < (9/8) 1.75: in all < 2.75 + 1.59 (J - 1) + 1.97."""
    z = (a << bits) // b
    y, term, total, j = z * z >> bits, z, 0, 0
    while term:
        total += sign**j * (term // (2 * j + 1))
        term, j = term * y >> bits, j + 1
    return total, 2 * j + 4


def _bracket(n: int, p: int, q: int, bits: int) -> tuple[int, int, int]:
    """(lo, hi, err) with lo < 2^{bits+1} F(n) < hi at tau = p/q, as ``_beats`` derives."""
    half_ln2, e3 = _atan(1, 3, bits, 1)
    (a5, e5), (a239, e239) = _atan(1, 5, bits, -1), _atan(1, 239, bits, -1)
    pi, err = 16 * a5 - 4 * a239, 16 * e5 + 4 * e239
    total, ln2s = -2 * n << bits, 1 - bits - 2 * (n - 1) * (q.bit_length() - 1)
    for x, c in ((n, 2 * n + 1), (p, 2 * n - 2), (pi, 1)):
        e = x.bit_length() - 1
        s, es = _atan(x - (1 << e), x + (1 << e), bits, 1)
        total, err, ln2s = total + 2 * c * s, err + 2 * c * es, ln2s + c * e
    total, err = total + 2 * ln2s * half_ln2, err + 2 * abs(ln2s) * e3
    lo = total - err + (2 << bits) // (12 * n + 1)
    return lo, total + err - (-(1 << bits) // (6 * n)), err


def _beats(n: int, tau: float) -> bool:
    """n! > tau^{1-n} for n >= 2, proven: the sign of F(n) = ln n! - (n - 1) ln(q/p), tau =
    p/q, q = 2^k.  Robbins (Amer. Math. Monthly 62:26, 1955): ln n! = (n + 1/2) ln n - n +
    ln(2 pi)/2 + t, 1/(12n + 1) < t < 1/(12n).  ``_bracket`` sums the rest of 2F, 2G =
    (2n + 1) ln n + 2(n - 1) ln p + ln Pi - (2k(n - 1) + P - 1) ln 2 - 2n, in integers
    scaled by 2^P: ln x = e ln 2 + 2 atanh((x - 2^e)/(x + 2^e)) for 2^e <= x < 2^{e+1},
    ln 2 = 2 atanh(1/3), Pi = 2^P pi = 2^P (16 atan(1/5) - 4 atan(1/239)) (Machin), each
    series within ``_atan``'s bound.  Pi is off by d < 16 e_5 + 4 e_239 < 2^{P-1} ulps, ln Pi
    by < d / (pi (1 - d 2^-P)) < d; so err, d plus each bound times its coefficient in 2G,
    bounds |2^P 2G - total|, and lo = total - err + floor(2^{P+1} / (12n + 1)) <
    2^{P+1} F < total + err + ceil(2^P / (6n)) = hi.  n beats if lo >= 0, not if hi <= 0.
    P starts at bit_length(n) + 48 and doubles while neither holds and 2 err exceeds
    Robbins' width; once it does not, |F| < 1/(6n(12n + 1)) + 2^{1-P}, and n! p^{n-1} is
    compared with q^{n-1} exactly.  F = 0 needs p = 1 and n! = 2^{k(n-1)}: only 2! = 2 at
    tau = 1/2.  Such near-ties are rare past small n (by a counting estimate, ~2^53 /
    (72 n^2) floats at most have one at a count >= n), but the comparison costs 0.05 s at
    n = 10^4, 1.3 s at 10^5 and 49 s at 10^6 on a 2-vCPU host."""
    bits, (p, q) = n.bit_length() + 48, tau.as_integer_ratio()
    while True:
        lo, hi, err = _bracket(n, p, q, bits)
        if lo >= 0 or hi <= 0:
            return lo >= 0
        if 4 * err <= hi - lo:  # Robbins' width, not the rounding, leaves the sign open
            return math.factorial(n) * p ** (n - 1) > q ** (n - 1)
        bits *= 2


def beats_no_loss_optimum(n: int, tau: float) -> bool:
    """Whether n! > tau^{1-n}, decided as ``result4_threshold`` decides it, for the counts
    ``_check_n`` accepts; ``result4_threshold`` returns larger ones for tau below ~1e-305."""
    return _beats(_check_n(n), _check_tau(tau))


def result4_threshold(tau: float) -> int:
    """Smallest n >= 2 with n! > tau^{1-n}, for every tau in (0, 1] (others rejected).

    n! tau^{n-1} is the product of k tau over k = 2..n.  Its factors are at
    most 1 up to k = floor(1/tau) and exceed 1 past it, so the product falls
    and then rises for good: the threshold lies above floor(1/tau), and at
    most at 3/tau because n! > (n/e)^n.  Bisection between the two finds it,
    each comparison by ``_beats``'s proven bracket (2! = 2 at tau = 1/2 gives
    3): ~0.2 ms a tau in [1e-11, 1], 0.02 s at 1e-100, 0.3 s at 5e-324.
    """
    p, q = _check_tau(tau).as_integer_ratio()
    lo, hi = max(1, q // p), 3 * (q // p + 1)  # n = lo does not beat, n = hi does
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
    """Every quantity at one point; RuntimeError if p_lon > p_d (1 + 4 eps) + 2^-1022.
    Over n = 2..1000, r = 1e-8..100, p_lon exceeds p_d only at n = 2, where the two
    are equal, by at most 2 eps relative; 2^-1022 covers subnormal rounding.  n beats
    the optimum iff n >= threshold_n: n! tau^{n-1} falls, then rises for good."""
    report = UsdReport(
        n=n,
        r=r,
        tau=tau,
        p_d=p_d(n, r),
        p_lon=p_lon(n, r),
        p_d_approx=p_d_approx(n, r),
        p_lon_approx=p_lon_approx(n, r),
        lossy_success=lossy_usd_success(n, r, tau),
        threshold_n=(threshold := result4_threshold(tau)),
        beats_optimum=_check_n(n) >= threshold,
    )
    if report.p_lon > report.p_d * (1.0 + 4.0 * sys.float_info.epsilon) + sys.float_info.min:
        raise RuntimeError(f"split-and-detect success {report.p_lon!r} exceeds {report.p_d!r}")
    return report
