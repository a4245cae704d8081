"""Exact Clopper-Pearson intervals, rounded outward to doubles.

For k successes in n trials and X ~ Binomial(n, p), the two-sided interval
at level ``ALPHA`` = 1/20 has the ends p_lo, the root of
P_p(X >= k) = 1/40, and p_hi, the root of P_p(X <= k) = 1/40 (Clopper &
Pearson, Biometrika 26, 1934). ``clopper_pearson`` returns the largest
double at or below p_lo and the smallest double at or above p_hi, so the
interval it reports is never narrower than the exact one.

Every double is p = a / 2^e, so 2^(e n) P_p(X >= j) is the integer
sum_{i >= j} C(n, i) a^i (2^e - a)^(n - i). Each candidate end is decided
on that integer; floats only propose candidates. Neither root is a double:
5 divides 40 but no power of 2, so no tail of a double equals 1/40 or
39/40 and the strict and the non-strict test agree. A candidate comes from
Newton steps on the exact residual, started at the Wilson score interval
(at k = 0 and k = n, at the closed forms 1 - 40^(-1/n) and 40^(-1/n)),
with bisection over the doubles where a step leaves the bracket. The
result is memoized by (k, n).
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError

ALPHA = Fraction(1, 20)

# the standard normal quantile at 1 - ALPHA/2, for the Wilson start only
_Z = 1.959963984540054


def _ordinal(p: float) -> int:
    """Position of a nonnegative double among the doubles, in order."""
    return struct.unpack("<q", struct.pack("<d", p))[0]


def _double(t: int) -> float:
    return struct.unpack("<d", struct.pack("<q", t))[0]


_ONE = _ordinal(1.0)


def _weighted_tail(j: int, n: int, a: int, b: int) -> int:
    """sum_{i=j}^n C(n, i) a^i b^(n-i), exactly, in n - j integer steps.

    Horner form without division: with D_n = N_n = 1,
    D_i = (i + 1) b D_{i+1} and N_i = D_i + (n - i) a N_{i+1}, the sum is
    a^j N_j / (n - j)!.
    """
    big_n = big_d = 1
    for i in range(n - 1, j - 1, -1):
        big_d *= (i + 1) * b
        big_n = big_d + (n - i) * a * big_n
    return a ** j * big_n // math.factorial(n - j)


def _scaled_upper_tail(j: int, n: int, a: int, e: int) -> int:
    """2^(e n) P(X >= j) for X ~ Binomial(n, a / 2^e), summing the side
    with fewer terms."""
    b = (1 << e) - a
    if n - j + 1 <= j:
        return _weighted_tail(j, n, a, b)
    return (1 << e * n) - _weighted_tail(n - j + 1, n, b, a)


def _last_below(j: int, n: int, level: Fraction, guess: float) -> int:
    """Ordinal of the largest double p in [0, 1) with P_p(X >= j) < level,
    for 1 <= j <= n; the tail rises from 0 at p = 0 to 1 at p = 1."""
    lo, hi = 0, _ONE
    t = _ordinal(guess)
    while hi - lo > 1:
        if not lo < t < hi:
            t = (lo + hi) // 2
        p = _double(t)
        a, den = p.as_integer_ratio()
        e = den.bit_length() - 1
        gap = (_scaled_upper_tail(j, n, a, e) * level.denominator
               - (level.numerator << e * n))
        below = gap < 0
        if below:
            lo = t
        else:
            hi = t
        # Newton's step from the exact residual; the tail's slope is
        # n C(n-1, j-1) p^(j-1) (1-p)^(n-j)
        slope = n * math.exp(math.lgamma(n) - math.lgamma(j)
                             - math.lgamma(n - j + 1) + (j - 1) * math.log(p)
                             + (n - j) * math.log1p(-p))
        step = t if slope == 0 else _ordinal(
            min(max(p - gap / (level.denominator << e * n) / slope, 0.0),
                1.0))
        # at least one double toward the side not yet known
        t = max(step, t + 1) if below else min(step, t - 1)
    return lo


def _wilson(k: int, n: int) -> tuple[float, float]:
    """The Wilson score interval: the starting guesses."""
    z2 = _Z * _Z
    center = (k + z2 / 2) / (n + z2)
    half = _Z / (n + z2) * math.sqrt(k * (n - k) / n + z2 / 4)
    return center - half, center + half


@lru_cache(maxsize=1024)
def _interval(k: int, n: int) -> tuple[float, float]:
    if n == 0:
        return 0.0, 1.0
    tail = ALPHA / 2
    # the closed forms: p^n = tail at k = n, (1 - p)^n = tail at k = 0
    log_root = math.log(tail) / n
    lo_guess, hi_guess = _wilson(k, n)
    lo = 0.0 if k == 0 else _double(_last_below(
        k, n, tail, math.exp(log_root) if k == n else lo_guess))
    hi = 1.0 if k == n else _double(1 + _last_below(
        k + 1, n, 1 - tail, -math.expm1(log_root) if k == 0 else hi_guess))
    return lo, hi


def clopper_pearson(successes: int, n: int) -> tuple[float, float]:
    """Exact two-sided Clopper-Pearson interval at level ``ALPHA``, its ends
    rounded outward to doubles; (0.0, 1.0) when n is 0."""
    if n < 0 or not 0 <= successes <= n:
        raise DomainError("need 0 <= successes <= n")
    return _interval(successes, n)
