"""The benchmark's own arithmetic, written apart from eulerchar.

Job generation and the output checker use these routines; none of them
imports eulerchar.  Point counts come from a Legendre-symbol sum evaluated
by Euler's criterion (vectorised with NumPy), or from the closed form for
the CM curve y^2 = x^3 - x; series products are plain truncated
convolutions.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache

import numpy as np

#: The curves the benchmark runs, as integer [a1, a2, a3, a4, a6].
CURVES = (
    ("X1(11)", (0, -1, 1, 0, 0)),   # y^2 + y = x^3 - x^2, discriminant -11
    ("37a1", (0, 0, 1, -1, 0)),     # y^2 + y = x^3 - x, discriminant 37
    ("CM32", (0, 0, 0, -1, 0)),     # y^2 = x^3 - x, CM by Z[i], discriminant 64
    ("53a1", (1, -1, 1, 0, 0)),     # y^2 + xy + y = x^3 - x^2, discriminant -53
)
#: Primes of bad reduction of each curve, plus 2 and 3, which the benchmark never uses.
BAD_PRIMES = ({2, 3, 11}, {2, 3, 37}, {2, 3}, {2, 3, 53})
CM_CURVE = 2

PRIME_LIMIT = 400_000


def _sieve(limit: int):
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, int(limit ** 0.5) + 1):
        if flags[i]:
            flags[i * i::i] = bytearray(len(range(i * i, limit + 1, i)))
    return [i for i, f in enumerate(flags) if f]


PRIMES = _sieve(PRIME_LIMIT)


def primes_from(x: float):
    """Primes >= x in increasing order."""
    return PRIMES[bisect_left(PRIMES, x):]


def primes_between(lo: float, hi: float):
    """Primes p with lo <= p < hi."""
    return PRIMES[bisect_left(PRIMES, lo):bisect_left(PRIMES, hi)]


def order_mod(a: int, p: int) -> int:
    """Multiplicative order of a modulo the prime p."""
    x, k = a % p, 1
    while x != 1:
        x = x * a % p
        k += 1
    return k


def divisors(n: int):
    return [d for d in range(1, n + 1) if n % d == 0]


def b_invariants(a):
    a1, a2, a3, a4, a6 = a
    return a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6


def _legendre_trace(a, l: int) -> int:
    """a_l = -sum_x chi(4x^3 + b2 x^2 + 2 b4 x + b6) with chi by Euler's criterion."""
    b2, b4, b6 = b_invariants(a)
    x = np.arange(l, dtype=np.int64)
    v = (((4 * x + b2 % l) % l * x + (2 * b4) % l) % l * x + b6 % l) % l
    result = np.ones(l, dtype=np.int64)
    base = v
    e = (l - 1) // 2
    while e:
        if e & 1:
            result = result * base % l
        base = base * base % l
        e >>= 1
    result[v == 0] = 0
    chi_sum = int(np.count_nonzero(result == 1)) - int(np.count_nonzero(result == l - 1))
    return -chi_sum


def _cm_trace(l: int) -> int:
    """a_l of y^2 = x^3 - x: 0 if l = 3 mod 4, else 2a with l = a^2 + b^2, b even, a + b = 1 mod 4."""
    if l % 4 == 3:
        return 0
    b = 0
    while True:
        a2 = l - b * b
        a = int(round(a2 ** 0.5))
        if a * a == a2:
            break
        b += 2
    return 2 * (a if (a + b) % 4 == 1 else -a)


@lru_cache(maxsize=None)
def trace(curve_index: int, l: int) -> int:
    """a_l of a benchmark curve at a prime l >= 5 of good reduction."""
    if curve_index == CM_CURVE:
        return _cm_trace(l)
    return _legendre_trace(CURVES[curve_index][1], l)


def legendre_trace(curve_index: int, l: int) -> int:
    """The Legendre-sum route for every curve, the CM one included (for tests)."""
    return _legendre_trace(CURVES[curve_index][1], l)


def extension_trace(a: int, l: int, f: int) -> int:
    """alpha^f + beta^f for alpha + beta = a, alpha*beta = l."""
    s0, s1 = 2, a
    for _ in range(f - 1):
        s0, s1 = s1, a * s1 - l * s0
    return s1 if f >= 1 else s0


def vp(n: int, p: int) -> int:
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def euler_value(a_q: int, q: int) -> Fraction:
    """q^2 / (q^2 + a_q q + 1), the local factor (1 + a/q + 1/q^2)^-1."""
    return Fraction(q * q, q * q + a_q * q + 1)


def euler_valuation(a_q: int, q: int, p: int) -> int:
    value = euler_value(a_q, q)
    return vp(value.numerator, p) - vp(value.denominator, p)


def power_str(p: int, e: int) -> str:
    if e == 0:
        return "1"
    if e == 1:
        return str(p)
    return f"{p}^{e}"


def rational_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# -- truncated series -------------------------------------------------------


def series_mul(a, b, modulus: int, degree: int):
    """Coefficients of a*b mod (modulus, T^degree)."""
    out = [0] * degree
    for i, x in enumerate(a[:degree]):
        if x:
            for j, y in enumerate(b[:degree - i]):
                out[i + j] += x * y
    return [c % modulus for c in out]


def t_order(coeffs):
    for i, c in enumerate(coeffs):
        if c:
            return i
    return None
