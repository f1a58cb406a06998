"""Elliptic-curve local data: point counts, traces, Euler factors, ordinarity.

Curves are given by long Weierstrass equations with exact rational
coefficients.  Point counts over a prime field F_q come from Mestre's
baby-step giant-step on the curve and its quadratic twist, O(q^(1/4))
group operations in exact integer arithmetic: each point narrows the
candidates for #E, one arithmetic progression, to those that kill it, found
by one symmetric search, and no point order is factored.  Below q = 230,
and as the slow route the tests compare against, an O(q) loop completes
the square and adds the quadratic character of the resulting cubic at
each x.  q is capped at 10^16, where one count takes about 0.1 s; there
is no Schoof-style machinery.

The local Euler factor is implemented verbatim as
(1 + a_v/q_v + 1/q_v^2)^(-1); this differs from the more common
(1 - a_v q^-s + q^(1-2s)) normalization at s = 1, but it is the form whose
p-adic magnitudes the rest of the pipeline is calibrated against.

A curve reaches F_q through its integral model: with u the lcm of the
coefficients' denominators, the model with coefficients a_i * u^i, isomorphic
to the given one wherever u is invertible.  A q dividing u is refused, and good
reduction is tested on that model (q does not divide its discriminant); no
minimal model is computed, so a non-minimal model may falsely report bad
reduction.  A curve counts each q once and reuses that count, so the g places
above one prime l in a report share one count of l.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .cyclotomic_fields import SplittingData
from .errors import InputError
from .padics import MAX_DIGITS, MAX_VALUE, check_prime, document_fields, int_valuation, quoted

MAX_COUNT_Q = 10 ** 16
# Mestre's theorem guarantees the search ends only for q > 229.  The O(q) loop
# is slower from there on: 48 us against 32 us per count for q in [230, 300),
# and 68 us against 32 us in [300, 400) (four curves, Python 3.11, x86-64 Xeon).
MESTRE_FROM_Q = 230
_DECIMAL_RATIONAL = re.compile(r"(-?)([0-9]+)(?:/([0-9]+))?")


def weierstrass_invariants(a1, a2, a3, a4, a6):
    """(b2, b4, b6, b8, discriminant) of the long Weierstrass model, in any commutative ring."""
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return b2, b4, b6, b8, -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def _document_rational(c, name: str) -> Fraction:
    """The curve coefficient ``name`` given as c: an int, a Fraction or a decimal "n" or "n/d",
    d nonzero, |n| and d below 10^2000 (leading zeros do not count); types are exact, so no
    bool, and no float, which may have lost digits."""
    if type(c) in (int, Fraction) and abs(c.numerator) < MAX_VALUE and c.denominator < MAX_VALUE:
        return Fraction(c)
    match = _DECIMAL_RATIONAL.fullmatch(c) if type(c) is str else None
    if match:
        sign, num, den = match[1], match[2].lstrip("0"), (match[3] or "1").lstrip("0")
        if den and len(num) <= MAX_DIGITS and len(den) <= MAX_DIGITS:  # den: d != 0
            return Fraction(int(sign + (num or "0")), int(den))
    shown = quoted(c) if type(c) is str else type(c).__name__  # a huge int is named by its type
    raise InputError(f"curve coefficient {name} must be an integer or a decimal "
                     f'"n" or "n/d" below 10^2000, got {shown}')


@dataclass(frozen=True)
class Curve:
    """y^2 + a1*x*y + a3*y = x^3 + a2*x^2 + a4*x + a6 with rational a_i, each read
    by the rule of curve documents (see :func:`_document_rational`) and kept as a Fraction.

    ``_integral`` is (u, (a1*u, a2*u^2, a3*u^3, a4*u^4, a6*u^6)) with u the lcm
    of the a_i's denominators: integers, and a model isomorphic to this one
    wherever u is invertible (Silverman, AEC III.1).  It is built once, here;
    the singularity test and every reduction mod q read it.  ``_counts`` maps
    each q that :func:`count_points` has counted to #E(F_q).
    """

    a1: Fraction
    a2: Fraction
    a3: Fraction
    a4: Fraction
    a6: Fraction
    _integral: tuple = field(init=False, repr=False, compare=False)
    _counts: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = ("a1", "a2", "a3", "a4", "a6")
        coeffs = [_document_rational(getattr(self, name), name) for name in names]
        for name, c in zip(names, coeffs):
            object.__setattr__(self, name, c)
        u = math.lcm(*(c.denominator for c in coeffs))
        a = tuple(c.numerator * (u ** i // c.denominator) for i, c in zip((1, 2, 3, 4, 6), coeffs))
        if weierstrass_invariants(*a)[4] == 0:  # the discriminant, scaled by u^12
            raise InputError("singular curve: discriminant is zero")
        object.__setattr__(self, "_integral", (u, a))
        object.__setattr__(self, "_counts", {})

    def to_json(self) -> dict:
        return {"a": [str(c) for c in (self.a1, self.a2, self.a3, self.a4, self.a6)]}

    @classmethod
    def from_json(cls, doc) -> "Curve":
        (entries,) = document_fields(doc, "curve", ("a",), ("a",))
        # exact type: a string is not a list
        if type(entries) is not list or len(entries) != 5:
            raise InputError("malformed curve document: 'a' must be a list of five rational "
                             f"strings or JSON integers a1,a2,a3,a4,a6, got {quoted(entries)}")
        return cls(*entries)


def x1_11() -> Curve:
    """The conductor-11 curve y^2 + y = x^3 - x^2 (X_1(11) in Cremona's tables)."""
    return Curve(Fraction(0), Fraction(-1), Fraction(1), Fraction(0), Fraction(0))


def _reduction(curve: Curve, q: int):
    """((a1, a2, a3, a4, a6), (b2, b4, b6)) of the integral model mod q; refuses a
    q dividing a denominator (q | u) or a singular reduction."""
    u, model = curve._integral
    if u % q == 0:
        raise InputError(f"coefficient not q-integral at q = {q}")
    a = tuple(c % q for c in model)
    b2, b4, b6, _, disc = weierstrass_invariants(*a)
    if disc % q == 0:
        raise InputError(f"singular reduction at q = {q}")
    return a, (b2 % q, b4 % q, b6 % q)


def count_points(curve: Curve, q: int) -> int:
    """#E(F_q) including the point at infinity, for a prime q <= MAX_COUNT_Q.

    From q = MESTRE_FROM_Q on, Mestre's baby-step giant-step on E and its
    quadratic twist (:func:`_count_mestre`), O(q^(1/4)) group operations;
    below it the O(q) loop over x (:func:`_count_exhaustive`).  The curve
    keeps each count, so a second call with the same q counts nothing and
    checks nothing: only a q that passed the checks below is kept, and a
    refusal is never kept, so it is raised again on every call.
    """
    if type(q) is not int or q not in curve._counts:  # only a q that passed is kept
        check_prime(q)
        if q > MAX_COUNT_Q:
            raise InputError(f"point counting capped at q <= {MAX_COUNT_Q}")
        curve._counts[q] = (_count_exhaustive if q < MESTRE_FROM_Q else _count_mestre)(curve, q)
    return curve._counts[q]


def _count_exhaustive(curve: Curve, q: int) -> int:
    """#E(F_q) by enumerating x, in O(q); the slow route that checks _count_mestre.

    For odd q the substitution 2y + a1*x + a3 completes the square and each
    x contributes 1 + chi(4x^3 + b2*x^2 + 2*b4*x + b6) points, chi the
    quadratic character (a residue table, built once).  q = 2 is a direct
    four-pair enumeration.
    """
    (a1, a2, a3, a4, a6), (b2, b4, b6) = _reduction(curve, q)
    if q == 2:
        count = 1
        for x in (0, 1):
            for y in (0, 1):
                lhs = (y * y + a1 * x * y + a3 * y) % 2
                rhs = (x ** 3 + a2 * x * x + a4 * x + a6) % 2
                if lhs == rhs:
                    count += 1
        return count

    squares = bytearray(q)
    for y in range(q // 2 + 1):
        squares[y * y % q] = 1
    two_b4 = (2 * b4) % q
    count = 1
    for x in range(q):
        value = (((4 * x + b2) * x + two_b4) * x + b6) % q
        if value == 0:
            count += 1
        elif squares[value]:
            count += 2
    return count


# Affine arithmetic on y^2 = x^3 + a*x^2 + b*x + c over F_q (c is not needed);
# None is the point at infinity.

def _add(P, Q, a, b, q):
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % q == 0:
            return None
        slope = (3 * x1 * x1 + 2 * a * x1 + b) * pow(2 * y1, -1, q) % q
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, q) % q
    x3 = (slope * slope - a - x1 - x2) % q
    return x3, (slope * (x1 - x3) - y1) % q


def _neg(P, q):
    return None if P is None else (P[0], -P[1] % q)


def _mul(k, P, a, b, q):
    if k < 0:
        k, P = -k, _neg(P, q)
    result = None
    for bit in bin(k)[2:]:  # left to right: no doubling past the last bit
        result = _add(result, result, a, b, q)
        if bit == "1":
            result = _add(result, P, a, b, q)
    return result


def _twisted_points(b2, b4, b6, q):
    """Points on E and on its twist E', from x = 0, 1, 2, ...

    With A, B, C = b2, 8*b4, 16*b6 and v = x^3 + A*x^2 + B*x + C nonzero,
    yields (side, (x*v, v^2), v*A, v^2*B): side 0 (E) when v is a square and
    1 (E') when not, the point, and the x^2 and x coefficients of
    y^2 = x^3 + v*A*x^2 + v^2*B*x + v^3*C.
    """
    A, B, C = b2, 8 * b4 % q, 16 * b6 % q
    half = (q - 1) // 2
    for x in range(q):
        v = (((x + A) * x + B) * x + C) % q
        if v:
            v2 = v * v % q
            yield 0 if pow(v, half, q) == 1 else 1, (x * v % q, v2), v * A % q, v2 * B % q


def _least_zeros(P, a, b, q, m0, step, count):
    """The least two k in [0, count) with (m0 + k*step)*P = 0, or the only one.

    At least one such k must exist.  With R = step*P and T = -m0*P these are
    the k with k*R = T.  Baby steps j*R, j = 1..w with w = isqrt(count // 2) + 1,
    are kept by x-coordinate, so one lookup finds U = +-j*R and its y gives
    the sign.  If a baby step up to (w + 1)*R is 0 or repeats an x-coordinate
    (j*R = -i*R), then n = ord(R) = j or i + j is at most 2w + 1, the table
    holds +-every nonzero multiple of R, and the zeros are k1 + n*Z with k1
    read from it.  Otherwise n > 2w + 1, so the giant step centred on c,
    c = w, 3w + 1, ..., finds the one zero c +- j, if any, in [c - w, c + w].
    """
    def signed(U):  # s with U = s*R and |s| <= w, or None
        if U is None:
            return 0
        j, y = baby.get(U[0], (None, None))
        return j if j is None or U[1] == y else -j

    R = _mul(step, P, a, b, q)
    T = _neg(_mul(m0, P, a, b, q), q)
    w = math.isqrt(count // 2) + 1
    baby = {}
    B = None
    for j in range(1, w + 2):
        last, B = B, _add(B, R, a, b, q)
        if B is None or B[0] in baby:  # j*R = 0, or j*R = -i*R
            n = j + (baby[B[0]][0] if B else 0)
            k = signed(T) % n
            return [k, k + n] if k + n < count else [k]
        if j <= w:
            baby[B[0]] = j, B[1]
    zeros = []
    U, giant = _add(T, _neg(last, q), a, b, q), _neg(_add(last, B, a, b, q), q)
    for c in range(w, count + w, 2 * w + 1):
        s = signed(U)
        if s is not None:
            if c + s >= count:
                break
            zeros.append(c + s)
            if len(zeros) == 2:
                break
        U = _add(U, giant, a, b, q)
    return zeros


def _count_mestre(curve: Curve, q: int) -> int:
    """#E(F_q) for a prime q > 229 by Mestre's baby-step giant-step, exact integers only.

    Model.  With X = 4x and W = 8y + 4*a1*x + 4*a3 the curve is
    W^2 = g(X) = X^3 + b2*X^2 + 8*b4*X + 16*b6.  Its quadratic twist E' by a
    non-residue d, y^2 = x^3 + d*b2*x^2 + 8*d^2*b4*x + 16*d^3*b6, has
    #E + #E' = 2q + 2, and both counts lie in the Hasse interval
    [q + 1 - s, q + 1 + s], s = floor(2*sqrt(q)).  For v = g(X) != 0 the point
    (X*v, v^2) lies on the twist of E by v, which is isomorphic to E when v
    is a square and to E' when it is not, so no square root is taken and
    the point's order is that of a point of E or E'.

    Loop.  The candidates for #E are one progression N = first + k*modulus,
    0 <= k < count, in the interval; at first all of it.  Points come from
    X = 0, 1, 2, ..., each on E or on E' as g(X) is a square or not.  A point
    P on E keeps the N with N*P = 0, and one on E' the N with
    (2q + 2 - N)*P = 0; these k form a progression k1 + n*Z, and
    :func:`_least_zeros` finds its least two terms k1 < k2 = k1 + n, so the
    candidates become first + k1*modulus with modulus*n.  No point order is
    factored.  The loop stops when a point leaves one candidate.

    Termination (Mestre; Schoof 1995, Theorem 3.2; Cohen, *A Course in
    Computational Algebraic Number Theory*, 7.4.3): the candidates left are
    the N in the interval with N = 0 mod L and 2q + 2 - N = 0 mod L', L and
    L' the lcms of the orders of the points taken on E and E'.  For a prime
    q > 229, E or E' has a point whose order has exactly one multiple in the
    interval; that order divides L or L' once every X has been taken, so the
    loop stops at the latest then.
    """
    _, (b2, b4, b6) = _reduction(curve, q)
    s = math.isqrt(4 * q)
    first, modulus, hi = q + 1 - s, 1, q + 1 + s
    for side, P, a, b in _twisted_points(b2, b4, b6, q):
        m0, step = (first, modulus) if side == 0 else (2 * q + 2 - first, -modulus)
        zeros = _least_zeros(P, a, b, q, m0, step, (hi - first) // modulus + 1)
        first += zeros[0] * modulus
        if len(zeros) == 1:
            return first
        modulus *= zeros[1] - zeros[0]
    raise ValueError(f"point count at q = {q} not pinned down")  # excluded by Mestre for q > 229


def extension_trace(a: int, q: int, f: int) -> int:
    """Trace over F_{q^f}, f >= 1, from the trace over F_q.

    If alpha, beta are the Frobenius eigenvalues (alpha + beta = a,
    alpha*beta = q), the trace over the degree-f extension is
    alpha^f + beta^f, computed by the standard linear recurrence.
    """
    prev, cur = 2, a
    for _ in range(f - 1):
        prev, cur = cur, a * cur - q * prev
    return cur


class EulerFactor(NamedTuple):
    value: Fraction
    valuation: int


def euler_factor(a_v: int, q: int, p: int) -> EulerFactor:
    """L_v(E,1) = (1 + a_v/q + 1/q^2)^(-1) exactly, with its p-valuation; q a prime power
    and p a prime, which the caller checks."""
    # no pole: q^2 + a_v*q + 1 = 0 would make q divide 1
    value = Fraction(q * q, q * q + a_v * q + 1)
    valuation = (int_valuation(value.numerator, p)
                 - int_valuation(value.denominator, p))
    return EulerFactor(value, valuation)


def is_ordinary(a_p: int, p: int) -> bool:
    """Good ordinary reduction criterion: a_p is a unit mod the prime p."""
    return a_p % p != 0


@dataclass(frozen=True)
class CurveLocalData:
    """Local invariants of a curve at one place with residue field size q.

    The point count is q + 1 - a_v; :func:`local_data`, the only constructor, keeps a_v^2 <= 4q.
    """

    q: int
    a_v: int
    euler_value: Fraction
    euler_valuation_at_p: int

    @property
    def point_count(self) -> int:
        return self.q + 1 - self.a_v

    def to_json(self) -> dict:
        return {"q": self.q, "point_count": self.point_count, "a_v": self.a_v,
                "euler_value": str(self.euler_value),
                "euler_valuation_at_p": self.euler_valuation_at_p}


def local_data(curve: Curve, place: SplittingData) -> CurveLocalData:
    """The curve's local data at ``place``, whose residue field has size q_v = l^f.

    The trace over the prime field F_l comes from :func:`count_points`, the
    trace over F_{q_v} from the Frobenius-eigenvalue recurrence, and the
    Euler factor's valuation is taken at the place's p, which :func:`split`
    has checked.  For ordinarity at
    l = p, apply :func:`is_ordinary` to ``a_v``.
    """
    a_l = place.l + 1 - count_points(curve, place.l)
    a_v = extension_trace(a_l, place.l, place.f)
    factor = euler_factor(a_v, place.q_v, place.p)
    return CurveLocalData(q=place.q_v, a_v=a_v, euler_value=factor.value,
                          euler_valuation_at_p=factor.valuation)
