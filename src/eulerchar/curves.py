"""Elliptic-curve local data: point counts, traces, Euler factors, ordinarity.

Curves are given by long Weierstrass equations with exact rational
coefficients.  Point counting over a prime field is exhaustive: complete
the square (q odd) and add the quadratic-character contribution of the
resulting cubic for each x.  Desk scale is assumed throughout -- q is
capped at 10^6 and there is no Schoof-style machinery.

The local Euler factor is implemented verbatim as
(1 + a_v/q_v + 1/q_v^2)^(-1); this differs from the more common
(1 - a_v q^-s + q^(1-2s)) normalization at s = 1, but it is the form whose
p-adic magnitudes the rest of the pipeline is calibrated against.

Good reduction is tested on the model as given (p does not divide the
discriminant of the supplied equation); no minimal model is computed, so a
non-minimal model may falsely report bad reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import InputError
from .padics import check_prime, format_rational, int_valuation, parse_rational

MAX_COUNT_Q = 10 ** 6


@dataclass(frozen=True)
class Curve:
    """y^2 + a1*x*y + a3*y = x^3 + a2*x^2 + a4*x + a6 with rational a_i."""

    a1: Fraction
    a2: Fraction
    a3: Fraction
    a4: Fraction
    a6: Fraction

    def __post_init__(self):
        for name in ("a1", "a2", "a3", "a4", "a6"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.discriminant() == 0:
            raise InputError("singular curve: discriminant is zero")

    def b_invariants(self):
        b2 = self.a1 ** 2 + 4 * self.a2
        b4 = 2 * self.a4 + self.a1 * self.a3
        b6 = self.a3 ** 2 + 4 * self.a6
        b8 = (self.a1 ** 2 * self.a6 + 4 * self.a2 * self.a6
              - self.a1 * self.a3 * self.a4 + self.a2 * self.a3 ** 2
              - self.a4 ** 2)
        return b2, b4, b6, b8

    def discriminant(self) -> Fraction:
        b2, b4, b6, b8 = self.b_invariants()
        return -b2 ** 2 * b8 - 8 * b4 ** 3 - 27 * b6 ** 2 + 9 * b2 * b4 * b6

    def to_json(self) -> dict:
        return {"a": [format_rational(c) for c in
                      (self.a1, self.a2, self.a3, self.a4, self.a6)]}

    @classmethod
    def from_json(cls, doc) -> "Curve":
        try:
            coeffs = [parse_rational(str(c)) for c in doc["a"]]
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed curve document: {exc}") from None
        if len(coeffs) != 5:
            raise InputError("curve document needs exactly five coefficients a1,a2,a3,a4,a6")
        return cls(*coeffs)


def x1_11() -> Curve:
    """The conductor-11 curve y^2 + y = x^3 - x^2 (X_1(11) in Cremona's tables)."""
    return Curve(Fraction(0), Fraction(-1), Fraction(1), Fraction(0), Fraction(0))


def _reduce_mod(value: Fraction, q: int) -> int:
    if value.denominator % q == 0:
        raise InputError(f"coefficient not q-integral at q = {q}")
    return value.numerator * pow(value.denominator, -1, q) % q


def count_points(curve: Curve, q: int) -> int:
    """#E(F_q) including the point at infinity, by exhaustive x-enumeration.

    For odd q the substitution 2y + a1*x + a3 completes the square and each
    x contributes 1 + chi(4x^3 + b2*x^2 + 2*b4*x + b6) points, chi the
    quadratic character (a residue table, built once).  q = 2 is a direct
    four-pair enumeration.
    """
    check_prime(q)
    if q > MAX_COUNT_Q:
        raise InputError(f"point counting capped at q <= {MAX_COUNT_Q}")
    a = [_reduce_mod(c, q) for c in (curve.a1, curve.a2, curve.a3, curve.a4, curve.a6)]
    a1, a2, a3, a4, a6 = a
    b2 = (a1 * a1 + 4 * a2) % q
    b4 = (2 * a4 + a1 * a3) % q
    b6 = (a3 * a3 + 4 * a6) % q
    b8 = (a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4) % q
    disc = (-b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6) % q
    if disc == 0:
        raise InputError(f"singular reduction at q = {q}")

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


def trace_of_frobenius(curve: Curve, q: int) -> int:
    """a_q = q + 1 - #E(F_q)."""
    return q + 1 - count_points(curve, q)


def extension_trace(a: int, q: int, f: int) -> int:
    """Trace over F_{q^f} from the trace over F_q.

    If alpha, beta are the Frobenius eigenvalues (alpha + beta = a,
    alpha*beta = q), the trace over the degree-f extension is
    alpha^f + beta^f, computed by the standard linear recurrence.
    """
    if f < 1:
        raise InputError("residue degree must be >= 1")
    prev, cur = 2, a
    for _ in range(f - 1):
        prev, cur = cur, a * cur - q * prev
    return cur


class EulerFactor(NamedTuple):
    value: Fraction
    valuation: int


def euler_factor(a_v: int, q: int, p: int) -> EulerFactor:
    """L_v(E,1) = (1 + a_v/q + 1/q^2)^(-1) exactly, with its p-valuation."""
    check_prime(p)
    if q < 2:
        raise InputError("q must be a prime power >= 2")
    # no pole: q^2 + a_v*q + 1 = 0 would make q divide 1
    value = Fraction(q * q, q * q + a_v * q + 1)
    valuation = (int_valuation(value.numerator, p)
                 - int_valuation(value.denominator, p))
    return EulerFactor(value, valuation)


def is_ordinary(a_p: int, p: int) -> bool:
    """Good ordinary reduction criterion: a_p is a unit mod p."""
    check_prime(p)
    return a_p % p != 0


def quadratic_twist(curve: Curve, d: int) -> Curve:
    """Quadratic twist by d, via the completed-square model.

    The curve is first put in the form y^2 = x^3 + (b2/4)x^2 + (b4/2)x +
    (b6/4) (an isomorphism away from 2), then twisted coefficient-wise.
    """
    if d == 0:
        raise InputError("twist parameter must be nonzero")
    b2, b4, b6, _ = curve.b_invariants()
    return Curve(Fraction(0), d * b2 / 4, Fraction(0),
                 d * d * b4 / 2, d ** 3 * b6 / 4)


@dataclass(frozen=True)
class CurveLocalData:
    """Local invariants of a curve at one place with residue field size q.

    The point count is q + 1 - a_v; a trace past the Hasse bound is refused.
    """

    q: int
    a_v: int
    euler_value: Fraction
    euler_valuation_at_p: int

    def __post_init__(self):
        if self.a_v * self.a_v > 4 * self.q:
            raise InputError("inconsistent local data: Hasse bound violated")

    @property
    def point_count(self) -> int:
        return self.q + 1 - self.a_v

    def to_json(self) -> dict:
        return {"q": self.q, "point_count": self.point_count, "a_v": self.a_v,
                "euler_value": format_rational(self.euler_value),
                "euler_valuation_at_p": self.euler_valuation_at_p}


def local_data(curve: Curve, l: int, p: int, residue_degree: int = 1) -> CurveLocalData:
    """Assemble the local data at a place of residue field size l^residue_degree.

    The count over the prime field is exhaustive; the trace over a proper
    extension comes from the Frobenius-eigenvalue recurrence.  For ordinarity
    at l = p, apply :func:`is_ordinary` to ``a_v``.
    """
    a_l = trace_of_frobenius(curve, l)
    a_q = extension_trace(a_l, l, residue_degree)
    q = l ** residue_degree
    factor = euler_factor(a_q, q, p)
    return CurveLocalData(q=q, a_v=a_q, euler_value=factor.value,
                          euler_valuation_at_p=factor.valuation)
