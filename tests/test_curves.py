import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from eulerchar import curves
from eulerchar.curves import (MAX_COUNT_Q, MESTRE_FROM_Q, Curve, _count_exhaustive,
                              _count_mestre, count_points, euler_factor, extension_trace,
                              is_ordinary, weierstrass_invariants, x1_11)
from eulerchar.errors import InputError
from eulerchar.padics import is_prime


def reduce_coefficients(curve, q):
    """The model mod q, one coefficient at a time: numerator * denominator^-1."""
    return tuple(c.numerator * pow(c.denominator, -1, q) % q
                 for c in (curve.a1, curve.a2, curve.a3, curve.a4, curve.a6))


def quadratic_twist(curve, d):
    """Quadratic twist by d != 0, via the completed-square model.

    The curve is first put in the form y^2 = x^3 + (b2/4)x^2 + (b4/2)x +
    (b6/4) (an isomorphism away from 2), then twisted coefficient-wise; so
    #E + #E' = 2q + 2 for d a non-residue mod an odd prime q of good reduction.
    """
    b2, b4, b6, _, _ = weierstrass_invariants(curve.a1, curve.a2, curve.a3, curve.a4, curve.a6)
    return Curve(Fraction(0), d * b2 / 4, Fraction(0), d * d * b4 / 2, d ** 3 * b6 / 4)


# Independent oracle: enumerate all affine pairs (x, y), any characteristic.
def brute_count(curve, q):
    a1, a2, a3, a4, a6 = reduce_coefficients(curve, q)
    count = 1
    for x in range(q):
        for y in range(q):
            lhs = (y * y + a1 * x * y + a3 * y) % q
            rhs = (x ** 3 + a2 * x * x + a4 * x + a6) % q
            if lhs == rhs:
                count += 1
    return count


def test_x1_11_discriminant():
    u, a = x1_11()._integral
    assert (u, a) == (1, (0, -1, 1, 0, 0))
    assert weierstrass_invariants(*a)[4] == -11


def test_count_matches_brute_force():
    curve = x1_11()
    for q in (2, 3, 5, 7, 13, 19, 23):
        assert count_points(curve, q) == brute_count(curve, q)
    other = Curve(Fraction(1), Fraction(0), Fraction(1), Fraction(-1), Fraction(2))
    # other has discriminant -2262 = -2 * 3 * 13 * 29
    for q in (5, 11, 17, 19):
        assert count_points(other, q) == brute_count(other, q)


def test_count_rejects_bad_inputs():
    curve = x1_11()
    for q, message in ((11, "singular reduction at q = 11"),  # discriminant -11
                       (15, "not prime"),
                       (10 ** 16 + 61, "capped")):  # the least prime past the cap
        for _ in range(2):  # a refusal is raised again on every call
            with pytest.raises(InputError, match=message):
                count_points(curve, q)
    assert curve._counts == {}  # and is never kept as a count
    assert count_points(curve, 7) == 10
    with pytest.raises(InputError, match="not prime"):  # 7.0 == 7, a kept q, but is no int
        count_points(curve, 7.0)
    fractional = Curve(Fraction(0), Fraction(0), Fraction(0),
                       Fraction(1, 7), Fraction(1))
    with pytest.raises(InputError, match="not q-integral"):
        count_points(fractional, 7)


def test_a_curve_counts_each_q_once(count_calls):
    exhaustive = count_calls(curves, "_count_exhaustive")
    mestre = count_calls(curves, "_count_mestre")
    curve, fresh = x1_11(), x1_11()
    assert 7 < MESTRE_FROM_Q <= 421
    counts = [count_points(curve, q) for q in (7, 421, 7, 421)]
    assert counts[:2] == counts[2:] == [10, brute_count(curve, 421)]
    # the counts change neither equality, nor hash, nor repr
    assert (curve, hash(curve), repr(curve)) == (fresh, hash(fresh), repr(fresh))
    assert count_points(fresh, 421) == counts[1]  # an equal curve keeps counts of its own
    assert [q for _, q in exhaustive] == [7]
    assert [q for _, q in mestre] == [421, 421]


def test_singular_curve_rejected():
    with pytest.raises(InputError, match="singular curve"):
        Curve(Fraction(0), Fraction(0), Fraction(0), Fraction(0), Fraction(0))


def change_of_variables(a, r, s, t):
    """The model after x = x' + r, y = y' + s*x' + t, which keeps the discriminant."""
    a1, a2, a3, a4, a6 = a
    return (a1 + 2 * s, a2 - s * a1 + 3 * r - s * s, a3 + r * a1 + 2 * t,
            a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t,
            a6 + r * a4 + r * r * a2 + r ** 3 - t * a3 - t * t - r * t * a1)


def test_curve_refuses_exactly_the_singular_models():
    """The check on the integral model refuses a model iff the discriminant computed in
    Fraction arithmetic is 0; otherwise the integral model's discriminant is that value
    times u^12."""
    rng = random.Random(19)

    def rational():
        return Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 4, 9, 10 ** 30 + 3]))

    models = [tuple(rational() if rng.random() < 0.7 else Fraction(0) for _ in range(5))
              for _ in range(2000)]
    for _ in range(300):
        t = rational()
        # a cusp y^2 = x^3 and nodes y^2 = x^3 - 3t^2 x + 2t^3 = (x - t)^2 (x + 2t), moved
        base = (0, 0, 0, -3 * t * t, 2 * t ** 3) if t else (0, 0, 0, 0, 0)
        models.append(change_of_variables(tuple(map(Fraction, base)),
                                          rational(), rational(), rational()))
    singular = 0
    for a in models:
        disc = weierstrass_invariants(*a)[4]
        if disc == 0:
            singular += 1
            with pytest.raises(InputError, match="singular curve: discriminant is zero"):
                Curve(*a)
        else:
            u, model = Curve(*a)._integral
            assert all(type(c) is int for c in model)
            assert weierstrass_invariants(*model)[4] == disc * u ** 12
    assert 300 <= singular < len(models) - 1000


def test_counts_and_refusals_match_the_model_reduced_coefficientwise():
    """count_points reduces the integral model; the oracle reduces each given coefficient
    (numerator * denominator^-1 mod q) and counts pairs (x, y) on that model."""
    rng = random.Random(20)

    def rational():
        return Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 6, 9, 12]))

    models = [tuple(rational() for _ in range(5)) for _ in range(60)]
    for _ in range(8):  # nodes y^2 = (x - t)^2 (x + 2t), moved
        t = rational() or Fraction(1, 2)
        models.append(change_of_variables((0, 0, 0, -3 * t * t, 2 * t ** 3),
                                          rational(), rational(), rational()))
    curves = []
    for a in models:
        if weierstrass_invariants(*a)[4] == 0:
            with pytest.raises(InputError, match="singular curve: discriminant is zero"):
                Curve(*a)
        else:
            curves.append(Curve(*a))
    assert len(curves) >= 40 and len(models) - len(curves) >= 8
    outcomes = Counter()
    for curve in curves:
        for q in (q for q in range(2, 60) if is_prime(q)):
            if any(c.denominator % q == 0
                   for c in (curve.a1, curve.a2, curve.a3, curve.a4, curve.a6)):
                expected = f"coefficient not q-integral at q = {q}"
            elif weierstrass_invariants(*reduce_coefficients(curve, q))[4] % q == 0:
                expected = f"singular reduction at q = {q}"
            else:
                expected = brute_count(curve, q)
            try:
                got = count_points(curve, q)
            except InputError as exc:
                got = str(exc)
            assert got == expected, (curve, q)
            outcomes["count" if type(expected) is int else expected.split(" at q")[0]] += 1
    assert len(outcomes) == 3 and min(outcomes.values()) >= 20, outcomes


def test_curve_document_keys_are_checked():
    with pytest.raises(InputError, match="malformed curve document: unknown key 'x'"):
        Curve.from_json({"a": ["0", "-1", "1", "0", "0"], "x": 1.5})


def test_euler_factor_worked_values():
    value, valuation = euler_factor(-2, 7, 7)
    assert value == Fraction(49, 36)
    assert valuation == 2
    value, valuation = euler_factor(9, 113, 7)
    assert value == Fraction(12769, 13787)
    assert valuation == 0
    value, valuation = euler_factor(0, 3, 7)  # 7 does not divide 3^2 + 1
    assert value == Fraction(9, 10)
    assert valuation == 0


def test_euler_factor_valuation_stable_under_high_congruence():
    # replacing a_v by a_v + p^N * q leaves the valuation unchanged once
    # p^N is far below the radar of the denominator's p-part
    n = 8
    for a, q, p in ((-2, 7, 7), (9, 113, 7), (0, 3, 5), (1, 11, 3)):
        base = euler_factor(a, q, p).valuation
        shifted = euler_factor(a + p ** n * q, q, p).valuation
        assert base == shifted


def test_is_ordinary():
    assert is_ordinary(-2, 7) is True
    assert is_ordinary(0, 5) is False
    assert is_ordinary(7, 7) is False


# GF(9) oracle for the extension trace: 3[i]/(i^2 + 1).
def _gf9_points_y2_x3_minus_x():
    elements = [(a, b) for a in range(3) for b in range(3)]

    def mul(u, v):
        a, b = u
        c, d = v
        return ((a * c - b * d) % 3, (a * d + b * c) % 3)

    def sub(u, v):
        return ((u[0] - v[0]) % 3, (u[1] - v[1]) % 3)

    count = 1
    for x in elements:
        x3 = mul(mul(x, x), x)
        rhs = sub(x3, x)
        for y in elements:
            if mul(y, y) == rhs:
                count += 1
    return count


def test_extension_trace_against_gf9_enumeration():
    curve = Curve(Fraction(0), Fraction(0), Fraction(0), Fraction(-1), Fraction(0))
    a3 = 3 + 1 - count_points(curve, 3)
    a9 = extension_trace(a3, 3, 2)
    assert _gf9_points_y2_x3_minus_x() == 9 + 1 - a9
    assert extension_trace(5, 11, 1) == 5


def test_extension_trace_x1_11_at_2():
    # a_2 = -2, so a_4 = (-2)^2 - 2*2 = 0 and a_8 = a_2*a_4 - 2*a_2 = 4
    curve = x1_11()
    a2 = 2 + 1 - count_points(curve, 2)
    assert a2 == -2
    assert extension_trace(a2, 2, 3) == 4


def test_curve_json_roundtrip():
    curve = x1_11()
    doc = curve.to_json()
    assert doc == {"a": ["0", "-1", "1", "0", "0"]}
    assert Curve.from_json(doc) == curve
    assert Curve.from_json({"a": [0, -1, 1, 0, 0]}) == curve
    half = Curve.from_json({"a": ["0", "0", "0", "49/36", "-5"]})
    assert (half.a4, half.a6) == (Fraction(49, 36), -5)
    big = Curve.from_json({"a": [0, "-" + "0" * 5000, 0, "0" * 5000 + "7/" + "9" * 2000,
                                 10 ** 2000 - 1]})
    assert (big.a2, big.a4, big.a6) == (0, Fraction(7, 10 ** 2000 - 1), 10 ** 2000 - 1)
    with pytest.raises(InputError, match="'a' must be a list of five rational"):
        Curve.from_json({"a": ["1", "2"]})
    # only JSON integers and decimal "n" or "n/d" are read, each below 10^2000, by the
    # document reader and by the constructor alike; a Fraction is read by the constructor
    assert Curve(0, "-1", 1, Fraction(0), "0") == curve
    for bad in ("1/0", "0.5", "1e3", "+1", " 1", "1_000", "1/-2", 1.0, True, None,
                10 ** 2000, "1" + "0" * 2000, "1/1" + "0" * 2000, Fraction(1, 10 ** 2000)):
        for make in (lambda: Curve.from_json({"a": [0, 0, 0, 1, bad]}),
                     lambda: Curve(0, 0, 0, 1, bad)):
            with pytest.raises(InputError, match="curve coefficient a6 must be") as refused:
                make()
            assert len(str(refused.value)) < 140  # at most 40 characters of it are quoted


# The four benchmark curves X_1(11), 37a1, y^2 = x^3 - x and 53a1 (which has
# a1, a3 != 0), one with non-integral but q-integral coefficients, and 14a1 and
# 15a1, whose torsion Z/6 and Z/2 x Z/4 gives points of small order at every q.
ORACLE_CURVES = [Curve(*map(Fraction, a)) for a in (
    (0, -1, 1, 0, 0), (0, 0, 1, -1, 0), (0, 0, 0, -1, 0), (1, -1, 1, 0, 0),
    (Fraction(1, 2), Fraction(-2, 3), 0, Fraction(3, 5), Fraction(1, 7)),
    (1, 0, 1, 4, -6), (1, 1, 1, -10, -10))]


def test_mestre_count_matches_exhaustive_count():
    assert 229 < MESTRE_FROM_Q < 5000
    for q in range(5, 5000):
        if not is_prime(q):
            continue
        for curve in ORACLE_CURVES:
            try:
                expected = _count_exhaustive(curve, q)
            except InputError:  # bad reduction, or a denominator divisible by q
                continue
            # count_points counts by BSGS from MESTRE_FROM_Q on; Mestre's bound is 229
            fast = _count_mestre if 229 < q < MESTRE_FROM_Q else count_points
            assert fast(curve, q) == expected, (curve, q)


def _order(P, a, b, q):
    """The order of P on y^2 = x^3 + a*x^2 + b*x + c over F_q, by adding P until 0 (None)."""
    def add(U, V):  # V is not 0
        (x1, y1), (x2, y2) = U, V
        if x1 == x2 and (y1 + y2) % q == 0:
            return None
        num, den = ((y2 - y1, x2 - x1) if x1 != x2 else (3 * x1 * x1 + 2 * a * x1 + b, 2 * y1))
        slope = num * pow(den, q - 2, q) % q
        x3 = (slope * slope - a - x1 - x2) % q
        return x3, (slope * (x1 - x3) - y1) % q

    U, n = P, 1
    while U is not None:
        U, n = add(U, P), n + 1
    return n


def test_the_last_point_leaves_one_order_multiple_in_the_interval(count_calls):
    # Mestre's theorem, as _count_mestre relies on it: the search stops at a point
    # whose order has exactly one multiple among the candidates left
    calls = count_calls(curves, "_least_zeros")
    for q in range(MESTRE_FROM_Q, 1200):
        if not is_prime(q):
            continue
        for curve in ORACLE_CURVES:
            try:
                expected = _count_exhaustive(curve, q)
            except InputError:
                continue
            assert _count_mestre(curve, q) == expected
            P, a, b, _, m0, step, count = calls[-1]
            n = _order(P, a, b, q)
            multiples = [m0 + k * step for k in range(count) if (m0 + k * step) % n == 0]
            assert len(multiples) == 1, (curve, q)
            # step < 0 for a point on the twist, whose count is 2q + 2 - #E
            assert (multiples[0] if step > 0 else 2 * q + 2 - multiples[0]) == expected


def _next_prime(n, step=1):
    while not is_prime(n):
        n += step
    return n


def test_supersingular_counts_at_large_q():
    # y^2 = x^3 - x at q = 3 mod 4 and y^2 = x^3 + 1 at q = 2 mod 3 have q + 1 points
    cm_i = Curve(Fraction(0), Fraction(0), Fraction(0), Fraction(-1), Fraction(0))
    cm_rho = Curve(Fraction(0), Fraction(0), Fraction(0), Fraction(0), Fraction(1))
    for start in (10 ** 6, 10 ** 9, MAX_COUNT_Q):
        q = _next_prime(start, -1)
        while q % 12 != 11:  # 3 mod 4 and 2 mod 3
            q = _next_prime(q - 2, -1)
        assert count_points(cm_i, q) == q + 1
        assert count_points(cm_rho, q) == q + 1


def test_twist_sum_at_large_q():
    for start in (10 ** 6, MAX_COUNT_Q - 10 ** 5):
        q = _next_prime(start)
        d = next(d for d in range(2, q) if pow(d, (q - 1) // 2, q) == q - 1)
        for curve in ORACLE_CURVES[:4]:
            n = count_points(curve, q)
            assert (q + 1 - n) ** 2 <= 4 * q
            assert n + count_points(quadratic_twist(curve, d), q) == 2 * q + 2


def cm_trace(q):
    """a_q of y^2 = x^3 - x at a prime q = 1 mod 4: 2a, where q = a^2 + b^2 with b even
    and a + b = 1 mod 4 (Ireland and Rosen, *A Classical Introduction to Modern Number
    Theory*, 18.4); a and b by Cornacchia's algorithm."""
    c = next(c for c in range(2, q) if pow(c, (q - 1) // 2, q) == q - 1)
    r0, r1 = q, pow(c, (q - 1) // 4, q)  # r1^2 = -1 mod q
    while r1 * r1 > q:
        r0, r1 = r1, r0 % r1
    a, b = r1, math.isqrt(q - r1 * r1)
    assert a * a + b * b == q
    if a % 2 == 0:
        a, b = b, a
    return 2 * (a if (a + b) % 4 == 1 else -a)


def test_counts_match_the_cm_closed_form():
    # q = 3 mod 4 gives a_q = 0: see test_supersingular_counts_at_large_q
    cm_i = Curve(Fraction(0), Fraction(0), Fraction(0), Fraction(-1), Fraction(0))
    for q in (5, 13, 17, 29, 37, 41, 53):
        assert brute_count(cm_i, q) == q + 1 - cm_trace(q)
    # 5 primes q = 1 mod 4 past 10^6, 10^9 and 10^12 (10^12 + 61 first), and below the cap
    for q, step in ((10 ** 6, 1), (10 ** 9, 1), (10 ** 12, 1), (MAX_COUNT_Q, -1)):
        for _ in range(5):
            q = _next_prime(q + step, step)
            while q % 4 != 1:
                q = _next_prime(q + step, step)
            assert count_points(cm_i, q) == q + 1 - cm_trace(q), q
