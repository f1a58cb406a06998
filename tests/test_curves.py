import random
from fractions import Fraction

import pytest

from eulerchar.curves import (Curve, CurveLocalData, count_points, euler_factor,
                              extension_trace, is_ordinary, local_data,
                              quadratic_twist, trace_of_frobenius, x1_11)
from eulerchar.errors import InputError


# Independent oracle: enumerate all affine pairs (x, y), any characteristic.
def brute_count(curve, q):
    def red(c):
        return c.numerator * pow(c.denominator, -1, q) % q
    a1, a2, a3, a4, a6 = (red(c) for c in
                          (curve.a1, curve.a2, curve.a3, curve.a4, curve.a6))
    count = 1
    for x in range(q):
        for y in range(q):
            lhs = (y * y + a1 * x * y + a3 * y) % q
            rhs = (x ** 3 + a2 * x * x + a4 * x + a6) % q
            if lhs == rhs:
                count += 1
    return count


def test_x1_11_discriminant():
    assert x1_11().discriminant() == Fraction(-11)


def test_worked_example_counts():
    curve = x1_11()
    assert count_points(curve, 7) == 10
    assert trace_of_frobenius(curve, 7) == -2
    assert count_points(curve, 113) == 105
    assert trace_of_frobenius(curve, 113) == 9


def test_count_matches_brute_force():
    curve = x1_11()
    for q in (2, 3, 5, 7, 13, 19, 23):
        assert count_points(curve, q) == brute_count(curve, q)
    other = Curve(Fraction(1), Fraction(0), Fraction(1), Fraction(-1), Fraction(2))
    # other has discriminant -2262 = -2 * 3 * 13 * 29
    for q in (5, 11, 17, 19):
        assert count_points(other, q) == brute_count(other, q)


def test_count_y2_equals_x3_minus_x():
    curve = Curve(Fraction(0), Fraction(0), Fraction(0), Fraction(-1), Fraction(0))
    assert count_points(curve, 3) == 4


def test_count_rejects_bad_inputs():
    curve = x1_11()
    with pytest.raises(InputError, match="singular reduction at q = 11"):
        count_points(curve, 11)  # discriminant -11
    with pytest.raises(InputError, match="not prime"):
        count_points(curve, 15)
    with pytest.raises(InputError, match="capped"):
        count_points(curve, 1000003)
    fractional = Curve(Fraction(0), Fraction(0), Fraction(0),
                       Fraction(1, 7), Fraction(1))
    with pytest.raises(InputError, match="not q-integral"):
        count_points(fractional, 7)


def test_singular_curve_rejected():
    with pytest.raises(InputError, match="singular curve"):
        Curve(Fraction(0), Fraction(0), Fraction(0), Fraction(0), Fraction(0))


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


def test_euler_factor_negative_valuation():
    value, valuation = euler_factor(0, 3, 5)
    assert value == Fraction(9, 10)
    assert valuation == -1


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


def _local(q, a):
    return CurveLocalData(q, a, Fraction(1), 0)


def test_weil_weight_check():
    # local data admits a trace exactly when a^2 <= 4q, i.e. both Frobenius
    # eigenvalues have absolute value q^(1/2)
    assert _local(7, -2).a_v == -2    # 4 <= 28
    assert _local(113, 9).a_v == 9    # 81 <= 452
    assert _local(4, 4).a_v == 4      # 16 <= 16, the boundary
    for q, a in ((7, 6), (7, -6), (4, 5)):  # 36 > 28, 36 > 28, 25 > 16
        with pytest.raises(InputError, match="Hasse"):
            _local(q, a)


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
    a3 = trace_of_frobenius(curve, 3)
    a9 = extension_trace(a3, 3, 2)
    assert _gf9_points_y2_x3_minus_x() == 9 + 1 - a9
    assert extension_trace(5, 11, 1) == 5
    with pytest.raises(InputError):
        extension_trace(1, 2, 0)


def test_extension_trace_x1_11_at_2():
    # a_2 = -2, so a_4 = (-2)^2 - 2*2 = 0 and a_8 = a_2*a_4 - 2*a_2 = 4
    curve = x1_11()
    a2 = trace_of_frobenius(curve, 2)
    assert a2 == -2
    assert extension_trace(a2, 2, 3) == 4


def _random_good_curve(rng, q):
    while True:
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(5)]
        try:
            curve = Curve(*coeffs)
        except InputError:
            continue
        if curve.discriminant().numerator % q != 0:
            return curve


def test_hasse_and_twist_sum():
    rng = random.Random(3)
    odd_primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    for _ in range(15):
        q = rng.choice(odd_primes)
        curve = _random_good_curve(rng, q)
        n = count_points(curve, q)
        assert (q + 1 - n) ** 2 <= 4 * q
        d = next(d for d in range(2, q)
                 if pow(d, (q - 1) // 2, q) == q - 1)
        twist = quadratic_twist(curve, d)
        assert count_points(twist, q) + n == 2 * q + 2


def test_local_data_at_split_place():
    data = local_data(x1_11(), 113, 7)
    assert data.q == 113
    assert data.point_count == 105
    assert data.a_v == 9
    assert data.euler_valuation_at_p == 0


def test_local_data_above_p():
    data = local_data(x1_11(), 7, 7)
    assert data.a_v == -2
    assert data.point_count == 10
    assert data.euler_valuation_at_p == 2
    assert data.euler_value == Fraction(49, 36)


def test_local_data_with_residue_degree():
    data = local_data(x1_11(), 2, 7, residue_degree=3)
    assert data.q == 8
    assert data.a_v == 4
    assert data.point_count == 5


def test_local_data_consistency_enforced():
    with pytest.raises(InputError, match="Hasse"):
        CurveLocalData(7, 7, Fraction(1), 0)


def test_curve_json_roundtrip():
    curve = x1_11()
    doc = curve.to_json()
    assert doc == {"a": ["0", "-1", "1", "0", "0"]}
    assert Curve.from_json(doc) == curve
    half = Curve.from_json({"a": ["0", "0", "0", "1/2", "1"]})
    assert half.a4 == Fraction(1, 2)
    with pytest.raises(InputError):
        Curve.from_json({"a": ["1", "2"]})
