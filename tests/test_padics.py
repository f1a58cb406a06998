import random
from fractions import Fraction

import pytest

from eulerchar.errors import InputError, PrimeMismatchError
from eulerchar.padics import (PowerOfP, format_rational, int_valuation, is_prime,
                              parse_rational)


def test_valuation_examples():
    assert int_valuation(1, 7) == 0
    assert int_valuation(49, 7) == 2
    assert int_valuation(36, 7) == 0
    assert int_valuation(-250, 5) == 3
    with pytest.raises(ValueError):
        int_valuation(0, 5)


def _valuation(x, p):
    return int_valuation(x.numerator, p) - int_valuation(x.denominator, p)


def test_valuation_additive_and_magnitude_multiplicative():
    # |x|_p = p^-v(x) in the standard convention, p^v(x) in the paper's.
    rng = random.Random(7)
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7, 11])
        x, y = (Fraction(rng.choice([-1, 1]) * rng.randint(1, 4000),
                         rng.randint(1, 4000)) for _ in range(2))
        assert _valuation(x * y, p) == _valuation(x, p) + _valuation(y, p)
        for sign in (-1, 1):
            assert PowerOfP(p, sign * _valuation(x * y, p)) == \
                PowerOfP(p, sign * _valuation(x, p)) * PowerOfP(p, sign * _valuation(y, p))
        assert PowerOfP(p, -_valuation(x, p)) * PowerOfP(p, _valuation(x, p)) == PowerOfP(p, 0)


def test_prime_is_checked():
    with pytest.raises(InputError, match="not prime"):
        PowerOfP(6, 1)
    with pytest.raises(InputError, match="not prime"):
        PowerOfP(1, 0)


def test_prime_mismatch():
    with pytest.raises(PrimeMismatchError, match="prime mismatch"):
        PowerOfP(5, 2) * PowerOfP(7, 2)
    with pytest.raises(PrimeMismatchError, match="prime mismatch"):
        PowerOfP(5, 2) / PowerOfP(7, 2)


def test_power_of_p_formatting_and_parsing():
    assert str(PowerOfP(7, 0)) == "1"
    assert str(PowerOfP(7, 1)) == "7"
    assert str(PowerOfP(7, 8)) == "7^8"
    assert str(PowerOfP(7, -2)) == "7^-2"
    assert PowerOfP.parse(7, "7^8") == PowerOfP(7, 8)
    assert PowerOfP.parse(7, "1") == PowerOfP(7, 0)
    assert PowerOfP.parse(7, "49") == PowerOfP(7, 2)
    assert PowerOfP.parse(7, "7^-1") == PowerOfP(7, -1)


def test_power_of_p_parse_rejects_garbage():
    for bad in ("6", "5^2", "7.5", "forty-nine", "0", "-7"):
        with pytest.raises(InputError):
            PowerOfP.parse(7, bad)
    for prime in (0, 1):
        with pytest.raises(InputError, match="not prime"):
            PowerOfP.parse(prime, "7")


def test_power_arithmetic():
    assert PowerOfP(7, 8) * PowerOfP(7, -3) == PowerOfP(7, 5)
    assert PowerOfP(7, 2) / PowerOfP(7, 5) == PowerOfP(7, -3)
    with pytest.raises(PrimeMismatchError):
        PowerOfP(7, 1) * PowerOfP(5, 1)


def test_rational_serialization():
    assert format_rational(Fraction(49, 36)) == "49/36"
    assert format_rational(Fraction(-5, 1)) == "-5"
    assert parse_rational("49/36") == Fraction(49, 36)
    assert parse_rational("-5") == Fraction(-5)
    with pytest.raises(InputError):
        parse_rational("1/0")


def _slow_prime(n):
    return n > 1 and all(n % d for d in range(2, n))


def test_is_prime_against_slow_reference():
    for n in range(-2, 400):
        assert is_prime(n) == _slow_prime(n)
