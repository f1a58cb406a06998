import random
from fractions import Fraction

import pytest

from eulerchar.errors import InputError
from eulerchar.padics import (MR_PROVEN_BELOW, PowerOfP, int_valuation, is_prime, prime_factors,
                              quoted)


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
        PowerOfP.parse(6, "6")
    with pytest.raises(InputError, match="not prime"):
        PowerOfP.parse(1, "7")


def test_prime_mismatch():
    with pytest.raises(InputError, match="prime mismatch"):
        PowerOfP(5, 2) * PowerOfP(7, 2)


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
    # ASCII decimal digits only: int() would read the ones after "-7" as 7^8, 7^10, 49, 8,
    # 49 and 7^8; and at most 2000 characters in all
    for bad in ("6", "5^2", "7.5", "forty-nine", "0", "-7", "7^0_8", "7^1_0", "4_9", "\u0668",
                "+49", " 7^8", "7^" + "1" * 1999):
        with pytest.raises(InputError):
            PowerOfP.parse(7, bad)
    for prime in (0, 1):
        with pytest.raises(InputError, match="not prime"):
            PowerOfP.parse(prime, "7")


def test_power_arithmetic():
    assert PowerOfP(7, 8) * PowerOfP(7, -3) == PowerOfP(7, 5)
    with pytest.raises(InputError, match="prime mismatch"):
        PowerOfP(7, 1) * PowerOfP(5, 1)


def test_is_prime_against_slow_reference():
    for n in range(-2, 400):
        assert is_prime(n) == _trial_prime(n)


# Trial division: the slow route that checks Miller-Rabin and Pollard-Brent rho.
def _trial_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _trial_factors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def test_miller_rabin_against_trial_division():
    for n in range(-2, 10 ** 5):
        assert is_prime(n) == _trial_prime(n), n
    # the least strong pseudoprimes to the bases 2, 2..3, 2..5, ..., 2..37
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n), n
    assert is_prime(10 ** 12 + 39) and is_prime(2 ** 61 - 1)
    # the bound is itself a strong pseudoprime to all 13 bases, so no answer past it
    with pytest.raises(InputError, match="not decided"):
        is_prime(MR_PROVEN_BELOW)


def test_prime_factors_against_trial_division():
    for n in range(1, 3000):
        assert prime_factors(n) == _trial_factors(n), n
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randrange(1, 10 ** 10)
        assert prime_factors(n) == _trial_factors(n), n
    # products of large primes, squares of primes past the small-prime strip
    assert prime_factors(999983 * 1000003 * (10 ** 12 + 39)) == [999983, 1000003, 10 ** 12 + 39]
    assert prime_factors(43 ** 2 * 1000003 ** 3) == [43, 1000003]
    assert prime_factors(2 ** 10 * 41 ** 3) == [2, 41]


@pytest.mark.parametrize("value, text", [
    ("7", "'7'"), ("x" * 41, "'%s'..." % ("x" * 40)), (7.9, "7.9"), (True, "True"),
    (None, "None"), (-10 ** 39, repr(-10 ** 39)), (10 ** 40, "a 41-digit integer"),
    ([1, 2], "[1, 2]"), ([1] * 20, "a list"), ({"k" * 40: 1}, "a dict"),
])
def test_quoted_cuts_a_long_value_to_a_bounded_quote(value, text):
    assert quoted(value) == text
