import random
from fractions import Fraction

import pytest

from eulerchar.akashi import AkashiData, akashi_series
from eulerchar.curves import Curve, local_data, x1_11
from eulerchar.cyclotomic_fields import ExtensionSpec, split
from eulerchar.errors import InputError, PrecisionError
from eulerchar.euler_char import local_cardinalities
from eulerchar.gamma_modules import TorsionModule, generalized_chi
from eulerchar.lambda_algebra import (LambdaSeries, distinguished_part, leading_term,
                                      weierstrass_prepare)
from eulerchar.padics import (MAX_VALUE, MR_PROVEN_BELOW, PowerOfP, int_valuation, is_prime,
                              prime_factors, quoted)


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
    with pytest.raises(InputError, match="prime mismatch: a product of a power of 5 and a "
                                         "power of 7"):
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
    (-10 ** 40, "a 41-digit negative integer"),
])
def test_quoted_cuts_a_long_value_to_a_bounded_quote(value, text):
    assert quoted(value) == text


def test_records_are_immutable_and_the_slotted_ones_no_tuples():
    g = LambdaSeries(7, 4, (7, 1, 0))  # 7 + T
    power, module, data = PowerOfP(7, 2), TorsionModule(7, (g,)), AkashiData(7, (g,))
    place = local_data(x1_11(), split(113, 7))
    records = [g, power, x1_11(), ExtensionSpec(7, 113), module, data,  # slotted
               leading_term(g), distinguished_part(g), weierstrass_prepare(g),  # NamedTuples
               akashi_series(data), generalized_chi(module), local_cardinalities(1, place, 7),
               split(113, 7), place]
    for record in records:
        for name in record._fields if isinstance(record, tuple) else type(record).__slots__:
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
    for x in (g, power):
        for op in (lambda x: x + x, len, iter, lambda x: 3 * x, lambda x: x * 3):
            with pytest.raises(TypeError):
                op(x)
    for x, y in ((g, power), (power, g)):  # a series and a power of p do not multiply
        with pytest.raises(TypeError):
            x * y
    zero = LambdaSeries(7, 4, (0, 0, 0))
    for build, error, message in [
            (lambda: Curve(0, 0, 0, 0, 1.5), InputError, "curve coefficient a6 must be"),
            (lambda: Curve(0, 0, 0, 0, 0), InputError, "singular curve"),
            (lambda: ExtensionSpec(9, 10), InputError, "not prime"),
            (lambda: ExtensionSpec(3, 10), InputError, "must be >= 5"),
            (lambda: ExtensionSpec(7, True), InputError, "m must be an int, got bool"),
            (lambda: ExtensionSpec(7, 1), InputError, "m must be >= 2"),
            (lambda: ExtensionSpec(7, MAX_VALUE), InputError, "m passes the bound"),
            (lambda: ExtensionSpec(5, 32), InputError, "perfect p-th power"),
            (lambda: TorsionModule(7, ()), InputError, "at least one generator"),
            (lambda: TorsionModule(5, (g,)), InputError, "generator 0 is at p = 7"),
            (lambda: TorsionModule(7, (g, zero)), PrecisionError, "generator 1 is indistinguish"),
            (lambda: AkashiData(7, ()), InputError, "at least one characteristic element"),
            (lambda: AkashiData(5, (g,)), InputError, "element 0 is at p = 7")]:
        with pytest.raises(error, match=message):
            build()
