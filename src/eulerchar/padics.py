"""Exact p-adic arithmetic: primes, valuations, powers of p, rationals, JSON integers.

There is no floating point anywhere.  Every value the library certifies
-- Euler characteristics, local H^1 orders, magnitudes of Euler-factor
products -- is an exact power of p and is kept as a :class:`PowerOfP`
exponent.  Which magnitude convention turns a valuation into such a
power (p^(+v_p) or p^(-v_p)) is a choice of the caller, and each CLI
report names the one it took in its provenance notes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, PrimeMismatchError


def is_prime(n: int) -> bool:
    """Trial division primality test; inputs are desk-scale."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def check_prime(p: int) -> int:
    if not isinstance(p, int) or not is_prime(p):
        raise InputError(f"not prime: {p!r}")
    return p


def int_valuation(n: int, p: int) -> int:
    """v_p(n) for a nonzero integer n."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite; handle separately")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


@dataclass(frozen=True)
class PowerOfP:
    """An exact (possibly negative) power of a fixed prime, kept as an exponent.

    The quantities the library certifies -- Euler characteristics, H^1
    cardinalities, magnitudes of Euler-factor products -- are all of this
    shape, and keeping the exponent avoids ever printing an inexact value.
    """

    prime: int
    exponent: int

    def __post_init__(self):
        check_prime(self.prime)

    def _check_same_prime(self, other: "PowerOfP") -> None:
        if self.prime != other.prime:
            raise PrimeMismatchError("prime mismatch")

    def __mul__(self, other: "PowerOfP") -> "PowerOfP":
        self._check_same_prime(other)
        return PowerOfP(self.prime, self.exponent + other.exponent)

    def __truediv__(self, other: "PowerOfP") -> "PowerOfP":
        self._check_same_prime(other)
        return PowerOfP(self.prime, self.exponent - other.exponent)

    def __str__(self) -> str:
        if self.exponent == 0:
            return "1"
        if self.exponent == 1:
            return str(self.prime)
        return f"{self.prime}^{self.exponent}"

    @classmethod
    def parse(cls, prime: int, text: str) -> "PowerOfP":
        """Parse "p^e" (e possibly negative) or a positive integer power of p."""
        check_prime(prime)  # before int_valuation, which never returns for p = 1
        text = text.strip()
        if "^" in text:
            base_s, _, exp_s = text.partition("^")
            try:
                base, exp = int(base_s), int(exp_s)
            except ValueError:
                raise InputError(f"cannot parse power of {prime}: {text!r}") from None
            if base != prime:
                raise InputError(f"expected a power of {prime}, got base {base}")
            return cls(prime, exp)
        try:
            n = int(text)
        except ValueError:
            raise InputError(f"cannot parse power of {prime}: {text!r}") from None
        e = int_valuation(n, prime) if n > 0 else 0
        if n != prime ** e:
            raise InputError(f"not a power of {prime}: {text!r}")
        return cls(prime, e)


def format_rational(value: Fraction) -> str:
    """Serialize a rational as "num/den", omitting "/den" when it is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def json_int(value, field: str, document: str) -> int:
    """``value`` if it is a JSON integer, else an InputError naming the field."""
    if type(value) is not int:  # exact type: JSON true and 3.0 are not integers here
        raise InputError(f"malformed {document} document: {field!r} must be a JSON "
                         f"integer, got {value!r}")
    return value


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise InputError(f"cannot parse rational {text!r}") from None
