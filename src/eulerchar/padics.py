"""Exact p-adic arithmetic: primes, valuations, powers of p, JSON integers.

There is no floating point anywhere.  Every value the library certifies
-- Euler characteristics, local H^1 orders, magnitudes of Euler-factor
products -- is an exact power of p and is kept as a :class:`PowerOfP`
exponent.  Which magnitude convention turns a valuation into such a
power (p^(+v_p) or p^(-v_p)) is a choice of the caller, and each CLI
report names the one it took in its provenance notes.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import List

from .errors import InputError


# The first 13 primes as Miller-Rabin bases, and for each k the least odd
# composite that is a strong probable prime to the first k of them (Jaeschke 1993;
# Sorenson and Webster 2017): below that bound the first k bases decide primality.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_DECIDED_BELOW = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
                     341550071728321, 341550071728321, 3825123056546413051,
                     3825123056546413051, 3825123056546413051,
                     318665857834031151167461, 3317044064679887385961981)
MR_PROVEN_BELOW = _MR_DECIDED_BELOW[-1]

# Integers that a document gives or makes (p^N, q_v = l^f, polynomial and curve coefficients)
# stay below MAX_VALUE: a report prints them, and q_v^2, within CPython's 4,300-digit limit
MAX_DIGITS = 2000
MAX_VALUE = 10 ** MAX_DIGITS

# An integer in text is ASCII decimal digits; int() alone also reads "1_3", "+13", " 13" and "١٣"
DECIMAL_INT = re.compile(r"-?[0-9]+")
_POWER_OF_P = re.compile(r"([0-9]+)(?:\^(-?[0-9]+))?")


def power_below_bound(base: int, exp: int) -> bool:
    """Whether base^exp < MAX_VALUE; bit lengths refuse a power far past it before it is formed."""
    return exp * (base.bit_length() - 1) < MAX_VALUE.bit_length() and base ** exp < MAX_VALUE


def quoted(value) -> str:
    """``value`` as an error message quotes it: a string's first 40 characters, an
    integer past 40 digits by its digit count, and any other value by its repr, or by
    its type when the repr passes 40 characters."""
    if type(value) is str:
        return repr(value[:40]) + ("..." if len(value) > 40 else "")
    if type(value) is int:
        return repr(value) if abs(value) < 10 ** 40 else f"a {len(str(abs(value)))}-digit integer"
    text = repr(value)
    return text if len(text) <= 40 else f"a {type(value).__name__}"


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n below MR_PROVEN_BELOW.

    Past that bound no answer is certified, so an InputError is raised.
    """
    if n <= _MR_BASES[-1]:
        return n in _MR_BASES
    for b in _MR_BASES:
        if n % b == 0:
            return False
    if n >= MR_PROVEN_BELOW:
        raise InputError(f"primality of a {len(str(n))}-digit number not decided: "
                         f"past the proven Miller-Rabin range n < {MR_PROVEN_BELOW}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b, bound in zip(_MR_BASES, _MR_DECIDED_BELOW):
        x = pow(b, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < bound:
            return True
    return True


def _rho_divisor(n: int) -> int:
    """A proper divisor of a composite n with no prime factor below 43 (Pollard rho, Brent)."""
    for c in range(1, n):
        y, r, g, product = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                saved = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    product = product * (x - y) % n
                g = math.gcd(product, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: step back one at a time
            g = 1
            while g == 1:
                saved = (saved * saved + c) % n
                g = math.gcd(x - saved, n)
        if g != n:
            return g
    raise ValueError(f"no divisor found for {n}")  # unreachable for composite n


def prime_factors(n: int) -> List[int]:
    """The distinct prime factors of n >= 1, ascending (Pollard-Brent rho)."""
    out = set()
    for b in _MR_BASES:
        if n % b == 0:
            out.add(b)
            while n % b == 0:
                n //= b
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out.add(m)
        else:
            d = _rho_divisor(m)
            stack.extend((d, m // d))
    return sorted(out)


def check_prime(p: int) -> int:
    if not isinstance(p, int) or not is_prime(p):
        raise InputError(f"not prime: {quoted(p)}")
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
    :meth:`parse` checks the prime of a value read from outside; the raw
    constructor checks nothing, and is given only primes proved already.
    """

    prime: int
    exponent: int

    def __mul__(self, other: "PowerOfP") -> "PowerOfP":
        if self.prime != other.prime:
            raise InputError("prime mismatch")
        return PowerOfP(self.prime, self.exponent + other.exponent)

    def __str__(self) -> str:
        if self.exponent == 0:
            return "1"
        if self.exponent == 1:
            return str(self.prime)
        return f"{self.prime}^{self.exponent}"

    @classmethod
    def parse(cls, prime: int, text: str) -> "PowerOfP":
        """Parse "p^e" (e possibly negative) or a positive integer power of p.

        ASCII decimal digits (see DECIMAL_INT), at most MAX_DIGITS characters in all.
        """
        check_prime(prime)  # before int_valuation, which never returns for p = 1
        match = _POWER_OF_P.fullmatch(text) if len(text) <= MAX_DIGITS else None
        if not match:
            raise InputError(f"cannot parse power of {prime}: {quoted(text)}")
        n = int(match[1])
        if match[2] is not None:
            if n != prime:
                raise InputError(f"expected a power of {prime}, got base {quoted(match[1])}")
            return cls(prime, int(match[2]))
        e = int_valuation(n, prime) if n > 0 else 0
        if n != prime ** e:
            raise InputError(f"not a power of {prime}: {quoted(text)}")
        return cls(prime, e)


def json_int(value, field: str, document: str) -> int:
    """``value`` if it is a JSON integer, else an InputError naming the field."""
    if type(value) is not int:  # exact type: JSON true and 3.0 are not integers here
        raise InputError(f"malformed {document} document: {field!r} must be a JSON "
                         f"integer, got {quoted(value)}")
    return value


def document_fields(doc, document: str, keys, required, path: str = "") -> tuple:
    """The values of the ``required`` keys of ``doc``, by the one shape rule of documents.

    Refused in turn: a ``doc`` that is not a JSON object, a missing required key, and a key
    outside ``keys``, the keys read, which the refusal lists.  Each names its key by its path
    in the document; ``path`` is that of ``doc``, "" for a whole document."""
    prefix = path + "." if path else ""
    if type(doc) is not dict:
        raise InputError(f"malformed {document} document: expected a JSON object"
                         f"{' at ' + repr(path) if path else ''}, got {quoted(doc)}")
    for key in required:
        if key not in doc:
            raise InputError(f"malformed {document} document: missing key {prefix + key!r}")
    for key in doc:
        if key not in keys:
            raise InputError(f"malformed {document} document: unknown key {quoted(prefix + key)}; "
                             f"the keys read here are {', '.join(keys)}")
    return tuple(doc[key] for key in required)
