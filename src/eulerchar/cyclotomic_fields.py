"""Prime splitting in the p-th cyclotomic field and infinite-inertia sets.

Only the first layer Q(mu_p) is modeled: the residue degree f of a
rational prime l != p is the multiplicative order of l mod p, there are
g = (p-1)/f places above l, and each has residue field of size l^f.  That
is all the downstream product formula needs.

For a Kummer-tower extension determined by (p, m) -- adjoin all p-power
roots of unity and of m -- the rational primes whose inertia stays
infinite are exactly the divisors of p*m, so the place set the product
formula runs over is computable.  For any other extension shape the caller
must supply the place list explicitly; this module does not guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .errors import InputError
from .padics import check_prime, prime_factors


@dataclass(frozen=True)
class SplittingData:
    """How a rational prime l decomposes in Q(mu_p)."""

    l: int
    p: int
    f: int          # residue degree

    @property
    def ramified(self) -> bool:
        return self.l == self.p

    @property
    def g(self) -> int:
        """Number of places above l: (p-1)/f, or 1 for the totally ramified l = p."""
        return 1 if self.ramified else (self.p - 1) // self.f

    @property
    def q_v(self) -> int:
        """Residue field size l^f."""
        return self.l ** self.f

    def to_json(self) -> dict:
        return {"l": self.l, "p": self.p, "f": self.f, "g": self.g,
                "ramified": self.ramified, "q_v": self.q_v}


def multiplicative_order(a: int, modulus: int) -> int:
    a %= modulus
    if a == 0:
        raise InputError("element not invertible")
    order = 1
    x = a
    while x != 1:
        x = x * a % modulus
        order += 1
        if order > modulus:
            raise InputError("element not invertible")
    return order


def split(l: int, p: int) -> SplittingData:
    """Splitting data of l in Q(mu_p); l = p is the totally ramified case."""
    check_prime(l)
    check_prime(p)
    return SplittingData(l, p, 1 if l == p else multiplicative_order(l, p))


def _is_perfect_power(m: int, k: int) -> bool:
    lo, hi = 1, m
    while lo <= hi:
        mid = (lo + hi) // 2
        t = mid ** k
        if t == m:
            return True
        if t < m:
            lo = mid + 1
        else:
            hi = mid - 1
    return False


@dataclass(frozen=True)
class ExtensionSpec:
    """Parameters (p, m) of the Kummer-tower extension of Q(mu_p)."""

    p: int
    m: int

    def __post_init__(self):
        check_prime(self.p)
        if self.p < 5:
            raise InputError("extension prime must be >= 5")
        if self.m <= 1:
            raise InputError("invalid extension parameter")
        if _is_perfect_power(self.m, self.p):
            raise InputError("invalid extension parameter: m is a perfect p-th power")


def infinite_inertia_set(ext: ExtensionSpec) -> List[SplittingData]:
    """Splitting data for every rational prime dividing p*m.

    These are exactly the primes with infinite inertia in the Kummer
    tower.  The place set the product formula uses is the sublist with
    l != p, expanded to its g places (see infinite_inertia_places).
    """
    return [split(l, ext.p) for l in prime_factors(ext.p * ext.m)]


def infinite_inertia_places(ext: ExtensionSpec) -> List[SplittingData]:
    """The places of Q(mu_p) away from p with infinite inertia, one entry each.

    Every place above a given l shares the residue field size l^f, so a
    prime that splits into g places contributes g identical entries.
    """
    places = []
    for data in infinite_inertia_set(ext):
        if data.l == ext.p:
            continue
        places.extend([data] * data.g)
    return places
