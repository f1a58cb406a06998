"""Prime splitting in the p-th cyclotomic field and infinite-inertia sets.

Only the first layer Q(mu_p) is modeled: the residue degree f of a
rational prime l != p is the multiplicative order of l mod p, there are
g = (p-1)/f places above l, and each has residue field of size l^f.  That
is all the downstream product formula needs.

For a Kummer-tower extension determined by (p, m) -- adjoin all p-power
roots of unity and of m -- the rational primes whose inertia stays
infinite are exactly the divisors of p*m, so the place set the product
formula runs over is computable.  No other extension shape is modeled, and
this module does not guess a place set for one.
"""

from __future__ import annotations

from typing import List, NamedTuple

from .errors import InputError
from .padics import MAX_VALUE, Record, check_prime, power_below_bound, prime_factors, quoted


class SplittingData(NamedTuple):
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


def multiplicative_order(a: int, p: int) -> int:
    """The order of a mod the prime p: p - 1 reduced one prime factor at a time."""
    a %= p
    if a == 0:
        raise InputError("element not invertible")
    order = p - 1
    for r in prime_factors(order):
        while order % r == 0 and pow(a, order // r, p) == 1:
            order //= r
    return order


def split(l: int, p: int) -> SplittingData:
    """Splitting data of l in Q(mu_p); l = p is the totally ramified case.

    A residue field of size l^f >= MAX_VALUE (10^2000) is refused before l^f is formed.
    """
    return _split(check_prime(l), check_prime(p))


def _split(l: int, p: int) -> SplittingData:
    """:func:`split` for an l and a p proved prime already."""
    f = 1 if l == p else multiplicative_order(l, p)
    if not power_below_bound(l, f):
        raise InputError(f"residue field too large: l = {l} has residue degree f = {f} "
                         f"in Q(mu_{p}), and l^f passes the bound 10^2000")
    return SplittingData(l, p, f)


def _is_perfect_power(m: int, k: int) -> bool:
    """Whether m > 1 is a k-th power: a root r >= 2 is below 2^(bitlen(m)/k), so k < bitlen(m)."""
    b = m.bit_length()
    if k >= b:
        return False
    lo, hi = 1, 1 << (b // k + 1)
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


class ExtensionSpec(Record):
    """Parameters (p, m) of the Kummer-tower extension of Q(mu_p)."""

    __slots__ = ("p", "m")

    def __init__(self, p: int, m: int):
        check_prime(p)
        if p < 5:
            raise InputError(f"extension prime must be >= 5, got p = {p}")
        if type(m) is not int:  # exact type, as in documents: no float and no bool
            raise InputError(f"invalid extension parameter: m must be an int, "
                             f"got {type(m).__name__}")
        if m <= 1:
            raise InputError(f"invalid extension parameter: m must be >= 2, got {quoted(m)}")
        if m >= MAX_VALUE:
            raise InputError("invalid extension parameter: m passes the bound 10^2000")
        if _is_perfect_power(m, p):
            raise InputError("invalid extension parameter: m is a perfect p-th power")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "m", m)


def infinite_inertia_set(ext: ExtensionSpec) -> List[SplittingData]:
    """Splitting data for every rational prime dividing p*m.

    These are exactly the primes with infinite inertia in the Kummer
    tower.  The place set the product formula uses is the sublist with
    l != p, expanded to its g places (see infinite_inertia_places).
    prime_factors proves each l and ExtensionSpec proved p, so neither is checked again.
    """
    return [_split(l, ext.p) for l in prime_factors(ext.p * ext.m)]


def infinite_inertia_places(inertia_set: List[SplittingData]) -> List[SplittingData]:
    """The places away from p in ``inertia_set`` (see infinite_inertia_set), one entry each.

    Every place above a given l shares the residue field size l^f, so a
    prime that splits into g places contributes g identical entries.
    """
    return [data for data in inertia_set if not data.ramified for _ in range(data.g)]
