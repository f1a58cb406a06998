"""Truncated power-series arithmetic over Z_p.

A :class:`LambdaSeries` models an element of the one-variable power series
ring over Z_p (the Iwasawa algebra of a rank-one group, under the usual
identification) at finite precision: coefficients are known mod p^N and
terms are known up to T^(D-1).  All equality statements are therefore
"equality at precision", and every operation records the precision of its
result as the minimum of its operands'.

The heavy lifting is Weierstrass preparation, which factors a nonzero
series as p^mu * P(T) * U(T) with P monic distinguished of degree lambda
and U an invertible series, exactly in Z/p^N, with no floating point.
Its two routes both return a :class:`WeierstrassForm`.  :func:`weierstrass_prepare`
returns all three factors by Hensel lifting: P * U = g / p^mu holds mod p
with P = T^lambda, and each step doubles the p-adic precision, so N - mu
takes ceil(log2(N - mu)) steps of a few products.  :func:`distinguished_part`
returns (mu, P), with unit None, for callers that compare characteristic
elements, which are defined only up to units, by classical Weierstrass
division by successive approximation: N - mu - 1 rounds at shrinking
precision, each only on the terms that can still reach P, which on those
callers' small series is faster than the lifting.  Both start from
:func:`_prologue`, which also tells them when g = p^mu * T^lambda * U, so
that neither steps nor rounds nor an inverse are needed.

:meth:`LambdaSeries.from_json` is the one reader of series entries in JSON
documents: coefficient lists, polynomial strings and the defaults of both.  A
polynomial string, such as "T*(T-7)", is in a language of ASCII decimal literals,
T or t, parentheses, unary + and -, binary +, - and *, and ^ or ** with a literal
exponent, with spaces and tabs between tokens.  Each sum takes at most 1024 terms
and 1024 unary signs, each product at most 1024 factors, and parentheses nest at
most 200 deep; :func:`polynomial_from_text` reads it without recursion.

Every product runs on one kernel, :func:`_kronecker`, whose operands are
residues mod the product's modulus m and whose result is the raw convolution
sums, below d * m * m: each caller reduces them once, in a pass it makes anyway.
"""

from __future__ import annotations

import operator
import re
import struct
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .errors import InputError, PrecisionError
from .padics import (MAX_DIGITS, MAX_VALUE, Record, check_prime, document_fields,
                     int_valuation, json_int, power_below_bound, quoted)

_MAX_DEGREE = 1024  # bounds a series' D, and so the degree of a parsed polynomial
# Bounds a series' N * D * bitlen(p^N): distinguished_part's division runs up to N rounds
# of one D-term product, round k's coefficients below p^(N-k), while weierstrass_prepare's
# lifting runs about log2(N) steps of a few products.  At the bound the slowest shape,
# the largest prime p < MR_PROVEN_BELOW at D = 1024, N = 6, takes about 0.3 s in
# distinguished_part and 0.25 s in weierstrass_prepare (2-vCPU Xeon).
_MAX_COST = 4_000_000
# For a Kronecker slot of w = 1..8 bytes, at index w - 1: the machine width s >= w and
# its struct code.
_MACHINE_SLOTS = ((1, "B"), (2, "H"), (4, "I"), (4, "I"), (8, "Q"), (8, "Q"), (8, "Q"), (8, "Q"))
_MAX_WIDENED_BYTES = 2048  # see _kronecker
_SCHOOLBOOK_TERMS = 16  # see _invert_unit


class _Structs(dict):
    """struct.Struct("<{count}{code}") under the key (count, code), built on first use."""

    def __missing__(self, key):
        packer = self[key] = struct.Struct("<%d%s" % key)
        return packer


_STRUCTS = _Structs()  # the packers of _kronecker's machine-width route


class LambdaSeries(Record):
    """A power series known mod (p^coeff_precision, T^trunc_degree).

    ``coeffs`` is little-endian in T, nonempty, and reduced into
    [0, p^coeff_precision); its length is the truncation degree D.  :meth:`make`
    is the one checked way in, and applies the rules of a series document.  The
    raw constructor checks nothing: this module calls it only on results built
    from series that hold these facts already.
    """

    __slots__ = ("prime", "coeff_precision", "coeffs")

    def __init__(self, prime: int, coeff_precision: int, coeffs: tuple):
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "coeff_precision", coeff_precision)  # N: known mod p^N
        object.__setattr__(self, "coeffs", coeffs)

    # -- construction ------------------------------------------------------

    @classmethod
    def make(cls, prime: int, coeffs: Sequence[int], precision: int,
             degree: int) -> "LambdaSeries":
        """The checked constructor, by the rules of a series document: p, N, D and each
        coefficient are integers (no bool or float); N, D >= 1; p is prime, checked before
        p^N is formed; p^N < 10^2000, D <= 1024 and N * D * bitlen(p^N) <= _MAX_COST; no term
        from T^D on is nonzero.  Coefficients are reduced mod p^N and zero-padded to D."""
        p, n, d = (json_int(prime, "p", "series"), json_int(precision, "N", "series"),
                   json_int(degree, "D", "series"))
        if n < 1 or d < 1:
            raise InputError("malformed series document: 'N' and 'D' must be >= 1")
        check_prime(p)
        if not power_below_bound(p, n):
            raise InputError(f"malformed series document: 'N' = {quoted(n)} makes p^N pass "
                             f"the bound 10^2000 at p = {p}")
        if d > _MAX_DEGREE:
            raise InputError(f"malformed series document: 'D' = {quoted(d)} passes the bound "
                             f"{_MAX_DEGREE}")
        m = p ** n
        if n * d * m.bit_length() > _MAX_COST:
            raise InputError(f"malformed series document: 'N' = {n} and 'D' = {d} make "
                             f"N * D * bitlen(p^N) pass the cost bound {_MAX_COST}")
        coeffs = [json_int(c, "coeffs", "series") for c in coeffs]
        past = next((i for i in range(d, len(coeffs)) if coeffs[i]), None)
        if past is not None:
            raise InputError(f"malformed series document: a term at T^{past} "
                             f"exceeds truncation degree D = {d}")
        return cls(p, n, tuple([c % m for c in coeffs[:d]] + [0] * (d - len(coeffs))))

    @classmethod
    def one(cls, prime: int, precision: int, degree: int) -> "LambdaSeries":
        """The series 1 at the shape (p, N, D) of a series already built."""
        return cls(prime, precision, (1,) + (0,) * (degree - 1))

    @property
    def trunc_degree(self) -> int:
        return len(self.coeffs)

    # -- predicates and views ----------------------------------------------

    def t_order(self) -> Optional[int]:
        """Index of the first coefficient nonzero at precision; None if there is none."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return None

    # -- arithmetic ----------------------------------------------------------

    def __mul__(self, other: "LambdaSeries") -> "LambdaSeries":
        if not isinstance(other, LambdaSeries):
            return NotImplemented
        if self.prime != other.prime:
            raise InputError(f"prime mismatch: a product of a series at p = "
                             f"{self.prime} and one at p = {other.prime}")
        n = min(self.coeff_precision, other.coeff_precision)
        d = min(self.trunc_degree, other.trunc_degree)
        m = self.prime ** n
        a, b = ([c % m for c in x.coeffs] if x.coeff_precision > n else x.coeffs
                for x in (self, other))  # the finer operand, reduced to residues mod p^n
        return LambdaSeries(self.prime, n, tuple([c % m for c in _kronecker(a, b, d, m)]))

    def shift_down(self, k: int) -> "LambdaSeries":
        """Divide by T^k; callers take k from :meth:`t_order`, so T^k divides and k < D."""
        if k == 0:
            return self
        return LambdaSeries(self.prime, self.coeff_precision, self.coeffs[k:])

    def divide_p_power(self, e: int) -> "LambdaSeries":
        """Divide by p^e, losing e digits of precision; callers take e as a mu
        of :func:`mu_lambda`, so p^e divides and e < N."""
        if e == 0:
            return self
        pe = self.prime ** e
        return LambdaSeries(self.prime, self.coeff_precision - e,
                            tuple(c // pe for c in self.coeffs))

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {"p": self.prime, "N": self.coeff_precision,
                "D": self.trunc_degree, "coeffs": list(self.coeffs)}

    @classmethod
    def from_json(cls, entry, outer: Optional[dict] = None) -> "LambdaSeries":
        """Read one series entry of a JSON document, the one reader of series.

        ``entry`` is a coefficient document ``{"coeffs": [...]}``, a ``{"poly": ...}``
        document, or a bare polynomial string.  Either form is read at the entry's own
        "p", "N" and "D", falling back to those of ``outer``, the enclosing module or
        Akashi document's as read by :func:`series_list_from_doc`, then to N = 16 and
        D = 32.  An entry holds "p" unless ``outer`` gives it, "N", "D" and one of
        "coeffs" and "poly"; any other key, or both of those, is refused.  :meth:`make`
        builds both forms, a polynomial once parsed by :func:`series_from_text`.  Bad
        input raises InputError.
        """
        scope = {"N": 16, "D": 32, **(outer or {})}
        entry = {"poly": entry} if isinstance(entry, str) else entry
        form = "coeffs" if type(entry) is dict and "coeffs" in entry else "poly"
        if type(entry) is dict and form not in entry:
            raise InputError("malformed series document: needs either 'coeffs' or 'poly'")
        document_fields(entry, "series", ("p", "N", "D", form),
                        (form,) if "p" in scope else ("p", form))
        scope.update(entry)
        p, n, d, body = (scope[key] for key in ("p", "N", "D", form))
        if form == "coeffs":
            if not isinstance(body, list):
                raise InputError("malformed series document: 'coeffs' must be a list")
            return cls.make(p, body, n, d)
        if not isinstance(body, str):
            raise InputError("malformed series document: 'poly' must be a string")
        return series_from_text(p, body, n, d)


class LeadingTerm(NamedTuple):
    """Lowest-degree term alpha*T^k of a series nonzero at precision."""

    prime: int
    alpha: int
    k: int

    @property
    def alpha_valuation(self) -> int:
        return int_valuation(self.alpha, self.prime)


class WeierstrassForm(NamedTuple):
    """Factorization g = p^mu * P(T) * U(T) at precision N - mu: (mu, P) and the unit U.

    ``distinguished_poly`` P is little-endian and monic of degree lambda, with all
    lower coefficients divisible by p.  :func:`weierstrass_prepare` and
    :func:`distinguished_part`, the only constructors, guarantee these; the latter
    leaves ``unit`` None.  The invertible series ``unit`` U carries the precision of
    P, at which p^mu * P * U = g mod T^D holds; :func:`weierstrass_prepare` says how
    much of P that fixes.
    """

    prime: int
    precision: int
    mu: int
    distinguished_poly: tuple
    unit: Optional[LambdaSeries] = None

    @property
    def lam(self) -> int:
        return len(self.distinguished_poly) - 1

    def same_characteristic_element(self, other: "WeierstrassForm") -> bool:
        """Equality up to units: equal p, mu and lambda, and P equal at shared precision.

        Characteristic elements are only defined modulo invertible series,
        so the unit part is deliberately ignored.
        """
        m = self.prime ** min(self.precision, other.precision)
        return ((self.prime, self.mu, self.lam) == (other.prime, other.mu, other.lam)
                and all((a - b) % m == 0 for a, b in
                        zip(self.distinguished_poly, other.distinguished_poly)))


def _kronecker(a: Sequence[int], b: Sequence[int], d: int, m: int) -> List[int]:
    """The first d coefficients of a*b, not reduced, by Kronecker substitution.

    Every coefficient of a and b is a residue in [0, m).  Each operand is packed
    into one integer, a coefficient per fixed-width slot, so that one big-integer
    product does the convolution.  A slot holds d * m * m, which bounds every
    output coefficient, so no slot carries into the next; its width comes from
    (d, m) alone, and the caller reduces the raw sums it gets back in a pass it
    makes anyway.  An operand is cut to d terms only when it is longer.

    A slot of w <= 8 bytes is widened to s, the least of 1, 2, 4 and 8 bytes
    with s >= w, and each operand is packed, and the first d slots read back,
    by one call of a ``struct.Struct`` ("<" fixes the byte order), not one call
    per coefficient.  Each Struct is built once per (count, code), in _STRUCTS,
    as most products are small: at d = 16, m = 7^8 the big-integer product takes
    1.1 of the call's 3.5 us, and three format strings per call cost 0.6 us more
    (2-vCPU Xeon).  Widening lengthens the product.  By one byte a slot (w = 3
    or 7) this route still beat packing per coefficient at every d up to 1024
    (1.3-1.9x at w = 3, 1.02-1.4x at w = 7); by more (w = 5 or 6, to 8 bytes) it
    lost past about 2 KiB per operand (0.59-0.98x at d = 512-1024).  So a slot
    widened by more than a byte takes this route only while d * s <=
    _MAX_WIDENED_BYTES.  Other slots are packed one coefficient at a time.
    """
    if len(a) > d:
        a = a[:d]
    if len(b) > d:
        b = b[:d]
    w = ((d * m * m).bit_length() + 7) // 8
    if w <= len(_MACHINE_SLOTS):
        s, code = _MACHINE_SLOTS[w - 1]
        if s - w <= 1 or d * s <= _MAX_WIDENED_BYTES:
            x = int.from_bytes(_STRUCTS[len(a), code].pack(*a), "little")
            y = int.from_bytes(_STRUCTS[len(b), code].pack(*b), "little")
            z = (x * y).to_bytes(max(len(a) + len(b), d) * s, "little")
            return list(_STRUCTS[d, code].unpack_from(z))
    x = int.from_bytes(b"".join([c.to_bytes(w, "little") for c in a]), "little")
    y = int.from_bytes(b"".join([c.to_bytes(w, "little") for c in b]), "little")
    z = (x * y).to_bytes((len(a) + len(b)) * w, "little")
    return [int.from_bytes(z[i:i + w], "little") for i in range(0, d * w, w)]


def _invert_unit(c: Sequence[int], m: int) -> List[int]:
    """Inverse of coefficients c, residues mod m with a unit constant term, mod (m, T^len(c)).

    The first _SCHOOLBOOK_TERMS terms come from the direct recurrence: c * out = 1
    gives out[i] = -out[0] * (c[1] * out[i-1] + ... + c[i] * out[0]) for i >= 1.
    From there, Newton iteration: if v = 1/c mod T^k, then c*v - 1 vanishes below
    T^k and v - (c*v - 1)*v = 1/c mod T^2k, so about log2(len(c) / 16) rounds of
    two products; see von zur Gathen and Gerhard, *Modern Computer Algebra*, 9.1.
    The inverse mod (m, T^len(c)) is unique, so where the recurrence stops changes
    no result.  On short series a round's two kernel calls cost more than the sums
    they replace: in a sweep over len(c) = 9..256 and m of 3 to 169 bits (2-vCPU
    Xeon), Newton from one term was the slowest at every len(c) <= 64, often by 1.5-2x,
    while bases of 8 to 32 terms were within the run-to-run noise of each other.
    16 covers all but the longest of the oracle's inversions (at most 17 terms).
    """
    u = pow(c[0], -1, m)
    out = [u]
    for i in range(1, min(len(c), _SCHOOLBOOK_TERMS)):
        out.append(-u * sum(map(operator.mul, c[1:i + 1], reversed(out))) % m)
    while len(out) < len(c):
        k, k2 = len(out), min(2 * len(out), len(c))
        err = [x % m for x in _kronecker(c, out, k2, m)[k:]]  # c*out - 1: 0 below T^k
        out += [-x % m for x in _kronecker(err, out, k2 - k, m)]
    return out


def _newton_step(x: List[int], y: Sequence[int], d: int, pj: int, mn: int) -> List[int]:
    """x - x * (y*x - 1) mod (mn, T^d): from x = 1/y mod pj to 1/y mod mn, for mn | pj^2."""
    err, mq = _kronecker([c % mn for c in y], x, d, mn), mn // pj
    err[0] -= 1
    t = _kronecker(x if pj <= mq else [c % mq for c in x], [c % mn // pj for c in err], d, mq)
    return [(a - pj * b) % mn for a, b in zip(x + [0] * (d - len(x)), t)]


def mu_lambda(g: LambdaSeries) -> Tuple[int, int]:
    """(mu, lambda) of g, read off its coefficients in one pass without preparing.

    mu is the least p-valuation of a stored coefficient, and lambda the first
    index that attains it; g must be nonzero at precision.
    """
    p, mu, lam = g.prime, None, None
    for i, c in enumerate(g.coeffs):
        if c and (mu is None or c % pm):  # c % pm != 0: v_p(c) < mu
            mu, lam = int_valuation(c, p), i
            if mu == 0:
                break
            pm = p ** mu
    if mu is None:
        raise PrecisionError("indistinguishable from zero at precision")
    return mu, lam


def _prologue(g: LambdaSeries) -> Tuple[int, int, int, List[int], bool]:
    """Where both preparation routes start: (mu, lambda) of g (see :func:`mu_lambda`),
    n = N - mu, h = g / p^mu, and whether P = T^lambda.

    h = h_low + T^lambda * h_high with h_low = 0 mod p, as lambda is the first index
    of the least valuation.  When h_low = 0, g = p^mu * T^lambda * U: P = T^lambda
    (P = 1 when lambda = 0) and U = h_high, and neither route forms an inverse.  That
    holds at n = 1 too, as h is stored mod p^n and h_low is then 0.
    """
    mu, lam = mu_lambda(g)
    pe = g.prime ** mu
    h = [c // pe for c in g.coeffs]
    return mu, lam, g.coeff_precision - mu, h, not any(h[:lam])


def distinguished_part(g: LambdaSeries) -> WeierstrassForm:
    """(mu, P) of g = p^mu * P * U by Weierstrass division, without forming U: unit None.

    With h = g / p^mu = h_low + T^lambda * h_high (see :func:`_prologue`),
    division of T^lambda by h keeps the dividend's part T^lambda * high; a round
    takes q = high / h_high and subtracts q * h, which from T^lambda on is
    q * h_low + T^lambda * high exactly.  So a round is one product high * (-G),
    G = h_low / h_high formed once: its terms below T^lambda add to the remainder
    r, and P = T^lambda - r; the rest, shifted down, is the next high.

    Each round runs at the precision it can still change.  As h_low = 0 mod p,
    G = p * G' with G' a whole series, and round k's high is p^k * a_k; so its
    product is p^(k+1) * b_k with b_k = a_k * (-G') mod p^(n-k-1), n = N - mu: the
    same integers, on slots that shrink every round, and b_k from T^lambda on,
    shifted down, is a_(k+1).  From round n - 1 on nothing changes, nor from a
    round whose a_k is 0 at its modulus.  Round 0's high is 1, so its product
    is -G' itself, and takes no kernel call.

    The rounds also run at the length P needs.  Round k changes P only through
    its product's terms below T^lambda, and a term at T^j reaches there, through
    the later rounds' shifts by T^lambda up to round n - 2, only if
    j < lambda * (n - 1 - k); so round k runs on min(D, lambda * (n - 1 - k))
    terms, and 1/h_high is formed mod T^min(D, lambda * (n - 1)).  On the small
    series of the oracle and the multiplicativity check this is about twice as
    fast as the lifting of :func:`weierstrass_prepare`.
    """
    mu, lam, n, h, t_power = _prologue(g)
    p, d, m = g.prime, g.trunc_degree, g.prime ** n
    acc = [0] * lam  # r
    if not t_power:
        h_high = h[lam:] + [0] * lam
        m1, t = m // p, min(d, lam * (n - 1))  # t: round 0's length
        g1 = _kronecker([-(c // p) % m1 for c in h[:lam]],
                        _invert_unit([c % m1 for c in h_high[:t]], m1), t, m1)
        acc = [p * y for y in g1[:lam]]  # round 0: its high is 1, so its product is -G'
        a, k, pk = [c % (m1 // p) for c in g1[lam:]], 1, p * p  # round k's high is p^k * a
        while pk < m and any(a):  # pk = p^(k+1)
            mk, t = m // pk, min(d, lam * (n - 1 - k))
            g1 = [c % mk for c in g1[:t]]  # -G' mod p^(n-k-1)
            b = _kronecker(a, g1, t, mk)
            acc = [x + pk * y for x, y in zip(acc, b)]  # pk * y mod m needs only y mod mk
            a, k, pk = [c % (mk // p) for c in b[lam:]], k + 1, pk * p
    return WeierstrassForm(p, n, mu, tuple(-c % m for c in acc) + (1,))


def weierstrass_prepare(g: LambdaSeries) -> WeierstrassForm:
    """Factor g = p^mu * P * U with P monic distinguished and U a unit, by Hensel lifting.

    h = g / p^mu = h_low + T^lambda * h_high (see :func:`_prologue`) is P * U mod
    p with P = T^lambda and U = h_high, as h_low = 0 mod p.  A step takes the
    factorization from p^k to p^k2, k2 = min(2k, n) and n = N - mu, all mod T^D:
    with e = (h - P*U) / p^k and f = e * V, V = 1/U mod p^(k2-k), divide f by the
    monic P as polynomials, f = q * P + r with deg r < lambda.  Then
    (P + p^k * r) * (U + p^k * q * U) = P*U + p^k * U * f = h mod p^k2.  The
    quotient comes from the reversed polynomials, rev(q) = rev(f) / rev(P) mod
    T^(D - lambda), and rev(P) = 1 mod p is a unit.  V and W = 1/rev(P) are lifted
    alongside by one Newton step each, x -> x - x * (y * x - 1), which doubles the
    p-adic digits that x is right to.  So there are ceil(log2 n) steps of a few
    products each, at the precision each operand carries; see von zur Gathen and
    Gerhard, *Modern Computer Algebra*, 15.4 (Hensel lifting) and 9.1 (Newton
    inversion).  The first step needs no product for P*U, as h - P*U = h_low, and
    none for the division, as W = 1 mod p.

    P * U = h mod (p^n, T^D), the precision the result claims.  As T^D lies in
    (p^(D // lambda), P), that fixes P mod p^min(n, D // lambda): where
    D >= lambda * n, all of P, which is then the P of :func:`distinguished_part`.
    """
    mu, lam, n, h, t_power = _prologue(g)
    p, d = g.prime, g.trunc_degree
    low, u = [0] * lam, h[lam:] + [0] * lam  # P = T^lambda + low and U
    if not t_power:
        v, w, j = _invert_unit([c % p for c in u], p), [1], 1  # 1/U, 1/rev(P), right mod p^j
        k = 1  # P * U = h mod p^k
        while k < n:
            k2 = min(2 * k, n)
            pk, mj, m2 = p ** k, p ** (k2 - k), p ** k2
            if k2 - k > j:
                v = _newton_step(v, u, d, p ** j, mj)
                w = _newton_step(w, [1] + low[::-1], d - lam, p ** j, mj)
                j = k2 - k
            elif k2 - k < j:  # the last step, at fewer digits than V and W are right to
                v, w = [c % mj for c in v], [c % mj for c in w]
            if k == 1:  # P = T^lambda, so h - P*U = h_low and the quotient needs no W
                f = _kronecker([c // p % mj for c in h[:lam]], v, d, mj)
                q, r = [c % mj for c in f[lam:]], f[:lam]
            else:
                pu = _kronecker(low, u, d, m2)
                f = [c % mj for c in _kronecker(
                    [(x - y - z) % m2 // pk for x, y, z in zip(h, [0] * lam + u, pu)], v, d, mj)]
                q = [c % mj for c in _kronecker(f[::-1], w, d - lam, mj)[::-1]]
                r = [b - c for b, c in zip(f, _kronecker(q, [c % mj for c in low], lam, mj))]
            low = [(a + pk * b) % m2 for a, b in zip(low, r)]
            u = [(a + pk * b) % m2 for a, b in zip(u, _kronecker(q, [c % mj for c in u], d, mj))]
            k = k2
    return WeierstrassForm(p, n, mu, tuple(low) + (1,), LambdaSeries(p, n, tuple(u)))


def leading_term(g: LambdaSeries) -> LeadingTerm:
    """Lowest term alpha*T^k with alpha nonzero at precision."""
    k = g.t_order()
    if k is None:
        raise PrecisionError("indistinguishable from zero at precision")
    return LeadingTerm(g.prime, g.coeffs[k], k)


# -- compact polynomial notation ---------------------------------------------
# A polynomial is parsed as (length, {exponent: coefficient}): a term c*T^i costs O(1), and
# the length is that of the dense coefficient list the parse returns.

_POLY_OUTSIDE = re.compile(r"[^0-9Tt()+*^ \t-]")  # a character outside the language
_POLY_TOKEN = re.compile(r"[0-9]+|\*\*|[^ \t]")
_MAX_NESTING = 200  # parentheses, as deep as CPython 3.11's parser takes them
_T = (2, {1: 1})  # never changed: every product and sum is a new dict


def _literal(digits: str, text: str, what: str) -> int:
    """int(digits) for ``what``, a literal of the polynomial ``text``.  Past MAX_DIGITS digits
    it is refused before int() is called, so alike on every Python, digit limit or none."""
    if len(digits) > MAX_DIGITS:
        raise InputError(f"polynomial {quoted(text)} has {what} past the bound 10^2000")
    return int(digits)


def _poly_mul(a, b, text: str):
    """The product a*b in the polynomial ``text``, refused past degree or coefficient bounds."""
    (la, ca), (lb, cb) = a, b
    if la + lb - 1 > _MAX_DEGREE:
        raise InputError(f"polynomial degree exceeds parser cap {_MAX_DEGREE}")
    out = {}
    for i, c in ca.items():
        if c:
            for j, e in cb.items():
                out[i + j] = out.get(i + j, 0) + c * e
    if max(map(abs, out.values()), default=0) >= MAX_VALUE:
        raise InputError(f"polynomial {quoted(text)} has a coefficient past the bound 10^2000")
    return la + lb - 1, out


def _poly_pow(base, k: int, text: str):
    """base^k in the polynomial ``text``, past the degree cap refused up front: T^k with no
    product, a constant c^k at once, refused before it is formed past 10^2000, and any other
    base, which the cap leaves k < 1024, by squaring, each product checked by _poly_mul."""
    if k * (base[0] - 1) >= _MAX_DEGREE:
        raise InputError(f"polynomial degree exceeds parser cap {_MAX_DEGREE}")
    if base == _T:  # most powers are T^k, in the terms c*T^k of a dense polynomial
        return k + 1, {k: 1}
    if base[0] == 1:  # k may have 2000 digits here
        c = base[1].get(0, 0)
        if not power_below_bound(abs(c), k):
            raise InputError(f"polynomial {quoted(text)} has a coefficient past the bound 10^2000")
        return 1, {0: c ** k}
    out = (1, {0: 1})
    while k:
        if k & 1:
            out = _poly_mul(out, base, text)
        k >>= 1
        if k:
            base = _poly_mul(base, base, text)
    return out


def polynomial_from_text(text: str) -> List[int]:
    """The coefficients of the polynomial ``text`` in T, in the language and caps of the
    module docstring.  A character outside the language is refused first; then one regex
    pass makes the tokens and one loop reads them, keeping the sum and term that each open
    parenthesis interrupts on a stack.  As in Python, -T^2 is -(T^2) and 2*-T is allowed;
    an exponent is one literal, so T^2^3 and T^-1 are refused.  Bad input raises InputError.
    """
    if _POLY_OUTSIDE.search(text):
        raise InputError(f"unsupported expression in polynomial {quoted(text)}")
    tokens = _POLY_TOKEN.findall(text) + ["", ""]  # "" ends the text; a lookahead reads two
    stack = []  # the sums and terms interrupted by open parentheses
    length, total, terms, signs = 0, {}, 0, 0  # the sum being read
    sign, term, factors, pos = 1, None, 0, 0  # the term being read is sign * term
    while True:  # at an operand
        tok = tokens[pos]
        pos += 1
        if tok == "-" or tok == "+":
            signs, sign = signs + 1, -sign if tok == "-" else sign
            if signs > _MAX_DEGREE:
                raise InputError(f"polynomial {quoted(text)} has more than {_MAX_DEGREE} "
                                 "unary signs in a sum")
            continue
        if tok == "(":
            if len(stack) == _MAX_NESTING:
                raise InputError(f"polynomial nested too deeply: {quoted(text)}")
            stack.append((length, total, terms, signs, sign, term, factors))
            length, total, terms, signs, sign, term, factors = 0, {}, 0, 0, 1, None, 0
            continue
        if tok == "T" or tok == "t":
            operand = _T
        elif tok.isdigit():  # ASCII, as the text passed _POLY_OUTSIDE
            operand = (1, {0: _literal(tok, text, "a coefficient")})
        else:
            raise InputError(f"cannot parse polynomial {quoted(text)}")
        while True:  # after an operand
            tok = tokens[pos]
            pos += 1
            if tok == "^" or tok == "**":
                exp, tok = tokens[pos], tokens[pos + 1]
                pos += 2
                if not exp.isdigit() or tok == "^" or tok == "**":
                    raise InputError(  # Python reads an operand as the start of an exponent
                        f"cannot parse polynomial {quoted(text)}"
                        if exp in ("", ")", "*", "**", "^") else
                        f"unsupported exponent in polynomial {quoted(text)}")
                operand = _poly_pow(operand, _literal(exp, text, "an exponent"), text)
            factors += 1
            if factors > _MAX_DEGREE:
                raise InputError(f"polynomial {quoted(text)} has a product of more than "
                                 f"{_MAX_DEGREE} factors")
            term = operand if term is None else _poly_mul(term, operand, text)
            if tok == "*":
                break
            terms += 1
            if terms > _MAX_DEGREE:
                raise InputError(f"polynomial {quoted(text)} has a sum of more than "
                                 f"{_MAX_DEGREE} terms")
            length = max(length, term[0])
            for i, c in term[1].items():
                total[i] = total.get(i, 0) + sign * c
            sign, term, factors = -1 if tok == "-" else 1, None, 0
            if tok == "+" or tok == "-":
                break
            if tok == ")" and stack:  # the sum closed is an operand of the one it interrupted
                operand = (length, total)
                length, total, terms, signs, sign, term, factors = stack.pop()
            elif tok or stack:
                raise InputError(f"cannot parse polynomial {quoted(text)}")
            else:
                return [total.get(i, 0) for i in range(length)]


def series_from_text(prime: int, text: str, precision: int, degree: int) -> LambdaSeries:
    """Parse a polynomial string, then make it a series at (N, D) by :meth:`LambdaSeries.make`;
    the polynomial is exact, so a nonzero coefficient that is 0 mod p^N is refused."""
    poly = polynomial_from_text(text)
    series = LambdaSeries.make(prime, poly, precision, degree)
    for i, (c, reduced) in enumerate(zip(poly, series.coeffs)):
        if c and not reduced:
            raise InputError(f"polynomial {quoted(text)} has coefficient {quoted(c)} of T^{i}, "
                             f"which is 0 mod p^N = {prime}^{precision}; a larger N keeps it")
    return series


# -- series documents ----------------------------------------------------------


def series_list_from_doc(doc, key: str, name: str, other_keys=()):
    """The "p" of a module or Akashi document and its series entries listed under ``key``,
    each read at the document's "p", "N" and "D" (see :meth:`LambdaSeries.from_json`)."""
    _, entries = document_fields(doc, name, ("p", "N", "D", key, *other_keys), ("p", key))
    if not isinstance(entries, list):
        raise InputError(f"malformed {name} document: '{key}' must be a list")
    scope = {field: json_int(doc[field], field, name) for field in ("p", "N", "D") if field in doc}
    return scope["p"], tuple(LambdaSeries.from_json(entry, scope) for entry in entries)
