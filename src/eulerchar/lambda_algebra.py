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
:func:`weierstrass_prepare` returns all three factors by Hensel lifting:
P * U = g / p^mu holds mod p with P = T^lambda, and each step doubles the
p-adic precision, so N - mu takes ceil(log2(N - mu)) steps of a few products.
:func:`distinguished_part` returns (mu, P) without forming U, for callers
that compare characteristic elements, which are defined only up to units, by
classical Weierstrass division by successive approximation: N - mu - 1 rounds
at shrinking precision, each only on the terms that can still reach P, which
on those callers' small series is faster than the lifting.  A series with
lambda = 0 needs neither steps nor rounds, and no inverse.
"""

from __future__ import annotations

import ast
import struct
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .errors import InputError, PrecisionError
from .padics import (MAX_VALUE, check_prime, document_fields, int_valuation, json_int,
                     power_below_bound, quoted)

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
_COEFFS_KEYS = ("p", "N", "D", "coeffs")  # the keys of a coefficient document


@dataclass(frozen=True)
class LambdaSeries:
    """A power series known mod (p^coeff_precision, T^trunc_degree).

    ``coeffs`` is little-endian in T, nonempty, and reduced into
    [0, p^coeff_precision); its length is the truncation degree D.  :meth:`make`
    is the one checked way in, and applies the rules of a series document.  The
    raw constructor checks nothing: this module calls it only on results built
    from series that hold these facts already.
    """

    prime: int
    coeff_precision: int  # N: coefficients known mod p^N
    coeffs: tuple

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
        if self.prime != other.prime:
            raise InputError(f"prime mismatch: a product of a series at p = "
                             f"{self.prime} and one at p = {other.prime}")
        n = min(self.coeff_precision, other.coeff_precision)
        d = min(self.trunc_degree, other.trunc_degree)
        return LambdaSeries(self.prime, n,
                            tuple(_kronecker(self.coeffs, other.coeffs, d, self.prime ** n)))

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
    def from_json(cls, doc) -> "LambdaSeries":
        """Read a coefficient document through :meth:`make`."""
        p, n, d, coeffs = document_fields(doc, "series", _COEFFS_KEYS, _COEFFS_KEYS)
        if not isinstance(coeffs, list):
            raise InputError("malformed series document: 'coeffs' must be a list")
        return cls.make(p, coeffs, n, d)


@dataclass(frozen=True)
class LeadingTerm:
    """Lowest-degree term alpha*T^k of a series nonzero at precision."""

    prime: int
    alpha: int
    k: int

    @property
    def alpha_valuation(self) -> int:
        return int_valuation(self.alpha, self.prime)


@dataclass(frozen=True)
class DistinguishedPart:
    """The unit-free part (mu, P) of g = p^mu * P(T) * U(T), at precision N - mu.

    ``distinguished_poly`` P is little-endian and monic of degree lambda,
    with all lower coefficients divisible by p.  :func:`distinguished_part`
    and :func:`weierstrass_prepare`, the only constructors, guarantee these.
    """

    prime: int
    precision: int
    mu: int
    distinguished_poly: tuple

    @property
    def lam(self) -> int:
        return len(self.distinguished_poly) - 1

    def same_characteristic_element(self, other: "DistinguishedPart") -> bool:
        """Equality up to units: compare distinguished_poly at shared precision.

        Characteristic elements are only defined modulo invertible series,
        so the unit part is deliberately ignored.  Callers compare p, mu and
        lambda first, so both parts share them and only P is left to compare.
        """
        m = self.prime ** min(self.precision, other.precision)
        return all((a - b) % m == 0 for a, b in
                   zip(self.distinguished_poly, other.distinguished_poly))


@dataclass(frozen=True)
class WeierstrassForm(DistinguishedPart):
    """Factorization g = p^mu * P(T) * U(T) at precision: (mu, P) and the unit U.

    The invertible series ``unit`` U carries the precision N - mu of P, at which
    p^mu * P * U = g mod T^D holds; :func:`weierstrass_prepare` says how much of P
    that fixes.
    """

    unit: LambdaSeries


def _kronecker(a: Sequence[int], b: Sequence[int], d: int, m: int) -> List[int]:
    """The first d coefficients of a*b, reduced mod m, by Kronecker substitution.

    a and b hold nonnegative integers.  Each is packed into one integer, a
    coefficient per fixed-width slot, so that one big-integer product does
    the convolution.  A slot holds d * (max a + 1) * (max b + 1), which bounds
    every output coefficient, so no slot carries into the next.

    A slot of w <= 8 bytes is widened to s, the least of 1, 2, 4 and 8 bytes
    with s >= w, and each operand is packed, and the first d slots read back,
    by one struct call ("<" fixes the byte order), not one call per
    coefficient.  Widening lengthens the product; past about 2 KiB per
    operand that costs more than the calls save (always widening ran at
    0.66-0.86x at d = 512-1024, w = 5-7), so a widened slot takes this route
    only while d * s <= _MAX_WIDENED_BYTES.  Other slots are packed one
    coefficient at a time.
    """
    a, b = a[:d], b[:d]
    w = ((d * (max(a, default=0) + 1) * (max(b, default=0) + 1)).bit_length() + 7) // 8
    if w <= len(_MACHINE_SLOTS):
        s, code = _MACHINE_SLOTS[w - 1]
        if s == w or d * s <= _MAX_WIDENED_BYTES:
            x = int.from_bytes(struct.pack(f"<{len(a)}{code}", *a), "little")
            y = int.from_bytes(struct.pack(f"<{len(b)}{code}", *b), "little")
            z = (x * y).to_bytes(max(len(a) + len(b), d) * s, "little")
            return [c % m for c in struct.unpack_from(f"<{d}{code}", z)]
    x = int.from_bytes(b"".join([c.to_bytes(w, "little") for c in a]), "little")
    y = int.from_bytes(b"".join([c.to_bytes(w, "little") for c in b]), "little")
    z = (x * y).to_bytes((len(a) + len(b)) * w, "little")
    return [int.from_bytes(z[i:i + w], "little") % m for i in range(0, d * w, w)]


def _invert_unit(c: Sequence[int], m: int) -> List[int]:
    """Inverse of coefficients c, with invertible constant term, mod (m, T^len(c)).

    Newton iteration: if v = 1/c mod T^k, then c*v - 1 vanishes below T^k and
    v - (c*v - 1)*v = 1/c mod T^2k, so about log2 D rounds of two products.
    """
    out = [pow(c[0], -1, m)]
    while len(out) < len(c):
        k, k2 = len(out), min(2 * len(out), len(c))
        err = _kronecker(c, out, k2, m)[k:]  # c*out - 1, which vanishes below T^k
        out += [-x % m for x in _kronecker(err, out, k2 - k, m)]
    return out


def _newton_step(x: List[int], y: Sequence[int], d: int, pj: int, mn: int) -> List[int]:
    """x - x * (y*x - 1) mod (mn, T^d): from x = 1/y mod pj to 1/y mod mn, for mn | pj^2."""
    err = _kronecker([c % mn for c in y], x, d, mn)
    err[0] -= 1
    t = _kronecker(x, [c % mn // pj for c in err], d, mn // pj)
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


def distinguished_part(g: LambdaSeries) -> DistinguishedPart:
    """(mu, P) of g = p^mu * P * U by Weierstrass division, without forming U.

    With h = g / p^mu = h_low + T^lambda * h_high (see :func:`mu_lambda`),
    division of T^lambda by h keeps the dividend's part T^lambda * high; a round
    takes q = high / h_high and subtracts q * h, which from T^lambda on is
    q * h_low + T^lambda * high exactly.  So a round is one product high * (-G),
    G = h_low / h_high formed once: its terms below T^lambda add to the remainder
    r, and P = T^lambda - r; the rest, shifted down, is the next high.

    Each round runs at the precision it can still change.  As h_low = 0 mod p,
    G = p * G' with G' a whole series, and round k's high is p^k * a_k; so its
    product is p^(k+1) * b_k with b_k = a_k * (-G') mod p^(n-k-1), n = N - mu: the
    same integers, on slots that shrink every round, and b_k from T^lambda on,
    shifted down, is a_(k+1).  From round n - 1 on nothing changes.  When
    lambda = 0, P = 1, and when n = 1 there is no round to run; then no inverse
    is formed.

    The rounds also run at the length P needs.  Round k changes P only through
    its product's terms below T^lambda, and a term at T^j reaches there, through
    the later rounds' shifts by T^lambda up to round n - 2, only if
    j < lambda * (n - 1 - k); so round k runs on min(D, lambda * (n - 1 - k))
    terms, and 1/h_high is formed mod T^min(D, lambda * (n - 1)).  On the small
    series of the oracle and the multiplicativity check this is about twice as
    fast as the lifting of :func:`weierstrass_prepare`.
    """
    mu, lam = mu_lambda(g)
    p, d, pe = g.prime, g.trunc_degree, g.prime ** mu
    n = g.coeff_precision - mu
    m = p ** n
    h = [c // pe for c in g.coeffs]
    h_high = h[lam:] + [0] * lam
    acc = [0] * lam  # r
    if lam and n > 1:
        m1, t = m // p, min(d, lam * (n - 1))  # t: round 0's length
        g1 = _kronecker([-(c // p) % m1 for c in h[:lam]], _invert_unit(h_high[:t], m1), t, m1)
        a, k, pk = [1], 0, p  # round k's high is p^k * a, and pk = p^(k+1)
        while pk < m and any(a):
            mk, t = m // pk, min(d, lam * (n - 1 - k))
            g1 = [c % mk for c in g1[:t]]  # -G' mod p^(n-k-1)
            b = _kronecker(a, g1, t, mk)
            acc = [x + pk * y for x, y in zip(acc, b)]
            a, k, pk = b[lam:], k + 1, pk * p
    return DistinguishedPart(p, n, mu, tuple(-c % m for c in acc) + (1,))


def weierstrass_prepare(g: LambdaSeries) -> WeierstrassForm:
    """Factor g = p^mu * P * U with P monic distinguished and U a unit, by Hensel lifting.

    h = g / p^mu = h_low + T^lambda * h_high (see :func:`mu_lambda`) is P * U mod
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
    none for the division, as W = 1 mod p.  When lambda = 0, P = 1 and U = h, and
    when n = 1 no step is run; then no inverse is formed.

    P * U = h mod (p^n, T^D), the precision the result claims.  As T^D lies in
    (p^(D // lambda), P), that fixes P mod p^min(n, D // lambda): where
    D >= lambda * n, all of P, which is then the P of :func:`distinguished_part`.
    """
    mu, lam = mu_lambda(g)
    p, d, pe = g.prime, g.trunc_degree, g.prime ** mu
    n = g.coeff_precision - mu
    h = [c // pe for c in g.coeffs]
    low, u = [0] * lam, h[lam:] + [0] * lam  # P = T^lambda + low and U
    if lam and n > 1:
        v, w, j = _invert_unit([c % p for c in u], p), [1], 1  # 1/U, 1/rev(P), right mod p^j
        k = 1  # P * U = h mod p^k
        while k < n:
            k2 = min(2 * k, n)
            pk, mj, m2 = p ** k, p ** (k2 - k), p ** k2
            if k2 - k > j:
                v = _newton_step(v, u, d, p ** j, mj)
                w = _newton_step(w, [1] + low[::-1], d - lam, p ** j, mj)
                j = k2 - k
            if k == 1:  # P = T^lambda, so h - P*U = h_low and the quotient needs no W
                f = _kronecker([c // p % mj for c in h[:lam]], v, d, mj)
                q, r = f[lam:], f[:lam]
            else:
                pu = _kronecker(low, u, d, m2)
                f = _kronecker([(x - y - z) % m2 // pk for x, y, z in zip(h, [0] * lam + u, pu)],
                               v, d, mj)
                q = _kronecker(f[::-1], w, d - lam, mj)[::-1]
                r = [b - c for b, c in zip(f, _kronecker(q, low, lam, mj))]
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


def _poly_add(a: List[int], b: List[int]) -> List[int]:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return out


def _poly_mul(a: List[int], b: List[int], text: str) -> List[int]:
    """The product a*b in the polynomial ``text``, refused past degree or coefficient bounds."""
    if len(a) + len(b) - 1 > _MAX_DEGREE:
        raise InputError(f"polynomial degree exceeds parser cap {_MAX_DEGREE}")
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, e in enumerate(b):
                out[i + j] += c * e
    if max(map(abs, out)) >= MAX_VALUE:
        raise InputError(f"polynomial {quoted(text)} has a coefficient past the bound 10^2000")
    return out


def _poly_pow(base: List[int], k: int, text: str) -> List[int]:
    """base^k in the polynomial ``text``: base's T-power as a shift, the rest by squaring.

    The degree cap is checked on base^k up front; the coefficient bound on each
    product, all of them powers of base with exponent at most k.
    """
    if k * (len(base) - 1) >= _MAX_DEGREE:
        raise InputError(f"polynomial degree exceeds parser cap {_MAX_DEGREE}")
    s = next((i for i, c in enumerate(base) if c), 0)  # base = T^s * rest
    rest, out, e = base[s:], [1], k
    while e and rest != [1]:
        if e & 1:
            out = _poly_mul(out, rest, text)
        e >>= 1
        if e:
            rest = _poly_mul(rest, rest, text)
    return [0] * (s * k) + out


def _evaluate(node, text: str) -> List[int]:
    """The coefficients of the parsed polynomial ``text`` at its syntax-tree ``node``."""
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return [node.value]
    if isinstance(node, ast.Name) and node.id in ("T", "t"):
        return [0, 1]
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        inner = _evaluate(node.operand, text)
        return [-c for c in inner] if isinstance(node.op, ast.USub) else inner
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Add):
            return _poly_add(_evaluate(node.left, text), _evaluate(node.right, text))
        if isinstance(node.op, ast.Sub):
            return _poly_add(_evaluate(node.left, text), [-c for c in _evaluate(node.right, text)])
        if isinstance(node.op, ast.Mult):
            return _poly_mul(_evaluate(node.left, text), _evaluate(node.right, text), text)
        if isinstance(node.op, ast.Pow):
            exp = node.right
            if not (isinstance(exp, ast.Constant) and type(exp.value) is int and exp.value >= 0):
                raise InputError(f"unsupported exponent in polynomial {quoted(text)}")
            return _poly_pow(_evaluate(node.left, text), exp.value, text)
    raise InputError(f"unsupported expression in polynomial {quoted(text)}")


def polynomial_from_text(text: str) -> List[int]:
    """Parse an integer polynomial in T.

    Supports integer literals, the variable T, parentheses, unary minus,
    and the operators + - * ^.  Used for compact generators in JSON files,
    e.g. "T^2" or "T*(T-7)".
    """
    try:
        tree = ast.parse(text.replace("^", "**"), mode="eval")
    except (SyntaxError, ValueError, RecursionError, MemoryError):  # MemoryError: deep nesting
        raise InputError(f"cannot parse polynomial {quoted(text)}") from None
    try:
        return _evaluate(tree.body, text)
    except RecursionError:
        raise InputError(f"polynomial nested too deeply: {quoted(text)}") from None


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


def series_from_doc(entry, outer: Optional[dict] = None) -> LambdaSeries:
    """Read one series entry of a JSON document.

    ``entry`` is a coefficient document (see :meth:`LambdaSeries.from_json`),
    a ``{"poly": ...}`` document, or a bare polynomial string.  Either form
    is read at the entry's own "p", "N" and "D", falling back to those of
    ``outer``, the enclosing module or Akashi document's as read by
    :func:`series_list_from_doc`, then to N = 16 and D = 32.  An entry holds
    "p" unless ``outer`` gives it, "N", "D" and one of "coeffs" and "poly";
    any other key, or both of those, is refused.  :meth:`LambdaSeries.make`
    builds both forms, a polynomial once parsed.  Bad input raises InputError.
    """
    scope = {"N": 16, "D": 32, **(outer or {})}
    entry = {"poly": entry} if isinstance(entry, str) else entry
    form = "coeffs" if type(entry) is dict and "coeffs" in entry else "poly"
    if type(entry) is dict and form not in entry:
        raise InputError("malformed series document: needs either 'coeffs' or 'poly'")
    document_fields(entry, "series", ("p", "N", "D", form),
                    (form,) if "p" in scope else ("p", form))
    scope.update(entry)
    if form == "coeffs":
        return LambdaSeries.from_json(scope)
    if not isinstance(scope["poly"], str):
        raise InputError("malformed series document: 'poly' must be a string")
    return series_from_text(scope["p"], scope["poly"], scope["N"], scope["D"])


def series_list_from_doc(doc, key: str, name: str, other_keys=()):
    """The "p" of a module or Akashi document and its series entries listed under ``key``,
    each read at the document's "p", "N" and "D" (see :func:`series_from_doc`)."""
    _, entries = document_fields(doc, name, ("p", "N", "D", key, *other_keys), ("p", key))
    if not isinstance(entries, list):
        raise InputError(f"malformed {name} document: '{key}' must be a list")
    scope = {field: json_int(doc[field], field, name) for field in ("p", "N", "D") if field in doc}
    return scope["p"], tuple(series_from_doc(entry, scope) for entry in entries)
