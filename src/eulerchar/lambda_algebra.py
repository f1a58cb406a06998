"""Truncated power-series arithmetic over Z_p.

A :class:`LambdaSeries` models an element of the one-variable power series
ring over Z_p (the Iwasawa algebra of a rank-one group, under the usual
identification) at finite precision: coefficients are known mod p^N and
terms are known up to T^(D-1).  All equality statements are therefore
"equality at precision", and every operation records the precision of its
result as the minimum of its operands'.

The heavy lifting is :func:`weierstrass_prepare`, which factors a nonzero
series as p^mu * P(T) * U(T) with P monic distinguished of degree lambda
and U an invertible series.  The algorithm is classical Weierstrass
division by successive approximation, run entirely in Z/p^N -- exact and
deterministic, no floating point.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import List, Optional, Sequence

from .errors import InputError, PrecisionError, PrimeMismatchError
from .padics import check_prime, int_valuation, json_int

_MAX_PARSE_DEGREE = 512


@dataclass(frozen=True)
class LambdaSeries:
    """A power series known mod (p^coeff_precision, T^trunc_degree).

    ``coeffs`` is little-endian in T, nonempty, and reduced into
    [0, p^coeff_precision); its length is the truncation degree D.
    """

    prime: int
    coeff_precision: int  # N: coefficients known mod p^N
    coeffs: tuple

    def __post_init__(self):
        check_prime(self.prime)
        if self.coeff_precision < 1:
            raise InputError("coefficient precision must be >= 1")
        if not self.coeffs:
            raise InputError("truncation degree must be >= 1")
        m = self.modulus
        if any(not (0 <= c < m) for c in self.coeffs):
            raise InputError("coefficients must be reduced into [0, p^N)")

    # -- construction ------------------------------------------------------

    @classmethod
    def make(cls, prime: int, coeffs: Sequence[int], precision: int,
             degree: Optional[int] = None) -> "LambdaSeries":
        """Build a series, reducing coefficients and zero-padding to ``degree``."""
        if degree is None:
            degree = max(len(coeffs), 1)
        m = prime ** precision
        reduced = [c % m for c in coeffs[:degree]]
        reduced.extend([0] * (degree - len(reduced)))
        return cls(prime, precision, tuple(reduced))

    @classmethod
    def one(cls, prime: int, precision: int, degree: int) -> "LambdaSeries":
        return cls.make(prime, [1], precision, degree)

    @property
    def trunc_degree(self) -> int:
        return len(self.coeffs)

    @property
    def modulus(self) -> int:
        return self.prime ** self.coeff_precision

    # -- predicates and views ----------------------------------------------

    def is_zero(self) -> bool:
        """True when indistinguishable from zero at the declared precision."""
        return all(c == 0 for c in self.coeffs)

    def t_order(self) -> Optional[int]:
        """Index of the first coefficient nonzero at precision, or None."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return None

    def agrees_with(self, other: "LambdaSeries") -> bool:
        """Equality at the shared precision (min N, min D)."""
        if self.prime != other.prime:
            return False
        n = min(self.coeff_precision, other.coeff_precision)
        d = min(self.trunc_degree, other.trunc_degree)
        m = self.prime ** n
        return all((self.coeffs[i] - other.coeffs[i]) % m == 0 for i in range(d))

    # -- arithmetic ----------------------------------------------------------

    def __mul__(self, other: "LambdaSeries") -> "LambdaSeries":
        if self.prime != other.prime:
            raise PrimeMismatchError("prime mismatch")
        n = min(self.coeff_precision, other.coeff_precision)
        d = min(self.trunc_degree, other.trunc_degree)
        m = self.prime ** n
        out = [0] * d
        for i, a in enumerate(self.coeffs[:d]):
            if a == 0:
                continue
            for j in range(d - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] = (out[i + j] + a * b) % m
        return LambdaSeries(self.prime, n, tuple(out))

    def shift_down(self, k: int) -> "LambdaSeries":
        """Divide by T^k; requires the first k coefficients to vanish at precision."""
        if k == 0:
            return self
        if any(self.coeffs[i] != 0 for i in range(k)):
            raise InputError("series not divisible by the requested T power")
        if self.trunc_degree - k < 1:
            raise PrecisionError("truncation degree exhausted by T-power division")
        return LambdaSeries(self.prime, self.coeff_precision, self.coeffs[k:])

    def divide_p_power(self, e: int) -> "LambdaSeries":
        """Divide by p^e, losing e digits of coefficient precision."""
        if e == 0:
            return self
        if e >= self.coeff_precision:
            raise PrecisionError("coefficient precision exhausted by p-power division")
        pe = self.prime ** e
        if any(c % pe for c in self.coeffs):
            raise InputError("series not divisible by the requested p power")
        return LambdaSeries(self.prime, self.coeff_precision - e,
                            tuple(c // pe for c in self.coeffs))

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {"p": self.prime, "N": self.coeff_precision,
                "D": self.trunc_degree, "coeffs": list(self.coeffs)}

    @classmethod
    def from_json(cls, doc) -> "LambdaSeries":
        """Read a coefficient document; every number in it must be a JSON integer."""
        try:
            p, n, d, coeffs = doc["p"], doc["N"], doc["D"], doc["coeffs"]
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed series document: {exc}") from None
        if not isinstance(coeffs, list):
            raise InputError("malformed series document: 'coeffs' must be a list")
        p, n, d = _series_shape(p, n, d)
        return cls.make(p, [json_int(c, "coeffs", "series") for c in coeffs], n, d)

    def __str__(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                t = "T" if i == 1 else f"T^{i}"
                terms.append(t if c == 1 else f"{c}*{t}")
        body = " + ".join(terms) if terms else "0"
        return f"{body}  (mod {self.prime}^{self.coeff_precision}, T^{self.trunc_degree})"


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
class WeierstrassForm:
    """Factorization g = p^mu * P(T) * U(T) at precision.

    ``distinguished_poly`` P is little-endian and monic of degree lambda,
    with all lower coefficients divisible by p.  The invertible series
    ``unit`` U carries the prime and the precision N - mu of both P and U.
    """

    mu: int
    distinguished_poly: tuple
    unit: LambdaSeries

    def __post_init__(self):
        if self.mu < 0:
            raise InputError("factorization exponents must be nonnegative")
        poly = self.distinguished_poly
        if not poly or poly[-1] != 1:
            raise InputError("distinguished polynomial must be monic of degree lambda")
        if any(c % self.prime for c in poly[:-1]):
            raise InputError("distinguished polynomial has a unit coefficient "
                             "below the leading term")
        if self.unit.coeffs[0] % self.prime == 0:
            raise InputError("unit part has constant term divisible by p")

    @property
    def prime(self) -> int:
        return self.unit.prime

    @property
    def precision(self) -> int:
        return self.unit.coeff_precision

    @property
    def lam(self) -> int:
        return len(self.distinguished_poly) - 1

    def reconstruct(self) -> LambdaSeries:
        """p^mu * P * U, carrying precision (N, D) of the prepared input."""
        prod = LambdaSeries.make(self.prime, self.distinguished_poly, self.precision,
                                 self.unit.trunc_degree) * self.unit
        m = self.prime ** (self.precision + self.mu)
        scaled = tuple((c * self.prime ** self.mu) % m for c in prod.coeffs)
        return LambdaSeries(self.prime, self.precision + self.mu, scaled)

    def same_characteristic_element(self, other: "WeierstrassForm") -> bool:
        """Equality up to units: compare (mu, distinguished_poly) at shared precision.

        Characteristic elements are only defined modulo invertible series,
        so the unit part is deliberately ignored.
        """
        if self.prime != other.prime:
            return False
        if self.mu != other.mu or self.lam != other.lam:
            return False
        m = self.prime ** min(self.precision, other.precision)
        return all((a - b) % m == 0 for a, b in
                   zip(self.distinguished_poly, other.distinguished_poly))


def _invert_unit(u: LambdaSeries) -> LambdaSeries:
    """Inverse of a series with invertible constant term, mod (p^N, T^D)."""
    m = u.modulus
    inv0 = pow(u.coeffs[0], -1, m)
    d = u.trunc_degree
    out = [0] * d
    out[0] = inv0
    for k in range(1, d):
        acc = 0
        for j in range(1, k + 1):
            if u.coeffs[j]:
                acc = (acc + u.coeffs[j] * out[k - j]) % m
        out[k] = (-inv0 * acc) % m
    return LambdaSeries(u.prime, u.coeff_precision, tuple(out))


def min_coeff_valuation(g: LambdaSeries) -> int:
    """min_i v_p(c_i) over stored coefficients; requires g nonzero at precision."""
    best = None
    for c in g.coeffs:
        if c == 0:
            continue
        v = int_valuation(c, g.prime)
        if best is None or v < best:
            best = v
            if best == 0:
                break
    if best is None:
        raise PrecisionError("indistinguishable from zero at precision")
    return best


def weierstrass_prepare(g: LambdaSeries) -> WeierstrassForm:
    """Factor g = p^mu * P * U with P monic distinguished and U a unit.

    mu is the minimum p-valuation of the stored coefficients and lambda the
    index of the first unit coefficient of g / p^mu.  Division of T^lambda
    by g / p^mu converges in at most N steps because each correction gains
    a factor of p; the remainder r gives P = T^lambda - r and U is the
    inverse of the quotient.
    """
    p = g.prime
    mu = min_coeff_valuation(g)
    h = g.divide_p_power(mu)
    n, d, m = h.coeff_precision, h.trunc_degree, h.modulus

    # mu is attained by a stored coefficient, so h has a unit coefficient.
    lam = next(i for i, c in enumerate(h.coeffs) if c % p)

    # Divide T^lam by h = h_low + T^lam * h_high (h_low = 0 mod p).
    h_high = LambdaSeries(p, n, tuple(h.coeffs[lam:]) + (0,) * lam)
    h_high_inv = _invert_unit(h_high)
    quotient = [0] * d
    s = [0] * d
    s[lam] = 1
    for _ in range(n + 1):
        if all(c == 0 for c in s[lam:]):
            break
        s_high = LambdaSeries(p, n, tuple(s[lam:]) + (0,) * lam)
        dq = s_high * h_high_inv
        for i in range(d):
            quotient[i] = (quotient[i] + dq.coeffs[i]) % m
        # s -= dq * h
        sub = dq * h
        for i in range(d):
            s[i] = (s[i] - sub.coeffs[i]) % m
    remainder = s  # degree < lam at precision

    poly = [(-remainder[i]) % m for i in range(lam)] + [1]
    unit = _invert_unit(LambdaSeries(p, n, tuple(quotient)))  # unit: 1/h_high mod p
    return WeierstrassForm(mu, tuple(poly), unit)


def leading_term(g: LambdaSeries) -> LeadingTerm:
    """Lowest term alpha*T^k with alpha nonzero at precision."""
    k = g.t_order()
    if k is None:
        raise PrecisionError("indistinguishable from zero at precision")
    return LeadingTerm(g.prime, g.coeffs[k], k)


def mu_lambda(g: LambdaSeries):
    """The classical (mu, lambda) invariants, via preparation."""
    form = weierstrass_prepare(g)
    return form.mu, form.lam


# -- compact polynomial notation ---------------------------------------------


def _poly_add(a: List[int], b: List[int]) -> List[int]:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return out


def _poly_mul(a: List[int], b: List[int]) -> List[int]:
    if len(a) + len(b) - 1 > _MAX_PARSE_DEGREE:
        raise InputError(f"polynomial degree exceeds parser cap {_MAX_PARSE_DEGREE}")
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, e in enumerate(b):
                out[i + j] += c * e
    return out


def polynomial_from_text(text: str) -> List[int]:
    """Parse an integer polynomial in T.

    Supports integer literals, the variable T, parentheses, unary minus,
    and the operators + - * ^.  Used for compact generators in JSON files,
    e.g. "T^2" or "T*(T-7)".
    """
    try:
        tree = ast.parse(text.replace("^", "**"), mode="eval")
    except (SyntaxError, ValueError, RecursionError):
        raise InputError(f"cannot parse polynomial {text!r}") from None

    def ev(node) -> List[int]:
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return [node.value]
        if isinstance(node, ast.Name) and node.id in ("T", "t"):
            return [0, 1]
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            inner = ev(node.operand)
            return [-c for c in inner] if isinstance(node.op, ast.USub) else inner
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Add):
                return _poly_add(ev(node.left), ev(node.right))
            if isinstance(node.op, ast.Sub):
                return _poly_add(ev(node.left), [-c for c in ev(node.right)])
            if isinstance(node.op, ast.Mult):
                return _poly_mul(ev(node.left), ev(node.right))
            if isinstance(node.op, ast.Pow):
                exp = node.right
                if not (isinstance(exp, ast.Constant) and type(exp.value) is int
                        and 0 <= exp.value <= _MAX_PARSE_DEGREE):
                    raise InputError(f"unsupported exponent in polynomial {text!r}")
                base = ev(node.left)
                out = [1]
                for _ in range(exp.value):
                    out = _poly_mul(out, base)
                return out
        raise InputError(f"unsupported expression in polynomial {text!r}")

    try:
        return ev(tree.body)
    except RecursionError:
        raise InputError(f"polynomial nested too deeply: {text[:40]!r}...") from None


def series_from_text(prime: int, text: str, precision: int, degree: int) -> LambdaSeries:
    """Read a polynomial string as a series at the given (N, D) precision."""
    poly = polynomial_from_text(text)
    if len(poly) > degree:
        raise InputError("polynomial degree exceeds truncation degree")
    return LambdaSeries.make(prime, poly, precision, degree)


# -- series documents ----------------------------------------------------------


def _series_shape(p, n, d):
    """The checked prime and (N, D) precision of a series document."""
    p, n, d = (json_int(p, "p", "series"), json_int(n, "N", "series"),
               json_int(d, "D", "series"))
    if n < 1 or d < 1:
        raise InputError("malformed series document: 'N' and 'D' must be >= 1")
    return check_prime(p), n, d


def series_from_doc(entry, outer: Optional[dict] = None) -> LambdaSeries:
    """Read one series entry of a JSON document.

    ``entry`` is a coefficient document (see :meth:`LambdaSeries.from_json`),
    a ``{"poly": ...}`` document, or a bare polynomial string.  A polynomial
    is read at the entry's own "p", "N" and "D", falling back to those of
    the enclosing document ``outer`` (a module or Akashi file), then to
    N = 16 and D = 32.  The enclosing numbers are checked whatever the
    entry's form.  Bad input of any shape raises InputError.
    """
    scope = {"N": 16, "D": 32, **(outer or {})}
    scope = {key: json_int(scope[key], key, "series") for key in ("p", "N", "D")
             if key in scope}
    if isinstance(entry, str):
        entry = {"poly": entry}
    if not (isinstance(entry, dict) and ("coeffs" in entry or "poly" in entry)):
        raise InputError("malformed series document: needs either 'coeffs' or 'poly'")
    if "coeffs" in entry:
        return LambdaSeries.from_json(entry)
    scope.update(entry)
    if not isinstance(scope["poly"], str):
        raise InputError("malformed series document: 'poly' must be a string")
    p, n, d = _series_shape(scope.get("p"), scope["N"], scope["D"])
    return series_from_text(p, scope["poly"], n, d)
