"""Alternating products of characteristic elements and their leading terms.

The input is one characteristic element per homological degree; the
alternating product (even degrees over odd degrees) is kept as a formal
fraction of series, because at finite precision the denominator need not
divide the numerator.  Two fractions are considered the same element when
their cross-products have equal prepared form (p-power exponent and
distinguished polynomial) -- the comparison deliberately ignores unit
factors, since characteristic elements are only defined up to units.

The leading term of the fraction encodes the generalized Euler
characteristic: if the numerator and denominator lead with a*T^j and
b*T^i, the fraction leads with (a/b)*T^(j-i) and the characteristic, when
it is finite, is p^(v_p(a) - v_p(b)).  Finiteness itself is a hypothesis
on the module the data came from and cannot be certified from the series
alone; callers are told as much.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, PrecisionError, PrimeMismatchError
from .lambda_algebra import (LambdaSeries, leading_term, min_coeff_valuation,
                             series_from_doc, weierstrass_prepare)
from .padics import PowerOfP


@dataclass(frozen=True)
class AkashiData:
    """Characteristic elements indexed by homological degree 0, 1, 2, ..."""

    prime: int
    char_elements: tuple

    def __post_init__(self):
        if not self.char_elements:
            raise InputError("need at least one characteristic element")
        for g in self.char_elements:
            if g.prime != self.prime:
                raise PrimeMismatchError("prime mismatch")

    def to_json(self) -> dict:
        return {"p": self.prime,
                "char_elements": [g.to_json() for g in self.char_elements]}

    @classmethod
    def from_json(cls, doc) -> "AkashiData":
        """One series entry per degree, read by :func:`series_from_doc`."""
        try:
            p, entries = doc["p"], doc["char_elements"]
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed Akashi document: {exc}") from None
        if not isinstance(entries, list):
            raise InputError("malformed Akashi document: 'char_elements' must be a list")
        return cls(p, tuple(series_from_doc(entry, doc) for entry in entries))


@dataclass(frozen=True)
class AkashiFraction:
    """The alternating product as a formal numerator/denominator pair."""

    numerator: LambdaSeries
    denominator: LambdaSeries

    def leading(self) -> "AkashiLeading":
        """Leading T-exponent and alpha-valuation: numerator's minus denominator's."""
        num, den = leading_term(self.numerator), leading_term(self.denominator)
        return AkashiLeading(self.numerator.prime, num.alpha_valuation - den.alpha_valuation,
                             num.k - den.k)


@dataclass(frozen=True)
class AkashiLeading:
    """Leading data of the fraction: T-exponent k and p-valuation of alpha."""

    prime: int
    alpha_valuation: int
    k: int

    @property
    def chi(self) -> PowerOfP:
        """The Euler characteristic implied when it is finite: p^(v_p(alpha))."""
        return PowerOfP(self.prime, self.alpha_valuation)


def akashi_series(data: AkashiData) -> AkashiFraction:
    """Alternating product, reduced by common T-powers and p-powers only."""
    for g in data.char_elements:
        if g.is_zero():
            raise PrecisionError("characteristic element vanishes at precision")
    num = None
    den = None
    for i, g in enumerate(data.char_elements):
        if i % 2 == 0:
            num = g if num is None else num * g
        else:
            den = g if den is None else den * g
    if den is None:
        den = LambdaSeries.one(data.prime, num.coeff_precision, num.trunc_degree)
    if num.is_zero() or den.is_zero():
        raise PrecisionError("product of characteristic elements vanishes at precision")

    t = min(num.t_order(), den.t_order())
    num, den = num.shift_down(t), den.shift_down(t)
    e = min(min_coeff_valuation(num), min_coeff_valuation(den))
    num, den = num.divide_p_power(e), den.divide_p_power(e)
    return AkashiFraction(num, den)


def akashi_leading(data: AkashiData) -> AkashiLeading:
    """Leading T-exponent and alpha-valuation of the alternating product."""
    return akashi_series(data).leading()


def fractions_equivalent(a: AkashiFraction, b: AkashiFraction) -> bool:
    """Equality up to units, via prepared forms of the cross-products."""
    left = weierstrass_prepare(a.numerator * b.denominator)
    right = weierstrass_prepare(b.numerator * a.denominator)
    return left.same_characteristic_element(right)


def check_multiplicativity(l_data: AkashiData, m_data: AkashiData,
                           n_data: AkashiData) -> bool:
    """Does the middle term's series equal the product of the outer two?

    For a short exact sequence of modules L -> M -> N the alternating
    products satisfy f_M = f_N * f_L; this checks that identity on the
    supplied data, up to units.
    """
    if not (l_data.prime == m_data.prime == n_data.prime):
        raise PrimeMismatchError("prime mismatch")
    f_l = akashi_series(l_data)
    f_m = akashi_series(m_data)
    f_n = akashi_series(n_data)
    product = AkashiFraction(f_n.numerator * f_l.numerator,
                             f_n.denominator * f_l.denominator)
    return fractions_equivalent(f_m, product)


def coranks_consistent(data: AkashiData, coranks, k: int) -> bool:
    """Check a claimed corank-per-degree list against the leading T-exponent k.

    The leading exponent k of the alternating product of ``data`` equals the
    alternating sum of the coranks of the degree-wise invariants.  Those
    coranks are not computable from series data, so a caller-supplied list
    is never trusted -- it is accepted exactly when its alternating sum
    reproduces k.
    """
    coranks = list(coranks)
    if len(coranks) != len(data.char_elements):
        raise InputError("need one corank per homological degree")
    if any(c < 0 for c in coranks):
        raise InputError("coranks must be nonnegative")
    alternating = sum(c if i % 2 == 0 else -c for i, c in enumerate(coranks))
    return alternating == k


def degreewise_product(a: AkashiData, b: AkashiData) -> AkashiData:
    """Multiply characteristic elements degree by degree, padding with 1."""
    if a.prime != b.prime:
        raise PrimeMismatchError("prime mismatch")
    length = max(len(a.char_elements), len(b.char_elements))
    elements = []
    for i in range(length):
        if i < len(a.char_elements):
            x = a.char_elements[i]
        else:
            ref = b.char_elements[i]
            x = LambdaSeries.one(a.prime, ref.coeff_precision, ref.trunc_degree)
        if i < len(b.char_elements):
            y = b.char_elements[i]
        else:
            y = LambdaSeries.one(b.prime, x.coeff_precision, x.trunc_degree)
        elements.append(x * y)
    return AkashiData(a.prime, tuple(elements))
