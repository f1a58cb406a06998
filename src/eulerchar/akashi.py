"""Alternating products of characteristic elements and their leading terms.

The input is one characteristic element per homological degree; the alternating
product (even degrees over odd degrees) is kept as a formal fraction of series,
because at finite precision the denominator need not divide the numerator.  Two
fractions are considered the same element when their cross-products have equal
prepared form (p-power exponent and distinguished polynomial) -- the comparison
deliberately ignores unit factors, since characteristic elements are only
defined up to units.  The check sums (mu, lambda) over the factors and forms
cross-products only for equal sums with lambda > 0 or sums at the precision.

The leading term of the fraction encodes the generalized Euler
characteristic: if it is alpha*T^k, its ``chi``, when the characteristic is
finite, is p^(v_p(alpha)).  Leading terms multiply exactly over Z_p, so k and
v_p(alpha) are the alternating sums of the elements' own leading T-exponents
and valuations.  They are read from the elements, not from the products:
a product at precision p^N can lose a leading term that each element holds
exactly, as (T + 49)^2 = T^2 + 98*T + 7^4 does at N = 4.
Finiteness is a hypothesis on the module the data came from and cannot be
certified from the series alone; callers are told as much.  A document's
"coranks" claim is checked against k by ``akashi --data``; ``--check``
refuses it.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

from .errors import InputError, PrecisionError
from .lambda_algebra import (LambdaSeries, distinguished_part, leading_term,
                             min_coeff_valuation, mu_lambda, series_list_from_doc)
from .padics import PowerOfP


@dataclass(frozen=True)
class AkashiData:
    """Characteristic elements indexed by homological degree 0, 1, 2, ..."""

    prime: int
    char_elements: tuple

    def __post_init__(self):
        if not self.char_elements:
            raise InputError("need at least one characteristic element")
        for i, g in enumerate(self.char_elements):
            if g.prime != self.prime:
                raise InputError(f"prime mismatch: characteristic element {i} is at "
                                 f"p = {g.prime}, the data at p = {self.prime}")

    def to_json(self) -> dict:
        return {"p": self.prime,
                "char_elements": [g.to_json() for g in self.char_elements]}

    @classmethod
    def from_json(cls, doc) -> "AkashiData":
        """One series entry per degree (:func:`series_list_from_doc`); the CLI reads "coranks"."""
        return cls(*series_list_from_doc(doc, "char_elements", "Akashi", ("coranks",)))


@dataclass(frozen=True)
class AkashiFraction:
    """The alternating product as a formal numerator/denominator pair, with its leading
    T-exponent k and v_p(alpha): the alternating sums of the elements' own."""

    numerator: LambdaSeries
    denominator: LambdaSeries
    k: int
    alpha_valuation: int

    @property
    def chi(self) -> PowerOfP:
        """The Euler characteristic implied when it is finite: p^(v_p(alpha))."""
        return PowerOfP(self.numerator.prime, self.alpha_valuation)


def akashi_series(data: AkashiData) -> AkashiFraction:
    """Alternating product, reduced by common T-powers and p-powers, and its leading data."""
    num = functools.reduce(operator.mul, data.char_elements[::2])
    den = functools.reduce(operator.mul, data.char_elements[1::2] or (
        LambdaSeries.one(data.prime, num.coeff_precision, num.trunc_degree),))
    orders = (num.t_order(), den.t_order())
    if None in orders:
        raise PrecisionError("product of characteristic elements vanishes at precision")

    t = min(orders)
    num, den = num.shift_down(t), den.shift_down(t)
    e = min(min_coeff_valuation(num), min_coeff_valuation(den))
    num, den = num.divide_p_power(e), den.divide_p_power(e)
    # each element is nonzero at precision, as the products are
    leads = [(leading_term(g), (-1) ** i) for i, g in enumerate(data.char_elements)]
    return AkashiFraction(num, den, sum(s * x.k for x, s in leads),
                          sum(s * x.alpha_valuation for x, s in leads))


def check_multiplicativity(l_data: AkashiData, m_data: AkashiData,
                           n_data: AkashiData) -> bool:
    """Does the middle term's series equal the product of the outer two?

    For a short exact sequence of modules L -> M -> N the alternating
    products satisfy f_M = f_N * f_L; this checks that identity on the
    supplied data, up to units, by comparing the distinguished parts of the
    cross-products f_M.num * f_N.den * f_L.den and f_N.num * f_L.num * f_M.den.
    Data at different primes are refused once the fractions are formed.

    Lemma: for nonzero a, b taken to the minimum (n, d) of their (N, D), if
    mu_a + mu_b < n and lambda_a + lambda_b < d then mu_lambda(a * b) is the sum:
    below T^(lambda_a + lambda_b) each coefficient of a * b is 0 mod p^(mu_a + mu_b + 1),
    and there it is a_lambda * b_lambda modulo that power.  So when each side's sum
    lies below the six factors' (n, d), different sums mean unequal and equal sums
    with lambda = 0 mean both distinguished parts are (mu, 1); else the products are formed.
    """
    f_l, f_m, f_n = map(akashi_series, (l_data, m_data, n_data))
    for i, data in enumerate((m_data, n_data), 1):
        if data.prime != l_data.prime:
            raise InputError(f"prime mismatch: term {i} ({'LMN'[i]}) is at "
                             f"p = {data.prime}, term 0 (L) at p = {l_data.prime}")
    left = (f_m.numerator, f_n.denominator, f_l.denominator)
    right = (f_n.numerator, f_l.numerator, f_m.denominator)
    sums = [tuple(map(sum, zip(*map(mu_lambda, side)))) for side in (left, right)]
    n, d = min(g.coeff_precision for g in left + right), min(g.trunc_degree for g in left + right)
    if all(mu < n and lam < d for mu, lam in sums) and (sums[0] != sums[1] or not sums[0][1]):
        return sums[0] == sums[1]
    left, right = left[0] * (left[1] * left[2]), (right[0] * right[1]) * right[2]
    if mu_lambda(left) != mu_lambda(right):
        return False
    return distinguished_part(left).same_characteristic_element(distinguished_part(right))


def coranks_consistent(data: AkashiData, coranks: list, k: int) -> bool:
    """Check a claimed corank-per-degree list against the leading T-exponent k.

    The leading exponent k of the alternating product of ``data`` equals the
    alternating sum of the coranks of the degree-wise invariants.  Those
    coranks are not computable from series data, so a caller-supplied list
    is never trusted -- it is accepted exactly when its alternating sum
    reproduces k.
    """
    if len(coranks) != len(data.char_elements):
        raise InputError("need one corank per homological degree")
    if any(c < 0 for c in coranks):
        raise InputError("coranks must be nonnegative")
    alternating = sum(c if i % 2 == 0 else -c for i, c in enumerate(coranks))
    return alternating == k
