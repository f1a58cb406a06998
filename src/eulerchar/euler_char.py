"""The product formula assembling global and local Euler-characteristic data.

The Euler characteristic over the big extension equals the
cyclotomic-level characteristic times the p-adic magnitude (paper
convention, p^(+v_p)) of the product of local Euler factors over the
infinite-inertia places away from p: :func:`build_chi_input` lists those
places with the curve's local data, :func:`euler_product` forms the product's
magnitude, and the caller multiplies chi_gamma by it.

The cyclotomic-level characteristic chi_gamma is always an *input*: its
computation belongs to the cyclotomic theory and is out of scope here.
This module evaluates the product, not the starting point.
"""

from __future__ import annotations

from typing import NamedTuple

from .curves import Curve, CurveLocalData, local_data
from .cyclotomic_fields import ExtensionSpec, infinite_inertia_places, infinite_inertia_set
from .errors import InputError
from .padics import PowerOfP, int_valuation, quoted


def euler_product(places, p: int) -> PowerOfP:
    """The p-adic magnitude of the Euler-factor product: p^(sum of local valuations).

    ``places`` is the output of :func:`build_chi_input`.  The magnitude is
    taken in the paper convention |x|_p = p^(+v_p(x)); each place contributes
    its valuation individually (a prime with g places above it appears g
    times).  chi over the big extension is chi_gamma times this product.
    """
    return PowerOfP(p, sum(local.euler_valuation_at_p for _, local in places))


class LocalCardinalities(NamedTuple):
    """Orders of the two local H^1 groups at a place away from p."""

    h1_gamma: PowerOfP
    h1_Fv: PowerOfP


def local_cardinalities(c_v: int, local: CurveLocalData, p: int) -> LocalCardinalities:
    """#H^1 over the local cyclotomic tower and over the base completion.

    h1_Fv = p^(v_p(c_v)) and h1_gamma = p^(v_p(L_v) - v_p(c_v)): the first
    reads |c_v|_p^(-1) with the standard magnitude, the second reads
    |c_v^(-1) L_v(E,1)|_p with the paper convention -- the mixed choice
    keeps both cardinalities >= 1 in the good-reduction cases.  A
    negative implied exponent is surfaced as an error, never clamped.
    """
    if c_v < 1:
        raise InputError(f"Tamagawa number must be a positive integer: c_v = {quoted(c_v)} "
                         f"at the place with q_v = {quoted(local.q)}")
    v_c = int_valuation(c_v, p)
    v_l = local.euler_valuation_at_p
    if v_l - v_c < 0:
        raise InputError(f"convention violation at the place with q_v = {quoted(local.q)}: "
                         f"c_v = {quoted(c_v)} has v_p(c_v) = {v_c} > v_p(L_v) = {v_l}, "
                         f"with p = {p}")
    return LocalCardinalities(h1_gamma=PowerOfP(p, v_l - v_c), h1_Fv=PowerOfP(p, v_c))


def build_chi_input(curve: Curve, extension: ExtensionSpec) -> tuple:
    """The (splitting data, local data) pair of each infinite-inertia place away from p.

    The places come from :func:`infinite_inertia_places`, which skips
    l = p.  The curve's local data is counted over the prime field and
    its trace extended to the place's residue degree.
    """
    places = infinite_inertia_places(infinite_inertia_set(extension))
    return tuple((splitting, local_data(curve, splitting)) for splitting in places)
