"""The product formula assembling global and local Euler-characteristic data.

The Euler characteristic over the big extension equals the
cyclotomic-level characteristic times the p-adic magnitude (paper
convention, p^(+v_p)) of the product of local Euler factors over the
infinite-inertia places away from p.

The cyclotomic-level characteristic chi_gamma is always an *input*: its
computation belongs to the cyclotomic theory and is out of scope here.
This module evaluates the product, not the starting point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .curves import Curve, CurveLocalData, local_data
from .cyclotomic_fields import ExtensionSpec, SplittingData, infinite_inertia_places
from .errors import InputError
from .padics import PowerOfP, int_valuation


class ConventionViolationError(InputError):
    """The cardinality formulas produce a negative exponent at this place."""


@dataclass(frozen=True)
class ChiInput:
    """Everything the product formula consumes.

    ``places`` pairs the splitting data of each infinite-inertia place away
    from p with the curve's local data there.
    """

    p: int
    chi_gamma: PowerOfP
    places: Tuple[Tuple[SplittingData, CurveLocalData], ...]

    def __post_init__(self):
        if self.chi_gamma.prime != self.p:
            raise InputError("chi_gamma must be a power of the working prime")
        for splitting, local in self.places:
            if splitting.l == self.p:
                raise InputError("infinite-inertia place set excludes places above p")
            if local.q != splitting.q_v:
                raise InputError("local data residue field disagrees with splitting data")


def theorem_chi(chi_input: ChiInput) -> PowerOfP:
    """chi over the big extension: chi_gamma times p^(sum of local valuations).

    The magnitude of the Euler-factor product is taken in the paper
    convention |x|_p = p^(+v_p(x)); each place contributes its valuation
    individually (a prime with g places above it appears g times).
    """
    exponent = sum(local.euler_valuation_at_p for _, local in chi_input.places)
    return chi_input.chi_gamma * PowerOfP(chi_input.p, exponent)


@dataclass(frozen=True)
class LocalCardinalities:
    """Orders of the two local H^1 groups at a place away from p.

    ``jv_constant_term_magnitude`` records, as metadata, the paper-convention
    magnitude of the local Euler factor: the characteristic element of the
    local summand has a nonzero constant term of exactly that magnitude.
    """

    h1_gamma: PowerOfP
    h1_Fv: PowerOfP
    jv_constant_term_magnitude: PowerOfP


def local_cardinalities(c_v: int, local: CurveLocalData, p: int) -> LocalCardinalities:
    """#H^1 over the local cyclotomic tower and over the base completion.

    h1_Fv = p^(v_p(c_v)) and h1_gamma = p^(v_p(L_v) - v_p(c_v)): the first
    reads |c_v|_p^(-1) with the standard magnitude, the second reads
    |c_v^(-1) L_v(E,1)|_p with the paper convention -- the mixed choice
    keeps both cardinalities >= 1 in the good-reduction cases.  A
    negative implied exponent is surfaced as an error, never clamped.
    """
    if local.q % p == 0:
        raise InputError("place above p is excluded here")
    if c_v < 1:
        raise InputError("Tamagawa number must be a positive integer")
    v_c = int_valuation(c_v, p)
    v_l = local.euler_valuation_at_p
    if v_l - v_c < 0:
        raise ConventionViolationError("convention violation at this place")
    return LocalCardinalities(
        h1_gamma=PowerOfP(p, v_l - v_c),
        h1_Fv=PowerOfP(p, v_c),
        jv_constant_term_magnitude=PowerOfP(p, v_l),
    )


def build_chi_input(curve: Curve, extension: ExtensionSpec,
                    chi_gamma: PowerOfP) -> ChiInput:
    """Assemble the product-formula input for a curve and a Kummer-tower extension.

    Walks the infinite-inertia places away from p and computes the curve's
    local data at each (counting over the prime field, extending the trace
    to the place's residue degree).
    """
    places = []
    for splitting in infinite_inertia_places(extension):
        data = local_data(curve, splitting.l, extension.p,
                          residue_degree=splitting.f)
        places.append((splitting, data))
    return ChiInput(extension.p, chi_gamma, tuple(places))
