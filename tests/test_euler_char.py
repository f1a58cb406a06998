from fractions import Fraction

import pytest

from eulerchar.curves import Curve, CurveLocalData, local_data, x1_11
from eulerchar.cyclotomic_fields import ExtensionSpec, SplittingData, split
from eulerchar.errors import InputError
from eulerchar.euler_char import (ChiInput, ConventionViolationError,
                                  build_chi_input, local_cardinalities,
                                  theorem_chi)
from eulerchar.padics import PowerOfP, int_valuation


def synthetic_place(p, l, valuation, q=None):
    """A place away from p with a prescribed Euler-factor valuation.

    Real places away from p always have valuation <= 0; positive values
    here only exercise the exponent arithmetic of the product formula.
    """
    q = q if q is not None else l
    splitting = SplittingData(l, p, 1, 1, False, q)
    local = CurveLocalData(q, 0, Fraction(q * q, q * q + 1), valuation)
    return splitting, local


def test_worked_example_product():
    chi_input = build_chi_input(x1_11(), ExtensionSpec(7, 113), PowerOfP(7, 8))
    assert len(chi_input.places) == 6
    assert all(local.euler_valuation_at_p == 0 for _, local in chi_input.places)
    assert theorem_chi(chi_input) == PowerOfP(7, 8)


def test_pipeline_with_higher_residue_degree():
    # m = 2: the order of 2 mod 7 is 3, so two places with residue field F_8
    chi_input = build_chi_input(x1_11(), ExtensionSpec(7, 2), PowerOfP(7, 0))
    assert len(chi_input.places) == 2
    for splitting, local in chi_input.places:
        assert (splitting.f, local.q, local.a_v) == (3, 8, 4)
        assert local.euler_value == Fraction(64, 97)
        assert local.euler_valuation_at_p == 0
    assert theorem_chi(chi_input) == PowerOfP(7, 0)


def test_empty_place_set():
    chi_input = ChiInput(5, PowerOfP(5, 0), ())
    assert theorem_chi(chi_input) == PowerOfP(5, 0)


def test_single_place_with_valuation_two():
    chi_input = ChiInput(7, PowerOfP(7, 1), (synthetic_place(7, 3, 2),))
    assert theorem_chi(chi_input) == PowerOfP(7, 3)


def test_place_above_p_rejected():
    splitting = split(7, 7)
    local = local_data(x1_11(), 7, 7)
    with pytest.raises(InputError, match="excludes places above p"):
        ChiInput(7, PowerOfP(7, 0), ((splitting, local),))


def test_residue_field_consistency_enforced():
    splitting = split(113, 7)
    local = local_data(x1_11(), 113, 7, residue_degree=1)
    wrong = SplittingData(113, 7, 2, 3, False, 113 ** 2)
    with pytest.raises(InputError, match="residue field"):
        ChiInput(7, PowerOfP(7, 0), ((wrong, local),))
    # the matching pair is fine
    ChiInput(7, PowerOfP(7, 0), ((splitting, local),))


def test_chi_gamma_prime_must_match():
    with pytest.raises(InputError, match="working prime"):
        ChiInput(7, PowerOfP(5, 1), ())


def test_chi_gamma_jv_values():
    # the local characteristic at a place away from p is p^(v_p(L_v))
    assert local_data(x1_11(), 113, 7).euler_valuation_at_p == 0
    # y^2 = x^3 - x has a_3 = 0, so the factor at 3 is 9/10 and v_5 = -1
    curve = Curve(Fraction(0), Fraction(0), Fraction(0), Fraction(-1), Fraction(0))
    data = local_data(curve, 3, 5)
    assert data.euler_value == Fraction(9, 10)
    assert data.euler_valuation_at_p == -1


def test_product_multiplicative_in_place_lists():
    part_a = tuple(synthetic_place(7, l, v) for l, v in ((3, 1), (5, 0)))
    part_b = tuple(synthetic_place(7, l, v) for l, v in ((11, 2),))
    one = PowerOfP(7, 0)
    whole = theorem_chi(ChiInput(7, one, part_a + part_b))
    split_product = (theorem_chi(ChiInput(7, one, part_a))
                     * theorem_chi(ChiInput(7, one, part_b)))
    assert whole == split_product


def test_local_cardinalities_trivial_tamagawa():
    _, place = synthetic_place(7, 3, 0)
    cards = local_cardinalities(1, place, 7)
    assert cards.h1_gamma == PowerOfP(7, 0)
    assert cards.h1_Fv == PowerOfP(7, 0)
    assert cards.jv_constant_term_magnitude == PowerOfP(7, 0)


def test_local_cardinalities_valuation_two():
    _, place = synthetic_place(7, 3, 2)
    cards = local_cardinalities(1, place, 7)
    assert cards.h1_gamma == PowerOfP(7, 2)
    assert cards.h1_Fv == PowerOfP(7, 0)


def test_local_cardinalities_convention_violation_surfaced():
    # c_v = 7 at a place with flat Euler factor: h1_Fv = 7^(v_7(7)) = 7 is
    # still well-defined, but the h1_gamma exponent would be negative.
    assert PowerOfP(7, int_valuation(7, 7)) == PowerOfP(7, 1)
    _, place = synthetic_place(7, 3, 0)
    with pytest.raises(ConventionViolationError, match="convention violation"):
        local_cardinalities(7, place, 7)


def test_local_cardinalities_input_checks():
    _, place = synthetic_place(7, 3, 0)
    with pytest.raises(InputError, match="positive integer"):
        local_cardinalities(0, place, 7)
    above_p = local_data(x1_11(), 7, 7)
    with pytest.raises(InputError, match="above p"):
        local_cardinalities(1, above_p, 7)
