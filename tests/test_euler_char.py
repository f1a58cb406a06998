from fractions import Fraction

import pytest

from eulerchar.curves import Curve, CurveLocalData, local_data, x1_11
from eulerchar.cyclotomic_fields import SplittingData, split
from eulerchar.errors import InputError
from eulerchar.euler_char import euler_product, local_cardinalities
from eulerchar.padics import PowerOfP, int_valuation


def synthetic_place(p, l, valuation):
    """A place away from p with a prescribed Euler-factor valuation.

    Real places away from p always have valuation <= 0; positive values
    here only exercise the exponent arithmetic of the product formula.
    """
    splitting = SplittingData(l, p, 1)
    local = CurveLocalData(l, 0, Fraction(l * l, l * l + 1), valuation)
    return splitting, local


def test_empty_place_set():
    assert euler_product((), 5) == PowerOfP(5, 0)


def test_single_place_with_valuation_two():
    assert euler_product((synthetic_place(7, 3, 2),), 7) == PowerOfP(7, 2)


def test_chi_gamma_jv_values():
    # the local characteristic at a place away from p is p^(v_p(L_v))
    assert local_data(x1_11(), split(113, 7)).euler_valuation_at_p == 0
    # y^2 = x^3 - x has a_3 = 0, so the factor at 3 is 9/10 and v_5 = -1; 3 has
    # order 4 mod 5, so no real place above 3 has residue field F_3
    curve = Curve(Fraction(0), Fraction(0), Fraction(0), Fraction(-1), Fraction(0))
    data = local_data(curve, SplittingData(3, 5, 1))
    assert data.euler_value == Fraction(9, 10)
    assert data.euler_valuation_at_p == -1


def test_product_multiplicative_in_place_lists():
    part_a = tuple(synthetic_place(7, l, v) for l, v in ((3, 1), (5, 0)))
    part_b = tuple(synthetic_place(7, l, v) for l, v in ((11, 2),))
    whole = euler_product(part_a + part_b, 7)
    assert whole == euler_product(part_a, 7) * euler_product(part_b, 7) == PowerOfP(7, 3)


def test_local_cardinalities_trivial_tamagawa():
    _, place = synthetic_place(7, 3, 0)
    cards = local_cardinalities(1, place, 7)
    assert cards.h1_gamma == PowerOfP(7, 0)
    assert cards.h1_Fv == PowerOfP(7, 0)


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
    with pytest.raises(InputError, match=r"convention violation at the place with q_v = 3: "
                       r"c_v = 7 has v_p\(c_v\) = 1 > v_p\(L_v\) = 0, with p = 7"):
        local_cardinalities(7, place, 7)


def test_local_cardinalities_input_checks():
    _, place = synthetic_place(7, 3, 0)
    with pytest.raises(InputError, match="positive integer"):
        local_cardinalities(0, place, 7)
