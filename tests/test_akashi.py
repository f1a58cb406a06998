import itertools
import random

import pytest

from eulerchar import akashi
from eulerchar.akashi import AkashiData, akashi_series, check_multiplicativity
from eulerchar.errors import PrecisionError, PrimeMismatchError
from eulerchar.gamma_modules import TorsionModule, generalized_chi
from eulerchar.lambda_algebra import (LambdaSeries, distinguished_part, leading_term,
                                      series_from_text)
from eulerchar.padics import PowerOfP


def data(p, *polys, precision=10, degree=32):
    return AkashiData(p, tuple(series_from_text(p, s, precision, degree)
                               for s in polys))


def degreewise_product(a, b):
    """Multiply characteristic elements degree by degree, padding with 1 at the other's (N, D)."""
    def one(g):
        return LambdaSeries.one(g.prime, g.coeff_precision, g.trunc_degree)
    return AkashiData(a.prime, tuple((x or one(y)) * (y or one(x)) for x, y in
                                     itertools.zip_longest(a.char_elements, b.char_elements)))


def test_single_degree_fraction():
    frac = akashi_series(data(7, "T+7"))
    assert frac.numerator.agrees_with(series_from_text(7, "T+7", 10, 32))
    assert frac.denominator.agrees_with(LambdaSeries.one(7, 10, 32))


def test_repeated_element_cancels_to_one():
    one = data(7, "1")
    assert check_multiplicativity(one, data(7, "T*(T+7)", "T*(T+7)"), one) is True


def test_all_units_give_trivial_series():
    one = data(7, "1")
    assert check_multiplicativity(one, data(7, "1+7*T", "3", "2+T"), one) is True


def test_zero_element_rejected():
    zero = LambdaSeries.make(7, [0], 4, 8)
    bad = AkashiData(7, (zero,))
    with pytest.raises(PrecisionError, match="vanishes at precision"):
        akashi_series(bad)


def test_leading_examples():
    lead = akashi_series(data(7, "7*T"))
    assert (lead.alpha_valuation, lead.k) == (1, 1)
    assert lead.chi == PowerOfP(7, 1)

    lead = akashi_series(data(7, "T*(3+7*T)"))  # u*T with u a unit
    assert (lead.alpha_valuation, lead.k) == (0, 1)
    assert lead.chi == PowerOfP(7, 0)

    lead = akashi_series(data(7, "49*T^2", "7*T"))  # (49T^2)/(7T)
    assert (lead.alpha_valuation, lead.k) == (1, 1)
    assert lead.chi == PowerOfP(7, 1)


def test_multiplicativity_examples():
    l_data = data(7, "T")
    n_data = data(7, "T+7")
    m_data = data(7, "T*(T+7)")
    assert check_multiplicativity(l_data, m_data, n_data) is True

    g = data(7, "T^2+7*T+14")
    assert check_multiplicativity(data(7, "1"), g, g) is True

    assert check_multiplicativity(data(7, "T"), data(7, "T^3"), data(7, "T")) is False


def test_multiplicativity_compares_mu_and_lambda_before_preparing(monkeypatch):
    prepared = []

    def counted(g):
        prepared.append(g)
        return distinguished_part(g)

    monkeypatch.setattr(akashi, "distinguished_part", counted)
    one = data(7, "1")
    # cross-products 7*T and T differ in mu, T^2 and T in lambda: neither is prepared
    assert check_multiplicativity(one, data(7, "7*T"), data(7, "T")) is False
    assert check_multiplicativity(one, data(7, "T^2"), data(7, "T")) is False
    assert prepared == []
    # T + 7 and T + 14 agree in (mu, lambda) = (0, 1) but not in P
    assert check_multiplicativity(one, data(7, "T+7"), data(7, "T+14")) is False
    assert len(prepared) == 2
    # T + 7 and (T + 7)(1 + 7T) differ by a unit
    assert check_multiplicativity(one, data(7, "T+7"), data(7, "(T+7)*(1+7*T)")) is True
    assert len(prepared) == 4


def test_multiplicativity_vanishing_cross_product():
    # at N = 2 each fraction is nonzero, but the right, then the left, cross-product is 7 * 7
    seven, t = data(7, "7", precision=2), data(7, "T", precision=2)
    for l_data, m_data, n_data in ((seven, t, seven), (t, seven, data(7, "1", "7", precision=2))):
        with pytest.raises(PrecisionError, match="indistinguishable from zero at precision"):
            check_multiplicativity(l_data, m_data, n_data)


def test_multiplicativity_prime_mismatch():
    with pytest.raises(PrimeMismatchError):
        check_multiplicativity(data(7, "T"), data(5, "T"), data(7, "T"))


def _random_element(rng, p, precision, degree):
    coeffs = [rng.randrange(p ** precision) for _ in range(rng.randint(1, 5))]
    pos = rng.randrange(len(coeffs))
    unit = rng.randrange(1, p ** precision)
    while unit % p == 0:
        unit = rng.randrange(1, p ** precision)
    coeffs[pos] = unit
    if rng.random() < 0.3:
        coeffs = [c * p for c in coeffs]
    return LambdaSeries.make(p, coeffs, precision, degree)


def _random_data(rng, p, precision=10, degree=32, max_degrees=3):
    return AkashiData(p, tuple(_random_element(rng, p, precision, degree)
                               for _ in range(rng.randint(1, max_degrees))))


def test_leading_additive_under_degreewise_products():
    rng = random.Random(17)
    for _ in range(40):
        p = rng.choice([3, 5, 7])
        a = _random_data(rng, p)
        b = _random_data(rng, p)
        lead_a, lead_b = akashi_series(a), akashi_series(b)
        lead = akashi_series(degreewise_product(a, b))
        assert lead.k == lead_a.k + lead_b.k
        assert lead.alpha_valuation == lead_a.alpha_valuation + lead_b.alpha_valuation


def test_single_degree_agrees_with_leading_term():
    rng = random.Random(29)
    for _ in range(30):
        p = rng.choice([3, 5, 7])
        g = _random_element(rng, p, 10, 32)
        lead = akashi_series(AkashiData(p, (g,)))
        lt = leading_term(g)
        assert (lead.alpha_valuation, lead.k) == (lt.alpha_valuation, lt.k)


def test_torsion_module_chi_matches_single_degree_akashi():
    # For a module over the rank-one group itself, the alternating product
    # is just the characteristic element, and its leading coefficient
    # valuation is the chi exponent.
    rng = random.Random(41)
    for _ in range(25):
        p = rng.choice([3, 5, 7])
        gens = []
        for _ in range(rng.randint(1, 2)):
            n = rng.randint(0, 1)
            f = [rng.randrange(p ** 10) for _ in range(rng.randint(1, 3))]
            unit = rng.randrange(1, p ** 10)
            while unit % p == 0:
                unit = rng.randrange(1, p ** 10)
            f[0] = unit * p ** rng.randint(0, 1)
            gens.append(LambdaSeries.make(p, [0] * n + f, 10, 32))
        m = TorsionModule(p, tuple(gens))
        chi = generalized_chi(m)
        char_element = gens[0]
        for g in gens[1:]:
            char_element = char_element * g
        lead = akashi_series(AkashiData(p, (char_element,)))
        assert chi.finite
        assert lead.chi == chi.value
        assert lead.k == chi.r


def test_fraction_reduction_cancels_common_factors():
    frac = akashi_series(data(7, "49*T^2", "7*T"))
    # common factor 7*T removed: numerator 7*T, denominator 1
    assert frac.numerator.t_order() == 1
    assert frac.denominator.agrees_with(LambdaSeries.one(7, frac.denominator.coeff_precision,
                                                         frac.denominator.trunc_degree))


def test_corank_list_checked_not_trusted():
    from eulerchar.akashi import coranks_consistent
    from eulerchar.errors import InputError

    # T in degree 0 and T^2 in degree 1: k = 1 - 2 = -1
    a = data(7, "T", "T^2*(1+T)")
    k = akashi_series(a).k
    assert k == -1
    assert coranks_consistent(a, [1, 2], k) is True
    assert coranks_consistent(a, [2, 3], k) is True   # same alternating sum
    assert coranks_consistent(a, [1, 0], k) is False
    with pytest.raises(InputError, match="one corank per"):
        coranks_consistent(a, [1], k)
    with pytest.raises(InputError, match="nonnegative"):
        coranks_consistent(a, [1, -2], k)


def test_json_roundtrip():
    a = data(7, "T", "T+7")
    doc = a.to_json()
    assert AkashiData.from_json(doc) == a
    compact = AkashiData.from_json({"p": 7, "N": 10, "D": 32,
                                    "char_elements": ["T", "T+7"]})
    assert compact == a
