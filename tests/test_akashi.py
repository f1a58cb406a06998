import itertools
import random

import pytest

from eulerchar import akashi
from eulerchar.akashi import AkashiData, akashi_series, check_multiplicativity
from eulerchar.errors import EulerCharError, InputError, PrecisionError
from eulerchar.lambda_algebra import (LambdaSeries, WeierstrassForm, distinguished_part,
                                      mu_lambda, series_from_text)
from eulerchar.padics import PowerOfP
from test_lambda_algebra import agrees_with, random_prepared_input, random_unit


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
    assert agrees_with(frac.numerator, series_from_text(7, "T+7", 10, 32))
    assert agrees_with(frac.denominator, LambdaSeries.one(7, 10, 32))


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


def test_multiplicativity_compares_mu_and_lambda_before_preparing(count_calls):
    prepared = count_calls(akashi, "distinguished_part")
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
    with pytest.raises(InputError, match="prime mismatch"):
        check_multiplicativity(data(7, "T"), data(5, "T"), data(7, "T"))


def _random_element(rng, p):
    coeffs = [rng.randrange(p ** 10) for _ in range(rng.randint(1, 5))]
    pos = rng.randrange(len(coeffs))
    coeffs[pos] = random_unit(rng, p ** 10, p)
    if rng.random() < 0.3:
        coeffs = [c * p for c in coeffs]
    return LambdaSeries.make(p, coeffs, 10, 32)


def random_data(rng, p):
    """Akashi data at (N, D) = (10, 32) of one to three polynomials of degree below 5, each
    with a unit coefficient, and three in ten of them then multiplied by p."""
    return AkashiData(p, tuple(_random_element(rng, p) for _ in range(rng.randint(1, 3))))


def test_fraction_reduction_cancels_common_factors():
    frac = akashi_series(data(7, "49*T^2", "7*T"))
    # common factor 7*T removed: numerator 7*T, denominator 1
    assert frac.numerator.t_order() == 1
    assert agrees_with(frac.denominator, LambdaSeries.one(7, frac.denominator.coeff_precision,
                                                          frac.denominator.trunc_degree))


def test_corank_list_checked_not_trusted():
    from eulerchar.akashi import coranks_consistent

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


def full_route(l_data, m_data, n_data):
    """Slow oracle: both cross-products formed with *, compared by (mu, lambda), then prepared."""
    f_l, f_m, f_n = (akashi_series(x) for x in (l_data, m_data, n_data))
    left = f_m.numerator * (f_n.denominator * f_l.denominator)
    right = (f_n.numerator * f_l.numerator) * f_m.denominator
    if mu_lambda(left) != mu_lambda(right):
        return False
    return distinguished_part(left).same_characteristic_element(distinguished_part(right))


def outcome(check, triple):
    try:
        return check(*triple)
    except EulerCharError as exc:
        return type(exc), str(exc)


def _times_t(g):
    return LambdaSeries.make(g.prime, (0,) + g.coeffs[:-1], g.coeff_precision, g.trunc_degree)


def _job_triple(rng, p, n, d, broken):
    """Shaped like a benchmark series job: L and N two units each, M their degreewise
    products; ``broken`` multiplies one middle element by T."""
    left = [random_prepared_input(rng, p, n, d, 0, 0) for _ in range(2)]
    right = [random_prepared_input(rng, p, n, d, 0, 0) for _ in range(2)]
    middle = [x * y for x, y in zip(left, right)]
    if broken:
        i = rng.randrange(2)
        middle[i] = _times_t(middle[i])
    return AkashiData(p, tuple(left)), AkashiData(p, tuple(middle)), AkashiData(p, tuple(right))


def _loose_triple(rng, p):
    """Elements at independent (N, D) with small random (mu, lambda).  M is L * N, or
    L * N with p^(mu+1) added to one constant term, which keeps every (mu, lambda)
    but most often not the distinguished part, or independent of L and N."""
    def element():
        n, d = rng.randint(2, 8), rng.randint(2, 10)
        lam, mu = rng.randrange(min(d, 4)), rng.randrange(min(n, 3))
        return random_prepared_input(rng, p, n, d, lam, mu)
    l_data = AkashiData(p, tuple(element() for _ in range(rng.randint(1, 2))))
    n_data = AkashiData(p, tuple(element() for _ in range(rng.randint(1, 2))))
    kind = rng.randrange(3)
    if kind < 2:
        middle = list(degreewise_product(l_data, n_data).char_elements)
        i = rng.randrange(len(middle))
        g = middle[i]
        if kind == 1 and g.t_order() is not None and mu_lambda(g)[0] + 1 < g.coeff_precision:
            nudged = (g.coeffs[0] + p ** (mu_lambda(g)[0] + 1),) + g.coeffs[1:]
            middle[i] = LambdaSeries.make(p, nudged, g.coeff_precision, g.trunc_degree)
        m_data = AkashiData(p, tuple(middle))
    else:
        m_data = AkashiData(p, tuple(element() for _ in range(rng.randint(1, 3))))
    return l_data, m_data, n_data


def _edge_triple(rng, p):
    """One element each, all at (n, d), with the right-hand sum's mu = n or lambda = d."""
    n, d = rng.randint(2, 5), rng.randint(2, 6)
    if rng.random() < 0.5:
        mu_a = rng.randrange(1, n)
        shapes = [(mu_a, rng.randrange(d)), (n - mu_a, rng.randrange(d))]
    else:
        lam_a = rng.randrange(1, d)
        shapes = [(rng.randrange(n), lam_a), (rng.randrange(n), d - lam_a)]
    a, b = (random_prepared_input(rng, p, n, d, lam, mu) for mu, lam in shapes)
    ab = a * b
    middle = ab if rng.random() < 0.5 and ab.t_order() is not None else a
    return AkashiData(p, (a,)), AkashiData(p, (middle,)), AkashiData(p, (b,))


def test_multiplicativity_matches_the_full_route(monkeypatch):
    rng = random.Random(53)
    triples = []
    for i in range(320):
        p = rng.choice([2, 3, 5, 7])
        kind = i % 4
        if kind < 2:
            n, d = rng.randint(2, 10), rng.randint(4, 24)
            triples.append(_job_triple(rng, p, n, d, broken=kind == 1))
        elif kind == 2:
            triples.append(_loose_triple(rng, p))
        else:
            triples.append(_edge_triple(rng, p))
    # cross-products that vanish at N = 2
    seven, t = data(7, "7", precision=2), data(7, "T", precision=2)
    triples += [(seven, t, seven), (t, seven, data(7, "1", "7", precision=2))]
    # same_characteristic_element compares (mu, lambda) itself, with no caller matching them
    # first; the full route compares them before it, and the outcomes agree
    compared, same = [], WeierstrassForm.same_characteristic_element

    def recorded(a, b):
        compared.append((a, b))
        return same(a, b)

    with monkeypatch.context() as patch:
        patch.setattr(WeierstrassForm, "same_characteristic_element", recorded)
        outcomes = [outcome(check_multiplicativity, triple) for triple in triples]
    assert any((a.mu, a.lam) != (b.mu, b.lam) for a, b in compared)
    assert outcomes == [outcome(full_route, triple) for triple in triples]
    assert {True, False} <= set(outcomes)
    assert outcomes[:2] == [True, False] and outcomes[-1][0] is PrecisionError


def test_multiplicativity_forms_cross_products_only_when_the_sums_leave_it_open(count_calls):
    products = count_calls(LambdaSeries, "__mul__")

    def cross_products(triple):
        """The answer, and the products check_multiplicativity forms beyond its fractions'."""
        products.clear()
        for x in triple:
            akashi_series(x)
        fractions = len(products)
        products.clear()
        return check_multiplicativity(*triple), len(products) - fractions

    one = data(7, "1")
    rng = random.Random(59)
    job, broken = _job_triple(rng, 7, 10, 32, False), _job_triple(rng, 7, 10, 32, True)
    # all units; equal (mu, lambda) = (0, 0) decides without a product
    assert cross_products(job) == (True, 0)
    assert cross_products((data(7, "1+7*T"), data(7, "3+T"), data(7, "2+T^2"))) == (True, 0)
    assert cross_products((one, data(7, "1+7*T", "3", "2+T"), one)) == (True, 0)
    # (mu, lambda) that differ within precision: 7*T against T, T^2 against T, a broken job
    assert cross_products((one, data(7, "7*T"), data(7, "T"))) == (False, 0)
    assert cross_products((one, data(7, "T^2"), data(7, "T"))) == (False, 0)
    assert cross_products(broken) == (False, 0)
    # equal lambda > 0: two products a side, then the distinguished parts
    assert cross_products((one, data(7, "T+7"), data(7, "T+14"))) == (False, 4)
    assert cross_products((data(7, "T"), data(7, "T*(T+7)"), data(7, "T+7"))) == (True, 4)
    # a mu sum at N = 2 leaves the sums undecided: the products are formed
    seven = data(7, "7", precision=2)
    with pytest.raises(PrecisionError):
        cross_products((seven, data(7, "T", precision=2), seven))
    assert len(products) == 4
