import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerchar.akashi import AkashiData
from eulerchar.errors import InputError, PrecisionError, PrimeMismatchError
from eulerchar.gamma_modules import TorsionModule
from eulerchar.lambda_algebra import (LambdaSeries, leading_term,
                                      min_coeff_valuation, mu_lambda,
                                      polynomial_from_text, series_from_doc,
                                      series_from_text, weierstrass_prepare)


def series(p, coeffs, n, d):
    return LambdaSeries.make(p, coeffs, n, d)


# Independent oracle for products: plain convolution over Z, reduced afterwards.
def naive_product(p, a, b, n, d):
    out = [0] * d
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < d:
                out[i + j] += x * y
    return tuple(c % p ** n for c in out)


def test_multiplication_examples():
    one = series(7, [1], 3, 5)
    t = series(7, [0, 1], 3, 5)
    one_plus_t = series(7, [1, 1], 3, 5)
    assert (one * one_plus_t).coeffs == (1, 1, 0, 0, 0)
    assert (t * t).coeffs == (0, 0, 1, 0, 0)
    # (7+T)(1+7T) = 7 + 50T + 7T^2, frozen from the convolution oracle
    assert naive_product(7, [7, 1], [1, 7], 3, 5) == (7, 50, 7, 0, 0)
    prod = series(7, [7, 1], 3, 5) * series(7, [1, 7], 3, 5)
    assert prod.coeffs == (7, 50, 7, 0, 0)


def test_multiplication_matches_oracle_on_random_inputs():
    rng = random.Random(11)
    for _ in range(50):
        p = rng.choice([3, 5, 7])
        n, d = rng.randint(2, 6), rng.randint(3, 12)
        a = [rng.randrange(p ** n) for _ in range(d)]
        b = [rng.randrange(p ** n) for _ in range(d)]
        got = series(p, a, n, d) * series(p, b, n, d)
        assert got.coeffs == naive_product(p, a, b, n, d)


def test_precision_min_rule():
    a = series(7, [1, 2, 3], 5, 3)
    b = series(7, [6, 5], 2, 2)
    c = a * b
    assert (c.coeff_precision, c.trunc_degree) == (2, 2)
    assert c.coeffs == (6, 17)  # 6 and 1*5 + 2*6, mod 7^2 and T^2


def test_prime_mismatch_errors():
    with pytest.raises(PrimeMismatchError, match="prime mismatch"):
        series(5, [1], 3, 3) * series(7, [1], 3, 3)


def test_prepare_unit_series():
    g = series(7, [1, 1], 4, 6)  # 1 + T
    form = weierstrass_prepare(g)
    assert (form.mu, form.lam) == (0, 0)
    assert form.distinguished_poly == (1,)
    assert form.unit.agrees_with(g)
    assert form.reconstruct().agrees_with(g)


def test_prepare_distinguished_input():
    g = series(7, [7, 1], 4, 6)  # T + 7, already distinguished
    form = weierstrass_prepare(g)
    assert (form.mu, form.lam) == (0, 1)
    assert form.distinguished_poly == (7, 1)
    assert form.unit.agrees_with(LambdaSeries.one(7, 4, 6))
    assert form.reconstruct().agrees_with(g)


def test_prepare_full_factorization():
    # 7 * (T+7) * (1+7T) = 49 + 350T + 49T^2
    g = series(7, [49, 350, 49], 4, 8)
    form = weierstrass_prepare(g)
    assert (form.mu, form.lam) == (1, 1)
    assert form.distinguished_poly == (7, 1)
    assert form.unit.agrees_with(series(7, [1, 7], 3, 8))
    assert form.reconstruct().agrees_with(g)


def test_prepare_reports_zero_series():
    with pytest.raises(PrecisionError, match="indistinguishable from zero"):
        weierstrass_prepare(series(7, [0, 49], 2, 4))  # 49 = 0 mod 7^2


def test_leading_term_examples():
    # u*T with u a unit: leading term is (u(0), 1)
    u_t = series(7, [0, 3, 7], 4, 6)
    lt = leading_term(u_t)
    assert (lt.alpha, lt.k, lt.alpha_valuation) == (3, 1, 0)

    lt = leading_term(LambdaSeries.one(7, 4, 6))
    assert (lt.alpha, lt.k) == (1, 0)

    # 49T^2 + 343T^3 at N=3: the T^3 coefficient is invisible mod 7^3
    g = series(7, [0, 0, 49, 343], 3, 4)
    lt = leading_term(g)
    assert (lt.alpha, lt.k, lt.alpha_valuation) == (49, 2, 2)
    # and at N=4 the answer is the same
    lt = leading_term(series(7, [0, 0, 49, 343], 4, 4))
    assert (lt.alpha, lt.k) == (49, 2)


def test_leading_term_zero_series():
    with pytest.raises(PrecisionError, match="indistinguishable from zero"):
        leading_term(series(5, [0, 0], 3, 2))


def test_mu_lambda_examples():
    assert mu_lambda(series(7, [49], 3, 4)) == (2, 0)
    assert mu_lambda(series(7, [0, 0, 0, 1], 3, 6)) == (0, 3)
    assert mu_lambda(series(7, [49, 7], 3, 6)) == (1, 1)  # 7*(T+7)


def test_leading_term_multiplicativity():
    rng = random.Random(23)
    for _ in range(100):
        p = rng.choice([3, 5, 7, 11])
        n, d = rng.randint(3, 8), rng.randint(8, 20)
        g = _random_preparable(rng, p, n, d)
        h = _random_preparable(rng, p, n, d)
        lt_g, lt_h = leading_term(g), leading_term(h)
        if lt_g.k + lt_h.k >= d:
            continue
        prod = g * h
        alpha = lt_g.alpha * lt_h.alpha % p ** n
        if alpha == 0:
            continue  # valuation overflow at precision, contract does not apply
        lt = leading_term(prod)
        assert lt.k == lt_g.k + lt_h.k
        assert lt.alpha == alpha


def _random_preparable(rng, p, n, d, max_unit_pos=6, max_mu=2):
    # force lambda to be exactly the chosen unit position
    pos = rng.randrange(0, min(max_unit_pos, d))
    coeffs = [rng.randrange(p ** (n - 1)) * p if i < pos else rng.randrange(p ** n)
              for i in range(d)]
    unit = rng.randrange(1, p ** n)
    while unit % p == 0:
        unit = rng.randrange(1, p ** n)
    coeffs[pos] = unit
    e = rng.randint(0, min(max_mu, n - 2)) if n > 2 else 0
    return LambdaSeries.make(p, [c * p ** e for c in coeffs], n, d)


def test_mu_lambda_additive_under_products():
    rng = random.Random(31)
    for _ in range(60):
        p = rng.choice([3, 5, 7, 11])
        n, d = rng.randint(6, 9), 32
        g = _random_preparable(rng, p, n, d, max_unit_pos=6, max_mu=2)
        h = _random_preparable(rng, p, n, d, max_unit_pos=6, max_mu=2)
        mu_g, lam_g = mu_lambda(g)
        mu_h, lam_h = mu_lambda(h)
        if mu_g + mu_h > n - 2 or lam_g + lam_h >= d:
            continue
        assert mu_lambda(g * h) == (mu_g + mu_h, lam_g + lam_h)


def test_preparation_idempotent():
    rng = random.Random(43)
    for _ in range(60):
        p = rng.choice([3, 5, 7, 11])
        g = _random_preparable(rng, p, rng.randint(4, 9), rng.randint(10, 30))
        form = weierstrass_prepare(g)
        again = weierstrass_prepare(form.reconstruct())
        assert form.same_characteristic_element(again)
        assert again.unit.agrees_with(form.unit)


def test_equality_at_precision():
    a = series(7, [1, 7, 49], 3, 3)
    b = series(7, [1 + 49, 7], 2, 2)
    assert a.agrees_with(b)
    assert not a.agrees_with(series(7, [2, 7], 2, 2))


def test_shift_and_p_power_division():
    g = series(7, [0, 0, 14, 7], 3, 4)
    shifted = g.shift_down(2)
    assert shifted.coeffs == (14, 7)
    assert shifted.trunc_degree == 2
    divided = shifted.divide_p_power(1)
    assert divided.coeffs == (2, 1)
    assert divided.coeff_precision == 2
    with pytest.raises(InputError):
        g.shift_down(3)
    with pytest.raises(InputError):
        g.divide_p_power(2)
    assert min_coeff_valuation(g) == 1


def test_json_roundtrip():
    g = series(7, [1, 0, 42], 8, 20)
    doc = g.to_json()
    assert doc == {"p": 7, "N": 8, "D": 20, "coeffs": list(g.coeffs)}
    assert LambdaSeries.from_json(doc) == g
    with pytest.raises(InputError, match="malformed series"):
        LambdaSeries.from_json({"p": 7})


def test_series_documents_share_one_reader():
    expected = LambdaSeries.from_json({"p": 7, "N": 8, "D": 8, "coeffs": [7, 1] + [0] * 6})
    assert series_from_doc(expected.to_json()) == expected
    assert series_from_doc({"p": 7, "N": 8, "D": 8, "poly": "T+7"}) == expected
    assert series_from_doc("T+7", {"p": 7, "N": 8, "D": 8}) == expected
    # an entry's own keys override the enclosing document's, which override 16/32
    assert series_from_doc({"poly": "T+7"}, {"p": 7, "N": 8, "D": 8}) == expected
    assert series_from_doc({"poly": "T", "D": 8}, {"p": 7, "D": 4}).trunc_degree == 8
    default = series_from_doc("T", {"p": 7})
    assert (default.coeff_precision, default.trunc_degree) == (16, 32)
    for bad in (5, None, [1], {"p": 7}, {"p": 7, "poly": 5}, "T", {"p": 7, "poly": "T", "N": 0},
                {"p": 7, "N": 2, "D": 2, "coeffs": 5},
                {"p": 7, "N": -1, "D": 2, "poly": "7^400*T+1"}):
        with pytest.raises(InputError, match="malformed series document"):
            series_from_doc(bad)
    for p in (0, 1, -7):
        with pytest.raises(InputError, match="not prime"):
            series_from_doc({"p": p, "N": 1, "D": 2, "coeffs": [1, 1]})


def test_series_numbers_must_be_json_integers():
    good = {"p": 7, "N": 3, "D": 2, "coeffs": [1, 1]}
    for field, value in (("N", 3.7), ("D", 2.0), ("p", "7"), ("N", True)):
        with pytest.raises(InputError, match=f"'{field}' must be a JSON integer"):
            LambdaSeries.from_json({**good, field: value})
    for coeffs in ([1.9, 1], [1, True], ["1", 0]):
        with pytest.raises(InputError, match="'coeffs' must be a JSON integer"):
            LambdaSeries.from_json({**good, "coeffs": coeffs})
    with pytest.raises(InputError, match="'N' must be a JSON integer"):
        series_from_doc({"p": 7, "poly": "T", "N": "abc"})
    # file-level numbers of module and Akashi documents, whatever the entries' form
    for cls, key in ((TorsionModule, "generators"), (AkashiData, "char_elements")):
        for field, value in (("p", 7.0), ("N", 8.5), ("D", False)):
            with pytest.raises(InputError, match=f"'{field}' must be a JSON integer"):
                cls.from_json({"p": 7, key: [good], field: value})


_TEXT = st.text(alphabet="T0123456789+-*^() x", max_size=10) | st.text(max_size=4)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | _TEXT,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(["p", "N", "D", "coeffs", "poly"])
                                     | st.text(max_size=2), inner, max_size=5)),
    max_leaves=10)


def _mostly(good):
    """Draws from ``good`` seven times in eight, otherwise any JSON value."""
    return st.integers(0, 7).flatmap(lambda k: _JSON if k == 3 else good)


# Mostly-well-formed documents, so that the accepting paths are reached too,
# with the edge values 0, 1 and negatives among the numbers.
_PRIME = _mostly(st.sampled_from([2, 3, 5, 7, 0, 1, 4, -7]))
_SIZE = _mostly(st.integers(-1, 12))
_POLY = _mostly(st.sampled_from(["T", "T+7", "T*(T-7)", "49", "3*T^2+T", "7^400*T+1"]) | _TEXT)
_COEFFS = _mostly(st.lists(_mostly(st.integers(0, 400)), max_size=12))
_SHAPE = {"p": _PRIME, "N": _SIZE, "D": _SIZE}
_ENTRY = st.one_of(st.fixed_dictionaries({**_SHAPE, "coeffs": _COEFFS}),
                   st.fixed_dictionaries({**_SHAPE, "poly": _POLY}),
                   st.fixed_dictionaries({}, optional={**_SHAPE, "coeffs": _COEFFS,
                                                       "poly": _POLY}),
                   _POLY)
_OUTER = st.fixed_dictionaries({"p": _PRIME}, optional={"N": _SIZE, "D": _SIZE})


@settings(max_examples=200, deadline=None)
@given(_ENTRY, _OUTER, st.lists(_ENTRY, min_size=1, max_size=3))
def test_any_json_value_gives_a_series_or_an_input_error(entry, outer, entries):
    modules = [{**outer, "generators": entries}, {**outer, "char_elements": entries}]
    attempts = [lambda: series_from_doc(entry, outer), lambda: series_from_doc(entry),
                lambda: LambdaSeries.from_json(entry),
                lambda: TorsionModule.from_json(modules[0]),
                lambda: AkashiData.from_json(modules[1]),
                lambda: TorsionModule.from_json(entry), lambda: AkashiData.from_json(entry)]
    for attempt in attempts:
        try:
            result = attempt()
        except (InputError, PrecisionError):
            continue
        assert isinstance(result, (LambdaSeries, TorsionModule, AkashiData))


def test_polynomial_text_parsing():
    assert polynomial_from_text("T^2") == [0, 0, 1]
    assert polynomial_from_text("T*(T-7)") == [0, -7, 1]
    assert polynomial_from_text("(1+T)^2") == [1, 2, 1]
    assert polynomial_from_text("-3") == [-3]
    assert polynomial_from_text("7 + T") == [7, 1]
    g = series_from_text(7, "T*(T-7)", 8, 12)
    assert g.coeffs[:3] == (0, 7 ** 8 - 7, 1)
    for bad in ("T/2", "__import__('os')", "T^T", "x + 1", "T^(2+2)", "True", "T\x00",
                "9" * 5000, "-" * 5000 + "T", "+".join(["T"] * 5000)):
        with pytest.raises(InputError):
            polynomial_from_text(bad)


def test_construction_validation():
    assert LambdaSeries(7, 2, (0, 0, 0)).trunc_degree == 3
    with pytest.raises(InputError):
        LambdaSeries(7, 0, (0, 0, 0))
    with pytest.raises(InputError, match="truncation degree"):
        LambdaSeries(7, 2, ())
    with pytest.raises(InputError):
        LambdaSeries(7, 1, (7, 0))


def test_weierstrass_form_invariants_enforced():
    from eulerchar.lambda_algebra import WeierstrassForm
    unit = series(7, [1, 7], 3, 6)
    form = WeierstrassForm(0, (7, 1), unit)  # valid
    assert (form.prime, form.precision, form.lam) == (7, 3, 1)
    with pytest.raises(InputError, match="nonnegative"):
        WeierstrassForm(-1, (7, 1), unit)
    for poly in ((), (7, 2)):
        with pytest.raises(InputError, match="monic"):
            WeierstrassForm(0, poly, unit)
    with pytest.raises(InputError, match="unit coefficient"):
        WeierstrassForm(0, (3, 1), unit)
    with pytest.raises(InputError, match="constant term divisible"):
        WeierstrassForm(0, (7, 1), series(7, [7, 1], 3, 6))
