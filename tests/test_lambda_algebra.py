import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerchar import lambda_algebra
from eulerchar.akashi import AkashiData, akashi_series, check_multiplicativity
from eulerchar.errors import InputError, PrecisionError
from eulerchar.gamma_modules import TorsionModule
from eulerchar.lambda_algebra import (LambdaSeries, _invert_unit, _kronecker, distinguished_part,
                                      leading_term, mu_lambda,
                                      polynomial_from_text, series_from_text,
                                      weierstrass_prepare)
from eulerchar.padics import int_valuation


def series(p, coeffs, n, d):
    return LambdaSeries.make(p, coeffs, n, d)


def convolution(a, b, d):
    """The first d coefficients of a*b over Z, not reduced."""
    out = [0] * d
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < d:
                out[i + j] += x * y
    return tuple(out)


# Independent oracle for products: plain convolution over Z, reduced afterwards.
def naive_product(p, a, b, n, d):
    return tuple(c % p ** n for c in convolution(a, b, d))


@pytest.fixture
def residue_operands(monkeypatch):
    """Wraps the product kernel for the test so that each call asserts its contract:
    every operand coefficient is a residue in [0, m), as the slot width assumes."""
    kernel = lambda_algebra._kronecker

    def checked(a, b, d, m):
        assert all(0 <= c < m for c in a) and all(0 <= c < m for c in b), (a, b, m)
        return kernel(a, b, d, m)

    monkeypatch.setattr(lambda_algebra, "_kronecker", checked)


def agrees_with(a, b):
    """Equality of two series at their shared precision (min N, min D)."""
    m = a.prime ** min(a.coeff_precision, b.coeff_precision)
    return a.prime == b.prime and all((x - y) % m == 0 for x, y in zip(a.coeffs, b.coeffs))


def reconstruct(form):
    """p^mu * P * U from a Weierstrass form, at the precision (N, D) of the prepared input."""
    p, n, pe = form.prime, form.precision, form.prime ** form.mu
    prod = naive_product(p, form.distinguished_poly, form.unit.coeffs, n, form.unit.trunc_degree)
    return LambdaSeries(p, n + form.mu, tuple(c * pe for c in prod))


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


def random_coeffs(rng, p, n, d, density):
    """d coefficients mod p^n, each nonzero only with probability ``density``."""
    return [rng.randrange(p ** n) if rng.random() < density else 0 for _ in range(d)]


def test_multiplication_matches_oracle_on_random_inputs(residue_operands):
    rng = random.Random(11)
    cases = []
    for trial in range(100):
        p = rng.choice([3, 5, 7])
        (na, da), (nb, db) = [(rng.randint(2, 6), rng.randint(3, 12)) for _ in range(2)]
        a = random_coeffs(rng, p, na, da, 1 if trial % 2 else 0.2)  # odd trials: mostly zero
        cases.append((p, a, na, da, random_coeffs(rng, p, nb, db, 1), nb, db))
    cases += [
        (7, [0] * 9, 4, 9, random_coeffs(rng, 7, 4, 9, 1), 4, 9),  # an all-zero operand
        (5, [3], 3, 1, [4, 2], 2, 2),  # D = 1
        # unequal N: a's coefficients pass b's p^N
        (3, random_coeffs(rng, 3, 40, 12, 1), 40, 12, random_coeffs(rng, 3, 2, 15, 1), 2, 15),
    ]
    for p, a, na, da, b, nb, db in cases:
        got = series(p, a, na, da) * series(p, b, nb, db)
        n, d = min(na, nb), min(da, db)
        assert (got.coeff_precision, got.trunc_degree) == (n, d)
        assert got.coeffs == naive_product(p, a, b, n, d)
    # p^N = 2^6000, near the 10^2000 bound: past the cost bound for a series, so the
    # kernel is called on residues directly, and returns the convolution's raw sums
    a, b = random_coeffs(rng, 2, 6000, 24, 1), [2 ** 6000 - 1] * 24
    assert tuple(_kronecker(a, b, 24, 2 ** 6000)) == convolution(a, b, 24)


def operand(rng, m, length):
    """``length`` residues mod m with m - 1 among them, or [] for length 0."""
    out = [rng.randrange(m) for _ in range(length)]
    if out:
        out[rng.randrange(length)] = m - 1
    return out


def widest_modulus(d, w):
    """The largest m whose slot bound d * m * m fits in w bytes."""
    return math.isqrt((2 ** (8 * w) - 1) // d)


def test_kronecker_routes_match_the_oracle(monkeypatch):
    """The slot width comes from (d, m): slots of up to 8 bytes are packed, and read
    back, with one struct.Struct per operand and one for the result; wider slots, and
    operands past 2 KiB whose slots are widened by more than a byte, one coefficient
    at a time.  Both routes return the convolution's raw sums at every width step and
    at the cap."""
    packed = []

    class Recording:
        """Stands in for the kernel's Struct cache: builds each packer afresh and
        records its struct code, so that every call shows its route."""

        def __getitem__(self, key):
            packed.append(key[1])
            return struct.Struct("<%d%s" % key)

    monkeypatch.setattr(lambda_algebra, "_STRUCTS", Recording())
    slot = {1: (1, "B"), 2: (2, "H"), 3: (4, "I"), 4: (4, "I"),
            5: (8, "Q"), 6: (8, "Q"), 7: (8, "Q"), 8: (8, "Q")}  # width: (s, struct code)
    rng = random.Random(18)
    cases = []  # (a, b, d, m, slot width in bytes)
    for w in range(1, 10):
        # the widest m in w bytes, with every coefficient m - 1 so that a sum meets the
        # bound, and the next m, in w + 1
        m = widest_modulus(3, w)
        cases.append(([m - 1] * 3, [m - 1] * 3, 3, m, w))
        cases.append((operand(rng, m + 1, 3), operand(rng, m + 1, 3), 3, m + 1, w + 1))
    for w in (1, 9):  # each edge on both routes
        m1, m5, m8 = (widest_modulus(d, w) for d in (1, 5, 8))
        cases += [([], operand(rng, m5, 5), 5, m5, w), ([m1 - 1], [1], 1, m1, w),
                  (operand(rng, m8, 2), operand(rng, m8, 1), 8, m8, w)]
    # slots widened by one byte and by more at d * s = 2048 and at the next d, slots
    # widened by one byte at the largest D, and unwidened slots past 2 KiB
    for w, d in ((3, 512), (3, 513), (5, 256), (5, 257), (6, 257), (7, 256), (7, 257),
                 (3, 1024), (7, 1024), (2, 1024), (8, 300)):
        m = widest_modulus(d, w)
        cases.append((operand(rng, m, d), operand(rng, m, d), d, m, w))
    routes = set()
    for a, b, d, m, w in cases:
        assert ((d * m * m).bit_length() + 7) // 8 == w
        s, want = slot.get(w, (0, None))
        if s - w > 1 and d * s > 2048:
            want = None
        packed.clear()
        got = lambda_algebra._kronecker(a, b, d, m)
        assert tuple(got) == convolution(a, b, d)
        assert packed == ([want] * 3 if want else [])
        routes.add(want)
    assert routes == {"B", "H", "I", "Q", None}


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_invert_unit_is_an_inverse(p, residue_operands):
    """At every length, and on either side of the schoolbook base (16 terms) and of the
    first Newton round (32), u * inverse = 1 by the kernel and by plain convolution."""
    rng = random.Random(p)
    shapes = [(1, 1), (1, 9), (3, 16), (12, 40), (30, 64)]
    shapes += [(n, d) for d in (15, 16, 17, 31, 32, 33) for n in (1, 6)]
    for n, d in shapes:
        for density in (1, 0.1):
            coeffs = random_coeffs(rng, p, n, d, density)
            coeffs[0] = p * rng.randrange(p ** (n - 1)) + rng.randrange(1, p)  # a unit
            u = series(p, coeffs, n, d)
            inverse = _invert_unit(u.coeffs, p ** n)
            assert u * LambdaSeries(p, n, tuple(inverse)) == LambdaSeries.one(p, n, d)
            assert naive_product(p, u.coeffs, inverse, n, d) == (1,) + (0,) * (d - 1)


def test_precision_min_rule():
    a = series(7, [1, 2, 3], 5, 3)
    b = series(7, [6, 5], 2, 2)
    c = a * b
    assert (c.coeff_precision, c.trunc_degree) == (2, 2)
    assert c.coeffs == (6, 17)  # 6 and 1*5 + 2*6, mod 7^2 and T^2


def test_prime_mismatch_errors():
    with pytest.raises(InputError, match="^prime mismatch: a product of a series at "
                                         "p = 5 and one at p = 7$"):
        series(5, [1], 3, 3) * series(7, [1], 3, 3)
    with pytest.raises(InputError, match="at p = 7 and one at p = 2$"):
        series(7, [1, 1], 4, 3) * series(2, [1], 3, 5)


def test_prepare_unit_series():
    g = series(7, [1, 1], 4, 6)  # 1 + T
    form = weierstrass_prepare(g)
    assert (form.mu, form.lam) == (0, 0)
    assert form.distinguished_poly == (1,)
    assert agrees_with(form.unit, g)
    assert agrees_with(reconstruct(form), g)


def test_prepare_distinguished_input():
    g = series(7, [7, 1], 4, 6)  # T + 7, already distinguished
    form = weierstrass_prepare(g)
    assert (form.mu, form.lam) == (0, 1)
    assert form.distinguished_poly == (7, 1)
    assert agrees_with(form.unit, LambdaSeries.one(7, 4, 6))
    assert agrees_with(reconstruct(form), g)


def test_prepare_full_factorization():
    # 7 * (T+7) * (1+7T) = 49 + 350T + 49T^2
    g = series(7, [49, 350, 49], 4, 8)
    form = weierstrass_prepare(g)
    assert (form.mu, form.lam) == (1, 1)
    assert form.distinguished_poly == (7, 1)
    assert agrees_with(form.unit, series(7, [1, 7], 3, 8))
    assert agrees_with(reconstruct(form), g)


def naive_inverse(p, u, n):
    """1/u mod (p^n, T^len(u)), one coefficient at a time."""
    inv0 = pow(u[0], -1, p ** n)
    out = [inv0]
    for k in range(1, len(u)):
        out.append(-inv0 * sum(u[j] * out[k - j] for j in range(1, k + 1)) % p ** n)
    return out


def naive_prepare(p, coeffs, n):
    """(mu, P, U) by the division loop with two schoolbook products per round."""
    d = len(coeffs)
    mu = min(int_valuation(c, p) for c in coeffs if c)
    n, h = n - mu, [c // p ** mu for c in coeffs]
    m, lam = p ** n, next(i for i, c in enumerate(h) if c % p)
    h_low = h[:lam] + [0] * (d - lam)
    h_high_inv = naive_inverse(p, h[lam:] + [0] * lam, n)
    quotient, poly, high = [0] * d, [0] * lam, [1] + [0] * (d - 1)
    while any(high):
        q = naive_product(p, high, h_high_inv, n, d)
        quotient = [(a + b) % m for a, b in zip(quotient, q)]
        hq = naive_product(p, h_low, q, n, d)
        poly = [(a + b) % m for a, b in zip(poly, hq)]
        high = [-c % m for c in hq[lam:]] + [0] * lam
    return mu, tuple(poly) + (1,), tuple(naive_inverse(p, quotient, n))


def assert_prepared(form, g):
    """The facts weierstrass_prepare guarantees for g = p^mu * P * U, checked from g itself."""
    p = g.prime
    mu = min(int_valuation(c, p) for c in g.coeffs if c)  # mu is a minimum of valuations
    lam = next(i for i, c in enumerate(g.coeffs) if c and int_valuation(c, p) == mu)
    assert (form.mu, form.lam, form.prime, form.precision) == (mu, lam, p, g.coeff_precision - mu)
    assert form.distinguished_poly[-1] == 1  # P is monic of degree lambda
    assert all(c % p == 0 for c in form.distinguished_poly[:-1])  # and distinguished
    # P = T^lambda mod p, so U(0) = g_lambda / p^mu mod p, a unit
    assert form.unit.coeffs[0] % p == g.coeffs[lam] // p ** mu % p != 0


def assert_lifted(form, g):
    """weierstrass_prepare's result for g against naive_prepare, at the precision g fixes.

    p^mu * P * U = g mod (p^N, T^D), checked from g.  As T^D lies in (p^(D // lambda), P),
    the factorization fixes P only mod p^min(N - mu, D // lambda), all of it when
    D >= lambda * (N - mu), and U's T^i coefficient mod
    p^min(N - mu - v_p(P(0)), (D - i) // lambda).  Returns the oracle's (mu, P, U).
    """
    p, n, d = g.prime, g.coeff_precision, g.trunc_degree
    assert_prepared(form, g)
    assert agrees_with(reconstruct(form), g)
    mu, poly, unit = naive_prepare(p, g.coeffs, n)
    lam, w = form.lam, n - mu

    def agree(a, b, digits):
        return all((x - y) % p ** digits == 0 for x, y in zip(a, b))

    assert agree(form.distinguished_poly, poly, min(w, d // lam) if lam else w)
    if d >= lam * w:
        assert form.distinguished_poly == poly
    v = int_valuation(poly[0], p) if poly[0] else w
    assert all(agree([x], [y], min(w - v, (d - i) // lam) if lam else w)
               for i, (x, y) in enumerate(zip(form.unit.coeffs, unit)))
    return mu, poly, unit


def random_prepared_input(rng, p, n, d, lam, mu):
    """A dense series at (N, D) = (n, d) with the given lambda and mu."""
    coeffs = random_coeffs(rng, p, n, d, 1)
    coeffs[:lam] = [p * c for c in coeffs[:lam]]
    coeffs[lam] = p * rng.randrange(p ** n) + rng.randrange(1, p)  # a unit
    return series(p, [c * p ** mu for c in coeffs], n, d)


def random_preparable(rng, p, n, d, max_mu=2):
    """A dense series at (N, D) = (n, d), n >= 2, with lambda drawn below min(6, d) and mu
    at most min(max_mu, n - 2)."""
    return random_prepared_input(rng, p, n, d, rng.randrange(min(6, d)),
                                 rng.randint(0, min(max_mu, n - 2)))


def random_unit(rng, modulus, p):
    """A residue in [1, modulus) prime to p: a unit mod ``modulus``, a power of p."""
    unit = rng.randrange(1, modulus)
    while unit % p == 0:
        unit = rng.randrange(1, modulus)
    return unit


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_prepare_matches_the_two_product_loop(p):
    rng = random.Random(100 + p)
    shapes = [(n, d, None) for n, d in [(1, 1), (3, 5), (6, 12), (10, 24), (16, 40)]]
    # N - mu = 1, so the first round works mod p^0; N = 2 with mu = 1; 24 rounds
    shapes += [(5, 9, 4), (2, 6, 1), (24, 48, 0)]
    for n, d, mu in shapes:
        for lam in sorted({0, d // 2, d - 1}):
            g = random_prepared_input(rng, p, n, d, lam, rng.randint(0, n - 1) if mu is None else mu)
            assert_lifted(weierstrass_prepare(g), g)


@pytest.mark.parametrize("p", [2, 7])
def test_division_rounds_run_at_shrinking_precision(p, count_calls):
    """At (N, D) = (24, 48) and mu = 0, round k's product is taken mod p^(23 - k),
    with G' reduced to that modulus."""
    g = random_prepared_input(random.Random(p), p, 24, 48, 5, 0)
    calls = count_calls(lambda_algebra, "_kronecker")
    part = distinguished_part(g)
    assert all(max(b) < m for _, b, _, m in calls)
    assert [m for *_, m in calls][-23:] == [p ** (23 - k) for k in range(23)]
    assert part.distinguished_poly == naive_prepare(p, g.coeffs, 24)[1]


@pytest.mark.parametrize("n, d, lam, mu", [(24, 48, 5, 0), (10, 48, 3, 2), (6, 12, 4, 1)])
def test_distinguished_part_rounds_run_at_the_length_p_needs(n, d, lam, mu, monkeypatch):
    """Round k >= 1's product is on min(D, lambda * (n - 1 - k)) terms, n = N - mu, and
    1/h_high is formed mod T^min(D, lambda * (n - 1)), once; the lifting of the same
    input agrees with the oracle at the precision the input fixes."""
    lengths, inverted = [], []  # d of each product outside an inversion; len of each inverse
    kronecker, invert = lambda_algebra._kronecker, lambda_algebra._invert_unit

    def recorded(a, b, d, m):
        lengths.append(d)
        return kronecker(a, b, d, m)

    def recorded_inverse(c, m):
        inverted.append(len(c))
        mark = len(lengths)
        out = invert(c, m)
        del lengths[mark:]
        return out

    g = random_prepared_input(random.Random(n), 7, n, d, lam, mu)
    monkeypatch.setattr(lambda_algebra, "_kronecker", recorded)
    monkeypatch.setattr(lambda_algebra, "_invert_unit", recorded_inverse)
    rounds = n - mu - 1
    distinguished_part(g)
    # 1/h_high, G' on its length, then the rounds from 1: round 0's product is -G' itself
    assert inverted == [min(d, lam * rounds)]
    assert lengths == [min(d, lam * rounds)] + [min(d, lam * (rounds - k))
                                                for k in range(1, rounds)]
    assert_lifted(weierstrass_prepare(g), g)


@pytest.mark.parametrize("n, mu", [(24, 0), (9, 1), (17, 0), (5, 3), (3, 1), (4, 3)])
def test_lifting_runs_ceil_log2_steps(n, mu, monkeypatch):
    """weierstrass_prepare lifts from p to p^(N - mu) in ceil(log2(N - mu)) steps, each
    step k -> k2 = min(2k, N - mu) forming P * U mod p^k2 and its division mod p^(k2 - k)."""
    p, d, lam = 5, 30, 3
    moduli, kronecker = [], lambda_algebra._kronecker

    def recorded(a, b, d, m):
        moduli.append(m)
        return kronecker(a, b, d, m)

    def unrecorded(run):
        def call(*args):
            mark = len(moduli)
            out = run(*args)
            del moduli[mark:]
            return out
        return call

    g = random_prepared_input(random.Random(n), p, n, d, lam, mu)
    monkeypatch.setattr(lambda_algebra, "_kronecker", recorded)
    monkeypatch.setattr(lambda_algebra, "_invert_unit", unrecorded(lambda_algebra._invert_unit))
    monkeypatch.setattr(lambda_algebra, "_newton_step", unrecorded(lambda_algebra._newton_step))
    form = weierstrass_prepare(g)
    steps, k = [], 1
    while k < n - mu:
        steps.append((k, min(2 * k, n - mu)))
        k = steps[-1][1]
    assert len(steps) == math.ceil(math.log2(n - mu))
    # step 1, where P = T^lambda: e * V and q * U; each later step: P * U, then e * V,
    # the reversed quotient, the remainder's q * (P - T^lambda) and q * U
    want = [p, p] if steps else []
    for k, k2 in steps[1:]:
        want += [p ** k2] + [p ** (k2 - k)] * 4
    assert moduli == want
    assert_lifted(form, g)


def test_distinguished_part_matches_full_preparation_on_random_inputs(residue_operands):
    """(mu, P, precision) of the truncated division equal the oracle's, and the lifting
    agrees with the oracle at the precision the input fixes."""
    rng = random.Random(19)
    for trial in range(3000):
        p = rng.choice([2, 3, 5, 7, 11, 13, 101])
        n, d = rng.randint(1, 14), rng.randint(1, 48)
        mu = rng.choice([0, n - 1, rng.randint(0, n - 1)])  # n - mu = 1 and mu > 0 included
        lam = rng.choice([0, d - 1, rng.randint(0, d - 1)])  # lambda = D - 1 included
        g = random_prepared_input(rng, p, n, d, lam, mu)
        if trial % 3 == 0:  # sparse: keep only the unit at T^lambda and a few other terms
            g = series(p, [c if i == lam or rng.random() < 0.2 else 0
                           for i, c in enumerate(g.coeffs)], n, d)
        part = distinguished_part(g)
        assert (part.mu, part.lam, part.precision) == (mu, lam, n - mu)
        assert part.distinguished_poly == assert_lifted(weierstrass_prepare(g), g)[1]


def test_t_lambda_times_a_unit_needs_no_inverse(count_calls):
    """g = p^mu * T^lambda * u, so h_low = 0: P = T^lambda and U = g / (p^mu * T^lambda)
    on both routes, without an inverse; lambda = 0, lambda = D - 1 and N - mu = 1 among
    the shapes."""
    rng, inversions = random.Random(9), count_calls(lambda_algebra, "_invert_unit")
    for p, n, d, lam, mu in [(2, 6, 10, 0, 0), (7, 5, 8, 0, 3), (13, 2, 1, 0, 1),
                             (101, 9, 40, 0, 4), (2, 6, 10, 3, 0), (7, 5, 8, 7, 2),
                             (5, 4, 12, 5, 3), (13, 12, 30, 29, 0), (3, 20, 16, 4, 5)]:
        g = random_prepared_input(rng, p, n, d, lam, mu)
        g = series(p, [0] * lam + list(g.coeffs[lam:]), n, d)
        unit = tuple(c // p ** mu for c in g.coeffs[lam:]) + (0,) * lam
        _, poly, oracle_unit = naive_prepare(p, g.coeffs, n)
        assert poly == (0,) * lam + (1,) and oracle_unit == unit
        form, part = weierstrass_prepare(g), distinguished_part(g)
        assert (form.mu, form.distinguished_poly, form.precision) == (mu, poly, n - mu)
        assert form.unit.coeffs == unit
        assert (part.mu, part.distinguished_poly, part.precision) == (mu, poly, n - mu)
    assert inversions == []


@pytest.mark.parametrize("p", [5, 7, 13])
def test_distinguished_part_matches_full_preparation(p):
    rng = random.Random(200 + p)
    for n, d in [(2, 1), (4, 6), (8, 20), (12, 40)]:
        for lam in sorted({0, d - 1}):
            for e in (0, rng.randint(1, n - 1)):  # mu = e
                g = random_prepared_input(rng, p, n, d, lam, e)
                form, part = weierstrass_prepare(g), distinguished_part(g)
                assert (part.prime, part.mu, part.distinguished_poly, part.precision) == \
                    (form.prime, form.mu, form.distinguished_poly, form.precision)
                assert mu_lambda(g) == (part.mu, part.lam) == (e, lam)
                assert part.same_characteristic_element(form)
                assert not part.same_characteristic_element(form._replace(mu=e + 1))


def test_prepare_reports_zero_series():
    with pytest.raises(PrecisionError, match="indistinguishable from zero"):
        weierstrass_prepare(series(7, [0, 49], 2, 4))  # 49 = 0 mod 7^2
    for read in (distinguished_part, mu_lambda):
        with pytest.raises(PrecisionError, match="indistinguishable from zero"):
            read(series(7, [0, 49], 2, 4))


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
    for coeffs, n, d, mu_lam in (([49], 3, 4, (2, 0)), ([0, 0, 0, 1], 3, 6, (0, 3)),
                                 ([49, 7], 3, 6, (1, 1)),  # 7*(T+7)
                                 ([49, 7, 0, 14, 1, 3], 3, 6, (0, 4))):  # v_7: 2, 1, -, 1, 0, 0
        g = series(7, coeffs, n, d)
        form = weierstrass_prepare(g)
        assert (form.mu, form.lam) == mu_lambda(g) == mu_lam


def test_leading_term_multiplicativity():
    rng = random.Random(23)
    for _ in range(100):
        p = rng.choice([3, 5, 7, 11])
        n, d = rng.randint(3, 8), rng.randint(8, 20)
        g = random_preparable(rng, p, n, d)
        h = random_preparable(rng, p, n, d)
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


def test_preparation_idempotent():
    rng = random.Random(43)
    for _ in range(60):
        p = rng.choice([3, 5, 7, 11])
        g = random_preparable(rng, p, rng.randint(4, 9), rng.randint(10, 30))
        form = weierstrass_prepare(g)
        again = weierstrass_prepare(reconstruct(form))
        assert_prepared(form, g)
        assert_prepared(again, reconstruct(form))
        assert (again.mu, again.lam) == (form.mu, form.lam)
        assert form.same_characteristic_element(again)
        assert agrees_with(again.unit, form.unit)


def test_equality_at_precision():
    a = series(7, [1, 7, 49], 3, 3)
    b = series(7, [1 + 49, 7], 2, 2)
    assert agrees_with(a, b)
    assert not agrees_with(a, series(7, [2, 7], 2, 2))
    assert not agrees_with(a, series(5, [1, 7], 2, 2))


def test_shift_and_p_power_division():
    g = series(7, [0, 0, 14, 7], 3, 4)
    shifted = g.shift_down(2)
    assert shifted.coeffs == (14, 7)
    assert shifted.trunc_degree == 2
    divided = shifted.divide_p_power(1)
    assert divided.coeffs == (2, 1)
    assert divided.coeff_precision == 2
    assert mu_lambda(g) == (1, 2)


def test_json_roundtrip():
    g = series(7, [1, 0, 42], 8, 20)
    doc = g.to_json()
    assert doc == {"p": 7, "N": 8, "D": 20, "coeffs": list(g.coeffs)}
    assert LambdaSeries.from_json(doc) == g
    with pytest.raises(InputError, match="malformed series"):
        LambdaSeries.from_json({"p": 7})


def test_series_documents_share_one_reader():
    expected = LambdaSeries.from_json({"p": 7, "N": 8, "D": 8, "coeffs": [7, 1] + [0] * 6})
    assert LambdaSeries.from_json(expected.to_json()) == expected
    assert LambdaSeries.from_json({"p": 7, "N": 8, "D": 8, "poly": "T+7"}) == expected
    assert LambdaSeries.from_json("T+7", {"p": 7, "N": 8, "D": 8}) == expected
    # an entry's own keys override the enclosing document's, which override 16/32
    assert LambdaSeries.from_json({"poly": "T+7"}, {"p": 7, "N": 8, "D": 8}) == expected
    assert LambdaSeries.from_json({"poly": "T", "D": 8}, {"p": 7, "D": 4}).trunc_degree == 8
    default = LambdaSeries.from_json("T", {"p": 7})
    assert (default.coeff_precision, default.trunc_degree) == (16, 32)
    # a coefficient entry is read by the same rule
    t2 = LambdaSeries.make(7, [0, 0, 1, 0], 3, 4)
    assert LambdaSeries.from_json({"coeffs": [0, 0, 1, 0]}, {"p": 7, "N": 3, "D": 4}) == t2
    assert LambdaSeries.from_json({"coeffs": [0, 0, 1], "D": 8}, {"p": 7, "N": 3, "D": 4}) == \
        LambdaSeries.make(7, [0, 0, 1], 3, 8)
    assert LambdaSeries.from_json({"coeffs": [0, 0, 1]}, {"p": 7}) == \
        LambdaSeries.make(7, [0, 0, 1], 16, 32)
    assert LambdaSeries.from_json({"p": 7, "coeffs": [1]}) == LambdaSeries.make(7, [1], 16, 32)
    module = {"p": 7, "N": 3, "D": 4, "generators": [{"coeffs": [0, 0, 1, 0]}]}
    assert TorsionModule.from_json(module).generators == (t2,)
    for bad in (5, None, [1], {"p": 7}, {"p": 7, "poly": 5}, "T", {"p": 7, "poly": "T", "N": 0},
                {"p": 7, "N": 2, "D": 2, "coeffs": 5},
                {"p": 7, "N": -1, "D": 2, "poly": "7^400*T+1"}):
        with pytest.raises(InputError, match="malformed series document"):
            LambdaSeries.from_json(bad)
    for p in (0, 1, -7):
        with pytest.raises(InputError, match="not prime"):
            LambdaSeries.from_json({"p": p, "N": 1, "D": 2, "coeffs": [1, 1]})


def test_series_numbers_must_be_json_integers():
    good = {"p": 7, "N": 3, "D": 2, "coeffs": [1, 1]}
    for field, value in (("N", 3.7), ("D", 2.0), ("p", "7"), ("N", True)):
        with pytest.raises(InputError, match=f"'{field}' must be a JSON integer"):
            LambdaSeries.from_json({**good, field: value})
    for coeffs in ([1.9, 1], [1, True], ["1", 0]):
        with pytest.raises(InputError, match="'coeffs' must be a JSON integer"):
            LambdaSeries.from_json({**good, "coeffs": coeffs})
    with pytest.raises(InputError, match="'N' must be a JSON integer"):
        LambdaSeries.from_json({"p": 7, "poly": "T", "N": "abc"})
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
    attempts = [lambda: LambdaSeries.from_json(entry, outer), lambda: LambdaSeries.from_json(entry),
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
    for one in ("T^0", "(T+7)^0", "0^0"):
        assert polynomial_from_text(one) == [1]
    assert polynomial_from_text("(-1)^" + "9" * 2000) == [-1]  # a 2000-digit exponent
    # a sum is as long as its longest term, and a product or power as its factors make
    # it, whatever cancels
    assert polynomial_from_text("T - T") == [0, 0]
    assert polynomial_from_text("(T-T)^2") == [0, 0, 0]
    with pytest.raises(InputError, match="degree exceeds parser cap 1024"):
        polynomial_from_text("(T^600 - T^600) * T^600")
    g = series_from_text(7, "T*(T-7)", 8, 12)
    assert g.coeffs[:3] == (0, 7 ** 8 - 7, 1)
    for bad in ("T/2", "__import__('os')", "T^T", "x + 1", "T^(2+2)", "True", "T\x00",
                "9" * 5000, "T^" + "9" * 5000, "-" * 5000 + "T", "+".join(["T"] * 5000)):
        with pytest.raises(InputError):
            polynomial_from_text(bad)
    # a sum is walked without recursing, up to 1024 terms and 1024 unary signs
    assert polynomial_from_text("+".join(["T"] * 1000)) == [0, 1000]
    dense = " + ".join(f"{i + 1}*T^{i}" for i in range(1024))
    assert LambdaSeries.from_json({"p": 7, "N": 4, "D": 1024, "poly": dense}).coeffs == tuple(
        range(1, 1025))
    for bad, message in ((dense + " + 1", "has a sum of more than 1024 terms"),
                         ("-" * 1025 + "T", "has more than 1024 unary signs in a sum")):
        with pytest.raises(InputError, match=message):
            polynomial_from_text(bad)
    # products are read without recursing, up to 1024 factors, and parentheses nest at
    # most 200 deep
    assert polynomial_from_text("*".join(["T"] * 1000)) == [0] * 1000 + [1]
    assert polynomial_from_text("(" * 200 + "T" + ")" * 200) == [0, 1]
    for bad, message in (("*".join(["1"] * 1025), "has a product of more than 1024 factors"),
                         ("(" * 201 + "T" + ")" * 201, "polynomial nested too deeply")):
        with pytest.raises(InputError, match=message):
            polynomial_from_text(bad)


# Texts in the polynomial language: literals, T and t, signs, + - *, ^ and ** with a literal
# exponent, and parentheses, with spaces and tabs between tokens.  Joined as drawn, so a
# product or a power takes a sum's first or last term, and a sign may open a factor.
_SPACE = st.sampled_from(["", " ", "\t"])
POLY_TEXTS = st.recursive(
    st.sampled_from(["T", "t"]) | st.integers(0, 10 ** 6).map(str),
    lambda inner: st.one_of(
        st.tuples(inner, _SPACE, st.sampled_from(["+", "-", "*"]), _SPACE, inner),
        st.tuples(st.sampled_from(["+", "-"]), _SPACE, inner),
        st.tuples(st.just("("), inner, st.just(")")),
        st.tuples(inner, st.sampled_from(["^", "**"]), _SPACE, st.integers(0, 3).map(str)),
    ).map("".join),
    max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(POLY_TEXTS)
def test_polynomial_text_matches_python_evaluation(text):
    """An independent oracle for the parser: Python's own evaluation of the text at T = 0..len.
    A text the parser refuses (a power of a power, or past a cap) raises InputError only."""
    try:
        coeffs = polynomial_from_text(text)
    except InputError:
        return
    for x in range(len(coeffs) + 1):
        assert sum(c * x ** i for i, c in enumerate(coeffs)) == eval(
            text.replace("^", "**"), {"__builtins__": {}}, {"T": x, "t": x})


def test_construction_validation():
    """make is the checked constructor and applies the document rules: integer p, N, D
    and coefficients, p prime, N >= 1, D >= 1, the bounds, and no term past T^(D-1)."""
    assert LambdaSeries.make(7, [], 2, 3) == LambdaSeries(7, 2, (0, 0, 0))
    with pytest.raises(InputError, match="not prime: 6"):
        LambdaSeries.make(6, [1], 2, 3)
    with pytest.raises(InputError, match="'N' and 'D' must be >= 1"):
        LambdaSeries.make(7, [1], 0, 3)
    for degree in (0, -1):  # a negative degree must not cut terms off the end
        with pytest.raises(InputError, match="'N' and 'D' must be >= 1"):
            LambdaSeries.make(7, [1, 2, 3], 4, degree)
    assert LambdaSeries.make(7, [7, 0], 1, 2).coeffs == (0, 0)
    # a zero past T^(D-1) loses nothing; a nonzero term there is refused, not dropped
    assert LambdaSeries.make(7, [1, 2, 0, 0], 4, 2).coeffs == (1, 2)
    for args, message in [
            ((7, [1, 2], 2.0, 3), "'N' must be a JSON integer, got 2.0"),
            ((7, [1, 2], 2, 3.0), "'D' must be a JSON integer, got 3.0"),
            ((True, [1], 2, 3), "'p' must be a JSON integer, got True"),
            ((7, [1, 2.0], 2, 3), "'coeffs' must be a JSON integer, got 2.0"),
            ((7, [1, 2, 3], 4, 2), "a term at T\\^2 exceeds truncation degree D = 2"),
            ((7, [1], 4, 1025), "'D' = 1025 passes the bound 1024"),
            ((7, [1], 2367, 1), "'N' = 2367 makes p\\^N pass the bound 10\\^2000 at p = 7"),
            ((7, [7, 1] + [3] * 400, 300, 1024), "pass the cost bound 4000000")]:
        with pytest.raises(InputError, match=message):
            LambdaSeries.make(*args)


def test_only_make_checks_the_prime(count_calls):
    """Series built from series already made are not checked again."""
    calls = count_calls(lambda_algebra, "check_prime")
    rng = random.Random(3)
    made = [series(7, [0, 0, 7, 14, 49], 6, 12)]  # 7 * T^2 * (1 + 2T + 7T^2)
    assert len(calls) == 1
    for lam, mu in [(0, 0), (3, 1)]:
        made.append(random_prepared_input(rng, 7, 6, 12, lam, mu))
        assert len(calls) == len(made)  # one check per make
    s, g, h = made
    calls.clear()
    assert (s * g).shift_down(2).divide_p_power(1).coeff_precision == 5
    weierstrass_prepare(h)
    distinguished_part(s * h)
    akashi_series(AkashiData(7, (h,)))  # one element: the denominator is the series 1
    akashi_series(AkashiData(7, (s, g, s, s)))  # s^2 / (g*s): shifts by T^2, divides by 7
    check_multiplicativity(AkashiData(7, (g,)), AkashiData(7, (s * g,)), AkashiData(7, (s,)))
    assert calls == []


def test_from_json_checks_the_prime_once(count_calls):
    calls = count_calls(lambda_algebra, "check_prime")
    for entry, outer in [({"p": 7, "N": 4, "D": 8, "coeffs": [7, 1]}, None),
                         ({"p": 7, "N": 4, "D": 8, "poly": "T+7"}, None),
                         ({"coeffs": [7, 1]}, {"p": 7, "N": 4, "D": 8}),
                         ("T+7", {"p": 7, "N": 4, "D": 8})]:
        calls.clear()
        got = LambdaSeries.from_json(entry, outer)
        assert calls == [(7,)]
        assert got.coeffs == (7, 1, 0, 0, 0, 0, 0, 0) and got.coeff_precision == 4
    # the prime is refused before p^N is bounded, in both forms
    for form in ({"coeffs": [1]}, {"poly": "T"}):
        with pytest.raises(InputError, match="not prime: 4"):
            LambdaSeries.from_json({"p": 4, "N": 6000, "D": 1, **form})


def test_a_polynomial_reaches_the_truncation_degree_cap():
    """One degree bound: a polynomial term below D <= 1024 is read, and the parser
    refuses a power past degree 1023 before forming it."""
    got = LambdaSeries.from_json({"p": 7, "N": 4, "D": 1024, "poly": "T^600 + 7"})
    assert got.trunc_degree == 1024
    assert [i for i, c in enumerate(got.coeffs) if c] == [0, 600]
    assert (got.coeffs[0], got.coeffs[600]) == (7, 1)
    with pytest.raises(InputError, match="polynomial degree exceeds parser cap 1024"):
        LambdaSeries.from_json({"p": 7, "N": 4, "D": 32, "poly": "T^2000"})
    with pytest.raises(InputError, match="a term at T\\^40 exceeds truncation degree D = 32"):
        LambdaSeries.from_json({"p": 7, "N": 4, "D": 32, "poly": "T^40 + 1"})


def test_mu_and_lambda_add_below_the_product_precision(count_calls):
    """mu_lambda(a * b) is the sum of the factors' when both sums lie below the
    product's (n, d); at or past it nothing is claimed, and the multiplicativity
    check forms its cross-products instead of reading the sums."""
    products = count_calls(LambdaSeries, "__mul__")
    rng = random.Random(37)
    below = at_n = at_d = 0
    for _ in range(600):
        p = rng.choice([2, 3, 5, 7])
        factors = []
        for _ in range(2):
            n, d = rng.randint(1, 6), rng.randint(1, 8)  # each operand's (N, D) its own
            # half the draws keep mu and lambda small, so most sums stay below (n, d)
            mu, lam = ((rng.randrange(n), rng.randrange(d)) if rng.random() < 0.5
                       else (rng.randrange(min(n, 2)), rng.randrange(min(d, 3))))
            factors.append(random_prepared_input(rng, p, n, d, lam, mu))
            assert mu_lambda(factors[-1]) == (mu, lam)
        a, b = factors
        n = min(a.coeff_precision, b.coeff_precision)
        d = min(a.trunc_degree, b.trunc_degree)
        mu, lam = (x + y for x, y in zip(mu_lambda(a), mu_lambda(b)))
        if mu < n and lam < d:
            below += 1
            assert mu_lambda(a * b) == (mu, lam)
            continue
        at_n, at_d = at_n + (mu == n), at_d + (lam == d)
        products.clear()
        # one element each: the cross-products are b * a and a, formed with 1 * 1 and * 1
        try:
            check_multiplicativity(AkashiData(p, (a,)), AkashiData(p, (a,)), AkashiData(p, (b,)))
        except PrecisionError:
            pass
        assert len(products) == 4
    assert below >= 200 and at_n >= 10 and at_d >= 10
