import random
from itertools import combinations, permutations, product

import pytest

from eulerchar import gamma_modules
from eulerchar.errors import InputError, PrecisionError
from eulerchar.gamma_modules import (ChiResult, TorsionModule, companion_matrix,
                                     finite_level_oracle, generalized_chi,
                                     smith_normal_form)
from eulerchar.lambda_algebra import LambdaSeries, series_from_text
from eulerchar.padics import PowerOfP
from test_lambda_algebra import random_unit


def module(p, *polys, precision=8, degree=16):
    gens = tuple(series_from_text(p, text, precision, degree) for text in polys)
    return TorsionModule(p, gens)


# -- closed form --------------------------------------------------------------


def test_chi_of_unit_times_t():
    # Lambda/(u*T) with u a unit: finite, chi = 1, r = 1
    result = generalized_chi(module(7, "T*(1+7*T)"))
    assert result == ChiResult(True, PowerOfP(7, 0), 1)


def test_chi_of_t_squared_is_infinite():
    assert generalized_chi(module(7, "T^2")) == ChiResult(finite=False)


def test_chi_of_t_times_t_minus_7():
    result = generalized_chi(module(7, "T*(T-7)"))
    assert result == ChiResult(True, PowerOfP(7, 1), 1)


def test_chi_of_t_minus_7():
    # g(0) != 0: finite invariants and coinvariants, r = 0
    result = generalized_chi(module(7, "T-7"))
    assert result == ChiResult(True, PowerOfP(7, 1), 0)


def test_chi_multi_generator():
    result = generalized_chi(module(7, "T*(T-7)", "T-7", "1+T"))
    assert result == ChiResult(True, PowerOfP(7, 2), 1)


def test_zero_generator_rejected():
    zero = LambdaSeries.make(7, [0, 49], 2, 4)
    with pytest.raises(PrecisionError, match="indistinguishable from zero"):
        TorsionModule(7, (zero,))


# -- Smith normal form --------------------------------------------------------


def test_smith_form_hand_example():
    # companion matrix of T(T-7), worked by hand: divisors 1 and ~0
    mat = companion_matrix((0, 7 ** 10 - 7, 1), 7, 10)
    assert mat == [[0, 0], [1, 7]]
    assert smith_normal_form(mat, 7, 10) == [0, 10]
    # with the T-kernel's basis P/T = T - 7 beside it, the divisors are 1 and 7
    assert smith_normal_form([[0, 0, 7 ** 10 - 7], [1, 7, 1]], 7, 10) == [0, 1]


def _det(mat):
    """Integer determinant by the Leibniz formula (matrices here are at most 5x5)."""
    n = len(mat)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i) if perm[j] > perm[i])
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term *= mat[i][perm[i]]
        total += term
    return total


def _vp_capped(n, p, w):
    v = 0
    while v < w and n % p == 0:
        n //= p
        v += 1
    return v


def test_smith_form_diagonalizes():
    # Determinantal divisors: e_0 + ... + e_(k-1) is the least v_p over all
    # k x k minors, a characterization independent of the elimination.  Random
    # matrices, then the oracle's augmented matrices [C | P/T].
    rng = random.Random(5)
    cases = []
    for _ in range(60):
        p = rng.choice([3, 5, 7])
        w = rng.randint(2, 6)
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        cases.append((p, w, [[rng.randrange(p ** w) for _ in range(cols)] for _ in range(rows)]))
    for _ in range(100):
        p, w, lam = rng.choice([2, 3, 5, 7]), rng.randint(1, 6), rng.randint(1, 4)
        poly = (0,) + tuple(p * rng.randrange(p ** w) for _ in range(lam - 1)) + (1,)  # P(0) = 0
        cases.append((p, w, [row + [poly[k + 1]]
                             for k, row in enumerate(companion_matrix(poly, p, w))]))
    for p, w, mat in cases:
        rows, cols = len(mat), len(mat[0])
        exps = smith_normal_form(mat, p, w)
        assert exps == sorted(exps)
        assert len(exps) == min(rows, cols)
        for k in range(1, min(rows, cols) + 1):
            least = min(_vp_capped(_det([[mat[i][j] for j in cs] for i in rs]), p, w)
                        for rs in combinations(range(rows), k)
                        for cs in combinations(range(cols), k))
            assert min(w, sum(exps[:k])) == least


def test_t_kernel_is_spanned_by_p_over_t():
    """For the companion matrix C of a monic P with P(0) = 0, the vectors that C kills mod
    p^w are exactly the multiples of P/T, by brute force over every vector, p^w <= 27."""
    rng = random.Random(11)
    for p, w in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1)]:
        q = p ** w
        for lam in (1, 2, 3):
            for _ in range(2):
                poly = (0,) + tuple(rng.randrange(q) for _ in range(lam - 1)) + (1,)
                mat = companion_matrix(poly, p, w)
                killed = {x for x in product(range(q), repeat=lam)
                          if all(sum(c * y for c, y in zip(row, x)) % q == 0 for row in mat)}
                assert killed == {tuple(c * y % q for y in poly[1:]) for c in range(q)}


# -- finite-level oracle --------------------------------------------------------


def test_oracle_hand_example():
    result = finite_level_oracle(module(7, "T*(T-7)"), 10)
    assert result == ChiResult(True, PowerOfP(7, 1), 1)


def test_oracle_runs_one_smith_form_per_generator(count_calls):
    """With P(0) != 0 the T-kernel is 0, and the oracle's one Smith form is of C; with
    P(0) = 0 the kernel is spanned by P/T, and its one Smith form is of [C | P/T]."""
    forms = count_calls(gamma_modules, "smith_normal_form")
    assert finite_level_oracle(module(7, "T+7"), 10) == ChiResult(True, PowerOfP(7, 1), 0)
    assert [(len(mat), len(mat[0])) for mat, _, _ in forms] == [(1, 1)]
    forms.clear()
    assert finite_level_oracle(module(7, "T*(T-7)"), 10) == ChiResult(True, PowerOfP(7, 1), 1)
    assert forms == [([[0, 0, 7 ** 8 - 7], [1, 7, 1]], 7, 8)]  # w = N = 8, P/T = T - 7


def test_oracle_lambda_over_t():
    # multiplication by T is the zero map on a rank-1 lattice; the
    # evaluation map is an isomorphism, so chi = 1
    result = finite_level_oracle(module(7, "T"), 10)
    assert result == ChiResult(True, PowerOfP(7, 0), 1)


def test_oracle_t_squared_infinite():
    assert finite_level_oracle(module(7, "T^2"), 10) == ChiResult(finite=False)


def test_oracle_handles_p_power_scaling():
    # 7T: the torsion factor contributes the extra 7
    result = finite_level_oracle(module(7, "7*T"), 10)
    assert result == ChiResult(True, PowerOfP(7, 1), 1)
    assert result == generalized_chi(module(7, "7*T"))


def test_oracle_refuses_pure_p_power_component():
    with pytest.raises(InputError, match="not oracle-representable"):
        finite_level_oracle(module(7, "49"), 10)


def test_oracle_rejects_unusable_precision():
    with pytest.raises(InputError, match="precision_exponent must be >= 1, got 0"):
        finite_level_oracle(module(7, "T"), 0)


def test_oracle_demands_precision_beyond_deep_constants():
    # T - 7^4: at level 7^3 the constant term is invisible and the lattice
    # looks like Lambda/(T); the oracle must refuse rather than be wrong.
    deep = module(7, "T-2401")
    with pytest.raises(PrecisionError, match="raise precision"):
        finite_level_oracle(deep, 3)
    # the error names the generator and the level w
    with pytest.raises(PrecisionError, match="generator 1, w = 3: T-kernel undetermined; "
                                             "raise precision"):
        finite_level_oracle(module(7, "T", "T-2401"), 3)
    assert finite_level_oracle(deep, 12) == generalized_chi(deep)
    assert finite_level_oracle(deep, 12) == ChiResult(True, PowerOfP(7, 4), 0)


def test_oracle_demands_precision_for_large_finite_chi():
    # T(T - 7^3) has chi = 7^3: certifiable at level 7^8, not at 7^3.
    big = module(7, "T*(T-343)")
    with pytest.raises(PrecisionError, match="raise precision"):
        finite_level_oracle(big, 3)
    with pytest.raises(PrecisionError, match="generator 1, w = 3: evaluation map undetermined; "
                                             "raise precision"):
        finite_level_oracle(module(7, "1+T", "T*(T-343)"), 3)
    assert finite_level_oracle(big, 12) == ChiResult(True, PowerOfP(7, 3), 1)
    assert finite_level_oracle(big, 12) == generalized_chi(big)
    # genuine non-finiteness is still reported, even at low precision
    assert finite_level_oracle(module(7, "T^2"), 3) == ChiResult(finite=False)


def test_oracle_unit_generator_contributes_nothing():
    result = finite_level_oracle(module(7, "1+T", "T-7"), 10)
    assert result == ChiResult(True, PowerOfP(7, 1), 0)


def test_oracle_total_lambda_cap():
    big = module(7, *(["T^2+7"] * 33), degree=8)
    with pytest.raises(InputError, match="lattice rank"):
        finite_level_oracle(big, 6)


def random_normal_form_module(rng, p, precision, degree):
    """A direct sum of one to three Lambda/(T^n * f), n <= 1, with v_p(f(0)) <= 2 and f of
    degree at most 4, each oracle-representable."""
    gens = []
    for _ in range(rng.randint(1, 3)):
        n = rng.randint(0, 1)
        deg_f = rng.randint(0, 4)
        v0 = rng.choice([0, 0, 0, 1, 2]) if deg_f >= 1 else 0
        unit = random_unit(rng, p ** precision, p)
        f = [rng.randrange(p ** precision) for _ in range(deg_f + 1)]
        f[0] = (unit * p ** v0) % p ** precision
        if v0 > 0:
            # keep the component oracle-representable: a unit coefficient
            pos = rng.randint(1, deg_f)
            f[pos] = random_unit(rng, p ** precision, p)
        gens.append(LambdaSeries.make(p, [0] * n + f, precision, degree))
    return TorsionModule(p, tuple(gens))


def test_module_json_roundtrip():
    m = module(7, "T*(T-7)", "T-7")
    doc = m.to_json()
    assert TorsionModule.from_json(doc) == m
    from_strings = TorsionModule.from_json(
        {"p": 7, "N": 8, "D": 16, "generators": ["T*(T-7)", "T-7"]})
    assert from_strings == m
    with pytest.raises(InputError, match="malformed module"):
        TorsionModule.from_json({"p": 7})
