import inspect
import random
from itertools import combinations, permutations

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
    exps, v = smith_normal_form(mat, 7, 10)
    assert exps == [0, 10]
    # V's column multiplier is (unit_inv * a % p^w) // p^e, here (5 * 3 % 9) // 3 = 2; one
    # off by a multiple of p^(w - e), such as 5 * 3 // 3, gives another valid V, whose
    # kernel column the oracle would put in its augmented matrix instead
    assert smith_normal_form([[6, 3]], 3, 2, True) == ([1], [[1, 7], [0, 1]])


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
    # k x k minors, a characterization independent of the elimination.
    rng = random.Random(5)
    for _ in range(60):
        p = rng.choice([3, 5, 7])
        w = rng.randint(2, 6)
        q = p ** w
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        mat = [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]
        exps, v = smith_normal_form(mat, p, w, True)
        assert smith_normal_form(mat, p, w) == (exps, None)  # V only when asked for
        assert exps == sorted(exps)
        assert len(exps) == min(rows, cols)
        assert _det(v) % p != 0  # the column transform is invertible over Z_p
        for j in range(cols):  # mat * V = U^-1 * diag(p^e_j): column j is 0 mod p^e_j
            e = exps[j] if j < len(exps) else w
            assert all(sum(row[k] * v[k][j] for k in range(cols)) % q % p ** e == 0
                       for row in mat)
        for k in range(1, min(rows, cols) + 1):
            least = min(_vp_capped(_det([[mat[i][j] for j in cs] for i in rs]), p, w)
                        for rs in combinations(range(rows), k)
                        for cs in combinations(range(cols), k))
            assert min(w, sum(exps[:k])) == least


def test_kernel_columns_annihilate():
    """C kills every saturated column of V mod p^w, for the companion matrix C of a
    distinguished P with P(0) = 0: the hand case T(T-7), then random P of degree <= 8."""
    rng = random.Random(11)
    cases = [(7, 8, (0, 7 ** 8 - 7, 1))]
    for _ in range(200):
        p, w, lam = rng.choice([2, 3, 5, 7]), rng.randint(1, 8), rng.randint(1, 8)
        cases.append((p, w, (0,) + tuple(p * rng.randrange(p ** w) for _ in range(lam - 1))
                      + (1,)))
    for p, w, poly in cases:
        q, lam = p ** w, len(poly) - 1
        mat = companion_matrix(poly, p, w)
        exps, v = smith_normal_form(mat, p, w, True)
        saturated = [j for j, e in enumerate(exps) if e >= w]
        assert saturated  # P(0) = 0: C is singular
        for j in saturated:
            col = [v[i][j] for i in range(lam)]
            assert [sum(mat[i][k] * col[k] for k in range(lam)) % q
                    for i in range(lam)] == [0] * lam


# -- finite-level oracle --------------------------------------------------------


def test_oracle_hand_example():
    result = finite_level_oracle(module(7, "T*(T-7)"), 10)
    assert result == ChiResult(True, PowerOfP(7, 1), 1)


def _asks_for_v(call):
    """Whether a recorded smith_normal_form call asked for its column transform V."""
    args, kwargs = (call[:-1], call[-1]) if isinstance(call[-1], dict) else (call, {})
    return inspect.signature(smith_normal_form).bind(*args, **kwargs).arguments.get(
        "transform", False)


def test_oracle_runs_the_second_smith_form_only_for_a_t_kernel(count_calls):
    """With P(0) != 0 the T-kernel is 0, and [C | kernel basis] is C, so the oracle reuses
    the first Smith form's divisors and asks for no V; with P(0) = 0 it forms the second,
    and asks for V in the first form only, whose saturated columns are the kernel basis."""
    forms = count_calls(gamma_modules, "smith_normal_form")
    assert finite_level_oracle(module(7, "T+7"), 10) == ChiResult(True, PowerOfP(7, 1), 0)
    assert [_asks_for_v(call) for call in forms] == [False]
    forms.clear()
    assert finite_level_oracle(module(7, "T*(T-7)"), 10) == ChiResult(True, PowerOfP(7, 1), 1)
    assert [_asks_for_v(call) for call in forms] == [True, False]
    forms.clear()
    mat, q = [[0, 0], [1, 7]], 7 ** 10  # a keyword call is passed through, keywords recorded
    assert gamma_modules.smith_normal_form(mat, 7, 10, transform=True) == ([0, 10],
                                                                            [[1, q - 7], [0, 1]])
    assert forms == [(mat, 7, 10, {"transform": True})] and _asks_for_v(forms[0])


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
