"""Generalized Euler characteristics of torsion modules in normal form.

A :class:`TorsionModule` is a direct sum of cyclic factors, one power
series generator g_i per factor.  Two independent routes compute the
invariants-vs-coinvariants Euler characteristic:

* :func:`generalized_chi` -- the closed form.  Read each generator's
  leading term alpha*T^n, so that g = T^n * f with f(0) = alpha (which may
  still be divisible by p).  The characteristic is finite exactly when
  every n <= 1, and then equals p raised to the sum of the valuations
  v_p(f_i(0)); r counts the factors with n = 1.

* :func:`finite_level_oracle` -- linear algebra at finite level.  Each
  factor becomes a lattice with basis 1, T, ..., T^(lambda-1) on which T
  acts by the companion matrix of the distinguished part; kernel and
  cokernel of that action are read off a Smith normal form over Z/p^a, and
  the evaluation map from the T-kernel into the T-coinvariants is sized by
  a second Smith form.  No f(0) is ever evaluated, which is what makes the
  agreement of the two routes a real check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .errors import InputError, PrecisionError
from .lambda_algebra import distinguished_part, leading_term, series_list_from_doc
from .padics import PowerOfP, int_valuation

MAX_TOTAL_LAMBDA = 64  # desk-scale cap on the oracle's lattice rank


@dataclass(frozen=True)
class TorsionModule:
    """Direct sum of factors Lambda/(g_i), generators nonzero at precision."""

    prime: int
    generators: tuple

    def __post_init__(self):
        if not self.generators:
            raise InputError("torsion module needs at least one generator")
        for i, g in enumerate(self.generators):
            if g.prime != self.prime:
                raise InputError(f"prime mismatch: generator {i} is at p = {g.prime}, "
                                 f"the module at p = {self.prime}")
            if g.t_order() is None:
                raise PrecisionError(f"generator {i} is indistinguishable from zero at precision")

    def to_json(self) -> dict:
        return {"p": self.prime, "generators": [g.to_json() for g in self.generators]}

    @classmethod
    def from_json(cls, doc) -> "TorsionModule":
        """Generators are series entries, "T*(T-7)" say, read by :func:`series_list_from_doc`."""
        return cls(*series_list_from_doc(doc, "generators", "module"))


@dataclass(frozen=True)
class ChiResult:
    """Outcome of an Euler-characteristic computation.

    ``value`` and ``r`` are present only when ``finite``; ``r`` is the
    number of cyclic factors whose generator is divisible by exactly one
    power of T (the free rank of the T-kernel).
    """

    finite: bool
    value: Optional[PowerOfP] = None
    r: Optional[int] = None

    def to_json(self) -> dict:
        out = {"finite": self.finite}
        if self.finite:
            out["value"] = str(self.value)
            out["r"] = self.r
        return out


def generalized_chi(module: TorsionModule) -> ChiResult:
    """Closed-form Euler characteristic of a torsion module in normal form.

    Finite iff no generator is divisible by T^2; then the value is
    p^(sum of v_p(f_i(0))), the reciprocal standard magnitude of the
    product of the constant terms f_i(0).
    """
    p = module.prime
    exponent = 0
    r = 0
    for g in module.generators:
        lead = leading_term(g)  # g = T^k * f with f(0) = alpha
        if lead.k > 1:
            return ChiResult(finite=False)
        exponent += lead.alpha_valuation
        r += lead.k
    return ChiResult(True, PowerOfP(p, exponent), r)


# -- Smith normal form over Z/p^w -------------------------------------------


def smith_normal_form(mat: List[List[int]], p: int, w: int):
    """Diagonalize mat over Z/p^w by unimodular row and column operations.

    Returns (exponents, V) with U*mat*V = diag(p^e_0, p^e_1, ...) mod p^w
    for some unimodular U, which is not kept; exponents ascend and are
    capped at w (an exponent of w means the divisor is indistinguishable
    from zero at this precision).
    """
    q = p ** w
    m = len(mat)
    n = len(mat[0]) if m else 0
    a = [[x % q for x in row] for row in mat]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    exps = []
    for k in range(min(m, n)):
        pivot = None
        for i in range(k, m):
            for j in range(k, n):
                x = a[i][j]
                if x:
                    val = int_valuation(x, p)
                    if pivot is None or val < pivot[2]:
                        pivot = (i, j, val)
                        if val == 0:
                            break
            if pivot is not None and pivot[2] == 0:
                break
        if pivot is None:
            exps.extend([w] * (min(m, n) - k))
            break
        i0, j0, e = pivot
        if i0 != k:
            a[k], a[i0] = a[i0], a[k]
        if j0 != k:
            for row in a:
                row[k], row[j0] = row[j0], row[k]
            for row in v:
                row[k], row[j0] = row[j0], row[k]
        pe = p ** e
        unit_inv = pow(a[k][k] // pe, -1, q)
        a[k] = [(unit_inv * x) % q for x in a[k]]
        for i in range(k + 1, m):
            if a[i][k]:
                t = a[i][k] // pe
                a[i] = [(x - t * y) % q for x, y in zip(a[i], a[k])]
        for j in range(k + 1, n):
            if a[k][j]:
                t = a[k][j] // pe
                for row in a:
                    row[j] = (row[j] - t * row[k]) % q
                for row in v:
                    row[j] = (row[j] - t * row[k]) % q
        exps.append(e)
    return exps, v


def companion_matrix(poly, p: int, w: int) -> List[List[int]]:
    """Multiplication-by-T on Z[T]/(P) in the basis 1, T, ..., T^(deg P - 1)."""
    lam = len(poly) - 1
    q = p ** w
    mat = [[0] * lam for _ in range(lam)]
    for j in range(lam - 1):
        mat[j + 1][j] = 1
    for i in range(lam):
        mat[i][lam - 1] = (-poly[i]) % q
    return mat


def finite_level_oracle(module: TorsionModule, precision_exponent: int) -> ChiResult:
    """Euler characteristic by kernel/cokernel linear algebra at level p^a.

    Per factor: read the distinguished part p^mu * P of the generator
    g = p^mu * P * U (the unit U does not change Lambda/(g)), realize P as
    its companion lattice, compute kernel and cokernel of multiplication
    by T via Smith normal form over Z/p^w
    (w = min(a, available coefficient precision)), and size the map from
    the T-kernel into the coinvariants by the Smith divisors of the
    augmented matrix [C | kernel basis].  The p^mu factor contributes mu
    to the exponent directly (its cyclic factor has trivial T-kernel and
    coinvariants of order p^mu).

    Divisors saturating the cap (exponent >= w) are ambiguous: they are
    either genuine zeros or nonzero values too deep to see at level p^w.
    The prepared polynomial's own coefficients, which are known to the
    series' full precision, disambiguate: a saturated companion divisor is
    only accepted as a true T-kernel direction if the polynomial's constant
    term vanishes at full precision, and a saturated evaluation-map divisor
    is only accepted as genuine non-finiteness if the polynomial is
    divisible by T^2 at full precision.  Anything else raises the
    raise-precision error, so the oracle never silently disagrees with the
    closed form.  Factors that are a unit times a pure power of p have no
    faithful finite-rank lattice and are refused.
    """
    if precision_exponent < 1:
        raise InputError(f"precision_exponent must be >= 1, got {precision_exponent}")
    p = module.prime
    exponent = 0
    r = 0
    total_lambda = 0
    for i, g in enumerate(module.generators):
        form = distinguished_part(g)
        if form.lam == 0:
            if form.mu > 0:
                raise InputError(f"component not oracle-representable: generator {i} is a unit "
                                 f"times p^mu = {p}^{form.mu}")
            continue  # unit generator: zero module, trivial contribution
        total_lambda += form.lam
        if total_lambda > MAX_TOTAL_LAMBDA:
            raise InputError(f"total lattice rank exceeds {MAX_TOTAL_LAMBDA}")
        w = min(precision_exponent, form.precision)
        c = companion_matrix(form.distinguished_poly, p, w)
        exps, v = smith_normal_form(c, p, w)
        kernel_cols = [j for j, e in enumerate(exps) if e >= w]
        true_kernel_rank = 1 if form.distinguished_poly[0] == 0 else 0
        if len(kernel_cols) != true_kernel_rank:
            raise PrecisionError(f"generator {i}, w = {w}: T-kernel undetermined; raise precision")
        lam = form.lam
        aug = [c[i][:] + [v[i][j] for j in kernel_cols] for i in range(lam)]
        aug_exps, _ = smith_normal_form(aug, p, w)
        if any(e >= w for e in aug_exps):
            divisible_by_t_squared = (lam >= 2
                                      and form.distinguished_poly[0] == 0
                                      and form.distinguished_poly[1] == 0)
            if divisible_by_t_squared:
                return ChiResult(finite=False)
            raise PrecisionError(f"generator {i}, w = {w}: evaluation map undetermined; "
                                 "raise precision")
        exponent += form.mu + sum(aug_exps)
        r += len(kernel_cols)
    return ChiResult(True, PowerOfP(p, exponent), r)
