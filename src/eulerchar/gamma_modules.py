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
  acts by the companion matrix C of the distinguished part P.  The
  T-kernel is 0 when P(0) != 0 and spanned by P/T when P(0) = 0, so one
  Smith normal form over Z/p^a per factor, of C or of [C | P/T], sizes the
  evaluation map from the T-kernel into the T-coinvariants.  No f(0) is
  ever evaluated, which is what makes the agreement of the two routes a
  real check.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from .errors import InputError, PrecisionError
from .lambda_algebra import distinguished_part, leading_term, series_list_from_doc
from .padics import PowerOfP, Record, int_valuation

MAX_TOTAL_LAMBDA = 64  # desk-scale cap on the oracle's lattice rank


class TorsionModule(Record):
    """Direct sum of factors Lambda/(g_i), generators nonzero at precision."""

    __slots__ = ("prime", "generators")

    def __init__(self, prime: int, generators: tuple):
        if not generators:
            raise InputError("torsion module needs at least one generator")
        for i, g in enumerate(generators):
            if g.prime != prime:
                raise InputError(f"prime mismatch: generator {i} is at p = {g.prime}, "
                                 f"the module at p = {prime}")
            if g.t_order() is None:
                raise PrecisionError(f"generator {i} is indistinguishable from zero at precision")
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "generators", generators)

    def to_json(self) -> dict:
        return {"p": self.prime, "generators": [g.to_json() for g in self.generators]}

    @classmethod
    def from_json(cls, doc) -> "TorsionModule":
        """Generators are series entries, "T*(T-7)" say, read by :func:`series_list_from_doc`."""
        return cls(*series_list_from_doc(doc, "generators", "module"))


class ChiResult(NamedTuple):
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


def smith_normal_form(mat: List[List[int]], p: int, w: int) -> List[int]:
    """Exponents of the Smith divisors of mat over Z/p^w.

    Returns e_0 <= e_1 <= ... with U*mat*V = diag(p^e_0, p^e_1, ...) mod p^w
    for some unimodular U and V, neither of which is kept; exponents are
    capped at w (an exponent of w means the divisor is indistinguishable
    from zero at this precision).  Step k swaps a pivot of least valuation
    into place and clears column k below it; the row multipliers carry the
    pivot's unit inverse, so the pivot row is never scaled, and no later
    step reads row k's tail, so no column operation is made.
    """
    q = p ** w
    m = len(mat)
    n = len(mat[0]) if m else 0
    a = [[x % q for x in row] for row in mat]
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
        pe = p ** e
        unit_inv = pow(a[k][k] // pe, -1, q)
        for i in range(k + 1, m):
            if a[i][k]:
                t = a[i][k] // pe * unit_inv
                a[i] = [(x - t * y) % q for x, y in zip(a[i], a[k])]
        exps.append(e)
    return exps


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
    its companion lattice, on which T acts by the companion matrix C, and
    size the map from the T-kernel into the coinvariants by the Smith
    divisors of [C | kernel basis] over Z/p^w (w = min(a, available
    coefficient precision)): one Smith form per factor.  If P(0) != 0 the
    kernel is 0 and the matrix is C.  If P(0) = 0 the kernel is exactly
    (Z/p^w)*(P/T): for x of degree < lambda, T*x = c*P by degree, and T is
    no zero divisor.  (A Smith form of C alone would find exactly one
    saturated divisor there, as C's row 0 is zero and its first lambda - 1
    columns are unit vectors, so no check of that count could fail.)  The
    p^mu factor contributes mu to the exponent directly (its cyclic factor
    has trivial T-kernel and coinvariants of order p^mu).

    Divisors saturating the cap (exponent >= w) are ambiguous: they are
    either genuine zeros or nonzero values too deep to see at level p^w.
    The prepared polynomial's own coefficients, which are known to the
    series' full precision, disambiguate: a saturated divisor of C means a
    T-kernel that P(0) != 0 rules out, and a saturated divisor of [C | P/T]
    is only accepted as genuine non-finiteness if P is divisible by T^2 at
    full precision.  Anything else raises the raise-precision error, so the
    oracle never silently disagrees with the closed form.  Factors that are
    a unit times a pure power of p have no faithful finite-rank lattice and
    are refused.
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
        poly = form.distinguished_poly
        aug = companion_matrix(poly, p, w)
        t_kernel = poly[0] == 0
        if t_kernel:  # ker T = (Z/p^w)*(P/T); the Smith form reduces P/T mod p^w
            aug = [row + [poly[k + 1]] for k, row in enumerate(aug)]
        exps = smith_normal_form(aug, p, w)
        if any(e >= w for e in exps):
            if not t_kernel:
                raise PrecisionError(f"generator {i}, w = {w}: T-kernel undetermined; "
                                     "raise precision")
            if poly[1] == 0:  # T^2 | P
                return ChiResult(finite=False)
            raise PrecisionError(f"generator {i}, w = {w}: evaluation map undetermined; "
                                 "raise precision")
        exponent += form.mu + sum(exps)
        r += t_kernel
    return ChiResult(True, PowerOfP(p, exponent), r)
