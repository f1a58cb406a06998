"""Exact arithmetic for generalized Euler characteristics.

Submodules:

* ``padics`` -- primes, p-adic valuations, exact powers of p, rationals.
* ``lambda_algebra`` -- truncated power series over Z_p, Weierstrass
  preparation, leading terms, the one reader of series documents.
* ``gamma_modules`` -- Euler characteristics of torsion modules, closed
  form and finite-level Smith-normal-form oracle.
* ``akashi`` -- alternating products of characteristic elements.
* ``curves`` -- elliptic-curve point counts, traces, local Euler factors,
  ordinarity.
* ``cyclotomic_fields`` -- prime splitting in Q(mu_p), infinite-inertia sets.
* ``euler_char`` -- the product formula tying everything together.
* ``cli`` -- JSON-report command line front end.
"""

from .errors import EulerCharError, InputError, PrecisionError

__all__ = ["EulerCharError", "InputError", "PrecisionError"]

__version__ = "0.1.0"
