"""Seeded job lists for the three workloads.

Every list is a fixed design whose make-up does not depend on the seed:
which prime p, curve, residue degree, number of factors, size class and
slot order each job gets is fixed, and the seed only picks concrete
primes and coefficients inside fixed strata.  So two seeds do the same
amount of work to within the jitter of a stratum, and the job classes
sit in the same proportions in every run.

A job list is made of whole rounds; each round repeats the design with
fresh draws.  A warm-up list, disjoint from the timed one, comes from its
own random stream and shares the set of (curve, l) pairs already used, so
no pair of the timed list has been counted before it is timed.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import arith

PIPELINE_PRIMES = (5, 7, 11, 13)
PIPELINE_ROUND = 96
PIPELINE_WARMUP = 12
L_RANGE = (1_000, 200_000)      # largest factor of m, log-uniform
SMALL_L_RANGE = (5, 2_000)      # the other factors of m, log-uniform

# (N, D) size classes of the series workload and their jobs per round.  The
# counts put the 50th percentile inside (16, 64) and the 90th inside
# (16, 128), away from the steps between classes.
SERIES_CLASSES = ((8, 32, 36), (16, 64, 28), (16, 128, 30), (32, 256, 6))
# One prime: at (16, 64) a job at p = 11 or 13 takes twice as long as at
# p = 5 or 7, and a mix of the two would put the median on that step.
SERIES_PRIME = 7
SERIES_ROUND = sum(c for _, _, c in SERIES_CLASSES)
SERIES_MODULE_LAMBDA = {32: 8, 64: 16, 128: 32, 256: 64}  # oracle module size per class

CLI_ROUND = 64
CLI_WARMUP = 8

# Nominal seconds one round takes on a 2-vCPU Xeon; a run measures
# round(seconds / nominal) whole rounds, so the work of a run is fixed by
# --seconds alone.
NOMINAL_ROUND_S = {"pipeline": 6.0, "series": 11.5, "cli_small": 2.0}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_ROUND_S[workload]))


def _fixed_permutation(n: int, salt: int):
    """A permutation that is the same for every seed."""
    order = list(range(n))
    random.Random(salt).shuffle(order)
    return order


def _log_uniform(lo: float, hi: float, u: float) -> float:
    return lo * (hi / lo) ** u


def _curve_doc(ci: int) -> dict:
    return {"a": [str(c) for c in arith.CURVES[ci][1]]}


class _PrimePicker:
    """Finds unused primes of good reduction with a given order mod p."""

    def __init__(self):
        self.used = set()

    def pick(self, target: float, p: int, f: int, ci: int, avoid=()) -> int:
        for l in arith.primes_from(target):
            if (l == p or l in arith.BAD_PRIMES[ci] or (ci, l) in self.used
                    or l in avoid or arith.order_mod(l, p) != f):
                continue
            self.used.add((ci, l))
            return l
        raise RuntimeError("prime table exhausted")


def _tamagawa(rng, ci: int, p: int, factors) -> dict:
    """Tamagawa numbers prime to p at the factors where the Euler factor is a p-unit.

    At a factor whose Euler factor has negative p-valuation, a Tamagawa
    number prime to p would make h1_gamma a negative power; the program
    refuses such a document by design, so those factors are left out.
    """
    out = {}
    for l in factors:
        f = arith.order_mod(l, p)
        a_q = arith.extension_trace(arith.trace(ci, l), l, f)
        if arith.euler_valuation(a_q, l ** f, p) == 0:
            out[str(l)] = rng.choice([c for c in range(1, 13) if c % p])
    return out


def _theorem3_doc(rng, p, ci, factors, with_tamagawa):
    m = math.prod(factors)
    doc = {"p": p, "chi_gamma": f"{p}^{rng.randint(0, 12)}", "curve": _curve_doc(ci),
           "extension": {"p": p, "m": m}}
    if with_tamagawa:
        doc["tamagawa"] = _tamagawa(rng, ci, p, factors)
    return doc


# -- pipeline -----------------------------------------------------------------


def _pipeline_round(rng, picker: _PrimePicker, slots):
    perm_large = _fixed_permutation(PIPELINE_ROUND, 101)
    perm_small = _fixed_permutation(PIPELINE_ROUND, 202)
    jobs = []
    for s in slots:
        p = PIPELINE_PRIMES[s % 4]
        ci = (s // 4) % 4
        k = 1 + (s // 16) % 3
        divs = arith.divisors(p - 1)
        f = divs[(s // 4) % len(divs)]
        u = (perm_large[s] + rng.random()) / PIPELINE_ROUND
        factors = [picker.pick(_log_uniform(*L_RANGE, u), p, f, ci)]
        for j in range(1, k):
            u = (perm_small[(s + 37 * j) % PIPELINE_ROUND] + rng.random()) / PIPELINE_ROUND
            f_small = divs[(s + j) % len(divs)]
            factors.append(picker.pick(_log_uniform(*SMALL_L_RANGE, u), p, f_small, ci,
                                       avoid=factors))
        doc = _theorem3_doc(rng, p, ci, factors, with_tamagawa=s % 2 == 1)
        jobs.append([["theorem3", "--config", json.dumps(doc)]])
    return jobs


def pipeline(seed: int, rounds: int):
    picker = _PrimePicker()
    warm = _pipeline_round(random.Random(f"pipeline-warmup-{seed}"), picker,
                           range(0, PIPELINE_ROUND, PIPELINE_ROUND // PIPELINE_WARMUP))
    rng = random.Random(f"pipeline-{seed}")
    timed = []
    for _ in range(rounds):
        timed.extend(_pipeline_round(rng, picker, range(PIPELINE_ROUND)))
    return warm, timed


# -- series -------------------------------------------------------------------


def _unit(rng, modulus: int, p: int) -> int:
    u = rng.randrange(1, modulus)
    while u % p == 0:
        u = rng.randrange(1, modulus)
    return u


def _dense(rng, p, n, d):
    return [rng.randrange(p ** n) for _ in range(d)]


def _preparable(rng, p, n, d, lam, mu):
    """Dense series whose mu and lambda are as given."""
    m = p ** n
    coeffs = [rng.randrange(p ** (n - 1)) * p if i < lam else rng.randrange(m)
              for i in range(d)]
    coeffs[lam] = _unit(rng, m, p)
    return [c * p ** mu % m for c in coeffs]


def _dense_unit(rng, p, n, d):
    coeffs = _dense(rng, p, n, d)
    coeffs[0] = _unit(rng, p ** n, p)
    return coeffs


def _module(rng, p, total_lambda, n=8):
    """Generators T^e * f with f(0) = p^v * unit, sized to the given total lambda.

    Returns the generators and the chi exponent sum(v) and r = sum(e) that
    the construction fixes.
    """
    m = p ** n
    gens, chi_exp, r, left = [], 0, 0, total_lambda
    while left > 0:
        e = rng.randint(0, 1)
        v = rng.choice((0, 1, 1, 2))
        deg = min(left - e, rng.randint(1, 8)) if v else 0
        if deg == 0:  # T times a unit: lambda 1, nothing to chi
            e, v = 1, 0
        d = e + deg + 8
        # f(0) = p^v * unit, f_1 .. f_(deg-1) divisible by p, f_deg a unit
        f = [rng.randrange(p ** (n - 1)) * p for _ in range(d - e)]
        f[0] = _unit(rng, m, p) * p ** v % m
        for i in range(deg + 1, d - e):
            f[i] = rng.randrange(m)
        f[deg] = _unit(rng, m, p)
        gens.append({"N": n, "D": d, "coeffs": [0] * e + f})
        chi_exp += v
        r += e
        left -= e + deg
    return gens, chi_exp, r


def _series_job(rng, p, n, d, lam):
    m = p ** n
    left = [_dense_unit(rng, p, n, d) for _ in range(2)]
    right = [_dense_unit(rng, p, n, d) for _ in range(2)]
    middle = [arith.series_mul(x, y, m, d) for x, y in zip(left, right)]
    broken_at = rng.randrange(2)
    broken = [list(c) for c in middle]
    broken[broken_at] = [0] + broken[broken_at][:-1]
    gens, chi_exp, r = _module(rng, p, SERIES_MODULE_LAMBDA[d])
    return {"p": p, "N": n, "D": d,
            "g": _preparable(rng, p, n, d, lam, mu=lam % 2),
            "a": _dense(rng, p, n, d), "b": _dense(rng, p, n, d),
            "L": left, "M": middle, "R": right, "M_broken": broken,
            "module": gens, "chi_exponent": chi_exp, "r": r}


def _series_round(rng, warmup=False):
    jobs = []
    for n, d, count in SERIES_CLASSES:
        for i in range(1 if warmup else count):
            lam = 1 + i % 8
            jobs.append(_series_job(rng, SERIES_PRIME, n, d, lam))
    return jobs


def series(seed: int, rounds: int):
    warm = _series_round(random.Random(f"series-warmup-{seed}"), warmup=True)
    warm = [job for job in warm if job["D"] < 256]
    rng = random.Random(f"series-{seed}")
    timed = []
    for _ in range(rounds):
        timed.extend(_series_round(rng))
    return warm, timed


# -- cli_small ----------------------------------------------------------------


def _poly_text(coeffs):
    return " + ".join(f"{c}*T^{i}" for i, c in enumerate(coeffs) if c) or "0"


def _series_doc(rng, p, n, d, coeffs):
    """A series document, either as coefficients or as a polynomial string."""
    if rng.random() < 0.5:
        return {"p": p, "N": n, "D": d, "coeffs": [c % p ** n for c in coeffs]}
    return {"p": p, "N": n, "D": d, "poly": _poly_text(coeffs)}


def _small_prime(rng, lo, hi, exclude):
    choices = [l for l in arith.primes_between(lo, hi) if l not in exclude]
    return rng.choice(choices)


def _akashi_elements(rng, p, n, d, count):
    """Short series with small leading valuation and T-order, so leading terms survive."""
    out = []
    for _ in range(count):
        k = rng.randint(0, 2)
        coeffs = [0] * k + [_unit(rng, p ** n, p) * p ** rng.randint(0, 1)]
        coeffs += [rng.randrange(p ** n) for _ in range(rng.randint(0, 4))]
        out.append(coeffs)
    return out


def _cli_bundle(rng, j, picker: _PrimePicker, workdir: Path, tag: str):
    p = PIPELINE_PRIMES[j % 4]
    ci = (j // 4) % 4
    bad = arith.BAD_PRIMES[ci]
    bundle = [["example-x1-11"]]

    q = _small_prime(rng, 5, 2000, bad)
    bundle.append(["count-points", "--curve", json.dumps(_curve_doc(ci)), "--q", str(q)])

    l = _small_prime(rng, 5, 60, {p})
    f = rng.randint(1, 3)
    qf = l ** f
    bound = math.isqrt(4 * qf)
    bundle.append(["euler-factor", "--a", str(rng.randint(-bound, bound)), "--q", str(qf),
                   "--p", str(p)])

    l = p if j % 10 == 0 else _small_prime(rng, 5, 10_000, {p})
    bundle.append(["split", "--l", str(l), "--p", str(p)])

    factors = {_small_prime(rng, 5, 1000, set()) for _ in range(rng.randint(1, 3))}
    if j % 7 == 0:
        factors.add(p)
    bundle.append(["inertia-set", "--p", str(p), "--m", str(math.prod(factors))])

    n, d = rng.randint(4, 8), rng.randint(8, 32)
    coeffs = _preparable(rng, p, n, d, rng.randint(0, min(6, d - 1)), rng.randint(0, 1))
    bundle.append(["prep", "--series", json.dumps(_series_doc(rng, p, n, d, coeffs))])

    n, d = rng.randint(4, 8), rng.randint(8, 32)
    k = rng.randrange(d)
    coeffs = [0] * k + [_unit(rng, p ** n, p) * p ** rng.randint(0, 2)]
    coeffs += [rng.randrange(p ** n) for _ in range(d - k - 1)]
    bundle.append(["leading", "--series", json.dumps(_series_doc(rng, p, n, d, coeffs))])

    gens, _, _ = _module(rng, p, rng.randint(1, 6))
    module_gens = []
    for g in gens:
        if rng.random() < 0.5:
            module_gens.append({"p": p, **g})
        else:
            module_gens.append(_poly_text(g["coeffs"]))
    module = {"p": p, "N": 8, "D": 24, "generators": module_gens}
    argv = ["chi-module", "--module", json.dumps(module), "--oracle"]
    if j % 2:
        argv += ["--prec", "10"]
    bundle.append(argv)

    n, d = 10, 32
    elements = _akashi_elements(rng, p, n, d, rng.randint(1, 3))
    data = {"p": p, "N": n, "D": d,
            "char_elements": [{"p": p, "N": n, "D": d, "coeffs": c} if rng.random() < 0.5
                              else _poly_text(c) for c in elements]}
    path = workdir / f"{tag}-{j}-data.json"
    path.write_text(json.dumps(data))
    bundle.append(["akashi", "--data", str(path)])

    left = _akashi_elements(rng, p, n, d, rng.randint(1, 2))
    right = _akashi_elements(rng, p, n, d, rng.randint(1, 2))
    middle = []
    for i in range(max(len(left), len(right))):
        x = left[i] if i < len(left) else [1]
        y = right[i] if i < len(right) else [1]
        middle.append(arith.series_mul(x + [0] * d, y + [0] * d, p ** n, d))
    if j % 2:
        i = rng.randrange(len(middle))
        middle[i] = [0] + middle[i][:-1]
    paths = []
    for name, elems in (("L", left), ("M", middle), ("N", right)):
        path = workdir / f"{tag}-{j}-{name}.json"
        path.write_text(json.dumps({"p": p, "char_elements": [
            {"p": p, "N": n, "D": d, "coeffs": (c + [0] * d)[:d]} for c in elems]}))
        paths.append(str(path))
    bundle.append(["akashi", "--check", ",".join(paths)])

    factors = [picker.pick(_log_uniform(50, 2000, rng.random()), p,
                           arith.divisors(p - 1)[j % len(arith.divisors(p - 1))], ci)]
    if j % 3 == 0:
        factors.append(picker.pick(_log_uniform(5, 2000, rng.random()), p,
                                   arith.order_mod(rng.choice(range(2, p)), p), ci,
                                   avoid=factors))
    doc = _theorem3_doc(rng, p, ci, factors, with_tamagawa=j % 2 == 1)
    bundle.append(["theorem3", "--config", json.dumps(doc)])
    return bundle


def cli_small(seed: int, rounds: int, workdir: Path):
    workdir.mkdir(parents=True, exist_ok=True)
    warm_rng = random.Random(f"cli_small-warmup-{seed}")
    picker = _PrimePicker()
    warm = [_cli_bundle(warm_rng, j, picker, workdir, "warm") for j in range(CLI_WARMUP)]
    warm_pairs = set(picker.used)
    rng = random.Random(f"cli_small-{seed}")
    # theorem3 here draws l < 2000, too few to keep every (curve, l) unused
    # across all rounds: pairs repeat between rounds, never within one, and
    # never with the warm-up.
    timed = []
    for r in range(rounds):
        picker.used = set(warm_pairs)
        timed.extend(_cli_bundle(rng, j, picker, workdir, f"r{r}") for j in range(CLI_ROUND))
    return warm, timed


def make(workload: str, seed: int, seconds: float, workdir: Path):
    rounds = rounds_for(workload, seconds)
    if workload == "pipeline":
        return pipeline(seed, rounds)
    if workload == "series":
        return series(seed, rounds)
    if workload == "cli_small":
        return cli_small(seed, rounds, workdir)
    raise ValueError(f"unknown workload {workload!r}")
