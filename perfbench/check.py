"""Checks every output against a computation made apart from eulerchar.

Only the fields being verified are read.  The program's own self-check
fields (bridge_identity_ok, reconstruction_ok, agree, all_checks_pass) are
never looked at, so they can go without breaking the benchmark.  Each
check function returns None when the output is right and a short reason
when it is not.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from sympy import factorint
from sympy.ntheory import n_order

import arith


def _curve_index(curve_doc) -> int:
    coeffs = tuple(int(c) for c in curve_doc["a"])
    for i, (_, a) in enumerate(arith.CURVES):
        if a == coeffs:
            return i
    raise KeyError(f"curve {coeffs} is not a benchmark curve")


def _series_from_doc(doc):
    """(p, N, D, coeffs) of a series document, read with the benchmark's own parser."""
    p, n, d = int(doc["p"]), int(doc.get("N", 16)), int(doc.get("D", 32))
    if "coeffs" in doc:
        coeffs = [int(c) for c in doc["coeffs"]]
    else:
        coeffs = _parse_poly(doc["poly"])
    m = p ** n
    coeffs = [c % m for c in coeffs[:d]] + [0] * max(0, d - len(coeffs))
    return p, n, d, coeffs


def _parse_poly(text: str):
    """Sums of c*T^i terms, the only shape the job generator writes."""
    out = {}
    for term in text.split(" + "):
        c, _, power = term.partition("*T^")
        out[int(power)] = out.get(int(power), 0) + int(c)
    return [out.get(i, 0) for i in range(max(out) + 1)] if out else [0]


# -- theorem3 -------------------------------------------------------------------


def place_rows(doc):
    """Expected (l, f, g) for every prime of m away from p, from SymPy."""
    p, m = int(doc["p"]), int(doc["extension"]["m"])
    out = []
    for l in sorted(factorint(m)):
        if l != p:
            f = int(n_order(l, p))
            out.append((l, f, (p - 1) // f))
    return out


def check_theorem3(doc, code, text):
    if code != 0:
        return f"exit {code}"
    res = json.loads(text)["results"]
    p = int(doc["p"])
    ci = _curve_index(doc["curve"])
    _, _, exp = doc["chi_gamma"].partition("^")
    chi_gamma_exp = int(exp) if exp else 0
    tamagawa = {int(k): int(v) for k, v in doc.get("tamagawa", {}).items()}
    rows = res["places"]
    expected = place_rows(doc)
    if len(rows) != sum(g for _, _, g in expected):
        return f"{len(rows)} place rows, expected {sum(g for _, _, g in expected)}"
    total_v = 0
    i = 0
    for l, f, g in expected:
        q = l ** f
        a_q = arith.extension_trace(arith.trace(ci, l), l, f)
        v = arith.euler_valuation(a_q, q, p)
        for row in rows[i:i + g]:
            if (row["l"], row["f"], row["q_v"], row["q"]) != (l, f, q, q):
                return f"place row {row['l']}: splitting differs"
            if row["a_v"] != a_q or row["point_count"] != q + 1 - a_q:
                return f"place row {l}: a_v {row['a_v']}, expected {a_q}"
            if row["a_v"] ** 2 > 4 * q:
                return f"place row {l}: Hasse bound violated"
            if row["euler_valuation_at_p"] != v:
                return f"place row {l}: valuation {row['euler_valuation_at_p']}, expected {v}"
            if row["euler_value"] != arith.rational_str(arith.euler_value(a_q, q)):
                return f"place row {l}: Euler factor value differs"
            if l in tamagawa:
                v_c = arith.vp(tamagawa[l], p)
                cards = (row.get("h1_gamma"), row.get("h1_Fv"),
                         row.get("jv_constant_term_magnitude"))
                if cards != (arith.power_str(p, v - v_c), arith.power_str(p, v_c),
                             arith.power_str(p, v)):
                    return f"place row {l}: local cardinalities differ"
        total_v += g * v
        i += g
    if res["chi_gamma"] != arith.power_str(p, chi_gamma_exp):
        return "chi_gamma echo differs"
    if res["euler_product_magnitude"] != arith.power_str(p, total_v):
        return "euler_product_magnitude differs"
    if res["chi_sigma"] != arith.power_str(p, chi_gamma_exp + total_v):
        return f"chi_sigma {res['chi_sigma']}, expected {arith.power_str(p, chi_gamma_exp + total_v)}"
    return None


# -- small reports ----------------------------------------------------------------


def _opt(argv, flag):
    return argv[argv.index(flag) + 1]


def check_example(argv, code, text):
    if code != 0:
        return f"exit {code}"
    chi = json.loads(text)["results"]["chi_sigma"]
    return None if chi == "7^8" else f"chi_sigma {chi}, expected 7^8"


def check_count_points(argv, code, text):
    if code != 0:
        return f"exit {code}"
    ci = _curve_index(json.loads(_opt(argv, "--curve")))
    q = int(_opt(argv, "--q"))
    a = arith.trace(ci, q)
    res = json.loads(text)["results"]
    if (res["point_count"], res["a_v"]) != (q + 1 - a, a):
        return f"count at {q}: {res['point_count']}, expected {q + 1 - a}"
    return None


def check_euler_factor(argv, code, text):
    if code != 0:
        return f"exit {code}"
    a, q, p = (int(_opt(argv, f)) for f in ("--a", "--q", "--p"))
    res = json.loads(text)["results"]
    v = arith.euler_valuation(a, q, p)
    want = (arith.rational_str(arith.euler_value(a, q)), v, arith.power_str(p, v))
    got = (res["value"], res["valuation_at_p"], res["magnitude_paper"])
    return None if got == want else f"euler factor {got}, expected {want}"


def _splitting(l, p):
    if l == p:
        return {"l": l, "p": p, "f": 1, "g": 1, "ramified": True, "q_v": l}
    f = int(n_order(l, p))
    return {"l": l, "p": p, "f": f, "g": (p - 1) // f, "ramified": False, "q_v": l ** f}


def check_split(argv, code, text):
    if code != 0:
        return f"exit {code}"
    l, p = int(_opt(argv, "--l")), int(_opt(argv, "--p"))
    got = json.loads(text)["results"]["splitting"]
    return None if got == _splitting(l, p) else f"splitting of {l}: {got}"


def check_inertia_set(argv, code, text):
    if code != 0:
        return f"exit {code}"
    p, m = int(_opt(argv, "--p")), int(_opt(argv, "--m"))
    res = json.loads(text)["results"]
    primes = sorted(factorint(p * m))
    if res["primes_with_infinite_inertia"] != primes:
        return f"primes {res['primes_with_infinite_inertia']}, expected {primes}"
    if res["splitting"] != [_splitting(l, p) for l in primes]:
        return "splitting rows differ"
    places = [_splitting(l, p) for l in primes if l != p for _ in range(_splitting(l, p)["g"])]
    return None if res["places_away_from_p"] == places else "place list differs"


def check_prepared(p, n, d, g, mu, lam, poly, precision, unit):
    """p^mu * P * U = g at the stated precision, and the shape of P and U."""
    mins = [arith.vp(c, p) for c in g if c]
    if not mins or mu != min(mins):
        return f"mu {mu}, expected {min(mins) if mins else None}"
    h = [c // p ** mu for c in g]
    want_lam = next(i for i, c in enumerate(h) if c % p)
    if lam != want_lam:
        return f"lambda {lam}, expected {want_lam}"
    if len(poly) != lam + 1 or poly[-1] != 1 or any(c % p for c in poly[:-1]):
        return "distinguished polynomial is not monic with lower terms divisible by p"
    u_p, u_n, u_d, u = unit["p"], unit["N"], unit["D"], unit["coeffs"]
    if u_p != p or u[0] % p == 0:
        return "unit constant term divisible by p"
    if precision < 1 or mu + precision > n or u_n < precision:
        return f"precision {precision} (unit N {u_n}) does not fit N = {n}, mu = {mu}"
    top = min(d, u_d)
    mod = p ** (mu + precision)
    product = arith.series_mul(poly, u, mod, top)
    if any((p ** mu * x - y) % mod for x, y in zip(product, g[:top])):
        return "p^mu * P * U differs from g"
    return None


def check_prep(argv, code, text):
    if code != 0:
        return f"exit {code}"
    p, n, d, g = _series_from_doc(json.loads(_opt(argv, "--series")))
    res = json.loads(text)["results"]
    return check_prepared(p, n, d, g, res["mu"], res["lambda"], res["distinguished_poly"],
                          res["poly_precision"], res["unit"])


def check_leading(argv, code, text):
    if code != 0:
        return f"exit {code}"
    p, n, d, g = _series_from_doc(json.loads(_opt(argv, "--series")))
    k = arith.t_order(g)
    want = {"alpha": g[k], "alpha_valuation": arith.vp(g[k], p), "k": k}
    got = json.loads(text)["results"]
    return None if got == want else f"leading {got}, expected {want}"


def _module_invariants(doc):
    """(chi exponent, r) of a generated module: v_p(f(0)) and T-order of each generator."""
    p = int(doc["p"])
    exp = r = 0
    for entry in doc["generators"]:
        if isinstance(entry, str):
            entry = {"p": p, "N": doc["N"], "D": doc["D"], "poly": entry}
        _, _, _, coeffs = _series_from_doc(entry)
        k = arith.t_order(coeffs)
        exp += arith.vp(coeffs[k], p)
        r += k
    return exp, r


def check_chi(p, exp, r, closed, oracle):
    want = {"finite": True, "value": arith.power_str(p, exp), "r": r}
    if closed != want:
        return f"closed form {closed}, expected {want}"
    if oracle != want:
        return f"oracle {oracle}, expected {want}"
    return None


def check_chi_module(argv, code, text):
    if code != 0:
        return f"exit {code}"
    doc = json.loads(_opt(argv, "--module"))
    exp, r = _module_invariants(doc)
    res = json.loads(text)["results"]
    return check_chi(int(doc["p"]), exp, r, res["closed_form"], res["oracle"])


def _akashi_elements(path):
    doc = json.loads(Path(path).read_text())
    p = int(doc["p"])
    out = []
    for entry in doc["char_elements"]:
        if isinstance(entry, str):
            entry = {"p": p, "N": doc.get("N", 16), "D": doc.get("D", 32), "poly": entry}
        out.append(_series_from_doc(entry))
    return p, out


def _alternating(elements, p):
    n = min(e[1] for e in elements)
    d = min(e[2] for e in elements)
    m = p ** n
    num, den = [1] + [0] * (d - 1), [1] + [0] * (d - 1)
    for i, (_, _, _, c) in enumerate(elements):
        if i % 2 == 0:
            num = arith.series_mul(num, c, m, d)
        else:
            den = arith.series_mul(den, c, m, d)
    return n, d, num, den


def _matches_scaled(full, reduced_doc, p, n, d):
    """reduced * p^e * T^t = full mod (p^n, T^d), with e, t read off the precision drop."""
    e, t = n - reduced_doc["N"], d - reduced_doc["D"]
    m = p ** n
    if any(c % m for c in full[:t]):
        return False
    return all((full[t + i] - p ** e * c) % m == 0 for i, c in enumerate(reduced_doc["coeffs"]))


def check_akashi_data(argv, code, text):
    if code != 0:
        return f"exit {code}"
    p, elements = _akashi_elements(_opt(argv, "--data"))
    n, d, num, den = _alternating(elements, p)
    res = json.loads(text)["results"]
    if not (_matches_scaled(num, res["numerator"], p, n, d)
            and _matches_scaled(den, res["denominator"], p, n, d)):
        return "alternating product differs"
    k = alpha = 0
    for i, (_, _, _, c) in enumerate(elements):
        sign = 1 if i % 2 == 0 else -1
        t = arith.t_order(c)
        k += sign * t
        alpha += sign * arith.vp(c[t], p)
    want = {"alpha_valuation": alpha, "k": k, "chi_if_finite": arith.power_str(p, alpha)}
    return None if res["leading"] == want else f"leading {res['leading']}, expected {want}"


def degreewise_is_product(left, middle, right, p):
    """Is middle_i = left_i * right_i for every degree (a missing degree counts as 1)?"""
    if len(middle) != max(len(left), len(right)):
        return False
    for i, (_, n, d, c) in enumerate(middle):
        x = left[i][3] if i < len(left) else [1]
        y = right[i][3] if i < len(right) else [1]
        if arith.series_mul(x, y, p ** n, d) != c:
            return False
    return True


def check_akashi_check(argv, code, text):
    if code != 0:
        return f"exit {code}"
    (p, left), (_, middle), (_, right) = (_akashi_elements(path)
                                          for path in _opt(argv, "--check").split(","))
    want = degreewise_is_product(left, middle, right, p)
    got = json.loads(text)["results"]["multiplicative"]
    return None if got is want else f"multiplicative {got}, expected {want}"


def check_theorem3_report(argv, code, text):
    return check_theorem3(json.loads(_opt(argv, "--config")), code, text)


REPORT_CHECKS = {
    "example-x1-11": check_example,
    "count-points": check_count_points,
    "euler-factor": check_euler_factor,
    "split": check_split,
    "inertia-set": check_inertia_set,
    "prep": check_prep,
    "leading": check_leading,
    "chi-module": check_chi_module,
    "theorem3": check_theorem3_report,
}


def check_report(argv, code, text):
    if argv[0] == "akashi":
        fn = check_akashi_check if "--check" in argv else check_akashi_data
    else:
        fn = REPORT_CHECKS[argv[0]]
    return fn(argv, code, text)


# -- series library results --------------------------------------------------------


def check_series(job, out):
    p, n, d = job["p"], job["N"], job["D"]
    prep = out["prepare"]
    why = check_prepared(p, n, d, job["g"], prep["mu"], prep["lambda"], prep["poly"],
                         prep["precision"], prep["unit"])
    if why:
        return why
    want = arith.series_mul(job["a"], job["b"], p ** n, d)
    product = out["product"]
    if (product["N"], product["D"], product["coeffs"]) != (n, d, want):
        return "product differs"
    if out["multiplicative"] is not True:
        return "degree-wise product triple not multiplicative"
    if out["multiplicative_broken"] is not False:
        return "triple with a factor times T reported multiplicative"
    return check_chi(p, job["chi_exponent"], job["r"], out["closed"], out["oracle"])


def check_all(workload, jobs, outputs):
    """Number of wrong outputs and the first few reasons."""
    wrong, reasons = 0, []
    for job, out in zip(jobs, outputs):
        # Failed operations are counted by the worker; only outputs are checked here.
        if workload == "series":
            whys = [] if "error" in out else [check_series(job, out)]
        else:
            whys = [check_report(argv, code, text)
                    for argv, (code, text) in zip(job, out) if code == 0]
        for why in whys:
            if why:
                wrong += 1
                if len(reasons) < 5:
                    reasons.append(why)
    if len(outputs) != len(jobs):
        wrong += 1
        reasons.append(f"{len(outputs)} outputs for {len(jobs)} jobs")
    return wrong, reasons


def unique_count_ratio(jobs):
    """Distinct (curve, l) pairs over places, from the generated theorem3 documents."""
    pairs, places = set(), 0
    for job in jobs:
        for argv in job:
            if argv[0] != "theorem3":
                continue
            doc = json.loads(_opt(argv, "--config"))
            ci = _curve_index(doc["curve"])
            for l, _, g in place_rows(doc):
                pairs.add((ci, l))
                places += g
    return len(pairs) / places if places else math.nan

