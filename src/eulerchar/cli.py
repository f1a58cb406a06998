"""Command-line front end.

Every command prints a single JSON report on stdout (keys sorted, no
timestamps, all rationals and prime powers as exact strings) and uses
stderr for diagnostics.  Exit codes: 0 success, 2 input error, 3 precision
error, 4 golden-value mismatch (the worked-example command only).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .akashi import AkashiData, akashi_series, check_multiplicativity, coranks_consistent
from .curves import Curve, count_points, euler_factor, is_ordinary, x1_11
from .cyclotomic_fields import ExtensionSpec, infinite_inertia_places, infinite_inertia_set, split
from .errors import InputError, PrecisionError
from .euler_char import build_chi_input, local_cardinalities, theorem_chi
from .gamma_modules import TorsionModule, finite_level_oracle, generalized_chi
from .lambda_algebra import leading_term, series_from_doc, weierstrass_prepare
from .padics import PowerOfP, format_rational, json_int

PAPER_NOTE = "magnitude convention: paper, |x|_p = p^(+v_p(x)), applied to Euler-factor products"
MIXED_NOTE = ("magnitude convention: h1_Fv uses the standard reading of |c_v|_p^(-1), "
              "h1_gamma the paper reading of |c_v^(-1) L_v|_p")
EXACT_NOTE = "magnitude convention: none taken; exact integer/rational arithmetic only"
CHI_GAMMA_NOTE = ("chi_gamma is an external input: the cyclotomic-level Euler characteristic "
                  "is not computed by this tool, and the worked example's aggregate value is "
                  "reproduced only when chi_gamma is supplied")
CONDITIONAL_NOTE = ("finiteness of the generalized Euler characteristic is a hypothesis on the "
                    "underlying module; it is not certified from the series data alone")


def _report(command: str, inputs: dict, results: dict, notes) -> dict:
    return {"command": command, "inputs_echo": inputs, "results": results,
            "provenance_notes": list(notes)}


def _load_json(text_or_path: str):
    text = text_or_path.strip()
    if not text.startswith("{"):
        try:
            text = Path(text_or_path).read_text()
        except OSError as exc:
            raise InputError(f"cannot read {text_or_path!r}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON: {exc}") from None


# -- handlers ----------------------------------------------------------------


def _handle_count_points(args):
    curve = Curve.from_json(_load_json(args.curve))
    n = count_points(curve, args.q)
    results = {"q": args.q, "point_count": n, "a_v": args.q + 1 - n}
    report = _report("count-points", {"curve": curve.to_json(), "q": args.q},
                     results, [EXACT_NOTE])
    return report, 0


def _handle_euler_factor(args):
    factor = euler_factor(args.a, args.q, args.p)
    results = {"value": format_rational(factor.value),
               "valuation_at_p": factor.valuation,
               "magnitude_paper": str(PowerOfP(args.p, factor.valuation))}
    report = _report("euler-factor", {"a": args.a, "q": args.q, "p": args.p},
                     results, [PAPER_NOTE])
    return report, 0


def _handle_prep(args):
    series = series_from_doc(_load_json(args.series))
    form = weierstrass_prepare(series)
    results = {
        "mu": form.mu,
        "lambda": form.lam,
        "distinguished_poly": list(form.distinguished_poly),
        "poly_precision": form.precision,
        "unit": form.unit.to_json(),
        "reconstruction_ok": form.reconstruct().agrees_with(series),
    }
    report = _report("prep", {"series": series.to_json()}, results, [EXACT_NOTE])
    return report, 0


def _handle_leading(args):
    series = series_from_doc(_load_json(args.series))
    term = leading_term(series)
    results = {"alpha": term.alpha, "alpha_valuation": term.alpha_valuation,
               "k": term.k}
    report = _report("leading", {"series": series.to_json()}, results, [EXACT_NOTE])
    return report, 0


def _handle_chi_module(args):
    if args.prec is not None and not args.oracle:
        raise InputError("--prec requires --oracle")
    module = TorsionModule.from_json(_load_json(args.module))
    closed = generalized_chi(module)
    results = {"closed_form": closed.to_json()}
    if args.oracle:
        prec = args.prec if args.prec is not None else 12
        oracle = finite_level_oracle(module, prec)
        results["oracle"] = oracle.to_json()
        results["oracle_precision_exponent"] = prec
        results["agree"] = closed == oracle
    report = _report("chi-module", {"module": module.to_json()}, results,
                     ["chi value is the standard-magnitude reciprocal of the "
                      "constant terms' product: p^(sum of v_p(f_i(0)))"])
    return report, 0


def _handle_akashi(args):
    if args.check:
        paths = [part.strip() for part in args.check.split(",")]
        if len(paths) != 3:
            raise InputError("--check needs three files: L,M,N")
        l_data, m_data, n_data = (AkashiData.from_json(_load_json(p)) for p in paths)
        ok = check_multiplicativity(l_data, m_data, n_data)
        report = _report("akashi", {"check": paths}, {"multiplicative": ok},
                         [EXACT_NOTE])
        return report, 0
    if not args.data:
        raise InputError("akashi needs --data or --check")
    doc = _load_json(args.data)
    data = AkashiData.from_json(doc)
    fraction = akashi_series(data)
    lead = fraction.leading()
    results = {
        "numerator": fraction.numerator.to_json(),
        "denominator": fraction.denominator.to_json(),
        "leading": {"alpha_valuation": lead.alpha_valuation, "k": lead.k,
                    "chi_if_finite": str(lead.chi)},
    }
    if "coranks" in doc:
        if not isinstance(doc["coranks"], list):
            raise InputError("malformed Akashi document: 'coranks' must be a list")
        claimed = [json_int(c, "coranks", "Akashi") for c in doc["coranks"]]
        results["coranks_claimed"] = claimed
        results["coranks_consistent_with_k"] = coranks_consistent(data, claimed, lead.k)
    report = _report("akashi", {"data": data.to_json()}, results,
                     ["chi_if_finite is p^(v_p(alpha)), the standard-magnitude "
                      "reciprocal of the fraction's leading coefficient",
                      CONDITIONAL_NOTE])
    return report, 0


def _handle_split(args):
    data = split(args.l, args.p)
    report = _report("split", {"l": args.l, "p": args.p},
                     {"splitting": data.to_json()}, [EXACT_NOTE])
    return report, 0


def _handle_inertia_set(args):
    ext = ExtensionSpec(args.p, args.m)
    full = infinite_inertia_set(ext)
    places = infinite_inertia_places(ext)
    results = {
        "primes_with_infinite_inertia": [d.l for d in full],
        "splitting": [d.to_json() for d in full],
        "places_away_from_p": [d.to_json() for d in places],
    }
    report = _report("inertia-set", {"p": args.p, "m": args.m}, results,
                     ["the place list expands each prime l != p to its g places, "
                      "all sharing residue field size l^f", EXACT_NOTE])
    return report, 0


def _handle_theorem(args):
    doc = _load_json(args.config)
    try:
        p = json_int(doc["p"], "p", "pipeline")
        chi_gamma = PowerOfP.parse(p, str(doc["chi_gamma"]))
        curve = Curve.from_json(doc["curve"])
        ext_doc = doc["extension"]
        ext = ExtensionSpec(json_int(ext_doc["p"], "extension.p", "pipeline"),
                            json_int(ext_doc["m"], "extension.m", "pipeline"))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed pipeline document: {exc}") from None
    if ext.p != p:
        raise InputError("extension prime disagrees with working prime")
    tamagawa = None
    if "tamagawa" in doc:
        try:
            tamagawa = {int(k): json_int(v, f"tamagawa.{k}", "pipeline")
                        for k, v in doc["tamagawa"].items()}
        except (TypeError, ValueError, AttributeError) as exc:
            raise InputError(f"malformed Tamagawa map: {exc}") from None

    chi_input = build_chi_input(curve, ext, chi_gamma)
    chi_sigma = theorem_chi(chi_input)

    place_rows = []
    for splitting, local in chi_input.places:
        row = {"l": splitting.l, "f": splitting.f, "q_v": splitting.q_v,
               **local.to_json()}
        if tamagawa and splitting.l in tamagawa:
            cards = local_cardinalities(tamagawa[splitting.l], local, p)
            row["h1_gamma"] = str(cards.h1_gamma)
            row["h1_Fv"] = str(cards.h1_Fv)
            row["jv_constant_term_magnitude"] = str(cards.jv_constant_term_magnitude)
        place_rows.append(row)

    results = {
        "chi_gamma": str(chi_gamma),
        "euler_product_magnitude": str(chi_sigma / chi_gamma),
        "chi_sigma": str(chi_sigma),
        "places": place_rows,
    }
    notes = [PAPER_NOTE, CHI_GAMMA_NOTE]
    if tamagawa:
        notes.append(MIXED_NOTE)
    report = _report("theorem3", {"config": doc}, results, notes)
    return report, 0


def _handle_example(args):
    p = 7
    curve = x1_11()
    ext = ExtensionSpec(7, 113)
    chi_gamma = PowerOfP.parse(p, args.chi_gamma)

    checks = []

    def check(name, expected, actual):
        checks.append({"name": name, "expected": str(expected),
                       "actual": str(actual), "ok": str(expected) == str(actual)})

    n7 = count_points(curve, 7)
    check("point count over F_7", 10, n7)
    check("trace of Frobenius at 7", -2, 7 + 1 - n7)
    n113 = count_points(curve, 113)
    check("point count over F_113", 105, n113)
    check("trace of Frobenius at 113", 9, 113 + 1 - n113)
    factor7 = euler_factor(7 + 1 - n7, 7, p)
    check("Euler factor value at the place above 7", "49/36",
          format_rational(factor7.value))
    check("Euler factor valuation at the place above 7", 2, factor7.valuation)
    factor113 = euler_factor(113 + 1 - n113, 113, p)
    check("Euler factor valuation at places above 113", 0, factor113.valuation)
    splitting = split(113, 7)
    check("residue degree of 113", 1, splitting.f)
    check("number of places above 113", 6, splitting.g)
    check("ordinary at 7", True, is_ordinary(7 + 1 - n7, p))

    chi_input = build_chi_input(curve, ext, chi_gamma)
    chi_sigma = theorem_chi(chi_input)
    check("product formula output", "7^8", chi_sigma)

    all_ok = all(c["ok"] for c in checks)
    results = {
        "curve": curve.to_json(),
        "chi_gamma_input": str(chi_gamma),
        "chi_sigma": str(chi_sigma),
        "checks": checks,
        "all_checks_pass": all_ok,
    }
    report = _report("example-x1-11",
                     {"p": p, "m": 113, "chi_gamma": args.chi_gamma},
                     results, [PAPER_NOTE, CHI_GAMMA_NOTE])
    return report, 0 if all_ok else 4


# -- parser ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulerchar",
        description="Exact arithmetic for generalized Euler characteristics: "
                    "power-series preparation, torsion-module invariants, and "
                    "elliptic-curve local Euler factors.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    cp = sub.add_parser("count-points", help="count points of a curve over F_q")
    cp.add_argument("--curve", required=True, help="curve JSON file or inline JSON")
    cp.add_argument("--q", required=True, type=int, help="prime of good reduction")
    cp.set_defaults(handler=_handle_count_points)

    ef = sub.add_parser("euler-factor", help="local Euler factor value and valuation")
    ef.add_argument("--a", required=True, type=int)
    ef.add_argument("--q", required=True, type=int)
    ef.add_argument("--p", required=True, type=int)
    ef.set_defaults(handler=_handle_euler_factor)

    pr = sub.add_parser("prep", help="Weierstrass preparation of a series")
    pr.add_argument("--series", required=True, help="series JSON file or inline JSON")
    pr.set_defaults(handler=_handle_prep)

    le = sub.add_parser("leading", help="leading term of a series")
    le.add_argument("--series", required=True, help="series JSON file or inline JSON")
    le.set_defaults(handler=_handle_leading)

    cm = sub.add_parser("chi-module", help="Euler characteristic of a torsion module")
    cm.add_argument("--module", required=True, help="module JSON file or inline JSON")
    cm.add_argument("--oracle", action="store_true",
                    help="also run the finite-level linear-algebra oracle")
    cm.add_argument("--prec", type=int, default=None,
                    help="oracle precision exponent (requires --oracle)")
    cm.set_defaults(handler=_handle_chi_module)

    ak = sub.add_parser("akashi", help="alternating product of characteristic elements")
    ak.add_argument("--data", help="Akashi JSON file or inline JSON")
    ak.add_argument("--check", metavar="L,M,N",
                    help="three files; verify the middle series is the product "
                         "of the outer two")
    ak.set_defaults(handler=_handle_akashi)

    sp = sub.add_parser("split", help="splitting of a prime in the p-th cyclotomic field")
    sp.add_argument("--l", required=True, type=int)
    sp.add_argument("--p", required=True, type=int)
    sp.set_defaults(handler=_handle_split)

    ins = sub.add_parser("inertia-set", help="primes with infinite inertia in the "
                                             "Kummer tower for (p, m)")
    ins.add_argument("--p", required=True, type=int)
    ins.add_argument("--m", required=True, type=int)
    ins.set_defaults(handler=_handle_inertia_set)

    th = sub.add_parser("theorem3", help="evaluate the product formula from a "
                                         "pipeline document")
    th.add_argument("--config", required=True, help="pipeline JSON file or inline JSON")
    th.set_defaults(handler=_handle_theorem)

    ex = sub.add_parser("example-x1-11", help="run the worked example and compare "
                                              "every intermediate to its expected value")
    ex.add_argument("--chi-gamma", default="7^8", dest="chi_gamma",
                    help="externally supplied cyclotomic-level characteristic "
                         "(default 7^8)")
    ex.set_defaults(handler=_handle_example)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        report, code = args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PrecisionError as exc:
        print(f"precision error: {exc}", file=sys.stderr)
        return 3
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
