"""Command-line front end.

Every command prints a single JSON report on stdout (keys sorted, no
timestamps, all rationals and prime powers as exact strings) and uses
stderr for diagnostics.  The report is written by :func:`_json_text`, in the
bytes ``json.dumps(report, indent=2, sort_keys=True)`` gives, and holds JSON
types only; an object that a list repeats is written once.  Each subcommand's
arguments are parsed by its own parser (see :func:`_parse_args`).  Exit codes:
0 success, 2 input error, 3 precision error, 4 golden-value mismatch (the
worked-example command only).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .akashi import AkashiData, akashi_series, check_multiplicativity, coranks_consistent
from .curves import Curve, count_points, euler_factor, is_ordinary, local_data, x1_11
from .cyclotomic_fields import (ExtensionSpec, SplittingData, infinite_inertia_places,
                                infinite_inertia_set, split)
from .errors import InputError, PrecisionError
from .euler_char import build_chi_input, euler_product, local_cardinalities
from .gamma_modules import TorsionModule, finite_level_oracle, generalized_chi
from .lambda_algebra import leading_term, series_from_doc, weierstrass_prepare
from .padics import (DECIMAL_INT, MAX_VALUE, PowerOfP, check_prime, document_fields, json_int,
                     prime_factors, quoted)

PAPER_NOTE = "magnitude convention: paper, |x|_p = p^(+v_p(x)), applied to Euler-factor products"
MIXED_NOTE = ("magnitude convention: h1_Fv uses the standard reading of |c_v|_p^(-1), "
              "h1_gamma the paper reading of |c_v^(-1) L_v|_p")
EXACT_NOTE = "magnitude convention: none taken; exact integer/rational arithmetic only"
CHI_GAMMA_NOTE = ("chi_gamma is an external input: the cyclotomic-level Euler characteristic "
                  "is not computed by this tool, and the worked example's aggregate value is "
                  "reproduced only when chi_gamma is supplied")
CONDITIONAL_NOTE = ("finiteness of the generalized Euler characteristic is a hypothesis on the "
                    "underlying module; it is not certified from the series data alone")


def _load_json(text_or_path: str, option: str):
    text = text_or_path.strip()
    if not text:
        raise InputError(f"{option} is empty")
    if not text.startswith("{"):
        try:
            text = Path(text_or_path).read_bytes()  # json.loads detects the encoding
        except OSError as exc:
            raise InputError(f"cannot read {quoted(text_or_path)}: {exc.strerror}") from None
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer literal past int's digit limit
        raise InputError(f"malformed JSON: {exc}") from None
    except RecursionError:
        raise InputError("malformed JSON: nested too deeply") from None


_JSON_LITERALS = {True: "true", False: "false", None: "null"}


def _json_text(value, indent: str = "\n") -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True)`` writes it.

    ``indent`` starts the line ``value`` closes on.  Types are matched exactly:
    dicts with str keys, lists, tuples, str, int, bool and None.  Anything else,
    a float included, raises TypeError, so it cannot reach a report.  Unlike the
    encoder that ``indent`` selects, this leaves no reference cycle behind.
    """
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool or value is None:
        return _JSON_LITERALS[value]
    inner = indent + "  "
    if kind is dict:
        items = [encode_basestring_ascii(k) + ": " + _json_text(v, inner)
                 for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    if kind is list or kind is tuple:
        if all(type(x) is int for x in value):
            items = list(map(int.__repr__, value))
        else:  # an item that *is* the one before it, not one equal to it, repeats its text
            items = []
            for i, x in enumerate(value):
                items.append(items[-1] if i and x is value[i - 1] else _json_text(x, inner))
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    raise TypeError(f"a report holds JSON types only, not {kind.__name__}")


# -- handlers ----------------------------------------------------------------
# Each returns (inputs echo, results, provenance notes); main writes the report.


def _handle_count_points(args):
    curve = Curve.from_json(_load_json(args.curve, "--curve"))
    n = count_points(curve, args.q)
    return ({"curve": curve.to_json(), "q": args.q},
            {"q": args.q, "point_count": n, "a_v": args.q + 1 - n}, [EXACT_NOTE])


def _handle_euler_factor(args):
    # 2 <= q first: prime_factors(0) never returns
    if not (2 <= args.q < MAX_VALUE and len(prime_factors(args.q)) == 1):
        raise InputError("q must be a prime power with 2 <= q < 10^2000, "
                         f"got a {len(str(abs(args.q)))}-digit number")
    if args.a * args.a > 4 * args.q:
        raise InputError(f"trace a is past the Hasse bound a^2 <= 4q: a has "
                         f"{len(str(abs(args.a)))} digits and q {len(str(args.q))}")
    factor = euler_factor(args.a, args.q, check_prime(args.p))
    results = {"value": str(factor.value),
               "valuation_at_p": factor.valuation,
               "magnitude_paper": str(PowerOfP(args.p, factor.valuation))}
    return {"a": args.a, "q": args.q, "p": args.p}, results, [PAPER_NOTE]


def _handle_prep(args):
    series = series_from_doc(_load_json(args.series, "--series"))
    form = weierstrass_prepare(series)
    results = {
        "mu": form.mu,
        "lambda": form.lam,
        "distinguished_poly": list(form.distinguished_poly),
        "poly_precision": form.precision,
        "unit": form.unit.to_json(),
    }
    return {"series": series.to_json()}, results, [EXACT_NOTE]


def _handle_leading(args):
    series = series_from_doc(_load_json(args.series, "--series"))
    term = leading_term(series)
    results = {"alpha": term.alpha, "alpha_valuation": term.alpha_valuation,
               "k": term.k}
    return {"series": series.to_json()}, results, [EXACT_NOTE]


def _handle_chi_module(args):
    if args.prec is not None and not args.oracle:
        raise InputError("--prec requires --oracle")
    if args.prec is not None and args.prec < 1:
        raise InputError(f"--prec must be >= 1, got {quoted(args.prec)}")
    module = TorsionModule.from_json(_load_json(args.module, "--module"))
    closed = generalized_chi(module)
    results = {"closed_form": closed.to_json()}
    if args.oracle:
        prec = args.prec if args.prec is not None else 12
        oracle = finite_level_oracle(module, prec)
        results["oracle"] = oracle.to_json()
        results["oracle_precision_exponent"] = prec
        results["agree"] = closed == oracle
    return ({"module": module.to_json()}, results,
            ["chi value is the standard-magnitude reciprocal of the "
             "constant terms' product: p^(sum of v_p(f_i(0)))"])


def _handle_akashi(args):
    if args.check is not None:
        paths = [part.strip() for part in args.check.split(",")]
        if len(paths) != 3:
            raise InputError("--check needs three files: L,M,N")
        if "" in paths:  # refused before any file is read
            raise InputError(f"part {paths.index('') + 1} of --check is empty")
        data = []
        for part, path in zip("LMN", paths):
            try:
                data.append(AkashiData.from_json(_load_json(path, "--check")))
            except InputError as exc:
                raise InputError(f"--check {part} {quoted(path)}: {exc}") from None
        ok = check_multiplicativity(*data)
        return {"check": paths}, {"multiplicative": ok}, [EXACT_NOTE]
    doc = _load_json(args.data, "--data")
    data = AkashiData.from_json(doc, ("coranks",))
    fraction = akashi_series(data)
    results = {
        "numerator": fraction.numerator.to_json(),
        "denominator": fraction.denominator.to_json(),
        "leading": {"alpha_valuation": fraction.alpha_valuation, "k": fraction.k,
                    "chi_if_finite": str(fraction.chi)},
    }
    if "coranks" in doc:
        if not isinstance(doc["coranks"], list):
            raise InputError("malformed Akashi document: 'coranks' must be a list")
        claimed = [json_int(c, "coranks", "Akashi") for c in doc["coranks"]]
        results["coranks_claimed"] = claimed
        results["coranks_consistent_with_k"] = coranks_consistent(data, claimed, fraction.k)
    return ({"data": data.to_json()}, results,
            ["chi_if_finite is p^(v_p(alpha)), the standard-magnitude "
             "reciprocal of the fraction's leading coefficient", CONDITIONAL_NOTE])


def _handle_split(args):
    return ({"l": args.l, "p": args.p}, {"splitting": split(args.l, args.p).to_json()},
            [EXACT_NOTE])


def _handle_inertia_set(args):
    full = infinite_inertia_set(ExtensionSpec(args.p, args.m))
    rows = {d: d.to_json() for d in full}  # the g places above l share l's row
    results = {
        "primes_with_infinite_inertia": [d.l for d in full],
        "splitting": list(rows.values()),
        "places_away_from_p": [rows[d] for d in infinite_inertia_places(full)],
    }
    return ({"p": args.p, "m": args.m}, results,
            ["the place list expands each prime l != p to its g places, "
             "all sharing residue field size l^f", EXACT_NOTE])


def _handle_theorem(args):
    doc = _load_json(args.config, "--config")
    keys = ("p", "chi_gamma", "curve", "extension", "tamagawa")
    p, chi_gamma, curve_doc, ext_doc = document_fields(doc, "pipeline", keys, keys[:4])
    ext_p, m = document_fields(ext_doc, "pipeline", ("p", "m"), ("p", "m"), "extension")
    p = json_int(p, "p", "pipeline")
    if type(chi_gamma) is not str:
        raise InputError(f"malformed pipeline document: 'chi_gamma' must be a JSON string, "
                         f"got {quoted(chi_gamma)}")
    chi_gamma = PowerOfP.parse(p, chi_gamma)
    curve = Curve.from_json(curve_doc)
    ext = ExtensionSpec(json_int(ext_p, "extension.p", "pipeline"),
                        json_int(m, "extension.m", "pipeline"))
    if ext.p != p:
        raise InputError(f"extension prime disagrees with working prime: 'extension.p' = "
                         f"{ext.p}, 'p' = {p}")

    places = build_chi_input(curve, ext)
    product = euler_product(places, p)
    tamagawa_doc = doc.get("tamagawa", {})
    if type(tamagawa_doc) is not dict:
        raise InputError(f"malformed Tamagawa map: expected an object, got {quoted(tamagawa_doc)}")
    primes = {str(splitting.l) for splitting, _ in places}
    tamagawa = {}
    for key, value in tamagawa_doc.items():
        if key not in primes:  # also refuses '0113' and '1_13', which int() reads as 113
            raise InputError(f"Tamagawa key {quoted(key)} is not a prime dividing m other than p")
        tamagawa[int(key)] = json_int(value, f"tamagawa.{key}", "pipeline")

    place_rows = []
    for (splitting, local), run in itertools.groupby(places):  # a run: the g places above l
        row = {"l": splitting.l, "f": splitting.f, "q_v": splitting.q_v,
               **local.to_json()}
        if splitting.l in tamagawa:
            cards = local_cardinalities(tamagawa[splitting.l], local, p)
            row["h1_gamma"] = str(cards.h1_gamma)
            row["h1_Fv"] = str(cards.h1_Fv)
            row["jv_constant_term_magnitude"] = str(PowerOfP(p, local.euler_valuation_at_p))
        place_rows.extend(row for _ in run)

    results = {
        "chi_gamma": str(chi_gamma),
        "euler_product_magnitude": str(product),
        "chi_sigma": str(chi_gamma * product),
        "places": place_rows,
    }
    notes = [PAPER_NOTE, CHI_GAMMA_NOTE]
    if tamagawa:
        notes.append(MIXED_NOTE)
    return {"config": doc}, results, notes


def _handle_example(args):
    p = 7
    chi_gamma = PowerOfP.parse(p, args.chi_gamma)
    curve = x1_11()
    at_7 = local_data(curve, SplittingData(p, p, 1))  # the one place above 7, ramified
    places = build_chi_input(curve, ExtensionSpec(p, 113))
    splitting_113, at_113 = places[0]
    chi_sigma = chi_gamma * euler_product(places, p)
    checks = [{"name": name, "expected": str(expected), "actual": str(actual),
               "ok": str(expected) == str(actual)} for name, expected, actual in (
        ("point count over F_7", 10, at_7.point_count),
        ("trace of Frobenius at 7", -2, at_7.a_v),
        ("point count over F_113", 105, at_113.point_count),
        ("trace of Frobenius at 113", 9, at_113.a_v),
        ("Euler factor value at the place above 7", "49/36", str(at_7.euler_value)),
        ("Euler factor valuation at the place above 7", 2, at_7.euler_valuation_at_p),
        ("Euler factor valuation at places above 113", 0, at_113.euler_valuation_at_p),
        ("residue degree of 113", 1, splitting_113.f),
        ("number of places above 113", 6, len(places)),
        ("ordinary at 7", True, is_ordinary(at_7.a_v, p)),
        ("product formula output", "7^8", chi_sigma),
    )]
    results = {
        "curve": curve.to_json(),
        "chi_gamma_input": str(chi_gamma),
        "chi_sigma": str(chi_sigma),
        "checks": checks,
        "all_checks_pass": all(c["ok"] for c in checks),
    }
    return ({"p": p, "m": 113, "chi_gamma": args.chi_gamma}, results,
            [PAPER_NOTE, CHI_GAMMA_NOTE])


# -- parser ------------------------------------------------------------------


def _int_option(text: str) -> int:
    """An integer option, read by the digit rule of documents (see padics.DECIMAL_INT)."""
    if not DECIMAL_INT.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {quoted(text)}")
    try:
        return int(text)
    except ValueError:  # past the interpreter's limit on the digits int() reads
        raise argparse.ArgumentTypeError(f"invalid int value: {len(text)} characters pass "
                                         "the interpreter's digit limit") from None


@functools.cache  # built once per process: parse_args leaves the parser unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulerchar",
        description="Exact arithmetic for generalized Euler characteristics: "
                    "power-series preparation, torsion-module invariants, and "
                    "elliptic-curve local Euler factors.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    cp = sub.add_parser("count-points", help="count points of a curve over F_q")
    cp.add_argument("--curve", required=True, help="curve JSON file or inline JSON")
    cp.add_argument("--q", required=True, type=_int_option, help="prime of good reduction")
    cp.set_defaults(handler=_handle_count_points)

    ef = sub.add_parser("euler-factor", help="local Euler factor value and valuation")
    ef.add_argument("--a", required=True, type=_int_option)
    ef.add_argument("--q", required=True, type=_int_option)
    ef.add_argument("--p", required=True, type=_int_option)
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
    cm.add_argument("--prec", type=_int_option, default=None,
                    help="oracle precision exponent (requires --oracle)")
    cm.set_defaults(handler=_handle_chi_module)

    ak = sub.add_parser("akashi", help="alternating product of characteristic elements")
    source = ak.add_mutually_exclusive_group(required=True)
    source.add_argument("--data", help="Akashi JSON file or inline JSON")
    source.add_argument("--check", metavar="L,M,N",
                    help="three files; verify the middle series is the product "
                         "of the outer two")
    ak.set_defaults(handler=_handle_akashi)

    sp = sub.add_parser("split", help="splitting of a prime in the p-th cyclotomic field")
    sp.add_argument("--l", required=True, type=_int_option)
    sp.add_argument("--p", required=True, type=_int_option)
    sp.set_defaults(handler=_handle_split)

    ins = sub.add_parser("inertia-set", help="primes with infinite inertia in the "
                                             "Kummer tower for (p, m)")
    ins.add_argument("--p", required=True, type=_int_option)
    ins.add_argument("--m", required=True, type=_int_option)
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

    parser.subcommands = sub.choices  # each subcommand's own parser, by name
    return parser


def _parse_args(argv: list) -> argparse.Namespace:
    """What ``_build_parser().parse_args(argv)`` returns, or the SystemExit it raises.

    The top-level parser hands everything after a subcommand to that subcommand's
    parser, so a known subcommand's arguments go to its parser directly.  Anything
    else, and any argument that parser leaves over, takes the top-level route, so
    help, usage errors and exit codes are the same bytes either way.
    """
    parser = _build_parser()
    sub = parser.subcommands.get(argv[0]) if argv else None
    # "--" takes the top-level route: its handling has changed across argparse versions
    if sub is not None and "--" not in argv:
        args, rest = sub.parse_known_args(argv[1:], argparse.Namespace(subcommand=argv[0]))
        if not rest:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        inputs, results, notes = args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PrecisionError as exc:
        print(f"precision error: {exc}", file=sys.stderr)
        return 3
    report = {"command": args.subcommand, "inputs_echo": inputs, "results": results,
              "provenance_notes": notes}
    sys.stdout.write(_json_text(report) + "\n")
    return 0 if results.get("all_checks_pass", True) else 4


if __name__ == "__main__":
    sys.exit(main())
