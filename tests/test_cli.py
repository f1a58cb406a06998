import gc
import json
import re
import shlex
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerchar.cli import _json_text, main

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"
X1_11 = {"a": ["0", "-1", "1", "0", "0"]}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_report(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


def test_split_command(capsys):
    code, report = run_report(capsys, "split", "--l", "113", "--p", "7")
    assert code == 0
    assert report["results"]["splitting"]["f"] == 1
    assert report["results"]["splitting"]["g"] == 6
    assert any("magnitude convention" in note for note in report["provenance_notes"])


def test_euler_factor_command(capsys):
    code, report = run_report(capsys, "euler-factor", "--a", "-2", "--q", "7", "--p", "7")
    assert code == 0
    assert report["results"]["value"] == "49/36"
    assert report["results"]["valuation_at_p"] == 2
    assert report["results"]["magnitude_paper"] == "7^2"


def test_chi_module_counterexample(capsys):
    code, report = run_report(capsys, "chi-module", "--module",
                              '{"p":7,"generators":["T^2"]}')
    assert code == 0
    assert report["results"]["closed_form"] == {"finite": False}


def test_chi_module_with_oracle(capsys):
    code, report = run_report(capsys, "chi-module", "--module",
                              '{"p":7,"generators":["T*(T-7)"]}',
                              "--oracle", "--prec", "10")
    assert code == 0
    assert report["results"]["closed_form"] == {"finite": True, "value": "7", "r": 1}
    assert report["results"]["oracle"] == {"finite": True, "value": "7", "r": 1}
    assert report["results"]["agree"] is True


def test_prec_without_oracle_is_an_input_error(capsys):
    code, _, err = run(capsys, "chi-module", "--module",
                       '{"p":7,"generators":["T"]}', "--prec", "5")
    assert code == 2
    assert "requires --oracle" in err


def test_prep_command(capsys, tmp_path):
    path = tmp_path / "series.json"
    path.write_text(json.dumps(
        {"p": 7, "N": 4, "D": 8, "coeffs": [49, 350, 49, 0, 0, 0, 0, 0]}))
    code, report = run_report(capsys, "prep", "--series", str(path))
    assert code == 0
    assert report["results"]["mu"] == 1
    assert report["results"]["lambda"] == 1
    assert report["results"]["distinguished_poly"] == [7, 1]
    # 49 + 350T + 49T^2 = 7 * (T + 7) * (1 + 7T)
    assert report["results"]["unit"] == {"p": 7, "N": 3, "D": 8, "coeffs": [1, 7, 0, 0, 0, 0, 0, 0]}


def test_leading_command(capsys):
    code, report = run_report(capsys, "leading", "--series",
                              '{"p":7,"N":3,"D":4,"coeffs":[0,0,49,0]}')
    assert code == 0
    assert report["results"] == {"alpha": 49, "alpha_valuation": 2, "k": 2}


def test_leading_accepts_poly_documents(capsys):
    code, report = run_report(capsys, "leading", "--series",
                              '{"p":7,"poly":"7*T","N":5,"D":6}')
    assert code == 0
    assert report["results"] == {"alpha": 7, "alpha_valuation": 1, "k": 1}


def test_akashi_command(capsys):
    code, report = run_report(capsys, "akashi", "--data",
                              '{"p":7,"char_elements":["7*T"]}')
    assert code == 0
    lead = report["results"]["leading"]
    assert lead == {"alpha_valuation": 1, "k": 1, "chi_if_finite": "7"}
    assert any("hypothesis" in note for note in report["provenance_notes"])


@pytest.mark.parametrize("doc, k, alpha_valuation, chi", [
    ({"p": 7, "char_elements": ["49*T^2", "7*T"]}, 1, 1, "7"),
    ({"p": 7, "N": 6, "D": 4, "char_elements": ["T+49", "1", "T+49"]}, 0, 4, "7^4"),
    # each element is exact at N = 4, but the product's constant term 7^4 is not
    ({"p": 7, "N": 4, "D": 4, "char_elements": ["T+49", "1", "T+49"]}, 0, 4, "7^4"),
])
def test_akashi_leading_data_is_read_from_the_elements(capsys, doc, k, alpha_valuation, chi):
    code, report = run_report(capsys, "akashi", "--data", json.dumps(doc))
    assert code == 0
    assert report["results"]["leading"] == {"alpha_valuation": alpha_valuation, "k": k,
                                            "chi_if_finite": chi}


def test_akashi_corank_claims_are_checked(capsys):
    code, report = run_report(capsys, "akashi", "--data",
                              '{"p":7,"char_elements":["7*T"],"coranks":[1]}')
    assert code == 0
    assert report["results"]["coranks_claimed"] == [1]
    assert report["results"]["coranks_consistent_with_k"] is True
    code, report = run_report(capsys, "akashi", "--data",
                              '{"p":7,"char_elements":["7*T"],"coranks":[2]}')
    assert report["results"]["coranks_consistent_with_k"] is False


def test_akashi_check_command(capsys, tmp_path):
    files = {}
    for name, elements in (("L", ["T"]), ("M", ["T*(T+7)"]), ("N", ["T+7"])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"p": 7, "char_elements": elements}))
        files[name] = str(path)
    code, report = run_report(capsys, "akashi", "--check",
                              ",".join([files["L"], files["M"], files["N"]]))
    assert code == 0
    assert report["results"]["multiplicative"] is True


def test_count_points_inline(capsys):
    code, report = run_report(capsys, "count-points", "--curve",
                              '{"a":["0","-1","1","0","0"]}', "--q", "7")
    assert code == 0
    assert report["results"] == {"q": 7, "point_count": 10, "a_v": -2}


def test_inertia_set_command(capsys):
    code, report = run_report(capsys, "inertia-set", "--p", "7", "--m", "113")
    assert code == 0
    assert report["results"]["primes_with_infinite_inertia"] == [7, 113]
    assert len(report["results"]["places_away_from_p"]) == 6


def test_theorem_command(capsys, tmp_path):
    config = {
        "p": 7,
        "chi_gamma": "7^8",
        "curve": {"a": ["0", "-1", "1", "0", "0"]},
        "extension": {"p": 7, "m": 113},
        "tamagawa": {"113": 1},
    }
    path = tmp_path / "pipeline.json"
    path.write_text(json.dumps(config))
    code, report = run_report(capsys, "theorem3", "--config", str(path))
    assert code == 0
    results = report["results"]
    assert results["chi_sigma"] == "7^8"
    assert results["euler_product_magnitude"] == "1"
    assert len(results["places"]) == 6
    assert all(row["h1_Fv"] == "1" for row in results["places"])
    assert any("external input" in note for note in report["provenance_notes"])


def test_example_command_passes_by_default(capsys):
    code, report = run_report(capsys, "example-x1-11")
    assert code == 0
    assert report["results"]["all_checks_pass"] is True
    assert report["results"]["chi_sigma"] == "7^8"
    assert any("external input" in note for note in report["provenance_notes"])


def test_example_command_flags_mismatch(capsys):
    code, out, _ = run(capsys, "example-x1-11", "--chi-gamma", "7^5")
    assert code == 4
    report = json.loads(out)
    assert report["results"]["all_checks_pass"] is False
    failed = [c for c in report["results"]["checks"] if not c["ok"]]
    assert [c["name"] for c in failed] == ["product formula output"]


def test_reports_are_deterministic(capsys):
    _, first, _ = run(capsys, "inertia-set", "--p", "7", "--m", "10")
    _, second, _ = run(capsys, "inertia-set", "--p", "7", "--m", "10")
    assert first == second


def test_input_error_exit_code(capsys):
    code, out, err = run(capsys, "split", "--l", "4", "--p", "7")
    assert code == 2
    assert out == ""
    assert "not prime" in err


def test_precision_error_exit_code(capsys):
    code, _, err = run(capsys, "chi-module", "--module",
                       '{"p":7,"N":2,"D":2,"generators":[{"p":7,"N":2,"D":2,"coeffs":[0,0]}]}')
    assert code == 3
    assert "zero at precision" in err


def test_unknown_subcommand_and_flag(capsys):
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "split", "--bogus", "1")[0] == 2


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "prep", "--series", "/nonexistent/series.json")
    assert code == 2
    assert "cannot read" in err


def test_readme_examples_run(capsys):
    """Each inline `eulerchar` example in the README exits 0; those that read a file are skipped."""
    lines = [line for line in README.read_text().splitlines() if line.startswith("eulerchar ")]
    # "[--option value]" marks an optional argument: run the example with it
    argvs = [shlex.split(re.sub(r"\[(--[^\]]*)\]", r"\1", line))[1:] for line in lines]
    examples = [argv for argv in argvs if not any(arg.endswith(".json") for arg in argv)]
    assert len(examples) == 8
    for argv in examples:
        assert run(capsys, *argv)[0] == 0, argv


@pytest.mark.parametrize("argv, golden", [
    (["example-x1-11"], "example-x1-11.json"),
    (["theorem3", "--config", json.dumps({
        "p": 7, "chi_gamma": "7^8", "curve": X1_11,
        "extension": {"p": 7, "m": 226}, "tamagawa": {"113": 1}})], "theorem3-m226.json"),
    # mu = 1, lambda = 4 and every coefficient nonzero: the division runs seven
    # rounds, and the file pins every coefficient of P and U
    (["prep", "--series", json.dumps({"p": 7, "N": 8, "D": 24, "coeffs": [
        1698683, 2775458, 2812649, 946582, 1653729, 5173385, 321342, 625268,
        1004437, 1816227, 3716706, 1536990, 2941232, 4711336, 222362, 3370059,
        3577553, 3326008, 2866122, 3633189, 4206762, 1410983, 2955715, 657419]})],
     "prep-dense-lambda4.json"),
    (["count-points", "--curve", json.dumps(X1_11), "--q", "10007"], "count-points-q10007.json"),
    (["euler-factor", "--a", "0", "--q", "3", "--p", "5"], "euler-factor-negative.json"),
    (["leading", "--series", '{"p":7,"N":4,"D":8,"poly":"49*T^2 + 7*T^3 + T^5"}'],
     "leading-poly.json"),
    (["chi-module", "--oracle", "--prec", "10", "--module", json.dumps({
        "p": 7, "N": 8, "D": 12, "generators": [
            "T*(T-7)", "T^2+7", {"p": 7, "N": 8, "D": 12, "coeffs": [49, 1]}]})],
     "chi-module-oracle.json"),
    (["akashi", "--data", json.dumps({
        "p": 7, "N": 6, "D": 10, "char_elements": ["T", "T^2*(1+T)", "7+T"],
        "coranks": [1, 2, 0]})], "akashi-data-coranks.json"),
    (["akashi", "--check", "L.json,M.json,N.json"], "akashi-check.json"),
    (["split", "--l", "3", "--p", "13"], "split-l3-p13.json"),
    (["inertia-set", "--p", "7", "--m", "226"], "inertia-set-m226.json"),
])
def test_reports_match_golden_output(capsys, monkeypatch, tmp_path, argv, golden):
    monkeypatch.chdir(tmp_path)  # akashi --check echoes its file names as given
    for name, elements in (("L", ["T"]), ("M", ["T*(T+7)", "1+T"]), ("N", ["T+7", "1+T"])):
        (tmp_path / f"{name}.json").write_text(
            json.dumps({"p": 7, "N": 6, "D": 8, "char_elements": elements}))
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("command, flag, key", [
    ("chi-module", "--module", "generators"),
    ("akashi", "--data", "char_elements"),
])
def test_nested_poly_entries_match_coefficient_entries(capsys, command, flag, key):
    reports = []
    for entry in ({"p": 7, "N": 8, "D": 8, "coeffs": [7, 1, 0, 0, 0, 0, 0, 0]},
                  {"p": 7, "N": 8, "D": 8, "poly": "T+7"}):
        code, out, _ = run(capsys, command, flag,
                           json.dumps({"p": 7, "N": 8, "D": 8, key: [entry]}))
        assert code == 0
        reports.append(out)
    assert reports[0] == reports[1]


def test_malformed_series_documents_are_input_errors(capsys, tmp_path):
    path = tmp_path / "five.json"
    path.write_text("5")
    for doc in (str(path), '{"p":7,"poly":"T","N":"abc"}'):
        code, out, err = run(capsys, "prep", "--series", doc)
        assert code == 2
        assert out == ""
        assert err.startswith("error: malformed series document")


def test_bad_reduction_names_the_prime(capsys):
    config = {"p": 7, "chi_gamma": "7^8", "curve": X1_11,
              "extension": {"p": 7, "m": 11 * 113}}
    code, out, err = run(capsys, "theorem3", "--config", json.dumps(config))
    assert code == 2
    assert out == ""
    assert "11" in err


PIPELINE = {"p": 7, "chi_gamma": "7^8", "curve": X1_11, "extension": {"p": 7, "m": 113}}


def pipeline(**changes):
    return json.dumps({**PIPELINE, **changes})


DEEP_JSON = "[" * 10000 + "]" * 10000


def long_poly(poly):
    """A series document whose polynomial is ``poly`` padded with spaces to 10,000 characters."""
    return '{"p":7,"N":4,"D":4,"poly":"%s"}' % poly.ljust(10_000)

# Refused within a second: a p-th power test over all of [1, m] once took 9.5 s on the first
# (forming 2^1000000007) and did not finish in 100 s on the second.
QUICK_INERTIA_REFUSALS = [
    (["inertia-set", "--p", "1000000007", "--m", "3"], 2,
     "l = 3 has residue degree f = 500000003 in Q(mu_1000000007)"),
    (["inertia-set", "--p", "10007", "--m", str(10 ** 1999 + 1)], 2,
     "past the proven Miller-Rabin range"),
]


@pytest.mark.parametrize("argv, code, message", [
    (["akashi", "--data", '{"p":7,"char_elements":[]}'], 2, "at least one"),
    (["akashi", "--data", '{"p":7,"char_elements":"T"}'], 2, "'char_elements' must be a list"),
    (["akashi", "--data", '{"p":7,"N":2,"D":4,"char_elements":["7","1","7"]}'], 3, "vanishes"),
    (["akashi", "--check", "a.json,b.json"], 2, "three files"),
    (["akashi"], 2, "one of the arguments --data --check is required"),
    (["prep", "--series", '{"p":7'], 2, "malformed JSON"),
    (["theorem3", "--config", '{"p":7}'], 2, "malformed pipeline document: 'chi_gamma'"),
    (["theorem3", "--config", pipeline(extension={"p": 11, "m": 113})], 2,
     "extension prime disagrees"),
    (["theorem3", "--config", pipeline(tamagawa=[1])], 2, "malformed Tamagawa map"),
    (["count-points", "--curve", '{"b":[]}', "--q", "7"], 2, "malformed curve document"),
    (["count-points", "--curve", '{"a":["1/7","0","0","0","1"]}', "--q", "7"], 2,
     "not q-integral at q = 7"),
    (["euler-factor", "--a", "0", "--q", "1", "--p", "7"], 2, "q must be"),
    (["chi-module", "--module", '{"p":7,"generators":[]}'], 2, "at least one generator"),
    (["chi-module", "--module", '{"p":7,"generators":"T"}'], 2, "'generators' must be a list"),
    (["prep", "--series", '{"p":7,"poly":"T^300*T^300"}'], 2, "exceeds parser cap"),
    (["prep", "--series", '{"p":7,"poly":"T^40","N":4,"D":8}'], 2,
     "exceeds truncation degree"),
    (["example-x1-11", "--chi-gamma", "7^x"], 2, "cannot parse power of 7"),
    (["example-x1-11", "--chi-gamma", "48"], 2, "not a power of 7"),
    (["leading", "--series", '{"p":7,"N":3,"D":2,"coeffs":[0,0,5]}'], 2,
     "'coeffs' has 3 entries, more than the truncation degree D = 2"),
    (["theorem3", "--config", pipeline(tamagawa={"113": 1, "5": 3})], 2,
     "Tamagawa key '5' is not a prime dividing m other than p"),
    (["theorem3", "--config", pipeline(tamagawa={"113": 1, "7": 2})], 2,
     "Tamagawa key '7' is not a prime dividing m other than p"),
    (["theorem3", "--config", pipeline(tamagawa={"113": 1, "1_13": 1})], 2,
     "Tamagawa key '1_13' is not a prime dividing m other than p"),
    (["theorem3", "--config", pipeline(tamagawa={"abc": 1})], 2,
     "Tamagawa key 'abc' is not a prime dividing m other than p"),
    # a string is not read one character at a time, nor a float that lost digits
    (["count-points", "--curve", '{"a":"01100"}', "--q", "7"], 2,
     "'a' must be a list of five rational strings or JSON integers"),
    (["count-points", "--curve", '{"a":[0,0,0,-1,12345678901234567891.0]}', "--q", "7"], 2,
     "'a' must be a list of five rational strings or JSON integers"),
    (["theorem3", "--config", pipeline(curve={"a": "01100"})], 2,
     "'a' must be a list of five rational strings or JSON integers"),
    (["euler-factor", "--a", "0", "--q", "6", "--p", "7"], 2, "q must be a prime power"),
    (["euler-factor", "--a", "100", "--q", "7", "--p", "7"], 2, "past the Hasse bound"),
    # l^f with f = 1008 has 9,073 digits, past CPython's int-to-str limit
    (["split", "--l", "1000000021", "--p", "1009"], 2,
     "l = 1000000021 has residue degree f = 1008 in Q(mu_1009)"),
    (["inertia-set", "--p", "1009", "--m", "1000000021"], 2, "residue field too large"),
    (["euler-factor", "--a", "0", "--q", str(2 ** 7200), "--p", "7"], 2,
     "q must be a prime power with 2 <= q < 10^2000"),
    (["theorem3", "--config", pipeline(p=1009, chi_gamma="1",
                                       extension={"p": 1009, "m": 1000000021})], 2,
     "residue field too large"),
    (["akashi", "--data", '{"p":7,"char_elements":["T"]}', "--check", "a,b,c"], 2,
     "not allowed with argument"),
    # keys that no reader uses are refused by name
    (["theorem3", "--config", pipeline(tamgwa={"113": 1})], 2,
     "malformed pipeline document: unknown key 'tamgwa'"),
    (["theorem3", "--config", pipeline(extension={"p": 7, "m": 113, "n": 2})], 2,
     "malformed pipeline document: unknown key 'extension.n'"),
    (["chi-module", "--module", '{"p":7,"n":4,"generators":["T"]}'], 2,
     "malformed module document: unknown key 'n'"),
    (["chi-module", "--module", '{"p":7,"generators":[{"poly":"T","d":4}]}'], 2,
     "malformed series document: unknown key 'd'"),
    (["akashi", "--data", '{"p":7,"char_elements":["T"],"corank":[1]}'], 2,
     "malformed Akashi document: unknown key 'corank'"),
    (["prep", "--series", '{"p":7,"N":4,"D":4,"coeffs":[7,1],"poly":"T"}'], 2,
     "malformed series document: unknown key 'poly'"),
    # --check reads no corank claim, so it refuses one; the first file is inline
    (["akashi", "--check", '{"coranks":[5]},b.json,c.json'], 2,
     "malformed Akashi document '{\"coranks\":[5]}': 'coranks' is read only by akashi --data"),
    # N and D are bounded before any power or list is formed
    (["prep", "--series", '{"p":7,"N":3,"D":100000000,"poly":"T"}'], 2,
     "malformed series document: 'D' = 100000000 passes the bound 1024"),
    (["leading", "--series", '{"p":7,"N":6000,"D":1,"coeffs":[-1]}'], 2,
     "malformed series document: 'N' = 6000 makes p^N = 7^6000 pass the bound 10^2000"),
    (["chi-module", "--module", '{"p":7,"N":6000,"generators":["T-1"]}'], 2,
     "'N' = 6000 makes p^N"),
    # an integer literal past CPython's 4,300-digit limit
    (["leading", "--series", '{"p":7,"N":3,"D":2,"coeffs":[%s]}' % ("1" * 4401)], 2,
     "malformed JSON: Exceeds the limit (4300 digits)"),
    # curve coefficients: JSON integers or decimal "n" and "n/d", each below 10^2000
    (["count-points", "--curve", '{"a":["0","-1","1","0","1e5000"]}', "--q", "7"], 2,
     "'a' must be a list of five rational strings or JSON integers"),
    (["count-points", "--curve", '{"a":["0","-1","1","0","1e10000000"]}', "--q", "7"], 2,
     "got ['0', '-1', '1', '0', '1e10000000']"),
    (["count-points", "--curve", '{"a":["0","-1","1","0","0.5"]}', "--q", "7"], 2,
     "got ['0', '-1', '1', '0', '0.5']"),
    (["theorem3", "--config", pipeline(curve={"a": ["0", "-1", "1", "0", "1e5000"]})], 2,
     "'a' must be a list of five rational strings or JSON integers"),
    # a polynomial's products stay below 10^2000
    (["prep", "--series", '{"p":7,"N":4,"D":8,"poly":"((10^500)^500)^20"}'], 2,
     "polynomial '((10^500)^500)^20' has a coefficient past the bound 10^2000"),
    # a power's degree is capped before any product is formed
    (["prep", "--series", '{"p":7,"N":4,"D":8,"poly":"(T^2)^300"}'], 2,
     "polynomial degree exceeds parser cap 512"),
    # up to N preparation rounds of a D-term product: N * D * bitlen(p^N) is bounded
    (["prep", "--series", json.dumps({"p": 2, "N": 6000, "D": 1024,
                                      "coeffs": [2, 1] + [2] * 1022})], 2,
     "'N' = 6000 and 'D' = 1024 make N * D * bitlen(p^N) pass the cost bound 4000000"),
    # chi_gamma and integer options are ASCII decimal digits; int() alone also reads these
    (["example-x1-11", "--chi-gamma", "7^0_8"], 2, "cannot parse power of 7: '7^0_8'"),
    (["example-x1-11", "--chi-gamma", "7^1_0"], 2, "cannot parse power of 7: '7^1_0'"),
    (["theorem3", "--config", pipeline(chi_gamma="4_9")], 2, "cannot parse power of 7: '4_9'"),
    (["example-x1-11", "--chi-gamma", "\u0668"], 2, "cannot parse power of 7"),
    (["split", "--l", "1_3", "--p", "7"], 2, "argument --l: invalid int value: '1_3'"),
    (["split", "--l", "\u0661\u0663", "--p", "7"], 2, "argument --l: invalid int value"),
    (["split", "--l", "+13", "--p", "7"], 2, "argument --l: invalid int value: '+13'"),
    (["chi-module", "--module", '{"p":7,"generators":["T"]}', "--oracle", "--prec", "0"], 2,
     "--prec must be >= 1, got 0"),
    (["chi-module", "--module", '{"p":7,"generators":["T"]}', "--oracle", "--prec", "-1"], 2,
     "--prec must be >= 1, got -1"),
    # m is below 10^2000
    (["inertia-set", "--p", "7", "--m", str(10 ** 4299 + 3)], 2,
     "invalid extension parameter: m passes the bound 10^2000"),
    (["theorem3", "--config", pipeline(extension={"p": 7, "m": 10 ** 2000})], 2,
     "invalid extension parameter: m passes the bound 10^2000"),
    *QUICK_INERTIA_REFUSALS,
    # a Tamagawa number with v_p(c_v) > v_p(L_v) would make h1_gamma a negative power of p
    (["theorem3", "--config", pipeline(tamagawa={"113": 7})], 2,
     "convention violation at the place with q_v = 113: c_v = 7 has v_p(c_v) = 1 > "
     "v_p(L_v) = 0, with p = 7"),
    # an exact polynomial coefficient that p^N would reduce to 0 is refused, not dropped
    (["chi-module", "--module", '{"p":7,"N":4,"D":8,"generators":["T+2401"]}'], 2,
     "polynomial 'T+2401' has coefficient 2401 of T^0, which is 0 mod p^N = 7^4"),
    (["chi-module", "--module", '{"p":7,"N":4,"D":4,"generators":["T^2+2401*T"]}'], 2,
     "polynomial 'T^2+2401*T' has coefficient 2401 of T^1, which is 0 mod p^N = 7^4"),
    # a prime mismatch names the entry and both primes (p7.json and p5.json are written below)
    (["akashi", "--check", "p7.json,p5.json,p7.json"], 2,
     "prime mismatch: term 1 (M) is at p = 5, term 0 (L) at p = 7"),
    (["chi-module", "--module", '{"p":7,"generators":[{"p":5,"coeffs":[1,1]}]}'], 2,
     "prime mismatch: generator 0 is at p = 5, the module at p = 7"),
    (["akashi", "--data", '{"p":7,"char_elements":[{"p":5,"coeffs":[1,1]}]}'], 2,
     "prime mismatch: characteristic element 0 is at p = 5, the data at p = 7"),
    # errors name the generator or the field
    (["chi-module", "--module", '{"p":7,"generators":["T","0"]}'], 3,
     "generator 1 is indistinguishable from zero at precision"),
    (["chi-module", "--oracle", "--module", '{"p":7,"generators":["T","49"]}'], 2,
     "component not oracle-representable: generator 1 is a unit times p^mu = 7^2"),
    (["inertia-set", "--p", "7", "--m", "1"], 2, "invalid extension parameter: m must be >= 2"),
    (["theorem3", "--config", pipeline(extension={"p": 5, "m": 113})], 2,
     "extension prime disagrees with working prime: 'extension.p' = 5, 'p' = 7"),
    # a key no reader uses would be echoed into the report, a float or NaN included
    (["theorem3", "--config", pipeline(curve={**X1_11, "x": 1.5})], 2,
     "malformed curve document: unknown key 'x'"),
    # nesting past what the parsers recurse through (deep.json is written below)
    (["leading", "--series", '{"p":7,"N":4,"D":4,"poly":"%sT"}' % ("-" * 10000)], 2,
     "cannot parse polynomial '---"),
    (["prep", "--series", '{"p":%s}' % DEEP_JSON], 2, "malformed JSON: nested too deeply"),
    (["theorem3", "--config", "deep.json"], 2, "malformed JSON: nested too deeply"),
    # an empty --check is a source too, not a missing one
    (["akashi", "--check", ""], 2, "--check needs three files"),
    # a polynomial error quotes at most 40 characters of the text, whatever its length
    (["leading", "--series", long_poly("T+")], 2, "cannot parse polynomial 'T+"),
    (["leading", "--series", long_poly("T^T")], 2, "unsupported exponent in polynomial 'T^T"),
    (["leading", "--series", long_poly("T/7")], 2, "unsupported expression in polynomial 'T/7"),
    (["leading", "--series", long_poly("9" * 2001 + "*T")], 2,
     "has a coefficient past the bound 10^2000"),
    (["leading", "--series", long_poly("2401*T")], 2,
     "polynomial '%s'... has coefficient 2401 of T^1, which is 0 mod p^N = 7^4"
     % "2401*T".ljust(40)),
    # an empty or blank document option is refused by name, not read as a path
    (["akashi", "--data", ""], 2, "error: --data is empty"),
    (["prep", "--series", "  "], 2, "error: --series is empty"),
    (["akashi", "--check", "a.json,,c.json"], 2, "error: part 2 of --check is empty"),
])
def test_input_errors_exit_with_a_message(capsys, monkeypatch, tmp_path, argv, code, message):
    monkeypatch.chdir(tmp_path)
    for p in (5, 7):
        (tmp_path / f"p{p}.json").write_text(json.dumps({"p": p, "char_elements": ["T"]}))
    (tmp_path / "deep.json").write_text(pipeline()[:-1] + ', "tamagawa": %s}' % DEEP_JSON)
    got, out, err = run(capsys, *argv)
    assert (got, out) == (code, "")
    assert message in err
    if sum(map(len, argv)) >= 10_000:  # a long input is quoted in part, not echoed
        assert len(err) < 200


@pytest.mark.parametrize("argv, code, message", QUICK_INERTIA_REFUSALS)
def test_inertia_set_refusals_take_under_a_second(capsys, argv, code, message):
    start = time.perf_counter()
    got, _, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert got == code and message in err


def test_undecided_primality_names_the_size_not_the_number(capsys):
    code, out, err = run(capsys, "inertia-set", "--p", "10007", "--m", str(10 ** 1999 + 1))
    assert (code, out) == (2, "")
    assert "primality of a 2002-digit number not decided" in err
    assert err.count("\n") == 1 and len(err) < 200


@pytest.mark.parametrize("argv, message", [
    (["theorem3", "--config", pipeline(p=7.9)], "'p' must be a JSON integer, got 7.9"),
    (["theorem3", "--config", pipeline(p=1)], "not prime: 1"),
    (["theorem3", "--config", pipeline(extension={"p": "7", "m": 113})],
     "'extension.p' must be a JSON integer, got '7'"),
    (["theorem3", "--config", pipeline(extension={"p": 7, "m": 113.5})],
     "'extension.m' must be a JSON integer, got 113.5"),
    (["theorem3", "--config", pipeline(tamagawa={"113": 1.5})],
     "'tamagawa.113' must be a JSON integer, got 1.5"),
    (["akashi", "--data", '{"p":7,"char_elements":["7*T"],"coranks":["x"]}'],
     "'coranks' must be a JSON integer, got 'x'"),
    (["akashi", "--data", '{"p":7,"char_elements":["7*T"],"coranks":[1.9]}'],
     "'coranks' must be a JSON integer, got 1.9"),
    (["akashi", "--data", '{"p":7,"char_elements":["7*T"],"coranks":[true]}'],
     "'coranks' must be a JSON integer, got True"),
    (["akashi", "--data", '{"p":7,"char_elements":["7*T"],"coranks":5}'],
     "'coranks' must be a list"),
])
def test_document_numbers_are_not_coerced(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in err


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_akashi_report_computes_the_product_once(capsys, monkeypatch):
    from eulerchar import akashi, cli

    calls = _count_calls(monkeypatch, akashi, "akashi_series")
    monkeypatch.setattr(cli, "akashi_series", akashi.akashi_series)
    code, report = run_report(capsys, "akashi", "--data",
                              '{"p":7,"char_elements":["T","T^2*(1+T)"],"coranks":[1,2]}')
    assert code == 0
    assert report["results"]["coranks_consistent_with_k"] is True
    assert len(calls) == 1


def test_residue_field_below_the_bound_is_reported(capsys):
    # 2 has order 6636 mod 6637: q_v = 2^6636 has 1,998 digits and the Euler
    # factor's numerator q_v^2 3,996, both under CPython's int-to-str limit
    code, report = run_report(capsys, "theorem3", "--config", pipeline(
        p=6637, chi_gamma="1", extension={"p": 6637, "m": 2}))
    assert code == 0
    [row] = report["results"]["places"]
    assert (row["f"], row["q_v"]) == (6636, 2 ** 6636)


def test_example_report_counts_each_prime_once_per_place(capsys, monkeypatch):
    from eulerchar import cli, curves

    calls = _count_calls(monkeypatch, curves, "count_points")
    monkeypatch.setattr(cli, "count_points", curves.count_points)
    code, _ = run_report(capsys, "example-x1-11")
    assert code == 0
    assert sorted(q for _, q in calls) == [7] + [113] * 6  # one place above 7, six above 113


def test_inertia_set_report_splits_each_prime_once(capsys, monkeypatch):
    from eulerchar import cli, cyclotomic_fields

    calls = _count_calls(monkeypatch, cyclotomic_fields, "split")
    monkeypatch.setattr(cli, "split", cyclotomic_fields.split)
    code, report = run_report(capsys, "inertia-set", "--p", "7", "--m", "226")
    assert code == 0
    assert report["results"]["primes_with_infinite_inertia"] == [2, 7, 113]
    assert sorted(calls) == [(2, 7), (7, 7), (113, 7)]


def test_calls_in_one_process_share_no_state(capsys):
    # the parser is built once per process; each report must still depend
    # only on its own argv, whatever ran before it
    module = '{"p":7,"generators":["T*(T-7)"]}'
    calls = [
        ["chi-module", "--module", module, "--oracle", "--prec", "10"],
        ["chi-module", "--module", module],
        ["split", "--l", "x", "--p", "7"],
        ["example-x1-11", "--chi-gamma", "7^5"],
        ["split", "--l", "113", "--p", "7"],
        ["example-x1-11"],
        ["count-points", "--curve", json.dumps(X1_11), "--q", "113"],
    ]
    forward = [run(capsys, *argv) for argv in calls]
    backward = [run(capsys, *argv) for argv in reversed(calls)][::-1]
    assert forward == backward
    assert [code for code, _, _ in forward] == [0, 0, 2, 4, 0, 0, 0]
    assert "oracle" not in json.loads(forward[1][1])["results"]
    assert "invalid int value" in forward[2][2]
    assert json.loads(forward[5][1])["results"]["chi_gamma_input"] == "7^8"


def test_writer_matches_json_dumps_on_golden_reports():
    for path in sorted(GOLDEN.glob("*.json")):
        text = path.read_text()
        report = json.loads(text)
        assert _json_text(report) + "\n" == text
        assert _json_text(report) == json.dumps(report, indent=2, sort_keys=True)


JSON_DOCUMENTS = st.recursive(
    st.none() | st.booleans() | st.text()
    | st.integers(min_value=-10 ** 1999, max_value=10 ** 1999)
    | st.sampled_from([0, 10 ** 1999, -10 ** 1999, "", "\x00\x1f\x7f\"\\", "\u00e9\u4e2d\U0001f600"]),
    lambda children: (st.lists(children) | st.lists(children).map(tuple)
                      | st.dictionaries(st.text(), children)),
    max_leaves=40)


@settings(max_examples=200, deadline=None)
@given(JSON_DOCUMENTS)
def test_writer_matches_json_dumps(doc):
    assert _json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("doc", [1.5, [1, 2.0], {"a": {"b": [float("nan")]}}, {1: 2}, {"a": b"x"}])
def test_writer_refuses_what_json_cannot_hold_exactly(doc):
    with pytest.raises(TypeError):
        _json_text(doc)


def test_reports_leave_no_garbage(capsys, tmp_path):
    """A successful report leaves no reference cycle for the collector to find."""
    for name, elements in (("L", ["T"]), ("M", ["T*(T+7)", {"coeffs": [1, 1]}]),
                           ("N", ["T+7", "1+T"])):
        (tmp_path / f"{name}.json").write_text(
            json.dumps({"p": 7, "N": 6, "D": 8, "char_elements": elements}))
    check = ",".join(str(tmp_path / f"{name}.json") for name in "LMN")
    module = {"p": 7, "N": 8, "D": 12, "generators": ["T*(T-7)", {"coeffs": [49, 1]}]}
    akashi = {"p": 7, "N": 6, "D": 10, "char_elements": ["T", {"coeffs": [0, 0, 1, 1]}, "7+T"],
              "coranks": [1, 2, 0]}
    calls = [
        ["count-points", "--curve", json.dumps(X1_11), "--q", "113"],
        ["euler-factor", "--a", "-2", "--q", "7", "--p", "7"],
        ["prep", "--series", '{"p":7,"N":6,"D":8,"poly":"T^2+7*T+49"}'],
        ["leading", "--series", '{"p":7,"N":4,"D":8,"coeffs":[0,0,49,7]}'],
        ["chi-module", "--oracle", "--module", json.dumps(module)],
        ["akashi", "--data", json.dumps(akashi)],
        ["akashi", "--check", check],
        ["split", "--l", "3", "--p", "13"],
        ["inertia-set", "--p", "7", "--m", "226"],
        ["theorem3", "--config", pipeline(tamagawa={"113": 1})],
        ["example-x1-11"],
    ]
    assert {argv[0] for argv in calls} == {
        "count-points", "euler-factor", "prep", "leading", "chi-module", "akashi", "split",
        "inertia-set", "theorem3", "example-x1-11"}
    for argv in calls:
        assert main(argv) == 0  # first calls build the parser and fill module caches
    capsys.readouterr()
    garbage = []
    gc.disable()
    try:
        for argv in calls:
            gc.collect()
            code = main(argv)
            garbage.append((argv[0], code, gc.collect()))
    finally:
        gc.enable()
    assert garbage == [(argv[0], 0, 0) for argv in calls]
