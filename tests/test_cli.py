import gc
import json
import re
import shlex
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eulerchar.cli import _json_text, main

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CALLS = Path(__file__).parent / "golden_calls.txt"  # the argv of each golden report
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


def _golden_calls():
    """The files that the golden calls read, by name, and the (argv, golden file) calls."""
    files, calls = {}, []
    for line in GOLDEN_CALLS.read_text().splitlines():
        if line.startswith("file "):
            _, name, content = line.split(" ", 2)
            files[name] = content
        elif line and not line.startswith("#"):
            golden, *argv = shlex.split(line)
            calls.append((argv, golden))
    return files, calls


GOLDEN_FILES, GOLDEN_ARGVS = _golden_calls()


def test_golden_calls_cover_every_golden_report():
    assert sorted(golden for _, golden in GOLDEN_ARGVS) == sorted(
        path.name for path in GOLDEN.glob("*.json"))


@pytest.mark.parametrize("argv, golden", GOLDEN_ARGVS)
def test_reports_match_golden_output(capsys, monkeypatch, tmp_path, argv, golden):
    monkeypatch.chdir(tmp_path)  # akashi --check echoes its file names as given
    for name, content in GOLDEN_FILES.items():
        (tmp_path / name).write_text(content)
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


def test_document_files_are_read_in_any_json_encoding(capsys, tmp_path):
    # json.loads detects UTF-8 with or without a BOM, UTF-16 and UTF-32 from the first bytes
    doc = '{"p":7,"N":4,"D":8,"poly":"49*T^2 + 7*T^3 + T^5"}'
    for encoding in ("utf-8", "utf-8-sig", "utf-16", "utf-32"):
        path = tmp_path / f"{encoding}.json"
        path.write_bytes(doc.encode(encoding))
        code, out, _ = run(capsys, "leading", "--series", str(path))
        assert code == 0
        assert out == (GOLDEN / "leading-poly.json").read_text(), encoding


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
    (["theorem3", "--config", '{"p":7}'], 2,
     "malformed pipeline document: missing key 'chi_gamma'"),
    (["theorem3", "--config", pipeline(extension={"p": 11, "m": 113})], 2,
     "extension prime disagrees"),
    (["theorem3", "--config", pipeline(tamagawa=[1])], 2, "malformed Tamagawa map"),
    (["count-points", "--curve", '{"b":[]}', "--q", "7"], 2, "malformed curve document"),
    (["count-points", "--curve", '{"a":["1/7","0","0","0","1"]}', "--q", "7"], 2,
     "not q-integral at q = 7"),
    (["euler-factor", "--a", "0", "--q", "1", "--p", "7"], 2, "q must be"),
    (["chi-module", "--module", '{"p":7,"generators":[]}'], 2, "at least one generator"),
    (["chi-module", "--module", '{"p":7,"generators":"T"}'], 2, "'generators' must be a list"),
    (["prep", "--series", '{"p":7,"poly":"T^600*T^600"}'], 2, "exceeds parser cap"),
    (["prep", "--series", '{"p":7,"poly":"T^40","N":4,"D":8}'], 2,
     "exceeds truncation degree"),
    (["example-x1-11", "--chi-gamma", "7^x"], 2, "cannot parse power of 7"),
    (["example-x1-11", "--chi-gamma", "48"], 2, "not a power of 7"),
    (["leading", "--series", '{"p":7,"N":3,"D":2,"coeffs":[0,0,5]}'], 2,
     "a term at T^2 exceeds truncation degree D = 2"),
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
     "curve coefficient a6 must be an integer or a decimal \"n\" or \"n/d\" below 10^2000, "
     "got float"),
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
    # --check reads no corank claim, so it refuses one by the shape rule (coranks.json is
    # written below: an inline part cannot hold two keys, as --check splits on commas)
    (["akashi", "--check", "coranks.json,b.json,c.json"], 2,
     "--check L 'coranks.json': malformed Akashi document: unknown key 'coranks'; the keys read "
     "here are p, N, D, char_elements"),
    # N and D are bounded before any power or list is formed
    (["prep", "--series", '{"p":7,"N":3,"D":100000000,"poly":"T"}'], 2,
     "malformed series document: 'D' = 100000000 passes the bound 1024"),
    (["leading", "--series", '{"p":7,"N":6000,"D":1,"coeffs":[-1]}'], 2,
     "malformed series document: 'N' = 6000 makes p^N pass the bound 10^2000 at p = 7"),
    (["chi-module", "--module", '{"p":7,"N":6000,"generators":["T-1"]}'], 2,
     "'N' = 6000 makes p^N"),
    # an integer literal past CPython's 4,300-digit limit
    (["leading", "--series", '{"p":7,"N":3,"D":2,"coeffs":[%s]}' % ("1" * 4401)], 2,
     "malformed JSON: Exceeds the limit (4300 digits)"),
    # curve coefficients: JSON integers or decimal "n" and "n/d", each below 10^2000
    (["count-points", "--curve", '{"a":["0","-1","1","0","1e5000"]}', "--q", "7"], 2,
     "curve coefficient a6 must be an integer or a decimal"),
    (["count-points", "--curve", '{"a":["0","-1","1","0","1e10000000"]}', "--q", "7"], 2,
     "below 10^2000, got '1e10000000'"),
    (["count-points", "--curve", '{"a":["0","-1","1","0","0.5"]}', "--q", "7"], 2,
     "below 10^2000, got '0.5'"),
    (["theorem3", "--config", pipeline(curve={"a": ["0", "-1", "1", "0", "1e5000"]})], 2,
     "curve coefficient a6 must be an integer or a decimal"),
    # a polynomial's products stay below 10^2000
    (["prep", "--series", '{"p":7,"N":4,"D":8,"poly":"((10^500)^500)^20"}'], 2,
     "polynomial '((10^500)^500)^20' has a coefficient past the bound 10^2000"),
    # a power's degree is capped before any product is formed
    (["prep", "--series", '{"p":7,"N":4,"D":8,"poly":"(T^2)^600"}'], 2,
     "polynomial degree exceeds parser cap 1024"),
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
    # euler-factor names the size of a long q or a, not its digits
    (["euler-factor", "--a", "0", "--q", str(10 ** 2000), "--p", "7"], 2,
     "q must be a prime power with 2 <= q < 10^2000, got a 2001-digit number"),
    (["euler-factor", "--a", str(10 ** 1999), "--q", str(2 ** 6000), "--p", "7"], 2,
     "past the Hasse bound a^2 <= 4q: a has 2000 digits and q 1807"),
    # the least prime past the point-count cap
    (["count-points", "--curve", '{"a":["0","0","0","-1","0"]}', "--q", str(10 ** 16 + 61)], 2,
     "point counting capped at q <= 10000000000000000"),
    # refusals that library tests reach, each through the CLI as well
    (["inertia-set", "--p", "3", "--m", "2"], 2, "extension prime must be >= 5"),
    (["inertia-set", "--p", "7", "--m", "128"], 2,
     "invalid extension parameter: m is a perfect p-th power"),
    (["theorem3", "--config", pipeline(tamagawa={"113": 0})], 2,
     "Tamagawa number must be a positive integer"),
    (["akashi", "--data", '{"p":7,"char_elements":["T"],"coranks":[1,0]}'], 2,
     "need one corank per homological degree"),
    (["akashi", "--data", '{"p":7,"char_elements":["T"],"coranks":[-1]}'], 2,
     "coranks must be nonnegative"),
    (["prep", "--series", '{"p":7,"N":0,"D":4,"coeffs":[1]}'], 2,
     "malformed series document: 'N' and 'D' must be >= 1"),
    (["prep", "--series", '{"p":7,"N":4,"D":4,"poly":5}'], 2,
     "malformed series document: 'poly' must be a string"),
    (["prep", "--series", '{"p":7,"N":4,"D":4,"coeffs":"x"}'], 2,
     "malformed series document: 'coeffs' must be a list"),
    (["chi-module", "--module", '{"p":7}'], 2,
     "malformed module document: missing key 'generators'"),
    (["chi-module", "--oracle", "--module", '{"p":7,"D":80,"generators":["T^65+7"]}'], 2,
     "total lattice rank exceeds 64"),
    (["count-points", "--curve", '{"a":[0,0,0,0,0]}', "--q", "7"], 2,
     "singular curve: discriminant is zero"),
    # a document file that is not UTF-8 is malformed JSON, not a crash (written below)
    (["prep", "--series", "latin1.json"], 2,
     "malformed JSON: 'utf-8' codec can't decode byte 0xe9"),
    (["prep", "--series", "utf16.json"], 2, "malformed JSON: Expecting value"),
    # a long option that is read as a path is quoted once and in part, as is a long chi_gamma
    (["prep", "--series", "[" + ",".join(["1"] * 3001) + "]"], 2,
     "cannot read '[1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1'...: File name too long"),
    (["example-x1-11", "--chi-gamma", "7^" + "9" * 3000], 2,
     "cannot parse power of 7: '7^99999999999999999999999999999999999999'..."),
    # a refused document value, key or number of 300 characters or more is quoted in part,
    # or named by its digit count
    (["split", "--l", "2" + "0" * 300, "--p", "7"], 2, "not prime: a 301-digit integer"),
    (["theorem3", "--config", pipeline(p="x" * 300)], 2,
     "'p' must be a JSON integer, got '%s'..." % ("x" * 40)),
    (["theorem3", "--config", pipeline(**{"k" * 300: 1})], 2,
     "unknown key '%s'...; the keys read here are p, chi_gamma" % ("k" * 40)),
    (["count-points", "--curve", json.dumps({"a": "x" * 300}), "--q", "7"], 2,
     "a1,a2,a3,a4,a6, got '%s'..." % ("x" * 40)),
    (["theorem3", "--config", pipeline(tamagawa="x" * 300)], 2,
     "malformed Tamagawa map: expected an object, got '%s'..." % ("x" * 40)),
    (["theorem3", "--config", pipeline(tamagawa={"1" * 300: 1})], 2,
     "Tamagawa key '%s'... is not a prime dividing m other than p" % ("1" * 40)),
    (["akashi", "--check", '{"coranks":[5]%s},b.json,c.json' % (" " * 300)], 2,
     "--check L '{\"coranks\":[5]%s'...: malformed Akashi document: missing key 'p'"
     % (" " * 26)),
    # one shape rule for every document: a value that is not an object, a missing key and an
    # unknown key are refused in that order, each named by its path in its own document
    (["theorem3", "--config", pipeline(extension={"p": 7})], 2,
     "malformed pipeline document: missing key 'extension.m'"),
    (["theorem3", "--config", pipeline(extension="x")], 2,
     "malformed pipeline document: expected a JSON object at 'extension', got 'x'"),
    (["theorem3", "--config", pipeline(extension={"n": 2})], 2,
     "malformed pipeline document: missing key 'extension.p'"),
    (["theorem3", "--config", pipeline(curve=["0", "-1", "1", "0", "0"])], 2,
     "malformed curve document: expected a JSON object, got ['0', '-1', '1', '0', '0']"),
    (["prep", "--series", '{"N":4,"D":4,"coeffs":[7,1]}'], 2,
     "malformed series document: missing key 'p'"),
    (["prep", "--series", '{"N":4,"D":4,"poly":"T+7"}'], 2,
     "malformed series document: missing key 'p'"),
    (["prep", "--series", "list.json"], 2,
     "malformed series document: expected a JSON object, got [7, 1]"),
    (["chi-module", "--module", '{"p":7,"N":"x","generators":["T"]}'], 2,
     "malformed module document: 'N' must be a JSON integer, got 'x'"),
    (["akashi", "--data", '{"p":7,"D":"x","char_elements":[]}'], 2,
     "malformed Akashi document: 'D' must be a JSON integer, got 'x'"),
    (["akashi", "--data", '{"p":7,"char_elements":["T",5]}'], 2,
     "malformed series document: expected a JSON object, got 5"),
    (["chi-module", "--module", '{"p":7,"generators":[{"N":4}]}'], 2,
     "malformed series document: needs either 'coeffs' or 'poly'"),
    (["count-points", "--curve", "list.json", "--q", "7"], 2,
     "malformed curve document: expected a JSON object, got [7, 1]"),
    # a --check refusal names the part and its file, and lists the keys --check reads
    (["akashi", "--check", "p7.json,extra-key.json,p7.json"], 2,
     "--check M 'extra-key.json': malformed Akashi document: unknown key 'x'; the keys read "
     "here are p, N, D, char_elements\n"),
    (["akashi", "--check", "p7.json,p7.json,list.json"], 2,
     "--check N 'list.json': malformed Akashi document: expected a JSON object, got [7, 1]"),
    (["akashi", "--check", "p7.json,missing.json,p7.json"], 2,
     "--check M 'missing.json': cannot read 'missing.json': No such file or directory"),
    # N, D, a polynomial coefficient, --prec, an integer option, c_v and q_v of 300 characters
    # or more are quoted in part or named by their size
    (["prep", "--series", json.dumps({"p": 7, "N": 10 ** 2000, "D": 4, "poly": "T"})], 2,
     "'N' = a 2001-digit integer makes p^N pass the bound 10^2000 at p = 7"),
    (["prep", "--series", json.dumps({"p": 7, "N": 4, "D": 10 ** 2000, "poly": "T"})], 2,
     "'D' = a 2001-digit integer passes the bound 1024"),
    (["prep", "--series", json.dumps({"p": 7, "N": 4, "D": 4, "poly": "%d*T + 1" % 7 ** 400})], 2,
     "has coefficient a 339-digit integer of T^1, which is 0 mod p^N = 7^4"),
    (["chi-module", "--module", '{"p":7,"generators":["T"]}', "--oracle", "--prec", "-" + "1" * 300],
     2, "--prec must be >= 1, got a 300-digit integer"),
    (["split", "--l", "x" * 3000, "--p", "7"], 2,
     "argument --l: invalid int value: '%s'..." % ("x" * 40)),
    (["split", "--l", "1" * 5000, "--p", "7"], 2,
     "argument --l: invalid int value: 5000 characters pass the interpreter's digit limit"),
    (["theorem3", "--config", pipeline(tamagawa={"113": 7 ** 1000})], 2,
     "at the place with q_v = 113: c_v = a 846-digit integer has v_p(c_v) = 1000 > v_p(L_v) = 0"),
    # l = 2 has residue degree 504 at p = 1009, so q_v = 2^504
    (["theorem3", "--config", pipeline(p=1009, chi_gamma="1", extension={"p": 1009, "m": 2},
                                       tamagawa={"2": 1009 ** 100})], 2,
     "at the place with q_v = a 152-digit integer: c_v = a 301-digit integer has v_p(c_v) = 100"),
])
def test_input_errors_exit_with_a_message(capsys, monkeypatch, tmp_path, argv, code, message):
    monkeypatch.chdir(tmp_path)
    for p in (5, 7):
        (tmp_path / f"p{p}.json").write_text(json.dumps({"p": p, "char_elements": ["T"]}))
    (tmp_path / "deep.json").write_text(pipeline()[:-1] + ', "tamagawa": %s}' % DEEP_JSON)
    (tmp_path / "latin1.json").write_bytes(b'{"p":7,"N":4,"D":4,"poly":"T+\xe9"}')
    (tmp_path / "utf16.json").write_bytes(b"\xff\xfe{}")  # a UTF-16 BOM, then one odd character
    (tmp_path / "list.json").write_text("[7, 1]")
    (tmp_path / "extra-key.json").write_text('{"p": 7, "char_elements": ["T"], "x": 1}')
    (tmp_path / "coranks.json").write_text('{"p": 7, "char_elements": ["T"], "coranks": [1]}')
    got, out, err = run(capsys, *argv)
    assert (got, out) == (code, "")
    assert message in err
    assert len(err) < 200  # a long input is quoted in part or by its size, never echoed


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
    (["theorem3", "--config", pipeline(chi_gamma=49)],
     "malformed pipeline document: 'chi_gamma' must be a JSON string, got 49"),
])
def test_document_numbers_are_not_coerced(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in err


# The golden calls that read a document, and the option that gives it
SHAPE_CALLS = [(argv, argv.index(option) + 1) for argv, _ in GOLDEN_ARGVS
               for option in ("--config", "--series", "--module", "--data", "--curve")
               if option in argv]
OTHER_JSON_VALUES = [None, True, 0, -1, 1.5, "", "x", [], [1], {}, {"p": 7}]
LONG_JSON_VALUES = [10 ** 2000, -10 ** 2000, -3, "7" * 300, "x" * 300]  # huge, negative, long


def _places(doc, path=()):
    """The path of every value below the top of the JSON value ``doc``."""
    items = doc.items() if type(doc) is dict else enumerate(doc) if type(doc) is list else ()
    for key, value in items:
        yield path + (key,)
        yield from _places(value, path + (key,))


@st.composite
def mutated_documents(draw):
    """A golden call's argv with one value of its document swapped for a value of another
    JSON type or for a huge, negative or long value, or with one key of its document deleted
    or one list entry repeated."""
    argv, i = draw(st.sampled_from(SHAPE_CALLS))
    doc = json.loads(argv[i])
    *head, last = draw(st.sampled_from(list(_places(doc))))
    parent = doc
    for key in head:
        parent = parent[key]
    how = draw(st.sampled_from(["retype", "lengthen", "delete or repeat"]))
    if how == "delete or repeat" and type(parent) is dict:
        del parent[last]
    elif how == "delete or repeat":
        parent.insert(last, parent[last])
    else:
        parent[last] = draw(st.sampled_from(LONG_JSON_VALUES if how == "lengthen" else
            [v for v in OTHER_JSON_VALUES if type(v) is not type(parent[last])]))
    return [*argv[:i], json.dumps(doc), *argv[i + 1:]]


def test_shape_calls_cover_every_document_reader():
    assert sorted({f"{argv[0]} {argv[i - 1]}" for argv, i in SHAPE_CALLS}) == [
        "akashi --data", "chi-module --module", "count-points --curve", "leading --series",
        "prep --series", "theorem3 --config"]


# derandomized, so that tools/cli_diff.py sees the same calls on both sides of a diff;
# capsys is read after each call
@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_documents())
def test_a_mutated_document_gives_a_report_or_a_one_line_refusal(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code in (0, 2, 3)
    if code == 0:
        assert err == "" and json.loads(out)["command"] == argv[0]
    else:
        assert out == "" and err.endswith("\n") and err.count("\n") == 1 and len(err) < 200
        # Python's own text for a value of the wrong type, which varies across versions
        for text in ("indices must be", "not subscriptable", "object has no attribute"):
            assert text not in err


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
    mestre = _count_calls(monkeypatch, curves, "_count_mestre")
    exhaustive = _count_calls(monkeypatch, curves, "_count_exhaustive")
    monkeypatch.setattr(cli, "count_points", curves.count_points)
    code, _ = run_report(capsys, "example-x1-11")
    assert code == 0
    assert sorted(q for _, q in calls) == [7] + [113] * 6  # one place above 7, six above 113
    # the curve keeps its counts: the six places above 113 share one count, and
    # 113 < MESTRE_FROM_Q, so both primes take the O(q) route
    assert sorted(q for _, q in exhaustive) == [7, 113]
    assert mestre == []


def test_theorem3_report_counts_each_prime_once_on_either_route(capsys, monkeypatch):
    from eulerchar import curves

    calls = _count_calls(monkeypatch, curves, "count_points")
    mestre = _count_calls(monkeypatch, curves, "_count_mestre")
    exhaustive = _count_calls(monkeypatch, curves, "_count_exhaustive")
    # 29 and 421 are 1 mod 7, so each has g = 6 places; 29 < MESTRE_FROM_Q <= 421
    code, report = run_report(capsys, "theorem3", "--config",
                              pipeline(extension={"p": 7, "m": 29 * 421}))
    assert code == 0
    assert 29 < curves.MESTRE_FROM_Q <= 421
    assert len(report["results"]["places"]) == 12
    assert sorted(q for _, q in calls) == [29] * 6 + [421] * 6
    assert [q for _, q in exhaustive] == [29]
    assert [q for _, q in mestre] == [421]


def test_inertia_set_report_splits_each_prime_once(capsys, monkeypatch):
    from eulerchar import cyclotomic_fields

    # _split is the step split takes once l and p are proved prime
    calls = _count_calls(monkeypatch, cyclotomic_fields, "_split")
    proofs = _count_calls(monkeypatch, cyclotomic_fields, "check_prime")
    code, report = run_report(capsys, "inertia-set", "--p", "7", "--m", "226")
    assert code == 0
    assert report["results"]["primes_with_infinite_inertia"] == [2, 7, 113]
    assert sorted(calls) == [(2, 7), (7, 7), (113, 7)]
    # ExtensionSpec proves p, and prime_factors each l: none is proved again
    assert proofs == [(7,)]


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


def _parse_outcome(capsys, parse, argv):
    """The namespace ``parse(argv)`` returns, or the exit code, stdout and stderr it exits with."""
    try:
        return parse(list(argv))
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["count-points", "-h"], ["no-such-command", "--l", "3"],
    ["split", "--l", "3", "--p", "13", "extra"], ["split", "--l", "3", "--p", "13", "--bogus", "1"],
    ["split", "--l=3", "--p", "13"], ["split", "--l", "3", "--", "--p", "13"],
    ["count-points", "--cur", json.dumps(X1_11), "--q", "7"],
    ["count-points", "--curve", json.dumps(X1_11), "--q", "7", "--q", "11"],
    ["split", "--l", "3"], ["akashi", "--data", "{}", "--check", "a,b,c"],
    ["chi-module", "--module", "{}", "--prec", "x"], ["example-x1-11"],
])
def test_subcommand_parser_gives_what_the_top_level_parser_gives(capsys, argv):
    from eulerchar.cli import _build_parser, _parse_args

    assert (_parse_outcome(capsys, _parse_args, argv)
            == _parse_outcome(capsys, _build_parser().parse_args, argv))


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
                      | st.dictionaries(st.text(), children)
                      # runs of one object, as a report lists the g places above a prime
                      | st.lists(st.tuples(children, st.integers(1, 3))).map(
                          lambda runs: [x for x, n in runs for _ in range(n)])),
    max_leaves=40)


@settings(max_examples=200, deadline=None)
@given(JSON_DOCUMENTS)
def test_writer_matches_json_dumps(doc):
    assert _json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


# equal items are not the same item: True == 1, yet each is written as itself
@pytest.mark.parametrize("doc", [[{"a": True}, {"a": 1}], [[1], [True]], [[0], [False], [0]],
                                 [{"a": [1]}] * 3 + [{"a": [1]}]])
def test_writer_repeats_the_text_of_the_same_item_only(doc):
    assert _json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("doc", [1.5, [1, 2.0], {"a": {"b": [float("nan")]}}, {1: 2}, {"a": b"x"},
                                 [[1.5]] * 3, [[1], [1.0]], [{"a": 1}, {"a": 1.0}]])
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
