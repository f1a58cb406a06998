import json
from pathlib import Path

import pytest

from eulerchar.cli import main

GOLDEN = Path(__file__).parent / "golden"
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
    assert report["results"]["reconstruction_ok"] is True


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


@pytest.mark.parametrize("argv, golden", [
    (["example-x1-11"], "example-x1-11.json"),
    (["theorem3", "--config", json.dumps({
        "p": 7, "chi_gamma": "7^8", "curve": X1_11,
        "extension": {"p": 7, "m": 226}, "tamagawa": {"113": 1}})], "theorem3-m226.json"),
])
def test_reports_match_golden_output(capsys, argv, golden):
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


@pytest.mark.parametrize("argv, code, message", [
    (["akashi", "--data", '{"p":7,"char_elements":[]}'], 2, "at least one"),
    (["akashi", "--data", '{"p":7,"char_elements":"T"}'], 2, "'char_elements' must be a list"),
    (["akashi", "--data", '{"p":7,"N":2,"D":4,"char_elements":["7","1","7"]}'], 3, "vanishes"),
    (["akashi", "--check", "a.json,b.json"], 2, "three files"),
    (["akashi"], 2, "needs --data or --check"),
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
])
def test_input_errors_exit_with_a_message(capsys, argv, code, message):
    got, out, err = run(capsys, *argv)
    assert (got, out) == (code, "")
    assert message in err


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


def test_akashi_report_computes_the_product_once(capsys, monkeypatch):
    from eulerchar import akashi, cli

    calls = []

    def counted(data, original=akashi.akashi_series):
        calls.append(data)
        return original(data)

    monkeypatch.setattr(akashi, "akashi_series", counted)
    monkeypatch.setattr(cli, "akashi_series", counted)
    code, report = run_report(capsys, "akashi", "--data",
                              '{"p":7,"char_elements":["T","T^2*(1+T)"],"coranks":[1,2]}')
    assert code == 0
    assert report["results"]["coranks_consistent_with_k"] is True
    assert len(calls) == 1
