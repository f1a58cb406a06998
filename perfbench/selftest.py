"""Tests of the benchmark itself: job lists, the checker and the tracer.

    python3 -m pytest -q perfbench/selftest.py

The file is not named test_*.py, so the repository's own test run does
not collect it.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import arith  # noqa: E402
import check  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402


def _cli_outputs(job_list):
    return [worker.run_cli_job(job) for job in job_list]


@pytest.fixture(scope="module")
def scratch():
    """A directory under perfbench/out, so the tests write only inside the checkout."""
    run.OUT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="module")
def cli_jobs(scratch):
    return jobs.cli_small(2, 1, scratch / "cli")[1][:16]


@pytest.fixture(scope="module")
def cli_outputs(cli_jobs):
    return _cli_outputs(cli_jobs)


@pytest.mark.parametrize("workload", ["pipeline", "series"])
def test_one_seed_gives_one_job_list(workload, scratch):
    first = jobs.make(workload, 7, 1, scratch)
    second = jobs.make(workload, 7, 1, scratch)
    assert json.dumps(first) == json.dumps(second)
    assert json.dumps(first) != json.dumps(jobs.make(workload, 8, 1, scratch))


def test_cli_job_list_repeats_apart_from_file_names(scratch):
    first = jobs.cli_small(7, 1, scratch / "a")
    second = jobs.cli_small(7, 1, scratch / "b")
    assert json.dumps(first).replace(str(scratch / "a"), "") == \
        json.dumps(second).replace(str(scratch / "b"), "")


def test_warmup_is_disjoint_from_timed_list():
    warm, timed = jobs.pipeline(3, 1)
    pairs = [set((check._curve_index(json.loads(j[0][2])["curve"]), l)
                 for j in job_list for l, _, _ in check.place_rows(json.loads(j[0][2])))
             for job_list in (warm, timed)]
    assert not pairs[0] & pairs[1]


def test_cm_closed_form_matches_legendre_sum():
    for l in arith.primes_between(5, 3000):
        assert arith.trace(arith.CM_CURVE, l) == arith.legendre_trace(arith.CM_CURVE, l)


def test_second_seed_runs_clean_cli(cli_jobs, cli_outputs):
    assert all(code == 0 for out in cli_outputs for code, _ in out)
    assert check.check_all("cli_small", cli_jobs, cli_outputs) == (0, [])
    covered = {argv[0] for job in cli_jobs for argv in job}
    assert covered == set(check.REPORT_CHECKS) | {"akashi"}


def test_second_seed_runs_clean_pipeline_and_series():
    timed = jobs.pipeline(2, 1)[1]
    short = [job for job in timed if sum(g * l for l, _, g in check.place_rows(
        json.loads(job[0][2]))) < 20_000][:12]
    assert check.check_all("pipeline", short, _cli_outputs(short)) == (0, [])

    series_jobs = [job for job in jobs.series(2, 1)[1] if job["D"] <= 64][::8]
    outputs = [json.loads(json.dumps(worker.series_output(
        worker.run_series_job(worker.build_series_inputs(job))))) for job in series_jobs]
    assert check.check_all("series", series_jobs, outputs) == (0, [])


def _corrupt(report_text, edit):
    report = json.loads(report_text)
    edit(report["results"])
    return json.dumps(report)


def _first(job_list, outputs, command):
    for job, out in zip(job_list, outputs):
        for argv, (code, text) in zip(job, out):
            if argv[0] == command:
                return argv, code, text
    raise LookupError(command)


def test_checker_rejects_wrong_chi_exponent(cli_jobs, cli_outputs):
    argv, code, text = _first(cli_jobs, cli_outputs, "theorem3")
    assert check.check_report(argv, code, text) is None

    def bump(results):
        p, _, e = results["chi_sigma"].partition("^")
        results["chi_sigma"] = arith.power_str(int(p), (int(e) if e else 1) + 1)
    assert "chi_sigma" in check.check_report(argv, code, _corrupt(text, bump))


def test_checker_rejects_point_count_off_by_one(cli_jobs, cli_outputs):
    argv, code, text = _first(cli_jobs, cli_outputs, "count-points")

    def bump(results):
        results["point_count"] += 1
    assert check.check_report(argv, code, _corrupt(text, bump))

    argv, code, text = _first(cli_jobs, cli_outputs, "theorem3")

    def bump_row(results):
        results["places"][0]["point_count"] += 1
    assert check.check_report(argv, code, _corrupt(text, bump_row))


def test_checker_rejects_reconstruction_off_in_one_coefficient(cli_jobs, cli_outputs):
    argv, code, text = _first(cli_jobs, cli_outputs, "prep")
    assert check.check_report(argv, code, text) is None

    def bump(results):
        unit = results["unit"]
        unit["coeffs"][1] = (unit["coeffs"][1] + 1) % unit["p"] ** unit["N"]
    assert "differs from g" in check.check_report(argv, code, _corrupt(text, bump))

    job = jobs.series(3, 1)[1][0]
    out = worker.series_output(worker.run_series_job(worker.build_series_inputs(job)))
    assert check.check_series(job, out) is None
    out["prepare"]["unit"]["coeffs"][2] += 1
    assert check.check_series(job, out) == "p^mu * P * U differs from g"


def test_checker_rejects_wrong_multiplicativity_and_oracle():
    job = jobs.series(4, 1)[1][1]
    out = worker.series_output(worker.run_series_job(worker.build_series_inputs(job)))
    assert check.check_series(job, out) is None
    for key, value in (("multiplicative_broken", True), ("multiplicative", False)):
        bad = json.loads(json.dumps(out))
        bad[key] = value
        assert check.check_series(job, bad)
    bad = json.loads(json.dumps(out))
    bad["oracle"]["r"] += 1
    assert "oracle" in check.check_series(job, bad)


def test_tracer_counts_and_unique_ratio():
    timed = jobs.pipeline(5, 1)[1]
    short = [job for job in timed if sum(g * l for l, _, g in check.place_rows(
        json.loads(job[0][2]))) < 20_000][:10]
    tracer = spans.Tracer()
    tracer.install()
    try:
        _cli_outputs(short)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    places = sum(g for job in short for _, _, g in check.place_rows(json.loads(job[0][2])))
    assert summary["calls"]["curves.count_points"] == places
    assert summary["calls"]["cli.main"] == len(short)
    ratio = summary["count_points_distinct"] / summary["count_points_calls"]
    assert ratio == check.unique_count_ratio(short)
    metrics = run.layer_metrics(summary, 1.0)
    assert all(v["value"] >= 0 for v in metrics.values())
    # the originals are back in place after uninstall
    from eulerchar import curves, euler_char
    assert euler_char.local_data is curves.local_data
    assert not hasattr(curves.count_points, "__wrapped__")


def test_percentile_interpolates():
    assert run.percentile(list(range(101)), 90) == 90
    assert run.percentile([1.0, 2.0], 50) == 1.5


def test_job_times_scale_to_reference_speed():
    ref = run.calib.REFERENCE_NS
    # at the reference speed a time is unchanged; on a vCPU half as fast it halves
    assert run.scaled_job_ms([3_000_000, 5_000_000], [ref] * 3) == [3.0, 5.0]
    assert run.scaled_job_ms([3_000_000], [2 * ref, 2 * ref]) == [1.5]
    # a job is scaled by the four passes nearest to it
    assert run.scaled_job_ms([4_000_000] * 4, [ref, ref, ref, 2 * ref, 2 * ref])[1] == 3.2


def test_result_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    summary = {"calls": {}, "self_ms": {}, "count_points_distinct": 0, "count_points_calls": 0}
    assert set(run.layer_metrics(summary, 1.0)) == {m["name"] for m in spec["per_layer"]}
    assert {m["name"] for m in spec["end_to_end"]} == {
        "jobs_per_s", "job_p50_ms", "job_p90_ms", "setup_s", "peak_rss_mb"}
