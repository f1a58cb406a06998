"""Benchmark of eulerchar: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The run measures set-up time (fresh
interpreters until the CLI parser is built), generates the seeded job
list, runs it in a fresh worker process (perfbench/worker.py), checks
every output with perfbench/check.py, and prints a diagnostics line and
then the result line.  With --trace 1 the job list runs under the span
tracer and the result carries the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
OUT = HERE / "out"
WORKLOADS = ("pipeline", "series", "cli_small")
SETUP_SAMPLES = 21
WORKER_TIMEOUT_S = 150

SETUP_PROBE = ("import time\n"
               "import eulerchar.cli as cli\n"
               "cli._build_parser()\n"
               "print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))\n")


def setup_seconds(samples: int):
    """Median time from launching a fresh interpreter to a built CLI parser.

    One untimed launch first compiles the bytecode, as an installed CLI has.
    Each sample is scaled to the reference speed by the calibration passes
    run just before and just after it.  Returns (scaled, raw) medians.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [sys.executable, "-c", SETUP_PROBE]
    subprocess.run(cmd, env=env, check=True, capture_output=True, timeout=60)
    raw, scaled = [], []
    before = calib_median()
    for _ in range(samples):
        launched = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        done = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True,
                              timeout=60)
        seconds = (int(done.stdout.split()[-1]) - launched) / 1e9
        after = calib_median()
        raw.append(seconds)
        scaled.append(seconds * calib.REFERENCE_NS * 2 / (before + after))
        before = after
    return statistics.median(scaled), statistics.median(raw)


def calib_median(passes: int = 3) -> int:
    return statistics.median(calib.run_ns() for _ in range(passes))


def scaled_job_ms(job_ns, calib_ns):
    """Each job's time at the reference speed, in ms.

    calib_ns[i] ran just before job i and calib_ns[i + 1] just after it; a
    job is scaled by the mean of the four passes nearest to it, which
    follows the host's speed and smooths one pass's own jitter.
    """
    last = len(calib_ns) - 1
    out = []
    for i, t in enumerate(job_ns):
        near = [calib_ns[min(max(k, 0), last)] for k in range(i - 1, i + 3)]
        out.append(t * calib.REFERENCE_NS * len(near) / sum(near) / 1e6)
    return out


def percentile(values, q):
    """The q-th percentile (0 < q < 100) by linear interpolation between ranks."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


PER_LAYER_CALLS = ("curves.count_points", "cyclotomic_fields.split", "padics.check_prime",
                   "lambda_algebra.weierstrass_prepare", "lambda_algebra.mul",
                   "gamma_modules.smith_normal_form", "cli.main")
PER_LAYER_SELF = ("curves.count_points", "curves.local_data",
                  "cyclotomic_fields.infinite_inertia_places", "padics.check_prime",
                  "euler_char.build_chi_input", "lambda_algebra.weierstrass_prepare",
                  "lambda_algebra.mul", "lambda_algebra.parse",
                  "gamma_modules.generalized_chi", "gamma_modules.finite_level_oracle",
                  "gamma_modules.smith_normal_form", "akashi.akashi_series",
                  "akashi.check_multiplicativity", "cli.main")


def layer_metrics(trace, jobs_per_s):
    metrics = {}
    for name in PER_LAYER_CALLS:
        metrics[f"{name}.calls"] = {"value": trace["calls"].get(name, 0), "unit": "count"}
    for name in PER_LAYER_SELF:
        metrics[f"{name}.self_ms"] = {"value": trace["self_ms"].get(name, 0.0), "unit": "ms"}
    calls = trace["count_points_calls"]
    ratio = trace["count_points_distinct"] / calls if calls else 0.0
    metrics["curves.count_points.unique_ratio"] = {"value": ratio, "unit": "ratio"}
    metrics["trace.jobs_per_s"] = {"value": jobs_per_s, "unit": "1/s"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "eulerchar" / "cli.py").is_file():
        print(f"error: no eulerchar sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    import check
    import jobs as jobgen

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-{os.getpid()}"
    workdir = OUT / f"work-{tag}"
    spec_path = OUT / f"spec-{tag}.json"
    try:
        setup_s, setup_raw_s = setup_seconds(SETUP_SAMPLES) if not args.trace else (None, None)
        warm, timed = jobgen.make(args.workload, args.seed, args.seconds, workdir)
        spec_path.write_text(json.dumps({"workload": args.workload, "warmup": warm,
                                         "jobs": timed}))
        result_path = OUT / f"result-{args.workload}.json"
        outputs_path = OUT / f"outputs-{args.workload}.jsonl"
        cmd = [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path),
               str(outputs_path)]
        if args.trace:
            cmd.append(str(OUT / f"spans-{args.workload}"))
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
        if done.returncode != 0:
            print(f"error: worker exited {done.returncode}\n{done.stderr[-4000:]}",
                  file=sys.stderr)
            return 1
        record = json.loads(result_path.read_text())
        with open(outputs_path) as fh:
            outputs = [json.loads(line) for line in fh]
        wrong, reasons = check.check_all(args.workload, timed, outputs)
        attempted = sum(len(job) for job in timed) if args.workload != "series" else len(timed)
        failed = record["failed"]
        correct = wrong == 0
        if args.trace and args.workload == "pipeline":
            got = record["trace"]["count_points_distinct"] / record["trace"]["count_points_calls"]
            want = check.unique_count_ratio(timed)
            if got != want:
                correct = False
                reasons.append(f"count_points unique ratio {got}, inputs give {want}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        spec_path.unlink(missing_ok=True)

    raw_ms = [t / 1e6 for t in record["job_ns"]]
    job_ms = scaled_job_ms(record["job_ns"], record["calib_ns"])
    calib_ms = [c / 1e6 for c in record["calib_ns"]]
    diagnostics = {"workload": args.workload, "seed": args.seed, "jobs": len(job_ms),
                   "wall_s": record["wall_ns"] / 1e9, "cpu_s": record["cpu_ns"] / 1e9,
                   "raw": {"jobs_per_s": len(raw_ms) / sum(raw_ms) * 1e3,
                           "job_p50_ms": percentile(raw_ms, 50),
                           "job_p90_ms": percentile(raw_ms, 90), "setup_s": setup_raw_s},
                   "calibration_ms": {"start_end": record["calibration_ms"],
                                      "p10": percentile(calib_ms, 10),
                                      "p50": percentile(calib_ms, 50),
                                      "p90": percentile(calib_ms, 90)},
                   "steal_ticks": record["steal_ticks"], "wrong": wrong,
                   "reasons": reasons}
    print(json.dumps({"diagnostics": diagnostics}))
    jobs_per_s = len(job_ms) / sum(job_ms) * 1e3
    if args.trace:
        metrics = layer_metrics(record["trace"], jobs_per_s)
    else:
        metrics = {"jobs_per_s": {"value": jobs_per_s, "unit": "1/s"},
                   "job_p50_ms": {"value": percentile(job_ms, 50), "unit": "ms"},
                   "job_p90_ms": {"value": percentile(job_ms, 90), "unit": "ms"},
                   "setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": record["rss_kb"] / 1024, "unit": "MiB"}}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
