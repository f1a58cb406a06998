"""Runs one job list against eulerchar in this process and records timings.

Started by run.py as a fresh interpreter, so the peak RSS it reports is
eulerchar's and this loop's, without the checker's NumPy and SymPy:

    python3 perfbench/worker.py SPEC.json RESULT.json OUTPUTS.jsonl [SPANS]

SPEC holds the warm-up and timed job lists.  The warm-up runs untimed; the
timed list runs in one closed loop, one job after the other, with one pass
of the calibration workload (calib.py) before each job and after the last.
The list's wall time, its process CPU time, each job's wall time and each
calibration time go to RESULT.  Every report (CLI workloads) or result
(series) goes to OUTPUTS, one JSON line per job, for run.py to check.  With SPANS given, the timed list runs under
the tracer and the spans are written there.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import calib  # noqa: E402  (this script's directory is first on sys.path)

# Calls go through module attributes, so that the tracer's patches apply.
from eulerchar import akashi, cli, gamma_modules, lambda_algebra  # noqa: E402
from eulerchar.errors import EulerCharError  # noqa: E402
from eulerchar.gamma_modules import TorsionModule  # noqa: E402
from eulerchar.lambda_algebra import LambdaSeries  # noqa: E402


def peak_rss_kb() -> int:
    """High-water RSS of this process image.

    VmHWM from /proc/self/status; ru_maxrss is the fallback, though on Linux
    it also carries the parent's RSS from before exec.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def steal_ticks():
    """Steal time of the whole machine from /proc/stat, or None where it is absent."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


# -- CLI jobs -------------------------------------------------------------------


def run_cli_job(job):
    """Run each argv of the job through cli.main; return [(exit code, stdout)]."""
    out = []
    real = sys.stdout
    for argv in job:
        buf = io.StringIO()
        sys.stdout = buf
        try:
            code = cli.main(argv)
        finally:
            sys.stdout = real
        out.append((code, buf.getvalue()))
    return out


# -- series jobs ----------------------------------------------------------------


def build_series_inputs(job):
    p, n, d = job["p"], job["N"], job["D"]

    def series(coeffs):
        return LambdaSeries.make(p, coeffs, n, d)

    def data(elems):
        return akashi.AkashiData(p, tuple(series(c) for c in elems))

    module = TorsionModule(p, tuple(LambdaSeries.make(p, g["coeffs"], g["N"], g["D"])
                                    for g in job["module"]))
    return (series(job["g"]), series(job["a"]), series(job["b"]),
            data(job["L"]), data(job["M"]), data(job["R"]), data(job["M_broken"]),
            module)


def run_series_job(inputs):
    g, a, b, left, middle, right, broken, module = inputs
    form = lambda_algebra.weierstrass_prepare(g)
    product = a * b
    whole = akashi.check_multiplicativity(left, middle, right)
    torn = akashi.check_multiplicativity(left, broken, right)
    closed = gamma_modules.generalized_chi(module)
    oracle = gamma_modules.finite_level_oracle(module, 12)
    return form, product, whole, torn, closed, oracle


def series_output(result):
    form, product, whole, torn, closed, oracle = result
    return {"prepare": {"mu": form.mu, "lambda": form.lam, "precision": form.precision,
                        "poly": list(form.distinguished_poly), "unit": form.unit.to_json()},
            "product": product.to_json(), "multiplicative": whole,
            "multiplicative_broken": torn,
            "closed": closed.to_json(), "oracle": oracle.to_json()}


def main(argv):
    spec = json.loads(Path(argv[1]).read_text())
    result_path, outputs_path = Path(argv[2]), Path(argv[3])
    spans_path = Path(argv[4]) if len(argv) > 4 else None
    is_series = spec["workload"] == "series"

    calib_start = [calib.run_ns() for _ in range(5)]
    if is_series:
        warm = [build_series_inputs(job) for job in spec["warmup"]]
        timed = [build_series_inputs(job) for job in spec["jobs"]]
        run_job = run_series_job
    else:
        warm, timed = spec["warmup"], spec["jobs"]
        run_job = run_cli_job
    with contextlib.redirect_stderr(io.StringIO()):
        for job in warm:
            run_job(job)

    tracer = None
    if spans_path is not None:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    times, calib_ns, results, failed = [], [], [], 0
    gc.collect()
    steal0 = steal_ticks()
    cpu0 = time.process_time_ns()
    clock = time.perf_counter_ns
    with open(outputs_path, "w") as out, contextlib.redirect_stderr(io.StringIO()):
        wall0 = clock()
        for job in timed:
            calib_ns.append(calib.run_ns())
            t0 = clock()
            try:
                result = run_job(job)
            except EulerCharError as exc:
                result = exc
            t1 = clock()
            times.append(t1 - t0)
            if is_series:
                results.append(result)
            else:
                failed += sum(1 for code, _ in result if code != 0)
                out.write(json.dumps(result) + "\n")
        calib_ns.append(calib.run_ns())
        wall1 = clock()
        cpu1 = time.process_time_ns()
        steal1 = steal_ticks()
        rss_kb = peak_rss_kb()
        if tracer is not None:
            tracer.uninstall()
        for result in results:
            if isinstance(result, EulerCharError):
                failed += 1
                out.write(json.dumps({"error": repr(result)}) + "\n")
            else:
                out.write(json.dumps(series_output(result)) + "\n")

    calib_end = [calib.run_ns() for _ in range(5)]
    record = {"job_ns": times, "calib_ns": calib_ns, "wall_ns": wall1 - wall0,
              "cpu_ns": cpu1 - cpu0, "rss_kb": rss_kb, "failed": failed,
              "calibration_ms": [sorted(calib_start)[2] / 1e6, sorted(calib_end)[2] / 1e6],
              "steal_ticks": None if steal0 is None else steal1 - steal0}
    if tracer is not None:
        record["trace"] = tracer.summary()
        tracer.write(spans_path)
    result_path.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
