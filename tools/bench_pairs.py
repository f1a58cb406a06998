"""Run the benchmark on a git revision and on the working tree, in alternating pairs.

Usage: python3 tools/bench_pairs.py REV [--workloads series,cli_small] [--seeds 1,3]
                                        [--pairs 10] [--seconds 25] [--trace 0|1]

Exports REV with ``git archive`` and, for each workload and seed, runs
perfbench/run.py from that export and from the working tree, PAIRS times
each.  The side that runs first alternates: REV first in odd pairs, the
working tree first in even ones.  Prints every pair, with each run's
median calibration pass (``calibration_ms.p50`` of run.py's diagnostics
line), so that a pair taken across a change of host speed shows as one.
A traced run's per-layer ``*.self_ms`` metrics are raw wall times, so each
is scaled to the calibration's reference speed by that run's median
calibration pass, as run.py scales its rates, before any comparison.  Then
it prints per metric each side's median and quartiles, the pairs the working
tree won (by the metric's direction in BENCHMARK.json), the median gap and
REV's interquartile range.  A metric is marked "worse past bound" when it
has a ``bound`` in BENCHMARK.json (the end-to-end metrics) and the working
tree's median is worse than REV's by more than that fraction of it, and
"gain" when there are at least ten pairs, the working tree won at least
9 in 10 of them and its median is better by more than REV's interquartile
range, the rule for claiming a gain.  The last line of output is one JSON object: the
Python version, the host, and for each workload and seed each side's
quartiles per metric, under "rev" and "working_tree".  Exits 1 if any run
exits nonzero, is not correct or has a failed operation.  Standard library
only.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from calib import REFERENCE_NS  # noqa: E402


def quartiles(values):
    """(first quartile, median, third quartile) by linear interpolation between ranks."""
    ordered = sorted(values)

    def at(q):
        pos = (len(ordered) - 1) * q
        lo = int(pos)
        hi = min(lo + 1, len(ordered) - 1)
        return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int):
    """The result line of one benchmark run from ``tree``, with its median calibration
    pass in ms under "calibration_p50_ms" and its self times scaled by that pass, or None
    when the run broke."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)], cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"  {tree}: exit {done.returncode}\n{done.stderr[-2000:]}")
        return None
    result = json.loads(lines[-1])
    calib_ms = json.loads(lines[-2])["diagnostics"]["calibration_ms"]["p50"]
    result["calibration_p50_ms"] = calib_ms
    for name, metric in result["metrics"].items():
        if name.endswith(".self_ms"):
            metric["value"] *= REFERENCE_NS / 1e6 / calib_ms
    if result["correct"] is not True or result["failed"]:
        print(f"  {tree}: correct {result['correct']}, failed {result['failed']}")
    return result


def host() -> dict:
    """The host's name, architecture, CPU count and (where /proc/cpuinfo names it) CPU model."""
    cpuinfo = Path("/proc/cpuinfo")
    models = [line.split(":", 1)[1].strip() for line in
              (cpuinfo.read_text().splitlines() if cpuinfo.exists() else [])
              if line.startswith("model name")]
    return {"node": platform.node(), "machine": platform.machine(), "cpus": os.cpu_count(),
            "cpu": models[0] if models else platform.processor()}


def marks(sign, bound, won, count, old, new) -> str:
    """The marks of one metric's row: its direction ``sign`` (+1 higher is better, -1 lower,
    None neither), its ``bound`` or None, the pairs the working tree ``won`` of ``count``,
    and each side's quartiles ``old`` and ``new``."""
    if not sign:
        return ""
    gap = sign * (new[1] - old[1])  # > 0: the working tree's median is better
    worse = bound is not None and -gap > bound * abs(old[1])
    gain = count >= 10 and won >= 0.9 * count and gap > old[2] - old[0]
    return (f", worse past bound {bound:g}" if worse else "") + (", gain" if gain else "")


def compare(rev: str, pairs, spec) -> dict:
    """Print the summary table of one workload and seed; return each side's quartiles.
    ``spec`` maps each metric's name to its entry in BENCHMARK.json."""
    print(f"  metric: {rev} median [q1, q3] -> working tree median [q1, q3], wins, "
          f"gap, {rev} IQR")
    summary = {}
    for name in pairs[0][0]["metrics"]:
        old = [p[0]["metrics"][name]["value"] for p in pairs]
        new = [p[1]["metrics"][name]["value"] for p in pairs]
        (o1, o2, o3), (n1, n2, n3) = quartiles(old), quartiles(new)
        entry = spec.get(name, {})
        sign = {"higher": 1, "lower": -1}.get(entry.get("better"))
        won = sum(sign * (b - a) > 0 for a, b in zip(old, new)) if sign else "-"
        print(f"  {name}: {o2:.4g} [{o1:.4g}, {o3:.4g}] -> {n2:.4g} [{n1:.4g}, {n3:.4g}], "
              f"wins {won}/{len(pairs)}, gap {n2 - o2:+.4g}, IQR {o3 - o1:.4g}"
              + marks(sign, entry.get("bound"), won, len(pairs), (o1, o2, o3), (n1, n2, n3)))
        summary[name] = {"unit": pairs[0][0]["metrics"][name]["unit"], "wins": won,
                         "rev": {"q1": o1, "median": o2, "q3": o3},
                         "working_tree": {"q1": n1, "median": n2, "q3": n3}}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev")
    parser.add_argument("--workloads", default="series")
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    broken = False
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        archive = subprocess.run(["git", "archive", args.rev], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
        for workload in args.workloads.split(","):
            for seed in map(int, args.seeds.split(",")):
                print(f"{workload}, seed {seed}, --seconds {args.seconds:g}, "
                      f"--trace {args.trace}: {args.rev} -> working tree")
                pairs = []
                for i in range(args.pairs):
                    sides = (tree, ROOT) if i % 2 == 0 else (ROOT, tree)
                    got = {side: run_once(side, workload, seed, args.seconds, args.trace)
                           for side in sides}
                    pair = (got[tree], got[ROOT])
                    if None in pair:
                        broken = True
                        continue
                    broken |= any(r["correct"] is not True or r["failed"] for r in pair)
                    pairs.append(pair)
                    first = args.rev if i % 2 == 0 else "working tree"
                    shown = ["trace.jobs_per_s"] if args.trace else pair[0]["metrics"]
                    print(f"  pair {i + 1} ({first} first): calibration p50 ms "
                          f"{pair[0]['calibration_p50_ms']:.4g} -> "
                          f"{pair[1]['calibration_p50_ms']:.4g}, " + ", ".join(
                              f"{name} {pair[0]['metrics'][name]['value']:.4g} -> "
                              f"{pair[1]['metrics'][name]['value']:.4g}" for name in shown))
                if pairs:
                    results.append({"workload": workload, "seed": seed, "pairs": len(pairs),
                                    "metrics": compare(args.rev, pairs, metrics)})
    commit = subprocess.run(["git", "rev-parse", args.rev], cwd=ROOT, capture_output=True,
                            text=True).stdout.strip()
    print(json.dumps({"rev": args.rev, "commit": commit, "python": platform.python_version(),
                      "host": host(), "seconds": args.seconds, "trace": args.trace,
                      "results": results}))
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
