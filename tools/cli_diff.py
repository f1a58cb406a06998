"""Compare the CLI calls that the CLI tests make on the working tree and on a git revision.

Usage: python3 tools/cli_diff.py REV

Runs tests/test_cli.py and tests/test_acceptance.py on the working tree and
on an export of REV (``git archive``), each with this file loaded as a
pytest plugin.  The plugin wraps ``eulerchar.cli.main`` and records the argv,
exit code, stdout and stderr of every call, keyed by the test function that
made it (its pytest id without the [...] parameters, which may carry an
expected message) and the argv.  Both runs use the same --basetemp, so
temporary paths in argv and messages match.  Prints each call whose distinct
records differ (a call that a test repeats on one side only is no difference),
and each call made on one side only up to SHOWN per test and side; then the
number of calls that differ, of calls made only at REV and of calls made
only in the working tree.  Exits 1 if any of the three is nonzero.  Standard
library only.
"""

import contextlib
import difflib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = ["tests/test_cli.py", "tests/test_acceptance.py"]
SHOWN = 3  # one-sided calls printed in full per test and side, such as a property's examples
_RECORDS = []


def pytest_configure(config):
    """Plugin side: wrap cli.main before the test modules import it."""
    from eulerchar import cli
    main = cli.main

    def recorded(argv=None):
        out, err = io.StringIO(), io.StringIO()
        code = None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except BaseException as exc:
            code = f"raised {exc!r}"
            raise
        finally:
            test = os.environ.get("PYTEST_CURRENT_TEST", "").rsplit(" ", 1)[0].split("[", 1)[0]
            _RECORDS.append([test, list(argv or []), code, out.getvalue(), err.getvalue()])
            sys.stdout.write(out.getvalue())
            sys.stderr.write(err.getvalue())
        return code

    cli.main = recorded


def pytest_unconfigure(config):
    Path(os.environ["CLI_DIFF_OUT"]).write_text(json.dumps(_RECORDS))


def _record(tree: Path, scratch: Path) -> dict:
    """{(test, argv as JSON): {(code, stdout, stderr): None, ...}} for the tests in ``tree``:
    each call's distinct records, in the order first made."""
    out = scratch / "calls.json"
    env = {**os.environ, "CLI_DIFF_OUT": str(out),
           "PYTHONPATH": os.pathsep.join([str(tree / "src"), str(ROOT / "tools")])}
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "cli_diff",
                          "-p", "no:cacheprovider", "--basetemp", str(scratch / "basetemp"),
                          *TESTS], cwd=tree, env=env, capture_output=True, text=True)
    print(f"{tree}: {(run.stdout.strip().splitlines() or ['no output'])[-1]}")
    calls = {}
    for test, argv, code, stdout, stderr in json.loads(out.read_text()):
        calls.setdefault((test, json.dumps(argv)), {})[code, stdout, stderr] = None
    return calls


def _text(records) -> list:
    return [line for code, stdout, stderr in records
            for line in [f"exit {code}", "stdout:", *stdout.splitlines(),
                         "stderr:", *stderr.splitlines()]]


def main(rev: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        tree = scratch / "rev"
        tree.mkdir()
        archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
        old = _record(tree, scratch)
        new = _record(ROOT, scratch)
    differ, one_sided = 0, {}
    for key in sorted(old.keys() | new.keys()):
        test, argv = key
        name = f"{test} {argv if len(argv) < 300 else argv[:300] + '...'}"
        if key in old and key in new:
            if old[key].keys() == new[key].keys():
                continue
            print(f"differs: {name}")
            print("\n".join(difflib.unified_diff(_text(old[key]), _text(new[key]), rev,
                                                 "working tree", lineterm="")))
            differ += 1
        else:
            side = f"at {rev}" if key in old else "in the working tree"
            seen = one_sided[test, side] = one_sided.get((test, side), 0) + 1
            if seen <= SHOWN:
                print(f"only {side}: {name}")
                if key in new:
                    print("\n".join("    " + line for line in _text(new[key])))
    for (test, side), count in sorted(one_sided.items()):
        if count > SHOWN:
            print(f"only {side}: {count - SHOWN} more calls of {test}")
    only_old, only_new = len(old.keys() - new.keys()), len(new.keys() - old.keys())
    print(f"{len(old.keys() | new.keys())} distinct (test, argv) calls: {differ} differ, "
          f"{only_old} only at {rev}, {only_new} only in the working tree")
    return 1 if differ or only_old or only_new else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
