"""A fixed pure-Python workload that shows how fast this vCPU runs right now.

On a shared host the vCPU moves between a fast and a slow state, 1.6-1.9x
apart, over seconds to minutes, so raw wall times of identical work
spread by a quarter between runs.  The benchmark runs this workload next
to every timed job (and before every set-up sample) and scales each time
by REFERENCE_NS / (the calibration's own time there): the result is the
time the job would take on a vCPU running the calibration in
REFERENCE_NS.  A change to eulerchar moves the job and not the
calibration, so it shows in full; a change of host speed moves both.

The workload mixes the three kinds of work the job lists do: modular
arithmetic on small ints with byte-table lookups (point counting),
schoolbook products of multi-word ints (series), and dict, string and
call traffic (argparse, JSON, report assembly).  It imports nothing from
eulerchar and never changes, so it measures the host alone.
"""

from __future__ import annotations

import time

# Calibration time on a 2-vCPU Xeon (2.1 GHz) guest in its fast state, where
# most passes take 1.45-1.75 ms (2.7-3.1 ms in the slow state).
REFERENCE_NS = 1_600_000

_Q = 2_003
_TABLE = bytearray(_Q)
for _y in range(_Q):
    _TABLE[_y * _y % _Q] = 1
_MODULUS = 7 ** 24
_A = [(7 ** 13 + 1_000_003 * i * i) % _MODULUS for i in range(20)]
_B = [(5 ** 27 + 999_983 * i) % _MODULUS for i in range(20)]
_WORDS = [f"w{i:03d}" for i in range(40)]


def _small_ints() -> int:
    count = 0
    for x in range(_Q):
        value = ((4 * x + 3) * x * x + 5) % _Q
        if value == 0:
            count += 1
        elif _TABLE[value]:
            count += 2
    return count


def _big_ints() -> int:
    out = [0] * 20
    for i, a in enumerate(_A):
        for j in range(20 - i):
            out[i + j] += a * _B[j]
    return sum(c % _MODULUS for c in out)


def _label(word: str, n: int) -> tuple:
    return (word, n & 7)


def _objects() -> int:
    table = {}
    for n, word in enumerate(_WORDS * 3):
        key = _label(word, n)
        table[key] = table.get(key, 0) + len(f"{word}={n}")
    text = ",".join(f"{k[0]}:{v}" for k, v in sorted(table.items()))
    return len(text.split(","))


def run_ns() -> int:
    """Wall time of one pass of the fixed workload, in nanoseconds."""
    start = time.perf_counter_ns()
    for _ in range(2):
        _small_ints()
    for _ in range(16):
        _big_ints()
    for _ in range(8):
        _objects()
    return time.perf_counter_ns() - start
