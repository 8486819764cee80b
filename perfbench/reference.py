"""A fixed reference job that does not use latcensus.

The benchmark runs slices of it right after every job (in the same
interpreter for the library workloads, as a process of its own after each
`cli` command), for about SHARE of the job's time, and reports a
workload's time in units of the mean slice time.  Other tenants of a
shared host slow jobs and slices alike, so their ratio holds still where
the wall time alone moves by a third; a change to latcensus moves only
the jobs.  A slice mixes what the library spends its time on: small-int
loops over dicts, Fraction sums, big-int products and a bytearray sieve.

    python3 perfbench/reference.py SECONDS   # slices for SECONDS; prints [seconds, slices]
"""

from __future__ import annotations

import gc
import json
import sys
import time
from fractions import Fraction

CHECKSUM = 5002320780  # what run() returns
SIEVE = 700000
SHARE = 0.5  # slice time after a job, as a share of the job's time


def measure(budget: float) -> tuple[float, int]:
    """Runs slices until they took `budget` seconds, at least one; returns
    (seconds, slices)."""
    spent, slices = 0.0, 0
    while slices == 0 or spent < budget:
        t0 = time.perf_counter()
        if run() != CHECKSUM:
            raise RuntimeError("reference slice returned a wrong checksum")
        spent += time.perf_counter() - t0
        slices += 1
    return spent, slices


def run() -> int:
    """One slice.  The collector is off while it runs, so its time does not
    depend on how many objects the calling interpreter holds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _slice()
    finally:
        if enabled:
            gc.enable()


def _slice() -> int:
    table: dict[int, int] = {}
    x = 0
    for i in range(100000):
        x = (x * 31 + i) % 1000003
        table[x & 4095] = table.get(x & 4095, 0) + i
    total = Fraction(0)
    for k in range(1, 600):
        total += Fraction(k % 7 + 1, k * k + 1)
    big = 1
    for k in range(1, 1700):
        big = (big * (2 * k + 1)) % (1 << 1024) + k
    sieve = bytearray([1]) * SIEVE
    sieve[0:2] = b"\x00\x00"
    for p in range(2, 1 + int(SIEVE ** 0.5)):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, SIEVE, p)))
    return (x + sum(table.values()) + total.numerator % 1000003 + big % 1000003
            + sum(sieve)) % (1 << 48)


if __name__ == "__main__":
    print(json.dumps(measure(float(sys.argv[1]))))
