"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared host the same job can take half again as long, or more, while
other tenants are busy, and that state changes every few seconds to every
few minutes.  The benchmark runs this kernel right after each job and each
set-up and reports their time in units of it: a job's *reference time* is
its wall time times ``NOMINAL_S`` over the kernel's wall time next to it.
``NOMINAL_S`` is about the kernel's time on the 2-core sandbox the benchmark
was built on while the host was quiet, so reference times read as seconds on
that machine.

The kernel uses no verba code, so no change to the program moves it.  It
mixes the two kinds of work verba does in pure Python: integer arithmetic in
a loop (about 0.75 ms when quiet) and building and looking up small tuples,
lists and dicts (about 1 ms).  In busy spells the first slowed by about 1.4
times and the second by about 1.8, and verba's jobs by 1.4 to 1.9; on
recorded runs of ``certify`` and ``quotient`` this mix steadied the figures
more than either half alone or than equal halves.
"""
from __future__ import annotations

import time

NOMINAL_S = 0.00175


def _arithmetic() -> int:
    total = 0
    for i in range(10000):
        total += i * i % 7
    return total


def _objects() -> int:
    stack: list[int] = []
    for i in range(3000):
        x = (i * 7919) % 13 - 6
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    counts: dict[tuple, int] = {}
    for i in range(1500):
        key = (i % 17, i % 11, str(i % 5))
        counts[key] = counts.get(key, 0) + 1
    windows = [tuple(stack[j : j + 8]) for j in range(0, len(stack), 3)]
    return len(counts) + len(windows)


def measure() -> float:
    """Seconds the kernel takes now."""
    start = time.perf_counter()
    _arithmetic()
    _objects()
    return time.perf_counter() - start
