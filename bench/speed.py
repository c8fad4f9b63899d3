"""Machine-speed reference for reporting op times at one fixed speed.

On a shared VM the same op on the same input runs up to a third faster or
slower from one few-second phase to the next, because other tenants load the
physical cores.  `kernel_seconds()` times a fixed kernel that mixes the
program's own kind of work (Python loops over int tuples and dicts, and small
int64 numpy products converted back to Python ints), and the harness runs it
between ops.  An op's *reference time* is its wall time times
`REFERENCE_S / k`, where k is the mean of the kernel times measured just
before and just after it: the time the op would take on the machine in a
phase where the kernel takes `REFERENCE_S`.  The kernel calls no code of the
program, so a change to the program cannot move it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# the kernel's median time on the 2-vCPU VM of the seed baseline, so that
# reference times read as that machine's wall times in a typical phase
REFERENCE_S = 0.010

_ROUNDS = 75
_LEFT = (np.arange(12 * 16, dtype=np.int64).reshape(12, 16) * 7919) % 23 - 11
_RIGHT = (np.arange(16 * 16, dtype=np.int64).reshape(16, 16) * 104729) % 19 - 9


def kernel() -> int:
    acc = 0
    seen: dict[tuple[int, ...], int] = {}
    right = _RIGHT
    for r in range(_ROUNDS):
        m = _LEFT @ right
        rows = [tuple(int(v) for v in row) for row in m]
        for row in rows:
            key = tuple(x % 5 for x in row)
            seen[key] = seen.get(key, 0) + 1
            acc += sum(x * x for x in row) % 1009
        right = (m[:, :16].T @ _LEFT[:, :16]) % 13 - 6 + np.eye(16, dtype=np.int64) * (r % 3)
    return acc + len(seen)


def kernel_seconds() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0
