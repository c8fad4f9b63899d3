"""Time the normal form of disguised inputs, one row each, in one process.

    PYTHONPATH=src python tests/nf_rate.py [ROW ...]

For each input, a disguise of a named generator or sum (`random_image`,
seed 1), it prints the dimension, the wall time of one `normal_form` call,
the orderings it spent against the budget (counted by a second pass over
its summands, through the per-summand entry point `normal_form` uses) and
the first 16 hex digits of the sha256 of its digest.  When the search
exceeds `DEFAULT_BUDGET` the row reads SizeLimitError after the time it
took to raise.  The rows are ROWS; name some of them to run only those, or
name `simplex(N)` for any N.  Not a test: run it on two commits to compare
them.
"""

from __future__ import annotations

import hashlib
import re
import sys
import time
from functools import reduce

from fanosplit import equivalence
from fanosplit.equivalence import DEFAULT_BUDGET, normal_form
from fanosplit.errors import SizeLimitError
from fanosplit.generators import bundle_b, example4d, hexagon, random_image, simplex
from fanosplit.polytope import Mode, free_summands
from fanosplit.splitting import direct_sum


ROWS = {
    **{f"simplex({d})": (lambda d=d: simplex(d)) for d in range(7, 21)},
    "bundle_b(3)": lambda: bundle_b(3),
    "bundle_b(4)": lambda: bundle_b(4),
    "hexagon^4": lambda: reduce(direct_sum, [hexagon()] * 4),
    "example4d+hexagon^2": lambda: reduce(direct_sum, [example4d(), hexagon(), hexagon()]),
    "example4d+hexagon^40": lambda: reduce(direct_sum, [example4d()] + [hexagon()] * 40),
    "bundle_b(1)^3+hexagon^120":
        lambda: reduce(direct_sum, [bundle_b(1)] * 3 + [hexagon()] * 120),
}


def build(name: str):
    if name in ROWS:
        return ROWS[name]()
    m = re.fullmatch(r"simplex\((\d+)\)", name)
    if m is None:
        raise SystemExit(f"unknown row {name!r}; rows: {', '.join(ROWS)} or simplex(N)")
    return simplex(int(m.group(1)))


def orderings(p) -> int:
    """The orderings normal_form(p) spends: its summands' forms on one count."""
    budget_state = [0]
    for q in free_summands(p, Mode.FULL):
        equivalence._summand_form(q, budget_state, DEFAULT_BUDGET)
    return budget_state[0]


def main(argv: list[str]) -> None:
    print(f"{'input':26s} {'d':>3s} {'wall s':>9s} {'orderings':>10s}  digest")
    for name in argv or ROWS:
        p = random_image(build(name), 1)
        t0 = time.perf_counter()
        try:
            digest = normal_form(p).digest
        except SizeLimitError:
            print(f"{name:26s} {p.dim:3d} {time.perf_counter() - t0:9.3f} SizeLimitError", flush=True)
            continue
        t = time.perf_counter() - t0
        prefix = hashlib.sha256(digest).hexdigest()[:16]
        print(f"{name:26s} {p.dim:3d} {t:9.3f} {orderings(p):10d}  {prefix}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
