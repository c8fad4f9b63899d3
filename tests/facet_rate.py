"""Time FULL facet enumeration in one process on irreducible disguised inputs.

    PYTHONPATH=src python tests/facet_rate.py

For each input, a disguise of a named generator (`random_image`, seed 1), it
prints the facet count, the best of REPEATS wall times of
`polytope._enumerate_raw` on a fresh `Polytope` whose gift-wrapped start
facet is already found, and the facets per second at that time.  The inputs
are `simplex(1..3)`, `pentagon`, `example4d`, `simplex(12)` and
`bundle_b(1..4)`; after the last one it prints the process's peak RSS
(`resource.getrusage`).  Not a test: run it on two commits to compare them.
"""

from __future__ import annotations

import resource
import time

from fanosplit import polytope
from fanosplit.generators import bundle_b, example4d, pentagon, random_image, simplex
from fanosplit.polytope import Polytope

REPEATS = 5
INPUTS = [
    ("simplex(1)", lambda: simplex(1)),
    ("simplex(2)", lambda: simplex(2)),
    ("simplex(3)", lambda: simplex(3)),
    ("pentagon", pentagon),
    ("example4d", example4d),
    ("simplex(12)", lambda: simplex(12)),
    ("bundle_b(1)", lambda: bundle_b(1)),
    ("bundle_b(2)", lambda: bundle_b(2)),
    ("bundle_b(3)", lambda: bundle_b(3)),
    ("bundle_b(4)", lambda: bundle_b(4)),
]


def best_time(p: Polytope) -> tuple[int, float]:
    """(facet count, least wall time of `_enumerate_raw` over REPEATS fresh copies of p)."""
    best = float("inf")
    for _ in range(REPEATS):
        q = Polytope(p.dim, p.vertices)
        polytope._initial_raw_cached(q)
        t0 = time.perf_counter()
        facets = len(polytope._enumerate_raw(q))
        best = min(best, time.perf_counter() - t0)
    return facets, best


def main() -> None:
    print(f"{'input':12s} {'d':>3s} {'facets':>7s} {'best ms':>10s} {'facets/s':>10s}")
    for name, build in INPUTS:
        p = random_image(build(), 1)
        facets, t = best_time(p)
        print(f"{name:12s} {p.dim:3d} {facets:7d} {1e3 * t:10.3f} {facets / t:10.0f}")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS after bundle_b(4): {peak_mb:.1f} MB")


if __name__ == "__main__":
    main()
