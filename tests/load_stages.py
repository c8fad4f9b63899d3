"""Time the stages of the LOCAL split and verify pipeline on large disguised
inputs.

    PYTHONPATH=src python tests/load_stages.py

For each input it prints the wall time of, in turn:

* load: `make_polytope` on the vertex rows (the duplicate check and the
  full-dimension proof, which gift-wraps the start facet and takes its
  scaled dual);
* certify: `is_smooth_fano(p, Mode.LOCAL)`;
* special: `special_facet(p, Mode.LOCAL)`;
* split: `hexagon_split(p, Mode.LOCAL)`;
* verify: `verify_bounds(p, Mode.LOCAL)`;

and then the process's peak RSS so far (`resource.getrusage`), so that an
input whose stages allocate much more than the ones before it shows.

The inputs are `bundle_b(1)^3 + hexagon^m` at d = 249, 489, 809 and 1 609
under `random_image` (seed 1; the benchmark's `fast_image` applies the same
map with int64 numpy, since the pure-Python image of d = 1 609 takes
minutes), and at d = 249 two denser disguises: 3d random +-1 shears (about
10 % of the gift-wrapped basis nonzero) and 30d shears (fully dense, entries
in the millions).  Not a test: run it on two commits to compare them.  Where
the load runs Bareiss elimination on every dual, the d = 809 and 30d rows
take minutes each.
"""

from __future__ import annotations

import random
import resource
import sys
import time
from pathlib import Path

import numpy as np

from fanosplit.generators import bundle_b, hexagon
from fanosplit.polytope import Mode, Polytope, is_smooth_fano, make_polytope, special_facet
from fanosplit.splitting import direct_sum, hexagon_split
from fanosplit.verify import verify_bounds

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import fast_image  # noqa: E402  (random_image's map, applied by numpy)


def _family(m: int) -> Polytope:
    p = bundle_b(1)
    for _ in range(2):
        p = direct_sum(p, bundle_b(1))
    for _ in range(m):
        p = direct_sum(p, hexagon())
    return p


def _sheared(p: Polytope, shears: int, seed: int) -> Polytope:
    """Image of p under a product of `shears` random +-1 shears, vertex
    order shuffled."""
    rng = random.Random(seed)
    d = p.dim
    m = [[1 if j == i else 0 for j in range(d)] for i in range(d)]
    for _ in range(shears):
        i, j = rng.sample(range(d), 2)
        s = rng.choice((-1, 1))
        m[i] = [a + s * b for a, b in zip(m[i], m[j])]
    if max(abs(a) for row in m for a in row) * d >= 2**62:
        raise OverflowError("shear entries outgrew the int64 image")
    image = np.array(p.vertices, dtype=np.int64) @ np.array(m, dtype=np.int64)
    vertices = list(map(tuple, image.tolist()))
    rng.shuffle(vertices)
    return Polytope(d, tuple(vertices))


def _stages(label: str, p: Polytope) -> None:
    rows = [list(v) for v in p.vertices]
    times = []
    t = time.perf_counter()
    q = make_polytope(rows)
    times.append(time.perf_counter() - t)
    for stage in (lambda: is_smooth_fano(q, Mode.LOCAL),
                  lambda: special_facet(q, Mode.LOCAL),
                  lambda: hexagon_split(q, Mode.LOCAL),
                  lambda: verify_bounds(q, Mode.LOCAL)):
        t = time.perf_counter()
        stage()
        times.append(time.perf_counter() - t)
    spans = "  ".join(f"{name} {s:7.3f} s"
                      for name, s in zip(("load", "certify", "special", "split", "verify"),
                                         times))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux: KiB
    print(f"{label:<24} {spans}  peak {peak_mb:6.0f} MB", flush=True)


def main() -> int:
    for m in (120, 240, 400, 800):
        p = _family(m)
        _stages(f"d={p.dim} random_image", fast_image(p, 1))
    p = _family(120)
    _stages(f"d={p.dim} shears 3d", _sheared(p, 3 * p.dim, 1))
    _stages(f"d={p.dim} shears 30d", _sheared(p, 30 * p.dim, 1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
