"""Time the stages of the LOCAL split and verify pipeline on large disguised
inputs.

    PYTHONPATH=src python tests/load_stages.py [ROW]

For each input it prints the wall time of, in turn:

* load: `make_polytope` on the vertex rows, as lists of ints (the exact
  vertex array, the duplicate check and the full-dimension proof, which
  gift-wraps the start facet; the wrap's kernel gives the facet's dual
  basis);
* certify: `is_smooth_fano(p, Mode.LOCAL)`;
* special: `special_facet(p, Mode.LOCAL)`;
* split: `hexagon_split(p, Mode.LOCAL)`;
* verify: `verify_bounds(p, Mode.LOCAL)`;

then where the start facet's dual came from: `kernel`, or `scaled_dual`
when the load fell back to a second elimination (the kernel's rows outgrew
int64, as dense inputs' do); and then the process's peak RSS
(`resource.getrusage`) once the input rows are built and after the last
stage, so that an input whose stages allocate much more than the ones
before it shows.  Rows run in one process share one peak; `ROW`, a row
label such as `d=1609`, runs that row alone, so that its peak is its own.

The inputs are `bundle_b(1)^3 + hexagon^m` at d = 249, 489, 809 and 1 609
under `random_image` (seed 1), and at d = 249 two denser disguises: 3d
random +-1 shears (about 10 % of the gift-wrapped basis nonzero) and 30d
shears (fully dense, entries in the millions).  Not a test: run it on two
commits to compare them.
"""

from __future__ import annotations

import random
import resource
import sys
import time

import numpy as np

from fanosplit import linalg
from fanosplit.generators import bundle_b, hexagon, random_image
from fanosplit.polytope import Mode, Polytope, is_smooth_fano, make_polytope, special_facet
from fanosplit.splitting import direct_sum, hexagon_split
from fanosplit.verify import verify_bounds


def _balanced_sum(parts: list[Polytope]) -> Polytope:
    """The `direct_sum` of parts, halves first: the sum is associative, and
    each block is copied about log2(len(parts)) times, not once per summand
    after it."""
    if len(parts) == 1:
        return parts[0]
    half = len(parts) // 2
    return direct_sum(_balanced_sum(parts[:half]), _balanced_sum(parts[half:]))


def _family(m: int) -> Polytope:
    """bundle_b(1)^3 + hexagon^m."""
    return _balanced_sum([bundle_b(1)] * 3 + [hexagon()] * m)


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


ROWS = {
    "d=249": lambda: random_image(_family(120), 1),
    "d=489": lambda: random_image(_family(240), 1),
    "d=809": lambda: random_image(_family(400), 1),
    "d=1609": lambda: random_image(_family(800), 1),
    "shears-3d": lambda: _sheared(_family(120), 3 * 249, 1),
    "shears-30d": lambda: _sheared(_family(120), 30 * 249, 1),
}


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux: KiB


def _stages(label: str, p: Polytope) -> None:
    rows = p._array.tolist()
    del p
    input_mb = _peak_mb()
    times, duals = [], []
    scaled_dual = linalg.scaled_dual
    linalg.scaled_dual = lambda m: duals.append(len(m)) or scaled_dual(m)
    try:
        t = time.perf_counter()
        q = make_polytope(rows)
        times.append(time.perf_counter() - t)
    finally:
        linalg.scaled_dual = scaled_dual
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
    source = "scaled_dual" if duals else "kernel"
    print(f"{label:<11} {spans}  dual {source:<11}  peak {input_mb:5.0f} -> {_peak_mb():5.0f} MB",
          flush=True)


def main(argv: list[str]) -> int:
    unknown = [a for a in argv if a not in ROWS]
    if unknown:
        print(f"unknown row {unknown[0]!r}; rows: {' '.join(ROWS)}", file=sys.stderr)
        return 2
    for label in argv or ROWS:
        _stages(label, ROWS[label]())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
