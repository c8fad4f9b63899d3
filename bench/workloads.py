"""Input families and per-pass op lists of the four benchmark workloads.

A workload is a fixed list of op templates.  One pass turns every template
into a concrete CLI call on freshly generated `.fano` files: each op gets its
own disguise of its base polytope, drawn from (workload, seed, pass, op), so
no two ops in one process parse the same input and no cache inside the
program can serve one op from another op's work.

Every base is a direct sum of named irreducible summands, so the expected
answers are known by construction: validity (only the triangle is invalid),
the planted hexagon count, the number of finest factors, d, n and k.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from functools import reduce
from itertools import combinations_with_replacement

import numpy as np

from fanosplit.generators import (
    bundle_b,
    example4d,
    hexagon,
    pentagon,
    random_image,
    simplex,
)
from fanosplit.fanofile import serialize_fano
from fanosplit.polytope import Polytope
from fanosplit.splitting import direct_sum

# the triangle (1,0) (0,1) (-1,-2) is not smooth Fano: FULL finds a facet
# with |det| = 2, while LOCAL mode at the seed commit accepts it
TRIANGLE = Polytope(2, ((1, 0), (0, 1), (-1, -2)))

SUMMANDS = {
    "hexagon": hexagon,
    "pentagon": pentagon,
    "simplex1": lambda: simplex(1),
    "simplex2": lambda: simplex(2),
    "simplex3": lambda: simplex(3),
    "example4d": example4d,
    "bundleB1": lambda: bundle_b(1),
    "bundleB2": lambda: bundle_b(2),
    "bundleB3": lambda: bundle_b(3),
    "triangle": lambda: TRIANGLE,
}

# random_image builds its map in O(d^2) but applies it with n*d^2 Python
# multiplications (about 3 s at d = 249); above this dimension the same map
# is applied with int64 numpy, which `check_fast_image` proves identical.
_FAST_IMAGE_MIN_DIM = 17
# copy of generators._MAP_ENTRY_BOUND; `check_fast_image` fails if they drift
_MAP_ENTRY_BOUND = 2**12


@dataclass(frozen=True)
class Base:
    """A direct sum of named summands, in order (the triangle comes first)."""

    summands: tuple[str, ...]

    @property
    def name(self) -> str:
        parts = []
        for s in dict.fromkeys(self.summands):
            c = self.summands.count(s)
            parts.append(s if c == 1 else f"{s}^{c}")
        return "+".join(parts)

    def build(self) -> Polytope:
        return reduce(direct_sum, (SUMMANDS[s]() for s in self.summands))

    @property
    def valid(self) -> bool:
        return "triangle" not in self.summands

    @property
    def hexagons(self) -> int:
        return self.summands.count("hexagon")

    @property
    def factors(self) -> int:
        return len(self.summands)


def base(*summands: str, hexagons: int = 0) -> Base:
    return Base(tuple(summands) + ("hexagon",) * hexagons)


@dataclass(frozen=True)
class OpSpec:
    """One op template: a CLI command on disguises of one or two bases.

    `kind` is the CLI command; `split -o DIR` is kind "split-o".  A base of
    None stands for a malformed file.  `shuffle_only` keeps the base's
    coordinates and only permutes its vertex order (see KNOWN_DEFECTS).
    """

    kind: str
    bases: tuple[Base | None, ...]
    shuffle_only: bool = False


def _ops(kind: str, *bases: Base | None, shuffle_only: bool = False) -> OpSpec:
    return OpSpec(kind, tuple(bases), shuffle_only)


# ---------------------------------------------------------------- full-mid

_B1_3 = base("bundleB1", "bundleB1", "bundleB1")                 # d=9, 1728 facets
_B2_H2 = base("bundleB2", hexagons=2)                            # d=10, 3888
_B2_E4 = base("bundleB2", "example4d")                           # d=10, 3240
_E4_B1_H = base("example4d", "bundleB1", hexagons=1)             # d=9, 2160
_P_H3_S1 = base("pentagon", "simplex1", hexagons=3)              # d=9, 2160
_B2_S3_S2_S1 = base("bundleB2", "simplex3", "simplex2", "simplex1")  # d=12, 2592
_B1_2_P_H = base("bundleB1", "bundleB1", "pentagon", hexagons=1)  # d=10, 4320
_TRI_B1_H2 = base("triangle", "bundleB1", hexagons=2)            # d=9, invalid

FULL_MID = (
    _ops("check", _B1_3),
    _ops("split", _B1_3),
    _ops("check", _B2_H2),
    _ops("split", _B2_E4),
    _ops("check", _E4_B1_H),
    _ops("split", _P_H3_S1),
    _ops("check", _P_H3_S1),
    _ops("check", _B2_S3_S2_S1),
    _ops("split", _B1_2_P_H),
    _ops("check", _TRI_B1_H2),
    _ops("split", _TRI_B1_H2),
)

# ------------------------------------------------------------- local-large

_B1_3_H120 = base("bundleB1", "bundleB1", "bundleB1", hexagons=120)  # d=249, k=3
_B1_3_H80 = base("bundleB1", "bundleB1", "bundleB1", hexagons=80)    # d=169, k=3
_B1_3_H40 = base("bundleB1", "bundleB1", "bundleB1", hexagons=40)    # d=89, k=3
_P_H60 = base("pentagon", hexagons=60)                               # d=122, k=1
_E4_H40 = base("example4d", hexagons=40)                             # d=84, k=2
_H50 = base(hexagons=50)                                             # d=100, k=0
_TRI_H7 = base("triangle", hexagons=7)                               # d=16, invalid

LOCAL_LARGE = (
    _ops("split-o", _B1_3_H120),
    _ops("check", _B1_3_H80),
    _ops("verify", _B1_3_H40),
    _ops("check", _P_H60),
    _ops("split", _P_H60),
    _ops("split-o", _E4_H40),
    _ops("verify", _E4_H40),
    _ops("check", _H50),
    _ops("split", _H50),
    _ops("verify", _H50),
    _ops("check", _TRI_H7, shuffle_only=True),
    _ops("split", _TRI_H7, shuffle_only=True),
    _ops("verify", _TRI_H7, shuffle_only=True),
)

# ops whose wrong answer at the seed commit is a documented defect (ROADMAP
# open item 3): LOCAL `check` accepts triangle + hexagon^7.  They count in
# `failed`; any other failure makes the run incorrect.  The input keeps the
# plain sum's coordinates (random disguises let LOCAL catch the bad facet on
# about a third of seeds) so the defect shows on every seed.
KNOWN_DEFECTS = {("check", _TRI_H7.name)}

# ------------------------------------------------------------- canon-small

_H3 = base(hexagons=3)
_E4_H = base("example4d", hexagons=1)
_E4_P = base("example4d", "pentagon")
_H2_S2 = base("simplex2", hexagons=2)
_E4_S2 = base("example4d", "simplex2")
_B1_2 = base("bundleB1", "bundleB1")
_B2 = base("bundleB2")
_P2_S2 = base("pentagon", "pentagon", "simplex2")
_B1_H = base("bundleB1", hexagons=1)
_B1_S3 = base("bundleB1", "simplex3")
_E4 = base("example4d")
_H2 = base(hexagons=2)
_P_H = base("pentagon", hexagons=1)
_B1_P = base("bundleB1", "pentagon")

_NF_BASES = (_H3, _E4_H, _E4_P, _H2_S2, _E4_S2, _B1_2, _B2, _P2_S2, _B1_H,
             _B1_S3, _E4, _H2, _P_H, _B1_P)

CANON_SMALL = (
    tuple(_ops("nf", b) for b in _NF_BASES)
    + tuple(_ops("nf", b) for b in _NF_BASES)
    + tuple(_ops("eq", b, b) for b in (_E4_H, _B1_2, _H2_S2, _E4_P, _B2))
    # non-equivalent pairs with equal (d, n)
    + (_ops("eq", _B1_2, _E4_H), _ops("eq", _B2, _H2_S2))
)

# ------------------------------------------------------------ corpus-batch

_CORPUS_GENERATORS = ("hexagon", "pentagon", "simplex1", "simplex2", "simplex3",
                      "example4d", "bundleB1", "bundleB2", "bundleB3")


def corpus_bases(max_dim: int = 6) -> tuple[Base, ...]:
    """The test corpus rule: every generator and every pairwise direct sum,
    restricted here to dimension <= max_dim."""
    dim = {g: SUMMANDS[g]().dim for g in _CORPUS_GENERATORS}
    out = [Base((g,)) for g in _CORPUS_GENERATORS if dim[g] <= max_dim]
    for a, b in combinations_with_replacement(_CORPUS_GENERATORS, 2):
        if dim[a] + dim[b] <= max_dim:
            out.append(Base((a, b)))
    return tuple(out)


_CORPUS = corpus_bases()
_TRIANGLE = Base(("triangle",))

CORPUS_BATCH = (
    tuple(_ops("check", b) for b in _CORPUS)
    + tuple(_ops("analyze", b) for b in _CORPUS)
    + tuple(_ops("verify", b) for b in _CORPUS)
    # two files: the CLI's verify opens a two-thread pool
    + tuple(_ops("verify", a, b) for a, b in zip(_CORPUS[:8], _CORPUS[-8:]))
    + (_ops("check", None), _ops("check", _TRIANGLE))
)

WORKLOADS = {
    "full-mid": FULL_MID,
    "local-large": LOCAL_LARGE,
    "canon-small": CANON_SMALL,
    "corpus-batch": CORPUS_BATCH,
}

# op_ms.tail's percentile, fixed per workload so that a faster commit, which
# fits more passes into a run, is compared at the same percentile: the
# highest integer percentile with at least ten ops beyond it in the shortest
# 30-s run of the seed commit (3, 3, 4 and 18 passes), lowered where it fell
# at the gap between two op templates of very different times.  There a run
# with one pass more or less would jump between the two; these percentiles
# fall inside a group of ops of similar time at any pass count from the
# shortest run up (op templates of full-mid 1 and 7; local-large 9, 4 and 1;
# canon-small 1 and 15; corpus-batch 85 and 98).
TAIL_PERCENTILE = {
    "full-mid": 69,
    "local-large": 75,
    "canon-small": 89,
    "corpus-batch": 97,
}

# ----------------------------------------------------------------- inputs


def op_seed(workload: str, seed: int, pass_index: int, op_index: int, slot: int) -> int:
    return zlib.crc32(f"{workload}/{seed}/{pass_index}/{op_index}/{slot}".encode())


def fast_image(p: Polytope, seed: int) -> Polytope:
    """random_image(p, seed), with the map applied by int64 numpy."""
    rng = random.Random(seed)
    d = p.dim
    m = [[1 if j == i else 0 for j in range(d)] for i in range(d)]
    for _ in range(3 * d + 4):
        op = rng.randrange(3)
        if op == 0 and d >= 2:
            i, j = rng.sample(range(d), 2)
            c = rng.choice((-2, -1, 1, 2))
            new_row = [a + c * b for a, b in zip(m[i], m[j])]
            if max(abs(x) for x in new_row) <= _MAP_ENTRY_BOUND:
                m[i] = new_row
        elif op == 1 and d >= 2:
            i, j = rng.sample(range(d), 2)
            m[i], m[j] = m[j], m[i]
        else:
            i = rng.randrange(d)
            m[i] = [-a for a in m[i]]
    hv = max(abs(x) for v in p.vertices for x in v)
    if d * _MAP_ENTRY_BOUND * hv >= 2**62:
        raise ValueError("coordinates too large for the int64 image")
    image = np.asarray(p.vertices, dtype=np.int64) @ np.asarray(m, dtype=np.int64).T
    vertices = [tuple(row) for row in image.tolist()]
    rng.shuffle(vertices)
    return Polytope(d, tuple(vertices))


def check_fast_image() -> None:
    """fast_image must reproduce random_image exactly."""
    for summands, seed in ((("example4d", "hexagon", "hexagon"), 7),
                           (("bundleB2", "pentagon", "simplex3"), 11)):
        p = Base(summands).build()
        if fast_image(p, seed) != random_image(p, seed):
            raise RuntimeError("fast_image no longer matches generators.random_image")


def disguise(p: Polytope, seed: int, shuffle_only: bool = False) -> Polytope:
    if shuffle_only:
        vertices = list(p.vertices)
        random.Random(seed).shuffle(vertices)
        return Polytope(p.dim, tuple(vertices))
    if p.dim >= _FAST_IMAGE_MIN_DIM:
        return fast_image(p, seed)
    return random_image(p, seed)


def fano_text(p: Polytope, tag: str) -> str:
    """The `.fano` text of p, after a comment line naming the op it feeds."""
    return f"# {tag}\n" + serialize_fano(p)


def malformed_text(tag: str) -> str:
    return f"# {tag}\nfano 1\n2 3\n1 0\n0 1\n-1 x\n"
