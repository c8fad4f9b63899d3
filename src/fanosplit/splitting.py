"""Direct sums and direct-sum decompositions.

Two decompositions are provided.  `finest_split` is the finest direct-sum
factorization of any smooth Fano polytope: validation's free summands, in
the gift-wrapped facet's coordinates (`polytope.free_sum`), with hexagon
factors tagged.  It validates nothing itself: validating p already proves
every free summand.  `hexagon_split` realizes the guarantee that drives this
package: a smooth Fano polytope with 3d-k vertices and d >= 15k^2 + 37k + 2
splits off at least floor((d - 15k^2 - 37k)/2) hexagon factors.  It finds
them constructively -- pairs from the paired core of the special facet whose
dual coordinates vanish on every vertex outside the hexagon orbit set -- in
the special facet's coordinates, and verifies the guaranteed count as a
post-condition, raising TheoremViolationError if it ever fails (a bug or a
counterexample; never swallowed).

Both return a `Decomposition` whose change of basis is unimodular, so
factors live in honest coordinate blocks and reassembly is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import GoodnessPartition, goodness_partition, support_bound_violation
from .errors import InvariantViolationError, TheoremViolationError
from .linalg import IntMatrix
from .polytope import (
    HEXAGON_VERTICES,
    FacetFrame,
    Mode,
    Polytope,
    _block_polytopes,
    frame_coords,
    free_sum,
    special_facet,
    vertex_deficit,
)


def split_threshold(k: int) -> int:
    """Smallest dimension at which the hexagon-count guarantee applies."""
    return 15 * k * k + 37 * k + 2


def guaranteed_hexagons(d: int, k: int) -> int:
    """floor((d - 15k^2 - 37k) / 2); meaningful once d >= split_threshold(k)."""
    return (d - 15 * k * k - 37 * k) // 2


def direct_sum(p: Polytope, q: Polytope) -> Polytope:
    """conv(P x {0} union {0} x Q): vertices are the zero-padded vertex lists."""
    zp = (0,) * q.dim
    zq = (0,) * p.dim
    vertices = tuple(v + zp for v in p.vertices) + tuple(zq + w for w in q.vertices)
    return Polytope(p.dim + q.dim, vertices)


def clean_pairs(p: Polytope, f: FacetFrame, g: GoodnessPartition) -> list[tuple[int, int]]:
    """Paired-core pairs whose dual coordinates vanish outside the orbit set W.

    W is the union of the six-vertex orbits of all paired-core pairs.  A pair
    (v, phi(v)) is clean when every vertex outside W has coordinate 0 along
    both u_v and u_phi(v); each clean pair spans a hexagon direct summand.
    """
    coords = frame_coords(p, f)
    pos = f.positions
    bar_positions = [pos[v] for v in sorted(g.a_bar)]
    bad = support_bound_violation(coords, g.levels, bar_positions, vertex_deficit(p))
    if bad is not None:
        i, support, bound = bad
        raise InvariantViolationError(
            f"vertex {i} at level {g.levels[i]} touches {support} paired-core "
            f"directions, above the bound {bound}"
        )
    pairs = g.bar_pairs
    if not pairs:
        return []

    # orbit points of one pair must not show up in another pair's directions;
    # member x belongs to the orbit of pair x // 6, position j to pair owner[j]
    owner = np.full(p.dim, -1)
    for q, (v, w) in enumerate(pairs):
        owner[[pos[v], pos[w]]] = q
    nonzero = coords != 0
    members = [i for orbit in g.orbits.values() for i in orbit]
    x, j = np.nonzero(nonzero[members])
    foreign = ((owner[j] >= 0) & (owner[j] != x // 6)).nonzero()[0]
    if foreign.size:
        t = foreign[0]
        raise InvariantViolationError(
            f"orbit vertex {members[x[t]]} of pair {pairs[x[t] // 6]} has nonzero coordinate "
            f"in a foreign paired-core direction {j[t]}"
        )

    outside = np.ones(p.n, dtype=bool)
    outside[members] = False
    touched = nonzero[outside].any(axis=0)  # positions a vertex outside every orbit touches
    return [(v, w) for v, w in pairs if not touched[pos[v]] and not touched[pos[w]]]


@dataclass(frozen=True)
class Factor:
    """One direct summand: its vertices (as indices into the original
    polytope), the factor polytope in its own block coordinates, the block's
    position in the transformed space, and a hexagon/residual tag."""

    vertex_indices: tuple[int, ...]
    polytope: Polytope
    block: tuple[int, int]
    kind: str


@dataclass(frozen=True)
class Decomposition:
    factors: tuple[Factor, ...]
    change_of_basis: IntMatrix
    hexagon_count: int

    @property
    def residual(self) -> Factor | None:
        for f in self.factors:
            if f.kind == "residual":
                return f
        return None


def _extract(p: Polytope, f: FacetFrame, blocks: list[list[int]], assign: list[int],
             kinds: list[str]) -> Decomposition:
    """Build the decomposition given per-block frame positions, a map
    assigning every vertex to a block and the blocks' kinds."""
    coords = frame_coords(p, f)
    block_of = np.empty(p.dim, dtype=np.intp)  # the block of every frame position
    for bi, block in enumerate(blocks):
        block_of[block] = bi
    outside = ((coords != 0) & (block_of != np.asarray(assign)[:, None])).any(axis=1).tolist()
    factors = []
    lo = 0
    for bi, (block, (own, q)) in enumerate(zip(blocks, _block_polytopes(coords, blocks, assign))):
        hi = lo + len(block)
        # with every row zero outside its block, the padded factors are the
        # transformed vertices
        bad = next((i for i in own if outside[i]), None)
        if bad is not None:
            raise InvariantViolationError(f"vertex {bad} has support outside its block {(lo, hi)}")
        if kinds[bi] == "hexagon" and set(q.vertices) != HEXAGON_VERTICES:
            raise InvariantViolationError(
                f"clean pair block {(lo, hi)} is not a standard hexagon: {q.vertices}"
            )
        factors.append(Factor(own, q, (lo, hi), kinds[bi]))
        lo = hi
    hexagons = sum(1 for fac in factors if fac.kind == "hexagon")
    rows = f.dual.take([j for block in blocks for j in block], axis=0).tolist()
    basis = IntMatrix(tuple(map(tuple, rows)))
    return Decomposition(tuple(factors), basis, hexagons)


def hexagon_split(p: Polytope, mode: Mode | None = None) -> Decomposition:
    """Split off every clean hexagon pair of a special facet.

    All clean pairs are extracted, not just the guaranteed number; the
    guarantee is then enforced as a post-condition: above the dimension
    threshold the hexagon count must reach guaranteed_hexagons(d, k).

    Validating p (in `special_facet`) covers every free summand, so the
    factors are not validated again.
    """
    f = special_facet(p, mode)
    g = goodness_partition(p, f)
    pairs = clean_pairs(p, f, g)

    pos = f.positions
    blocks: list[list[int]] = []
    assign = [-1] * p.n
    for bi, pair in enumerate(pairs):
        blocks.append([pos[pair[0]], pos[pair[1]]])
        for i in g.orbits[pair]:
            assign[i] = bi
    paired_positions = {j for b in blocks for j in b}
    rest = [j for j in range(p.dim) if j not in paired_positions]
    if rest or any(a == -1 for a in assign):
        blocks.append(rest)
        ri = len(blocks) - 1
        for i in range(p.n):
            if assign[i] == -1:
                assign[i] = ri
    kinds = ["hexagon"] * len(pairs) + ["residual"] * (len(blocks) - len(pairs))
    dec = _extract(p, f, blocks, assign, kinds)

    d, k = p.dim, vertex_deficit(p)
    if d >= split_threshold(k) and dec.hexagon_count < guaranteed_hexagons(d, k):
        raise TheoremViolationError(d, k, dec.hexagon_count, guaranteed_hexagons(d, k))
    return dec


def finest_split(p: Polytope, mode: Mode | None = None) -> Decomposition:
    """Finest direct-sum factorization: validation's free summands.

    Each factor is a `free_summands` entry on the input vertices it came
    from, and the change of basis is `free_sum`'s, so it maps every vertex to
    its factor's row padded into the factor's block.  A smooth Fano polygon
    with six vertices is the hexagon, so such a factor is tagged "hexagon",
    every other one "residual".  Validating p proves every factor, so none
    is validated here.
    """
    basis, summands = free_sum(p, mode)
    factors = []
    lo = 0
    for own, q in summands:
        kind = "hexagon" if (q.dim, q.n) == (2, 6) else "residual"
        factors.append(Factor(own, q, (lo, lo + q.dim), kind))
        lo += q.dim
    return Decomposition(tuple(factors), basis, sum(f.kind == "hexagon" for f in factors))
