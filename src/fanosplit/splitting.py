"""Direct sums and direct-sum decompositions.

Two decompositions are provided.  `finest_split` is the finest direct-sum
factorization of any smooth Fano polytope: validation's free summands, in
the gift-wrapped facet's coordinates (`polytope.free_sum`), with hexagon
factors tagged.  It validates nothing itself: validating p already proves
every free summand.  `hexagon_split` realizes the guarantee that drives this
package: a smooth Fano polytope with 3d-k vertices and d >= 15k^2 + 37k + 2
splits off at least floor((d - 15k^2 - 37k)/2) hexagon factors.  It finds
them in the special facet's coordinates: the orbit of each clean pair of
the paired core is a hexagon factor, and every other vertex lies in one
residual block.  The guaranteed count is a post-condition, raising
TheoremViolationError if it ever fails (a bug or a counterexample; never
swallowed).

Both return a `Decomposition` whose change of basis is unimodular, so
factors live in honest coordinate blocks and reassembly is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from .analysis import GoodnessPartition, goodness_partition, support_bound_violation
from .errors import InvariantViolationError, TheoremViolationError
from .linalg import IntMatrix
from .polytope import (
    FacetFrame,
    Mode,
    Polytope,
    _array_polytope,
    _block_polytopes,
    frame_coords,
    free_sum,
    is_standard_hexagon,
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
    """conv(P x {0} union {0} x Q): one block-diagonal vertex store, P's
    rows with zeros on Q's coordinates, then Q's rows with zeros on P's."""
    a = np.zeros((p.n + q.n, p.dim + q.dim), dtype=np.result_type(p._array, q._array))
    a[:p.n, :p.dim] = p._array
    a[p.n:, p.dim:] = q._array
    return _array_polytope(a, max(p._abs_max, q._abs_max))


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
    if not g.bar_pairs:
        return []
    outside = np.ones(p.n, dtype=bool)
    outside[[i for orbit in g.orbits.values() for i in orbit]] = False
    touched = (coords[outside] != 0).any(axis=0)  # positions a vertex outside every orbit touches
    return [(v, w) for v, w in g.bar_pairs if not touched[pos[v]] and not touched[pos[w]]]


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

    # In f's coordinates frame vertex v is the unit vector e_v, and analysis
    # defines the rest of the orbit of a paired-core pair (v, w) by its rows:
    # opp(v) is e_w - e_v (phi(v) = w), opp(w) is e_v - e_w (phi(w) = v), -v is
    # -e_v and -w is -e_w.  So an orbit lives on its pair's two positions: a
    # clean pair's block, where it is the standard hexagon, or two residual
    # positions.  A vertex outside every orbit is zero at the clean positions
    # by the definition of clean.  So every row is zero outside its block, the
    # blocks split p and nothing is left to check.
    pos = f.positions
    blocks = [[pos[v], pos[w]] for v, w in pairs]
    assign = [len(pairs)] * p.n  # the residual block, unless an orbit holds the vertex
    for bi, pair in enumerate(pairs):
        for i in g.orbits[pair]:
            assign[i] = bi
    rest = sorted(set(range(p.dim)).difference(*blocks))
    if rest:  # without one, a vertex outside every orbit would be 0
        blocks.append(rest)
    basis = IntMatrix(tuple(f.dual_basis.entries[j] for block in blocks for j in block))
    dec = _decomposition(basis, _block_polytopes(frame_coords(p, f), blocks, assign),
                         ["hexagon"] * len(pairs) + ["residual"])

    d, k = p.dim, vertex_deficit(p)
    if d >= split_threshold(k) and dec.hexagon_count < guaranteed_hexagons(d, k):
        raise TheoremViolationError(d, k, dec.hexagon_count, guaranteed_hexagons(d, k))
    return dec


def finest_split(p: Polytope, mode: Mode | None = None) -> Decomposition:
    """Finest direct-sum factorization: validation's free summands.

    Each factor is a `free_summands` entry on the input vertices it came
    from, and the change of basis is `free_sum`'s, so it maps every vertex to
    its factor's row padded into the factor's block.  A factor that
    `is_standard_hexagon` is tagged "hexagon", every other one "residual".
    Validating p proves every factor, so none is validated here.
    """
    basis, summands = free_sum(p, mode)
    return _decomposition(basis, summands, ["hexagon" if is_standard_hexagon(q) else "residual"
                                            for _, q in summands])


def _decomposition(basis: IntMatrix, summands: Sequence[tuple[tuple[int, ...], Polytope]],
                   kinds: Sequence[str]) -> Decomposition:
    """The factors `summands`, (vertex indices, polytope) in block order,
    tagged by `kinds`, with the change of basis that lays them out."""
    ends = accumulate(q.dim for _, q in summands)
    factors = tuple(Factor(own, q, (hi - q.dim, hi), kind)
                    for (own, q), kind, hi in zip(summands, kinds, ends))
    return Decomposition(factors, basis, sum(f.kind == "hexagon" for f in factors))
