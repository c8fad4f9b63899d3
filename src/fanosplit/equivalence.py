"""Canonical normal form and lattice-equivalence testing.

Two smooth Fano polytopes are linearly lattice equivalent iff some
unimodular map carries one vertex set onto the other.  Since every polytope
here has the origin as its distinguished interior point, equivalence is
linear (origin-fixing); the affine translation freedom of the general
definition is vacuous.

The normal form is computed one irreducible free summand at a time.

* The finest free-sum decomposition is unique.  If P = Q_1 + ... + Q_m with
  every Q_i irreducible, each facet of P is a join of one facet per Q_i, and
  the dual functional of a vertex of Q_i's part vanishes on the lattice of
  every other summand.  So in *any* facet's coordinates every vertex has its
  support inside its own summand's positions, and the blocks of the
  coordinate support graph (`polytope.coordinate_blocks`) refine the Q_i;
  they cannot refine them strictly, since blocks inside one Q_i would split
  it.  Every facet therefore yields the same vertex partition, a unimodular
  map carries it to the partition of the image, and P and P' are equivalent
  iff their multisets of summand classes agree.  Validation already builds
  and proves these block polytopes (`polytope.free_summands`).
* Each summand Q is searched over its *special* facets only: those whose
  cone contains its vertex sum, i.e. whose dual basis has no negative
  product with it.  A unimodular map carries the vertex sum of Q to that of
  its image and facets to facets, so it carries special facets to special
  facets: the set searched is an invariant (the idea of Øbro's SFP
  algorithm, arXiv:0704.0049).  With vertex sum 0 every facet is special.
* In each special facet's dual basis the vertices get a coordinate matrix
  that depends only on the class, up to the ordering of the frame's vertices
  and of the rows.  Rows are sorted lexicographically, and frame orderings
  are pruned by invariants (per-position value multisets, refined against
  already-placed positions); the lexicographically minimal matrix over the
  surviving candidates is Q's form.  The pruning keys are computed from
  value multisets only, so they are invariants themselves and the searched
  set -- hence the minimum -- is the same for equivalent summands.
* The summand forms, sorted by (dim, n, matrix), are placed block-diagonally
  and the rows sorted.  The result is the vertex matrix of a polytope
  equivalent to P that depends only on P's class, so equal digests mean
  equivalence.  An irreducible P with vertex sum 0 gets the matrix of the
  search over all its facets.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SizeLimitError
from .linalg import IntMatrix
from .polytope import Mode, Polytope, enumerate_facets, free_summands, vertex_sum

DEFAULT_BUDGET = 500_000

Matrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class NormalForm:
    """Canonical coordinate matrix (n rows, d columns) and its byte digest."""

    canonical_matrix: IntMatrix
    digest: bytes

    def digest_text(self) -> str:
        return self.digest.decode("ascii")


def _serialize(matrix: Matrix) -> bytes:
    return "\n".join(" ".join(str(x) for x in row) for row in matrix).encode("ascii")


def _orderings(cols: Matrix, budget_state: list[int], budget: int):
    """Yield the column orderings that survive invariant-based refinement.

    At each depth only the positions whose accumulated invariant key is
    minimal are branched on; the key is (value multiset, tuple of pair
    profiles against the already-placed positions), which is invariant under
    any relabeling of vertices or coordinates.
    """
    d = len(cols)
    base = tuple(tuple(sorted(c)) for c in cols)

    def rec(prefix: list[int], acc: dict[int, tuple]):
        if len(prefix) == d:
            budget_state[0] += 1
            if budget_state[0] > budget:
                raise SizeLimitError(budget)
            yield tuple(prefix)
            return
        by_key: dict[tuple, list[int]] = {}
        for j, key in acc.items():
            by_key.setdefault(key, []).append(j)
        min_key = min(by_key)
        for j in sorted(by_key[min_key]):
            nxt = {
                t: key + (tuple(sorted(zip(cols[j], cols[t]))),)
                for t, key in acc.items()
                if t != j
            }
            prefix.append(j)
            yield from rec(prefix, nxt)
            prefix.pop()

    start = {j: (base[j],) for j in range(d)}
    yield from rec([], start)


def _factor_form(q: Polytope, budget_state: list[int], budget: int) -> Matrix:
    """Minimal sorted coordinate matrix of an irreducible, proved-valid q over
    its special facets and their surviving orderings."""
    s = vertex_sum(q)
    best: Matrix | None = None
    for f in enumerate_facets(q):
        if any(g < 0 for g in f.coordinates(s)):
            continue
        rows = q.coords_rows(f.dual).tolist()
        cols = tuple(tuple(r[j] for r in rows) for j in range(q.dim))
        for perm in _orderings(cols, budget_state, budget):
            mat = tuple(sorted(tuple(row[j] for j in perm) for row in rows))
            if best is None or mat < best:
                best = mat
    return best


def normal_form(p: Polytope, budget: int = DEFAULT_BUDGET) -> NormalForm:
    """Canonical matrix: the summands' forms, block-diagonal, rows sorted.

    Deterministic; invariant under unimodular maps and vertex reordering.
    Raises SizeLimitError when the pruned searches of all summands together
    exceed `budget` orderings.
    """
    budget_state = [0]
    forms = sorted((q.dim, q.n, _factor_form(q, budget_state, budget))
                   for q in free_summands(p, Mode.FULL))
    rows, lo = [], 0
    for dim, _, form in forms:
        rows.extend((0,) * lo + row + (0,) * (p.dim - lo - dim) for row in form)
        lo += dim
    best = tuple(sorted(rows))
    return NormalForm(IntMatrix(best), _serialize(best))


def are_equivalent(p: Polytope, q: Polytope, budget: int = DEFAULT_BUDGET) -> bool:
    """Linear lattice equivalence via normal-form digest equality.

    Validates both polytopes, then short-circuits on cheap invariants
    (dimension, vertex count, the multiset of summand (dim, n)) before
    running the canonical search.  Inputs of different (d, n) are validated
    in the auto mode of their dimension, since they need no summands.
    """
    mode = Mode.FULL if (p.dim, p.n) == (q.dim, q.n) else None
    shapes = [sorted((s.dim, s.n) for s in free_summands(x, mode)) for x in (p, q)]
    if mode is None or shapes[0] != shapes[1]:
        return False
    return normal_form(p, budget).digest == normal_form(q, budget).digest
