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
  cone contains its vertex sum s, i.e. whose dual basis has no negative
  product with it.  They are the facets on which the level of s is
  maximal: every facet lies at level 1, so the ray through s leaves Q
  through exactly the facets whose cones contain s.  A unimodular map
  carries the vertex sum of Q to that of its image and facets to facets, so
  it carries special facets to special facets: the set searched is an
  invariant (the idea of Øbro's SFP algorithm, arXiv:0704.0049).  With
  vertex sum 0 every facet is special.
* In each special facet's dual basis the vertices get a coordinate matrix
  that depends only on the class, up to the ordering of the frame's vertices
  and of the rows.  Rows are sorted lexicographically, and frame orderings
  are refined by invariants (per-position value multisets, refined against
  already-placed positions); the lexicographically minimal matrix over the
  surviving orderings is Q's form.  The refinement keys are computed from
  value multisets only, so they are invariants themselves and the surviving
  set -- hence the minimum -- is the same for equivalent summands.
* The search skips what the automorphisms of Q map onto work already done,
  as in PALP and Grinis-Kasprzyk (arXiv:1301.6641); ties reveal them.  Two
  orderings pi_0, pi of one facet with the same sorted matrix give the
  column map pi_0[i] -> pi[i], which maps the facet's set of rows onto
  itself.  Such a map g fixing a prefix P sends the orderings below
  P + [j] onto those below P + [g(j)] with the same matrices, and the
  refinement keys, being invariants, are preserved; so a candidate is
  skipped when the maps fixing the prefix send a searched sibling onto it,
  and a leaf tying an earlier leaf abandons its branch at the node where
  their paths part, the image of the earlier leaf's finished branch.  A tie
  of leaves of two facets gives a vertex permutation (v goes to the vertex
  whose row at the second leaf is v's row at the first), a lattice
  automorphism carrying the first facet onto the second.  Automorphisms
  fix the vertex sum, so they carry special facets to special facets with
  the same matrices: a facet in the closure of the searched facets under
  the vertex maps found (within-facet ties give vertex maps too) is
  skipped, and a facet whose search ties an earlier facet stops.  Every
  skipped ordering or facet gives exactly the matrices of one searched, so
  the minimum is that of the full refined search, and `budget` counts the
  orderings searched after pruning.
* A hexagon summand needs no search.  The hexagon's automorphisms act
  transitively on its ordered edges, so in the coordinates of its start
  facet every hexagon summand, and an irreducible hexagon P, has the vertex
  set `polytope.HEXAGON_VERTICES` (`polytope.is_standard_hexagon`), whose
  sorted rows are the matrix the search returns (`_HEXAGON_FORM`).  It is
  charged the 3 orderings that search spends on any vertex order
  (`_HEXAGON_ORDERINGS`), so `budget` runs out exactly where the search
  would run it out; no facet is enumerated and no ordering searched.
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
from .polytope import (
    HEXAGON_VERTICES,
    Mode,
    Polytope,
    enumerate_facets,
    free_summands,
    is_standard_hexagon,
    vertex_sum,
)

DEFAULT_BUDGET = 500_000

# a hexagon summand's form, and the orderings its pruned search spends
_HEXAGON_FORM = tuple(sorted(HEXAGON_VERTICES))
_HEXAGON_ORDERINGS = 3

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


def _node(keys: dict[int, tuple]) -> list:
    """A search node over the unplaced positions' keys: [candidates, index of
    the next candidate, candidates searched, keys replaced by their ranks]."""
    ranks = {key: r for r, key in enumerate(sorted(set(keys.values())))}
    ranked = {t: ranks[key] for t, key in keys.items()}
    return [sorted(t for t, r in ranked.items() if r == 0), 0, [], ranked]


def _in_orbit(j: int, searched: list[int], prefix: list[int],
              col_maps: list[tuple[int, ...]]) -> bool:
    """Whether the group generated by the maps in col_maps that fix every
    position of prefix sends some searched position onto j."""
    fixing = [g for g in col_maps if all(g[c] == c for c in prefix)]
    orbit, todo = set(searched), list(searched)
    while todo and fixing:
        c = todo.pop()
        for g in fixing:
            if g[c] not in orbit:
                orbit.add(g[c])
                todo.append(g[c])
    return j in orbit


def _orderings(cols: Matrix, col_maps: list[tuple[int, ...]], budget_state: list[int],
               budget: int):
    """Yield, depth first, the column orderings that survive invariant-based
    refinement and automorphism pruning.

    At each depth only the positions of minimal key are branched on.  At the
    root a position's key is its value multiset; in a child it is (its key
    in the parent, its pair profile against the position just placed), and
    every node replaces its keys by their ranks among themselves.  Ranks
    keep every comparison of the accumulated keys, so the candidates are
    those of the full keys, which are invariant under any relabeling of
    vertices or coordinates.

    `col_maps` holds column permutations known to map the frame's set of
    rows onto itself; the caller appends to it.  A candidate is skipped when
    the maps that fix the prefix send an already searched sibling onto it.
    After each yield the caller sends None, or a depth k to abandon the
    branch of the depth-k node that holds the last ordering; the search
    then goes on with that node's next candidate.
    """
    d = len(cols)
    prefix: list[int] = []
    stack = [_node({j: tuple(sorted(c)) for j, c in enumerate(cols)})]
    while stack:
        node = stack[-1]
        cands, i, searched, keys = node
        if i == len(cands):
            stack.pop()
            if prefix:
                prefix.pop()
            continue
        node[1] += 1
        j = cands[i]
        if searched and _in_orbit(j, searched, prefix, col_maps):
            continue
        searched.append(j)
        prefix.append(j)
        if len(prefix) < d:
            stack.append(_node({t: (key, tuple(sorted(zip(cols[j], cols[t]))))
                                for t, key in keys.items() if t != j}))
            continue
        budget_state[0] += 1
        if budget_state[0] > budget:
            raise SizeLimitError(budget)
        depth = yield tuple(prefix)
        if depth is not None:
            del stack[depth + 1:], prefix[depth + 1:]
        prefix.pop()


def _vertex_map(a: tuple, b: tuple) -> tuple[int, ...]:
    """The vertex permutation a tie of leaves a and b, each (matrix, rows,
    ordering), reveals: v goes to the vertex whose row in b's ordering is
    v's row in a's ordering.  It is a lattice automorphism mapping a's
    facet onto b's."""
    at = {tuple(r[j] for j in a[2]): v for v, r in enumerate(a[1])}
    sigma = [0] * len(at)
    for w, r in enumerate(b[1]):
        sigma[at[tuple(r[j] for j in b[2])]] = w
    return tuple(sigma)


def _close(covered: set[tuple[int, ...]], faces, vertex_maps: list[tuple[int, ...]]) -> None:
    """Add faces and their images under the group vertex_maps generate."""
    todo = [x for x in faces if x not in covered]
    covered.update(todo)
    while todo:
        x = todo.pop()
        for s in vertex_maps:
            y = tuple(sorted(s[v] for v in x))
            if y not in covered:
                covered.add(y)
                todo.append(y)


def _factor_form(q: Polytope, budget_state: list[int], budget: int) -> Matrix:
    """Minimal sorted coordinate matrix of an irreducible, proved-valid q over
    its special facets and their surviving orderings, skipping what the
    automorphisms revealed by ties map onto work already done."""
    s = vertex_sum(q)
    best = None  # the least leaf so far: (matrix, rows, ordering)
    vertex_maps: list[tuple[int, ...]] = []
    covered: set[tuple[int, ...]] = set()  # searched facets, closed under vertex_maps
    facets = enumerate_facets(q)
    levels = [f.level(s) for f in facets]
    top = max(levels)
    for f, level in zip(facets, levels):
        face = f.vertex_indices
        if level < top or face in covered:
            continue
        rows = q.coords_rows(f.dual).tolist()
        cols = tuple(tuple(r[j] for r in rows) for j in range(q.dim))
        col_maps: list[tuple[int, ...]] = []
        search = _orderings(cols, col_maps, budget_state, budget)
        first = depth = None
        while True:
            try:
                perm = search.send(depth)
            except StopIteration:
                break
            depth = None
            leaf = (tuple(sorted(tuple(r[j] for j in perm) for r in rows)), rows, perm)
            if first is None:
                first = leaf
            if best is None or leaf[0] < best[0]:
                best = leaf
                continue
            ref = first if first is not leaf and first[0] == leaf[0] else best
            if ref[0] != leaf[0]:
                continue
            sigma = _vertex_map(ref, leaf)
            vertex_maps.append(sigma)
            if ref[1] is rows:  # a column map of this facet, fixing the common prefix
                g = list(range(q.dim))
                for a, b in zip(ref[2], perm):
                    g[a] = b
                col_maps.append(tuple(g))
                depth = next(k for k, (a, b) in enumerate(zip(ref[2], perm)) if a != b)
            _close(covered, [tuple(sorted(sigma[v] for v in x)) for x in covered], vertex_maps)
            if face in covered:  # the image of a searched facet: nothing new below
                break
        _close(covered, [face], vertex_maps)
    return best[0]


def _summand_form(q: Polytope, budget_state: list[int], budget: int) -> Matrix:
    """q's form: _HEXAGON_FORM for a standard hexagon, charged the orderings
    its search would spend, else `_factor_form`."""
    if not is_standard_hexagon(q):
        return _factor_form(q, budget_state, budget)
    budget_state[0] += _HEXAGON_ORDERINGS
    if budget_state[0] > budget:
        raise SizeLimitError(budget)
    return _HEXAGON_FORM


def normal_form(p: Polytope, budget: int = DEFAULT_BUDGET) -> NormalForm:
    """Canonical matrix: the summands' forms, block-diagonal, rows sorted.

    Deterministic; invariant under unimodular maps and vertex reordering.
    Raises SizeLimitError when the pruned searches of all summands together
    exceed `budget` orderings.
    """
    budget_state = [0]
    forms = sorted((q.dim, q.n, _summand_form(q, budget_state, budget))
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
