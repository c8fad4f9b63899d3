"""Canonical normal form and lattice-equivalence testing.

Two smooth Fano polytopes are linearly lattice equivalent iff some
unimodular map carries one vertex set onto the other.  Any such map carries
facet frames to facet frames, so expressing every vertex in a frame's dual
basis yields a coordinate matrix that depends only on the equivalence class
-- up to the choice of facet, the ordering of the frame's vertices, and the
ordering of the rows.  The normal form eliminates those choices:

* rows are sorted lexicographically,
* every facet frame is tried,
* frame orderings are pruned by invariants (per-position value multisets,
  refined against already-placed positions) and the surviving candidates are
  enumerated; the lexicographically minimal matrix wins.

Because the pruning keys are computed from coordinate value multisets only,
they are themselves equivalence invariants, so the search space -- and hence
the minimum -- is identical for equivalent polytopes.

Since every polytope here has the origin as its distinguished interior
point, equivalence is linear (origin-fixing); the affine translation freedom
of the general definition is vacuous.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import levels_and_eta
from .errors import SizeLimitError
from .linalg import IntMatrix
from .polytope import Mode, Polytope, enumerate_facets, require_smooth_fano

DEFAULT_BUDGET = 500_000


@dataclass(frozen=True)
class NormalForm:
    """Canonical coordinate matrix (n rows, d columns) and its byte digest."""

    canonical_matrix: IntMatrix
    digest: bytes

    def digest_text(self) -> str:
        return self.digest.decode("ascii")


def _serialize(matrix: tuple[tuple[int, ...], ...]) -> bytes:
    return "\n".join(" ".join(str(x) for x in row) for row in matrix).encode("ascii")


def _orderings(cols: tuple[tuple[int, ...], ...], budget_state: list[int], budget: int):
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


def normal_form(p: Polytope, budget: int = DEFAULT_BUDGET) -> NormalForm:
    """Canonical matrix over all frames and surviving frame orderings.

    Deterministic; invariant under unimodular maps and vertex reordering.
    Raises SizeLimitError when the pruned search exceeds `budget` orderings.
    """
    require_smooth_fano(p, Mode.FULL)
    best: tuple[tuple[int, ...], ...] | None = None
    budget_state = [0]
    for f in enumerate_facets(p):
        rows = p.coords_rows(f.dual_basis.entries)
        cols = tuple(tuple(r[j] for r in rows) for j in range(p.dim))
        for perm in _orderings(cols, budget_state, budget):
            mat = tuple(sorted(tuple(row[j] for j in perm) for row in rows))
            if best is None or mat < best:
                best = mat
    return NormalForm(IntMatrix(best), _serialize(best))


def _eta_multiset(p: Polytope) -> tuple:
    cache = p._cert_cache
    if "eta_multiset" not in cache:
        out = []
        for f in enumerate_facets(p):
            _, eta = levels_and_eta(p, f)
            out.append(eta.as_pairs())
        cache["eta_multiset"] = tuple(sorted(out))
    return cache["eta_multiset"]


def are_equivalent(p: Polytope, q: Polytope, budget: int = DEFAULT_BUDGET) -> bool:
    """Linear lattice equivalence via normal-form digest equality.

    Validates both polytopes, then short-circuits on cheap invariants
    (dimension, vertex count, the multiset of facet eta vectors) before
    running the canonical search.  Inputs of different (d, n) are validated
    in the auto mode of their dimension, since no facet walk follows.
    """
    mode = Mode.FULL if (p.dim, p.n) == (q.dim, q.n) else None
    require_smooth_fano(p, mode)
    require_smooth_fano(q, mode)
    if mode is None:
        return False
    if _eta_multiset(p) != _eta_multiset(q):
        return False
    return normal_form(p, budget).digest == normal_form(q, budget).digest
