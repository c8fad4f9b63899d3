"""Direct sums and direct-sum decompositions.

Two decompositions are provided.  `hexagon_split` realizes the guarantee
that drives this package: a smooth Fano polytope with 3d-k vertices and
d >= 15k^2 + 37k + 2 splits off at least floor((d - 15k^2 - 37k)/2) hexagon
factors.  It finds them constructively -- pairs from the paired core of a
special facet whose dual coordinates vanish on every vertex outside the
hexagon orbit set -- and verifies the guaranteed count as a post-condition,
raising TheoremViolationError if it ever fails (a bug or a counterexample;
never swallowed).  `finest_split` computes the finest direct-sum
factorization of any smooth Fano polytope from the coordinate support graph
of a single facet frame.

Both return a `Decomposition` whose change of basis is the (unimodular)
permuted dual basis of the frame used, so factors live in honest coordinate
blocks and reassembly is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import GoodnessPartition, goodness_partition
from .errors import InvariantViolationError, TheoremViolationError
from .linalg import IntMatrix, vec_neg, vec_sub
from .polytope import (
    FacetFrame,
    Mode,
    Polytope,
    auto_mode,
    is_smooth_fano,
    require_smooth_fano,
    special_facet,
    vertex_deficit,
)

HEXAGON_VERTICES = frozenset(
    [(1, 0), (0, 1), (-1, 1), (1, -1), (-1, 0), (0, -1)]
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


def _pair_orbit(p: Polytope, v: int, w: int) -> tuple[int, ...]:
    """Vertex indices of {v, w, w-v, v-w, -v, -w}; all six must be vertices."""
    vv, wv = p.vertices[v], p.vertices[w]
    points = (vv, wv, vec_sub(wv, vv), vec_sub(vv, wv), vec_neg(vv), vec_neg(wv))
    out = []
    for pt in points:
        i = p.index_of(pt)
        if i is None:
            raise InvariantViolationError(
                f"hexagon orbit point {pt} of pair ({v}, {w}) is not a vertex"
            )
        out.append(i)
    return tuple(out)


def clean_pairs(p: Polytope, f: FacetFrame, g: GoodnessPartition) -> list[tuple[int, int]]:
    """Paired-core pairs whose dual coordinates vanish outside the orbit set W.

    W is the union of the six-vertex orbits of all paired-core pairs.  A pair
    (v, phi(v)) is clean when every vertex outside W has coordinate 0 along
    both u_v and u_phi(v); each clean pair spans a hexagon direct summand.
    """
    coords = p.coords_rows(f.dual_basis.entries)
    pos = {vi: i for i, vi in enumerate(f.vertex_indices)}
    pairs = g.bar_pairs
    orbit_sets = {pair: _pair_orbit(p, *pair) for pair in pairs}
    w_set: set[int] = set()
    for orbit in orbit_sets.values():
        w_set.update(orbit)

    # support bound: a vertex on a negative level has nonzero coordinates in
    # at most 2k + 2 paired-core directions
    k = vertex_deficit(p)
    levels = p.products(f.outer_normal)
    bar_positions = [pos[v] for v in sorted(g.a_bar)]
    for i, level in enumerate(levels):
        if level <= -1:
            support = sum(1 for j in bar_positions if coords[i][j] != 0)
            if support > 2 * k + 2:
                raise InvariantViolationError(
                    f"vertex {i} at level {level} touches {support} paired-core "
                    f"directions, above the bound {2 * k + 2}"
                )

    # orbit points of one pair must not show up in another pair's directions
    for pair, orbit in orbit_sets.items():
        own = {pos[pair[0]], pos[pair[1]]}
        for i in orbit:
            for j in bar_positions:
                if j not in own and coords[i][j] != 0:
                    raise InvariantViolationError(
                        f"orbit vertex {i} of pair {pair} has nonzero coordinate "
                        f"in a foreign paired-core direction {j}"
                    )

    outside = [i for i in range(p.n) if i not in w_set]
    clean = []
    for pair in pairs:
        jv, jw = pos[pair[0]], pos[pair[1]]
        if all(coords[i][jv] == 0 and coords[i][jw] == 0 for i in outside):
            clean.append(pair)
    return clean


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


def _validate_factor(q: Polytope) -> None:
    cert = is_smooth_fano(q, auto_mode(q.dim))
    if not cert.valid:
        raise InvariantViolationError(
            f"extracted factor {q} failed validation: {cert.describe()}"
        )


def _check_reassembly(coords: list[tuple[int, ...]], factors: tuple[Factor, ...], d: int) -> None:
    """The factors, padded back into their blocks, are the vertices `coords`."""
    transformed = set(coords)
    rebuilt = set()
    for f in factors:
        lo, hi = f.block
        for v in f.polytope.vertices:
            rebuilt.add((0,) * lo + v + (0,) * (d - hi))
    if transformed != rebuilt:
        raise InvariantViolationError("factors do not reassemble the polytope")


def _extract(p: Polytope, f: FacetFrame, blocks: list[list[int]],
             kinds: list[str], assign: list[int]) -> Decomposition:
    """Build the decomposition given per-block frame positions and a map
    assigning every vertex to a block."""
    order: list[int] = []
    spans: list[tuple[int, int]] = []
    for block in blocks:
        start = len(order)
        order.extend(block)
        spans.append((start, len(order)))
    basis = IntMatrix(tuple(f.dual_basis.entries[j] for j in order))
    coords = p.coords_rows(basis.entries)
    factors = []
    hexagons = 0
    for bi, (span, kind) in enumerate(zip(spans, kinds)):
        lo, hi = span
        members = tuple(i for i in range(p.n) if assign[i] == bi)
        rows = []
        for i in members:
            row = coords[i]
            if any(row[t] != 0 for t in range(lo)) or any(row[t] != 0 for t in range(hi, len(order))):
                raise InvariantViolationError(
                    f"vertex {i} has support outside its block {span}"
                )
            rows.append(row[lo:hi])
        q = Polytope(hi - lo, tuple(rows))
        if kind == "hexagon":
            if set(q.vertices) != HEXAGON_VERTICES:
                raise InvariantViolationError(
                    f"clean pair block {span} is not a standard hexagon: {q.vertices}"
                )
            hexagons += 1
        else:
            _validate_factor(q)
        factors.append(Factor(members, q, span, kind))
    dec = Decomposition(tuple(factors), basis, hexagons)
    _check_reassembly(coords, dec.factors, basis.rows)
    return dec


def hexagon_split(p: Polytope, mode: Mode | None = None) -> Decomposition:
    """Split off every clean hexagon pair of a special facet.

    All clean pairs are extracted, not just the guaranteed number; the
    guarantee is then enforced as a post-condition: above the dimension
    threshold the hexagon count must reach guaranteed_hexagons(d, k).
    """
    require_smooth_fano(p, mode)
    f = special_facet(p, mode)
    g = goodness_partition(p, f)
    pairs = clean_pairs(p, f, g)

    pos = {vi: i for i, vi in enumerate(f.vertex_indices)}
    blocks: list[list[int]] = []
    kinds: list[str] = []
    assign = [-1] * p.n
    for bi, pair in enumerate(pairs):
        blocks.append([pos[pair[0]], pos[pair[1]]])
        kinds.append("hexagon")
        for i in _pair_orbit(p, *pair):
            assign[i] = bi
    paired_positions = {j for b in blocks for j in b}
    rest = [j for j in range(p.dim) if j not in paired_positions]
    if rest or any(a == -1 for a in assign):
        blocks.append(rest)
        kinds.append("residual")
        ri = len(blocks) - 1
        for i in range(p.n):
            if assign[i] == -1:
                assign[i] = ri
    dec = _extract(p, f, blocks, kinds, assign)

    d, k = p.dim, vertex_deficit(p)
    if d >= split_threshold(k) and dec.hexagon_count < guaranteed_hexagons(d, k):
        raise TheoremViolationError(d, k, dec.hexagon_count, guaranteed_hexagons(d, k))
    return dec


def finest_split(p: Polytope, mode: Mode | None = None) -> Decomposition:
    """Finest direct-sum factorization via the support graph of one frame.

    Link two frame positions whenever some vertex has nonzero coordinates at
    both; connected components give the coordinate blocks, and every vertex's
    support lies inside exactly one block.  Hexagon factors are recognized by
    their dimension 2 and vertex count 6.
    """
    used_mode = require_smooth_fano(p, mode)
    f = special_facet(p, used_mode)
    coords = p.coords_rows(f.dual_basis.entries)

    parent = list(range(p.dim))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    supports = []
    for row in coords:
        sup = [j for j, c in enumerate(row) if c != 0]
        supports.append(sup)
        for other in sup[1:]:
            ra, rb = find(sup[0]), find(other)
            if ra != rb:
                parent[rb] = ra

    roots: dict[int, int] = {}
    blocks: list[list[int]] = []
    for j in range(p.dim):
        r = find(j)
        if r not in roots:
            roots[r] = len(blocks)
            blocks.append([])
        blocks[roots[r]].append(j)

    assign = []
    for i, sup in enumerate(supports):
        owners = {roots[find(j)] for j in sup}
        if len(owners) != 1:
            raise InvariantViolationError(
                f"vertex {i} is supported in {len(owners)} coordinate blocks"
            )
        assign.append(owners.pop())

    dec = _extract(p, f, blocks, ["residual"] * len(blocks), assign)

    # _extract has FULL-validated every 2-dimensional factor, and the hexagon
    # is the only smooth Fano polygon with 6 = 3d vertices (Casagrande's
    # bound is tight in dimension 2 only for it), so no normal form is needed
    factors = tuple(
        Factor(fac.vertex_indices, fac.polytope, fac.block,
               "hexagon" if (fac.polytope.dim, fac.polytope.n) == (2, 6) else fac.kind)
        for fac in dec.factors
    )
    hexagons = sum(1 for fac in factors if fac.kind == "hexagon")
    return Decomposition(factors, dec.change_of_basis, hexagons)
