"""Reference implementations the fast paths are checked against.

`brute_facets` enumerates every d-subset of vertices, solves for its
hyperplane exactly and keeps the supporting ones.  It is completely
independent of the package's gift-wrap/pivot path: only the scaled-dual
solver is shared, and that is property-tested on its own.

`monolithic_digest` is the normal form searched over every facet of P and
every surviving frame ordering, without splitting P into free summands.

`neighbor_raw_tuples` is the ridge-crossing dual-basis update row by row on
tuples of Python ints, the reference for the array update
`polytope._neighbor_raw`.

`parse_ints_scan` is the token-by-token line parser, the reference for
`fanofile._parse_ints`: the same integers, or the same FanoFileError.

`determinant_rows` is fraction-free (Bareiss) elimination on lists of
Python ints, the reference for `linalg.determinant`.

`kernel_reduce_rows` is the kernel update on lists of Python ints, the
reference for `linalg.IntKernel.reduce`.

`initial_raw_lists` is the gift-wrap on lists of Python ints, recomputing
the hyperplane's values from its normal after every rotation, the
reference for `polytope._initial_raw`.

`dense_products` is every dot product <x, u> of a vertex row x with a row
u, on Python ints: the dense v @ r.T, the reference for
`linalg._vertex_products` and its sparse paths.

`product_opposite_failures` runs the opposite-coordinate and
level-zero-opposites checks over every facet of P itself, the reference for
FULL `verify`'s walk over the facets of P's free summands.

`pair_orbit` is the six-vertex orbit {v, w, w - v, v - w, -v, -w} of a pair
by vector arithmetic and vertex lookup, the reference for
`GoodnessPartition.orbits`.  `negated_by_lookup` is the negated-basis rule
by looking up -x, the reference for `GoodnessPartition.negation`.
`crossed_neighbor_normal` is verify's good-neighbor-normal check by crossing
each ridge to the neighbour record, the reference for the check on the
special frame's coordinate rows.  `unique_opposite_pairwise` is verify's
unique-opposite-iff-phi check comparing each good vertex's opposite with
every other frame vertex's, the reference for the check's count of shared
opposites.
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import combinations

from fanosplit.equivalence import DEFAULT_BUDGET, _orderings, _serialize
from fanosplit.errors import (
    FanoFileError,
    InvariantViolationError,
    NotSimplicialError,
    OriginNotInteriorError,
    SingularMatrixError,
)
from fanosplit.linalg import IntKernel, determinant, dot, gcd_of, scaled_dual, vec_sub
from fanosplit.polytope import (
    Mode,
    Polytope,
    _check_facet,
    _cross,
    _min_ratio,
    _opposites,
    _raw_from_rows,
    enumerate_facets,
    require_smooth_fano,
)
from fanosplit.verify import _level_zero_failure, _opposite_coordinate_failure


def brute_facets(p: Polytope) -> dict[tuple[int, ...], tuple[tuple[int, ...], int]]:
    """Map facet vertex-index tuple -> (primitive outer normal, level)."""
    facets = {}
    for subset in combinations(range(p.n), p.dim):
        rows = [p.vertices[i] for i in subset]
        try:
            dual, delta = scaled_dual(rows)
        except SingularMatrixError:
            continue
        dual = dual.tolist()
        if delta < 0:
            dual = [[-a for a in r] for r in dual]
            delta = -delta
        rowsum = tuple(sum(col) for col in zip(*dual))
        g = gcd_of(list(rowsum) + [delta])
        normal = tuple(a // g for a in rowsum)
        level = delta // g
        values = [dot(normal, v) for v in p.vertices]
        if max(values) > level:
            continue
        on = tuple(i for i, val in enumerate(values) if val == level)
        if on != subset:
            continue  # hyperplane carries more points; not this subset's facet
        facets[subset] = (normal, level)
    return facets


def brute_valid(p: Polytope) -> bool:
    """Smooth Fano by exhaustion.

    `brute_facets` keeps only supporting simplices with the origin strictly
    inside their half-space.  They are every facet iff each of their ridges
    lies in exactly two of them; then p is smooth Fano iff every point lies
    on one and every one has |det| = 1.
    """
    facets = brute_facets(p)
    ridges = Counter(r for f in facets for r in combinations(f, p.dim - 1))
    return (bool(facets) and all(c == 2 for c in ridges.values())
            and set().union(*facets) == set(range(p.n))
            and all(abs(determinant([p.vertices[i] for i in f])) == 1 for f in facets))


def brute_neighbor(facets: dict, facet: tuple[int, ...], dropped: int) -> tuple[tuple[int, ...], int]:
    """Neighbor across the ridge facet \\ {dropped}, found by ridge matching.

    Returns (neighbor indices, opposite vertex index).
    """
    ridge = set(facet) - {dropped}
    matches = [
        g for g in facets
        if g != facet and ridge.issubset(g)
    ]
    assert len(matches) == 1, f"ridge {sorted(ridge)} lies in {len(matches)} other facets"
    neighbor = matches[0]
    extra = set(neighbor) - ridge
    assert len(extra) == 1
    return neighbor, extra.pop()


def monolithic_digest(p: Polytope, budget: int = DEFAULT_BUDGET) -> bytes:
    """Digest of the minimal sorted coordinate matrix over all facet frames
    of p and their surviving orderings."""
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
    return _serialize(best)


def neighbor_raw_tuples(indices, dual, det, ct, pos, target):
    """(indices, dual, det, normal, level) of the record across frame position
    `pos` of the record (indices, dual, det), entering `target`, whose
    coordinate row is `ct`."""
    sign = -1 if ct[pos] < 0 else 1
    beta = sign * ct[pos]
    base = dual[pos]
    rows = []
    for w, row in enumerate(dual):
        if w == pos:
            rows.append(tuple(sign * b for b in base))
        else:
            # exact division: the rows are the adjugate of the new vertex basis
            c = sign * ct[w]
            rows.append(tuple((beta * a - c * b) // det for a, b in zip(row, base)))
    rowsum = [sum(col) for col in zip(*rows)]
    g = gcd_of(rowsum + [beta])
    indices = tuple(target if w == pos else i for w, i in enumerate(indices))
    return indices, tuple(rows), beta, tuple(a // g for a in rowsum), beta // g


def parse_ints_scan(lineno: int, body: str, expected: int, what: str) -> list[int]:
    """The `expected` integers of a line, token by token with regex offsets;
    FanoFileError at the first extra token, the line end or a non-integer."""
    tokens = list(re.finditer(r"\S+", body))
    if len(tokens) != expected:
        col = tokens[expected].start() + 1 if len(tokens) > expected else len(body.rstrip()) + 1
        raise FanoFileError(lineno, col, f"expected {expected} {what}, got {len(tokens)}")
    out = []
    for tok in tokens:
        try:
            if "_" in tok.group():  # a decimal integer has no digit-group underscores
                raise ValueError
            out.append(int(tok.group()))
        except ValueError:
            raise FanoFileError(
                lineno, tok.start() + 1, f"not an integer: {tok.group()!r}"
            ) from None
    return out


def determinant_rows(rows) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination on lists."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = a[k][k]
        ak = a[k]
        for i in range(k + 1, n):
            ai = a[i]
            aik = ai[k]
            for j in range(k + 1, n):
                ai[j] = (ai[j] * pk - aik * ak[j]) // prev
            ai[k] = 0
        prev = pk
    return sign * a[n - 1][n - 1]


def kernel_reduce_rows(rows: list[list[int]], vec) -> bool:
    """Shrink the kernel basis `rows` (lists, changed in place) by the
    hyperplane <., vec> = 0: pivot on the smallest nonzero |w|, lowest index
    first, combine every row with it and take primitive parts."""
    w = [dot(r, vec) for r in rows]
    nz = [i for i, x in enumerate(w) if x != 0]
    if not nz:
        return False
    r = min(nz, key=lambda i: (abs(w[i]), i))
    new = []
    for i, row in enumerate(rows):
        if i == r:
            continue
        comb = [a * w[r] - w[i] * b for a, b in zip(row, rows[r])]
        g = gcd_of(abs(x) for x in comb)
        new.append([x // g for x in comb])
    rows[:] = new
    return True


def initial_raw_lists(p: Polytope):
    """The gift-wrapped start facet's record, on lists of Python ints."""
    d = p.dim
    first = [v[0] for v in p.vertices]
    c = max(first)
    if c <= 0:
        raise OriginNotInteriorError("all vertices have non-positive first coordinate")
    normal = tuple(1 if j == 0 else 0 for j in range(d))
    values = first
    on = [i for i, v in enumerate(values) if v == c]
    kernel = IntKernel(d)
    for i in on:
        kernel.reduce(p.vertices[i])
    while kernel.remaining > 0:
        if len(on) > d - kernel.remaining:
            raise NotSimplicialError(
                f"supporting hyperplane contains dependent vertex set {tuple(on)}"
            )
        w = tuple(kernel.row(0).tolist())
        wv = [dot(w, v) for v in p.vertices]
        neg = [-x for x in wv]
        below = [i for i, v in enumerate(values) if v < c]
        cands = _min_ratio(neg, values, c, below)
        if not cands:
            w, wv, neg = tuple(-a for a in w), neg, wv
            cands = _min_ratio(neg, values, c, below)
        if not cands:
            raise InvariantViolationError("no rotation direction during gift-wrap")
        best = cands[0]
        scale = wv[best]
        shift = c - values[best]
        normal = tuple(scale * a + shift * b for a, b in zip(normal, w))
        c = scale * c
        g = gcd_of(list(normal) + [c])
        if g > 1:
            normal = tuple(a // g for a in normal)
            c = c // g
        values = [dot(normal, v) for v in p.vertices]
        new_on = [i for i, v in enumerate(values) if v == c]
        previous = set(on)
        for i in new_on:
            if i not in previous:
                kernel.reduce(p.vertices[i])
        on = new_on
    if len(on) != d:
        raise NotSimplicialError(
            f"initial supporting hyperplane contains {len(on)} vertices: {tuple(on)}"
        )
    raw = _raw_from_rows(p, sorted(on))
    _check_facet(p, raw)
    return raw


def product_opposite_failures(p: Polytope) -> tuple[str | None, str | None]:
    """First failures of the opposite-coordinate and level-zero-opposites
    checks over every facet of p, in `enumerate_facets` order."""
    coord_fail = zero_fail = None
    for f in enumerate_facets(p):
        coords = p.coords_rows(f.dual_basis.entries)
        opp = _opposites(f, coords)
        coord_fail = coord_fail or _opposite_coordinate_failure(f, coords, opp)
        zero_fail = zero_fail or _level_zero_failure(f, coords, opp)
    return coord_fail, zero_fail


def dense_products(vertices, rows) -> list[list[int]]:
    """<x, u> for every vertex row x and every row u, as lists of Python ints."""
    return [[dot(x, u) for u in rows] for x in vertices]


def pair_orbit(p: Polytope, v: int, w: int) -> tuple[int | None, ...]:
    """Indices of v, w, w - v, v - w, -v, -w; None where a point is no vertex."""
    vv, wv, zero = p.vertices[v], p.vertices[w], (0,) * p.dim
    points = (vv, wv, vec_sub(wv, vv), vec_sub(vv, wv), vec_sub(zero, vv), vec_sub(zero, wv))
    return tuple(p.index_of(x) for x in points)


def negated_by_lookup(p: Polytope, g, i: int) -> bool:
    """Whether vertex i is the negation of a good frame vertex with phi != 0."""
    return p.index_of(tuple(-a for a in p.vertices[i])) in g.a


def crossed_neighbor_normal(ctx) -> tuple[bool, str, bool]:
    """verify's good-neighbor-normal check on `verify._Ctx` ctx, comparing
    the normal of each crossed neighbour record with u_F - u_z."""
    g = ctx.g
    good = sorted(g.a | g.b)
    for z in good:
        normal = _cross(ctx.p, ctx.frame._raw, ctx.pos[z]).normal
        expect = vec_sub(ctx.frame.outer_normal, ctx.frame.dual_basis.row(ctx.pos[z]))
        if normal != expect:
            return False, f"neighbor normal across good vertex {z} is not u_F - u_z", True
    return True, "", bool(good)


def unique_opposite_pairwise(ctx) -> tuple[bool, str, bool]:
    """verify's unique-opposite-iff-phi check on `verify._Ctx` ctx, comparing
    each good vertex's opposite with every other frame vertex's."""
    g = ctx.g
    for v in sorted(g.a | g.b):
        unique = all(g.opp[w] != g.opp[v] for w in ctx.frame.vertex_indices if w != v)
        if unique != (g.phi[v] is not None):
            return False, f"good vertex {v}: unique opposite={unique} but phi={g.phi[v]}", True
    return True, "", bool(g.a | g.b)
