"""Reference implementations the fast paths are checked against.

`brute_facets` enumerates every d-subset of vertices, solves for its
hyperplane exactly and keeps the supporting ones.  It is completely
independent of the package's gift-wrap/pivot path: only the scaled-dual
solver is shared, and that is property-tested on its own.

`orderings_unpruned` is the frame-ordering search by invariant refinement
alone, on the full accumulated keys and with no automorphism pruning.
`factor_form_unpruned` is a summand's form searched over every special
facet and every ordering it yields, the reference for the pruned
`equivalence._factor_form`.  `monolithic_digest` is the normal form searched
over every facet of P and every ordering `orderings_unpruned` yields,
without splitting P into free summands.

`neighbor_raw_tuples` is the ridge-crossing dual-basis update row by row on
tuples of Python ints, the reference for the array update
`polytope._neighbor_raw`.

`enumerate_raw_per_facet` is the breadth-first enumeration one facet and one
ridge at a time: `_min_ratio` per ridge, one record per crossing
(`neighbor_raw_one`, `make_raw_one`) and one check per new facet
(`check_facet_one`).  It is the reference for the layer enumeration
`polytope._enumerate_raw`: the same records in the same order, each with the
same dual dtype, and the same first error.

`parse_ints_scan` is the token-by-token line parser, the reference for
`fanofile._parse_ints`: the same tuple of integers, or the same FanoFileError.
`parse_fano_lines` is the whole file parsed line by line into tuples of
Python ints and built by `make_polytope`, the reference for
`fanofile.parse_fano` and its one-call block conversion.

`direct_sum_tuples` is the direct sum as zero-padded vertex tuples, the
reference for `splitting.direct_sum`, which assembles the block-diagonal
vertex store.

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
level-zero-opposites checks (`opposite_coordinate_failure`,
`level_zero_failure`) over every facet of P itself: the facet lemmas that
FULL validation proves at every facet, and that `verify` therefore checks at
the special facet alone.

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

The functions from `levels_by_normal` on are the special facet's analysis as
loops over coordinate row tuples and vertex lookups (`vec_add`, `vec_sub`),
the references for the array versions in `analysis`, `splitting` and
`verify`.
"""

from __future__ import annotations

import re
from collections import Counter, deque
from itertools import combinations

import numpy as np

from fanosplit import linalg
from fanosplit.equivalence import DEFAULT_BUDGET, _serialize
from fanosplit.errors import (
    FanoFileError,
    InvariantViolationError,
    NotAVertexError,
    NotSimplicialError,
    OriginNotInteriorError,
    SingularMatrixError,
    SizeLimitError,
)
from fanosplit.linalg import IntKernel, determinant, dot, gcd_of, scaled_dual
from fanosplit.polytope import (
    FacetFrame,
    Mode,
    Polytope,
    _cross,
    _initial_raw_cached,
    _min_ratio,
    _opposites,
    _raw_from_rows,
    _ridge_target,
    _sorted_raw,
    enumerate_facets,
    make_polytope,
    require_smooth_fano,
    vertex_sum,
)


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


def orderings_unpruned(cols, budget_state: list[int], budget: int, prefix=(), acc=None):
    """Yield the column orderings that survive invariant-based refinement.

    At each depth only the positions whose accumulated invariant key is
    minimal are branched on; the key is (value multiset, tuple of pair
    profiles against the already-placed positions).
    """
    if acc is None:
        acc = {j: (tuple(sorted(c)),) for j, c in enumerate(cols)}
    if len(prefix) == len(cols):
        budget_state[0] += 1
        if budget_state[0] > budget:
            raise SizeLimitError(budget)
        yield prefix
        return
    min_key = min(acc.values())
    for j in sorted(t for t, key in acc.items() if key == min_key):
        nxt = {t: key + (tuple(sorted(zip(cols[j], cols[t]))),)
               for t, key in acc.items() if t != j}
        yield from orderings_unpruned(cols, budget_state, budget, prefix + (j,), nxt)


def _least_matrix(p: Polytope, frames, budget_state: list[int], budget: int):
    """The least sorted coordinate matrix over frames and all their orderings."""
    best = None
    for f in frames:
        rows = p.coords_rows(f.dual).tolist()
        cols = tuple(tuple(r[j] for r in rows) for j in range(p.dim))
        for perm in orderings_unpruned(cols, budget_state, budget):
            mat = tuple(sorted(tuple(row[j] for j in perm) for row in rows))
            if best is None or mat < best:
                best = mat
    return best


def factor_form_unpruned(q: Polytope, budget_state: list[int], budget: int = DEFAULT_BUDGET):
    """Minimal sorted coordinate matrix of an irreducible, proved-valid q over
    every special facet and every ordering that survives refinement."""
    s = vertex_sum(q)
    special = [f for f in enumerate_facets(q) if not any(g < 0 for g in f.coordinates(s))]
    return _least_matrix(q, special, budget_state, budget)


def monolithic_digest(p: Polytope, budget: int = DEFAULT_BUDGET) -> bytes:
    """Digest of the minimal sorted coordinate matrix over all facet frames
    of p and their surviving orderings."""
    require_smooth_fano(p, Mode.FULL)
    return _serialize(_least_matrix(p, enumerate_facets(p), [0], budget))


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


def parse_ints_scan(lineno: int, body: str, expected: int, what: str) -> tuple[int, ...]:
    """The `expected` integers of a line, token by token with regex offsets;
    FanoFileError at the first extra token, the line end or a non-integer."""
    tokens = list(re.finditer(r"\S+", body))
    if len(tokens) != expected:
        col = tokens[expected].start() + 1 if len(tokens) > expected else len(body.rstrip()) + 1
        raise FanoFileError(lineno, col, f"expected {expected} {what}, got {len(tokens)}")
    out = []
    for tok in tokens:
        try:
            # a decimal integer has no digit-group underscores and ASCII digits only
            if "_" in tok.group() or not tok.group().isascii():
                raise ValueError
            out.append(int(tok.group()))
        except ValueError:
            raise FanoFileError(
                lineno, tok.start() + 1, f"not an integer: {tok.group()!r}"
            ) from None
    return tuple(out)


def parse_fano_lines(text: str) -> Polytope:
    """A `fano 1` text line by line: comments and blank lines dropped, every
    line through `parse_ints_scan`, the first error raised where it occurs."""
    lines = ((i, body) for i, raw in enumerate(text.split("\n"), start=1)
             for body in [raw.split("#", 1)[0]] if body.strip())
    lineno, body = next(lines, (1, None))
    if body is None:
        raise FanoFileError(1, 1, "empty file")
    if body.strip() != "fano 1":
        raise FanoFileError(lineno, 1, "expected header 'fano 1'")
    header_line = lineno
    lineno, body = next(lines, (header_line + 1, None))
    if body is None:
        raise FanoFileError(lineno, 1, "missing dimension line")
    d, n = parse_ints_scan(lineno, body, 2, "integers (dimension and vertex count)")
    if d < 1 or n < 1:
        raise FanoFileError(lineno, 1, f"dimension and count must be positive, got {d} {n}")
    rows = []
    while len(rows) < n:
        last = lineno
        lineno, body = next(lines, (lineno + 1, None))
        if body is None:
            raise FanoFileError(last + 1, 1, f"expected {n} vertex lines, got {len(rows)}")
        rows.append(parse_ints_scan(lineno, body, d, "coordinates"))
    for lineno, _ in lines:
        raise FanoFileError(lineno, 1, "unexpected data after the vertex block")
    return make_polytope(rows)


def direct_sum_tuples(p: Polytope, q: Polytope) -> Polytope:
    """conv(P x {0} union {0} x Q) from P's tuples padded by Q's zeros and
    Q's tuples after P's zeros."""
    zp, zq = (0,) * q.dim, (0,) * p.dim
    return Polytope(p.dim + q.dim, tuple(v + zp for v in p.vertices)
                    + tuple(zq + w for w in q.vertices))


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
        cands = _min_ratio(((i, neg[i]) for i in below), values, c)
        if not cands:
            w, wv, neg = tuple(-a for a in w), neg, wv
            cands = _min_ratio(((i, neg[i]) for i in below), values, c)
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
    check_facet_one(p, raw)
    return raw


def make_raw_one(indices, dual: np.ndarray, det: int) -> FacetFrame:
    """The record of one scaled dual basis; its row sum over `det` is the normal."""
    hi = linalg._max_abs(dual)
    dual = linalg._exact_array(dual, linalg._products_fit(hi, 1, 1))
    sums = linalg._exact_array(dual, linalg._products_fit(hi, 1, len(indices)))
    rowsum = sums.sum(axis=0).tolist()
    g = gcd_of(rowsum + [det])
    if g == 0:
        raise InvariantViolationError("zero outer normal")
    return FacetFrame(tuple(indices), dual, tuple(a // g for a in rowsum), det, det // g, hi)


def neighbor_raw_one(raw: FacetFrame, ct, pos: int, target: int) -> FacetFrame:
    """The rank-1 dual update of one record when frame position `pos` is
    replaced by `target`, whose coordinate row is `ct`."""
    sign = -1 if ct[pos] < 0 else 1
    beta = sign * ct[pos]
    fits = (linalg._products_fit(max(map(abs, ct)), raw.dual_max, 2)
            and linalg._products_fit(raw.det, 1, 1))
    dual = linalg._exact_array(raw.dual, fits)
    base = dual[pos] if sign == 1 else -dual[pos]
    rows = beta * dual - linalg._exact_array(ct, fits)[:, None] * base
    if raw.det != 1:
        rows //= raw.det
    rows[pos] = base
    indices = [target if w == pos else i for w, i in enumerate(raw.vertex_indices)]
    return make_raw_one(indices, rows, beta)


def check_facet_one(p: Polytope, raw: FacetFrame) -> None:
    """The facet hyperplane supports P and carries exactly d vertices."""
    values = p.products(raw.outer_normal)
    on = [i for i, v in enumerate(values) if v == raw.height]
    if max(values) > raw.height:
        raise InvariantViolationError(
            f"hyperplane of facet {raw.vertex_indices} does not support the polytope"
        )
    if raw.height <= 0:
        raise OriginNotInteriorError(
            f"facet hyperplane {raw.outer_normal} has non-positive level {raw.height}"
        )
    if len(on) != p.dim:
        raise NotSimplicialError(
            f"hyperplane through facet {raw.vertex_indices} contains {len(on)} vertices: {tuple(on)}"
        )


def enumerate_raw_per_facet(p: Polytope) -> list[FacetFrame]:
    """Breadth-first closure of ridge pivots starting from the wrapped facet,
    one facet and one ridge at a time."""
    start = _initial_raw_cached(p)
    visited = {start.vertex_indices}
    queue = deque([start])
    out = []
    covered = set()
    while queue:
        raw = queue.popleft()
        out.append(raw)
        covered.update(raw.vertex_indices)
        coords = p.coords_rows(raw.dual).tolist()
        levels = [sum(row) for row in coords]
        for pos, column in enumerate(zip(*coords)):
            target = _ridge_target(raw.vertex_indices, enumerate(column), levels, raw.det, pos)
            key = tuple(sorted(set(raw.vertex_indices) - {raw.vertex_indices[pos]} | {target}))
            if key in visited:
                continue
            neighbor = _sorted_raw(neighbor_raw_one(raw, coords[target], pos, target))
            check_facet_one(p, neighbor)
            visited.add(neighbor.vertex_indices)
            queue.append(neighbor)
    if len(covered) != p.n:
        missing = sorted(set(range(p.n)) - covered)
        raise NotAVertexError(
            f"points at indices {tuple(missing)} are not vertices of the hull"
        )
    return out


def product_opposite_failures(p: Polytope) -> tuple[str | None, str | None]:
    """First failures of the opposite-coordinate and level-zero-opposites
    checks over every facet of p, in `enumerate_facets` order."""
    coord_fail = zero_fail = None
    for f in enumerate_facets(p):
        coords = p.coords_rows(f.dual_basis.entries).tolist()
        levels = [sum(row) for row in coords]
        opp = _opposites(f.vertex_indices, map(enumerate, zip(*coords)), levels)
        coord_fail = coord_fail or opposite_coordinate_failure(f.vertex_indices, coords, opp)
        zero_fail = zero_fail or level_zero_failure(f.vertex_indices, coords, opp, levels)
    return coord_fail, zero_fail


def opposite_coordinate_failure(indices, coords, opp) -> str | None:
    """The first frame position j whose opposite opp[j] has a coordinate
    other than -1 there, as verify words it."""
    for j in range(len(opp)):
        if coords[opp[j]][j] != -1:
            return (f"facet {indices}: coordinate of opposite vertex "
                    f"{opp[j]} along position {j} is {coords[opp[j]][j]}")
    return None


def level_zero_failure(indices, coords, opp, levels) -> str | None:
    """The first level-0 vertex that is no opposite, or has a coordinate
    other than -1 where it is one or a negative one elsewhere."""
    opp_set = set(opp)
    for i in (i for i, level in enumerate(levels) if level == 0):
        if i not in opp_set:
            return f"level-0 vertex {i} is opposite to no vertex of {indices}"
        for j, c in enumerate(coords[i]):
            is_opp = opp[j] == i
            if is_opp != (c < 0) or (c < 0 and c != -1):
                return f"level-0 vertex {i}, facet position {j}: coordinate {c} vs opposite={is_opp}"
    return None


def dense_products(vertices, rows) -> list[list[int]]:
    """<x, u> for every vertex row x and every row u, as lists of Python ints."""
    return [[dot(x, u) for u in rows] for x in vertices]


def vec_add(u, v) -> tuple[int, ...]:
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v) -> tuple[int, ...]:
    return tuple(a - b for a, b in zip(u, v))


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
        normal = _cross(ctx.p, ctx.frame, ctx.pos[z]).outer_normal
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


# --- the special facet's analysis as loops over coordinate rows -------------
#
# Each function below is the loop that `analysis`, `splitting` or `verify`
# ran over the tuples of the special facet's coordinate rows, the reference
# for the array version that replaced it.  The verify checks read `ctx.coords`
# as a list of row tuples and otherwise the same `verify._Ctx` fields.


def levels_by_normal(p: Polytope, f) -> list[int]:
    """The level of every vertex: the outer normal's value on it."""
    return p.products(f.outer_normal)


def opposites_by_rows(p: Polytope, f, rows) -> list[int]:
    """opp(F, v) for every frame position: the ratio rule over every vertex
    of each column of the coordinate rows."""
    return _opposites(f.vertex_indices, map(enumerate, zip(*rows)), [sum(row) for row in rows])


def phi_by_lookup(p: Polytope, f, opp) -> dict[int, int | None]:
    """phi(v): the vertex at opp(F, v) + v when it is a frame vertex."""
    frame_set = set(f.vertex_indices)
    phi = {}
    for v in f.vertex_indices:
        w = p.index_of(vec_add(p.vertices[opp[v]], p.vertices[v]))
        phi[v] = w if (w is not None and w in frame_set) else None
    return phi


def negation_by_lookup(p: Polytope, a) -> dict[int, int]:
    """The vertex -x for every frame vertex x in `a` that has one."""
    negatives = ((v, p.index_of(tuple(-x for x in p.vertices[v]))) for v in a)
    return {v: i for v, i in negatives if i is not None}


def support_bound_rows(rows, levels, bar_positions, k):
    """`analysis.support_bound_violation` on coordinate rows."""
    bound = 2 * k + 2
    for i, row in enumerate(rows):
        if levels[i] <= -1:
            support = sum(1 for j in bar_positions if row[j] != 0)
            if support > bound:
                return i, support, bound
    return None


def clean_pairs_rows(p: Polytope, f, g, rows) -> list[tuple[int, int]]:
    """`splitting.clean_pairs` on coordinate rows."""
    from fanosplit.polytope import vertex_deficit

    pos = {vi: i for i, vi in enumerate(f.vertex_indices)}
    w_set = {i for orbit in g.orbits.values() for i in orbit}
    bar_positions = [pos[v] for v in sorted(g.a_bar)]
    bad = support_bound_rows(rows, g.levels, bar_positions, vertex_deficit(p))
    if bad is not None:
        i, support, bound = bad
        raise InvariantViolationError(
            f"vertex {i} at level {g.levels[i]} touches {support} paired-core "
            f"directions, above the bound {bound}")
    outside = [i for i in range(p.n) if i not in w_set]
    return [pair for pair in g.bar_pairs
            if all(rows[i][pos[pair[0]]] == 0 and rows[i][pos[pair[1]]] == 0 for i in outside)]


def extract_rows(p: Polytope, f, g, pairs, rows):
    """`splitting.hexagon_split`'s decomposition on coordinate rows: a block
    [pos v, pos w] holding the orbit of every pair (v, w) in `pairs`, then one
    block of the other positions holding every other vertex, reordered block
    by block."""
    from fanosplit.linalg import IntMatrix
    from fanosplit.splitting import Decomposition, Factor

    pos = {vi: i for i, vi in enumerate(f.vertex_indices)}
    blocks = [[pos[v], pos[w]] for v, w in pairs]
    members = [sorted(g.orbits[pair]) for pair in pairs]
    rest = [j for j in range(p.dim) if all(j not in block for block in blocks)]
    if rest:
        blocks.append(rest)
        members.append([i for i in range(p.n) if all(i not in own for own in members)])
    order = [j for block in blocks for j in block]
    coords = [tuple(map(row.__getitem__, order)) for row in rows]
    factors = []
    lo = 0
    for bi, (block, own) in enumerate(zip(blocks, members)):
        hi = lo + len(block)
        q = Polytope(hi - lo, tuple(coords[i][lo:hi] for i in own))
        factors.append(Factor(tuple(own), q, (lo, hi), "hexagon" if bi < len(pairs) else "residual"))
        lo = hi
    basis = IntMatrix(tuple(f.dual_basis.entries[j] for j in order))
    return Decomposition(tuple(factors), basis, len(pairs))


def opposite_coordinate_rows(ctx):
    frame = ctx.frame.vertex_indices
    details = opposite_coordinate_failure(frame, ctx.coords, [ctx.g.opp[v] for v in frame])
    return details is None, details or "", True


def level_zero_opposites_rows(ctx):
    frame = ctx.frame.vertex_indices
    details = level_zero_failure(frame, ctx.coords, [ctx.g.opp[v] for v in frame], ctx.levels)
    return details is None, details or "", True


def expansion_structure_rows(ctx):
    g = ctx.g
    for z in ctx.frame.vertex_indices:
        row = ctx.coords[g.opp[z]]
        jz = ctx.pos[z]
        if row[jz] != -1:
            return False, f"opp({z}) has coordinate {row[jz]} at its own position", True
        rest = ctx.levels[g.opp[z]] + 1
        if z in g.a:
            continue
        if z in g.b:
            for u in g.a:
                if row[ctx.pos[u]] < 0:
                    return False, f"opp({z}): negative coefficient at phi-paired {u}", True
            for w in g.c:
                if row[ctx.pos[w]] < 0:
                    return False, f"opp({z}): negative coefficient at non-good {w}", True
            for v in g.b:
                if v != z and row[ctx.pos[v]] < -1:
                    return False, f"opp({z}): coefficient < -1 at {v}", True
            if rest != 1:
                return False, f"opp({z}): coefficient sum {rest} != 1", True
        elif rest > 0:
            return False, f"opp({z}) of non-good vertex has coefficient sum {rest} > 0", True
    return True, "", True


def expansion_bounds_rows(ctx):
    g, k = ctx.g, ctx.k
    applicable = False
    for z in ctx.frame.vertex_indices:
        if z not in g.b:
            continue
        applicable = True
        row = ctx.coords[g.opp[z]]
        a_sum = sum(row[ctx.pos[u]] for u in g.a)
        b_sum = sum(row[ctx.pos[v]] for v in g.b if v != z)
        if a_sum > k + 1:
            return False, f"opp({z}): phi-paired coefficient sum {a_sum} > k+1={k + 1}", True
        if b_sum < -k:
            return False, f"opp({z}): good-phi-zero coefficient sum {b_sum} < -k={-k}", True
    return True, "", applicable


def good_neighbor_normal_rows(ctx):
    g = ctx.g
    good = sorted(g.a | g.b)
    frame = set(ctx.frame.vertex_indices)
    for z in good:
        jz = ctx.pos[z]
        values = [lv - row[jz] for lv, row in zip(ctx.levels, ctx.coords)]
        top = {i for i, x in enumerate(values) if x == 1}
        if max(values) != 1 or top != frame - {z} | {g.opp[z]}:
            return False, f"neighbor normal across good vertex {z} is not u_F - u_z", True
    return True, "", bool(good)


def opposite_is_lowest_rows(ctx):
    g = ctx.g
    for z in ctx.frame.vertex_indices:
        jz = ctx.pos[z]
        opp_level = ctx.levels[g.opp[z]]
        for i in range(ctx.n):
            if i == g.opp[z] or ctx.coords[i][jz] >= 0:
                continue
            if ctx.levels[i] >= opp_level:
                return False, (f"vertex {i} has negative coordinate at {z} but level "
                               f"{ctx.levels[i]} >= level of opp ({opp_level})"), True
    return True, "", True


def nongood_low_vertex_rows(ctx):
    g = ctx.g
    for w in sorted(g.c):
        jw = ctx.pos[w]
        hits = [i for i in ctx.v_minus1 if ctx.coords[i][jw] < 0]
        if len(hits) > 1:
            return False, f"non-good vertex {w} has {len(hits)} level -1 vertices below it", True
        if hits and hits[0] != g.opp[w]:
            return False, f"level -1 vertex {hits[0]} below {w} is not opp({w})", True
    return True, "", bool(g.c)


def shared_low_coordinate_rows(ctx):
    g = ctx.g
    good = sorted(g.a | g.b)
    for z in good:
        jz = ctx.pos[z]
        y_row = ctx.coords[g.opp[z]]
        carriers = [i for i in ctx.v_minus1 if ctx.coords[i][jz] == -1]
        for jbar in range(ctx.d):
            low = [i for i in carriers if ctx.coords[i][jbar] < y_row[jbar]]
            if len(low) > 1:
                return False, (f"positions ({jz}, {jbar}): {len(low)} level -1 vertices dip "
                               f"below opp({z})"), True
    return True, "", bool(good)


def no_shared_minus_one_rows(ctx):
    g = ctx.g
    good = sorted(g.a | g.b)
    good_pos = [ctx.pos[v] for v in good]
    first = None
    for i in ctx.v_minus1:
        row = ctx.coords[i]
        hits = [v for v, j in zip(good, good_pos) if row[j] == -1]
        pair = next(((v, w) for x, v in enumerate(hits) for w in hits[x + 1:]
                     if g.opp[v] != g.opp[w]), None)
        if pair is not None and (first is None or pair < first[0]):
            first = pair, i
    if first is not None:
        (v, w), i = first
        return False, (f"level -1 vertex {i} has coordinate -1 at both {v} and {w} "
                       f"despite distinct opposites"), True
    return True, "", len({g.opp[v] for v in good}) > 1


def low_vertex_support_rows(ctx):
    bar_positions = [ctx.pos[v] for v in sorted(ctx.g.a_bar)]
    bad = support_bound_rows(ctx.coords, ctx.levels, bar_positions, ctx.k)
    if bad is None:
        return True, "", any(lv <= -1 for lv in ctx.levels)
    i, support, bound = bad
    return False, (f"vertex {i} touches {support} paired-core directions, "
                   f"bound is 2k+2={bound}"), True
