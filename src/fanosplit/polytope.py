"""Lattice polytopes with exact facet enumeration and ridge pivoting.

The central objects are an immutable vertex store (`Polytope`: one exact
vertex array, its tuples built on first use) and per-facet frames
(`FacetFrame`) holding the dual basis of the facet's vertex basis and its
primitive outer normal.  All geometry is exact:

* one ratio rule picks every entering vertex: among vertices with negative
  coordinate along a direction, the minimizers of (level of the hyperplane
  - level of x) / (-coordinate of x).  `_min_ratio` compares these ratios
  by exact integer cross-multiplication; on arrays, the enumeration's
  `_ratio_targets` and the gift-wrap's `_wrap_target` first keep the
  vertices with the least floor of the ratio, in numpy, and call
  `_min_ratio` only where floors tie.  Three forms stay, one per input: the
  gift-wrap's filtered column, one frame's negatives (`_ridge_target`, twice
  as fast at d = 249 as the dense kernel) and a layer's dense kernel;
* an initial facet is found by gift-wrapping -- rotate a supporting
  hyperplane one kernel direction at a time, entering the first minimizer
  of the ratio rule;
* the remaining facets come from breadth-first ridge pivoting, one layer at
  a time (`_enumerate_raw`): one ratio-rule kernel finds the target across
  every ridge of the layer's facets, the unique minimizer along each
  dropped dual direction, and one batched dual update builds the next layer;
* ties in the ratio rule across a ridge certify a non-simplicial facet and
  are a hard error, never silently broken.

A facet is one record, `FacetFrame`: its vertex indices by frame position,
the exact rational dual basis (`dual` / `det`), the primitive outer normal
and its value on the facet (`height`).  The scaled dual basis is one exact
d x d array for the record's whole life, under `linalg._exact_array`'s rule:
int64 when `_products_fit` proves its entries fit, else exact Python ints.
One dual-basis update (`_crossed`), a numpy rank-1 update of any number of
records at once, crosses ridges: the enumeration runs it on a whole layer,
and `_cross` (the special-facet walk and `pivot`) on one record
(`_neighbor_raw`).  The public functions return sorted unimodular records
only.

The gift-wrap runs once per polytope (`_initial_raw_cached`, which keeps a
failure too) and is the first thing `make_polytope` does after its duplicate
check: a wrapped facet of d independent vertices, carrying no other vertex,
proves the vertex set affinely full-dimensional when n > d, and n <= d
points never are.  Only when the gift-wrap fails does the exact rank of the
rows (x, 1) decide.

Validation proves validity through the free-sum decomposition.  The
gift-wrapped facet must be unimodular; its dual basis then gives lattice
coordinates, and the blocks of their support graph (`coordinate_blocks`)
split P into a free sum.  The facets of a free sum are the joins of its
summands' facets, so P is smooth Fano iff every block polytope is, and its
facet count is their product.  One loop (`_certify`) proves each summand
alone from its block of P's start facet, its unit vectors (`_seed_start`),
with no gift-wrap and no start-facet check of its own (P's start-facet
check covers its block): a standard hexagon by its vertex set
(`is_standard_hexagon`, which the normal form shares), every other one by
enumerating its facets (FULL).  The proved block polytopes
stay on P (`free_summands`, `free_sum`), for the normal form and the finest
split; their enumeration proves the facet lemmas `verify` checks at the
special facet alone.  A summand above FULL_MODE_MAX_DIM is checked only
at its start facet when LOCAL is asked for, since facet counts grow
exponentially while the splitting pipeline touches only one pivot path; the
certificate then says its proof is incomplete.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from . import linalg
from .errors import (
    DimensionError,
    DuplicateVertexError,
    FanoError,
    InvariantViolationError,
    NoNegativeVertexError,
    NotAVertexError,
    NotFullDimError,
    NotSimplicialError,
    NotSmoothFanoError,
    NotUnimodularError,
    OriginNotInteriorError,
    VertexIndexError,
)
from .linalg import IntMatrix, IntKernel, dot, gcd_of

LatticeVector = tuple[int, ...]

# FULL validation is the default up to this dimension; beyond it the CLI and
# the auto mode switch to LOCAL.
FULL_MODE_MAX_DIM = 12

# the hexagon's lattice automorphisms act transitively on its ordered edges,
# so a hexagon summand has this vertex set in any unimodular facet's basis
HEXAGON_VERTICES = frozenset(
    [(1, 0), (0, 1), (-1, 1), (1, -1), (-1, 0), (0, -1)]
)

_I64_MAX = np.iinfo(np.int64).max
_INT64_STORE = 2**31  # a vertex store is int64 below this max |entry|

# Safety cap for the special-facet ascent; the walk must terminate long
# before this since its objective strictly increases over a finite facet set.
_MAX_PIVOT_STEPS = 1_000_000


class Mode(enum.Enum):
    FULL = "full"
    LOCAL = "local"


class Proof(enum.Enum):
    """How a valid certificate was proved."""

    FULL = "full"  # every facet of P enumerated
    BY_DECOMPOSITION = "by-decomposition"  # every free summand proved alone
    LOCAL_UNPROVEN = "local-unproven"  # some summand checked at one facet only


def auto_mode(dim: int) -> Mode:
    return Mode.FULL if dim <= FULL_MODE_MAX_DIM else Mode.LOCAL


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Polytope:
    """Immutable polytope given by its vertex list (exact integer coordinates).

    The vertices are kept once, as one exact n x d array (`_array`, with its
    max |entry| `_abs_max`) under `_array_polytope`'s rule: int64 when every
    |entry| is below 2**31, exact Python ints otherwise.  The tuples of
    `vertices` are built from it on first use.  `Polytope(dim, vertices)`
    converts its rows to that array at once, checked like `make_polytope`'s
    (`_vertex_array`); `fanofile.parse_fano`, `direct_sum` and the block
    polytopes build the array themselves (`_array_polytope`).
    """

    dim: int
    n: int

    def __init__(self, dim: int, vertices: tuple[LatticeVector, ...]):
        self.__dict__.update(vars(_array_polytope(*_vertex_array(vertices, dim))))

    @cached_property
    def vertices(self) -> tuple[LatticeVector, ...]:
        return tuple(map(tuple, self._array.tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polytope):
            return NotImplemented
        return ((self.dim, self.n) == (other.dim, other.n)
                and np.array_equal(self._array, other._array))

    def __hash__(self) -> int:
        return hash((self.dim, self.vertices))

    def __repr__(self) -> str:
        return f"Polytope(d={self.dim}, n={self.n})"

    @cached_property
    def _vertex_index(self) -> dict[LatticeVector, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    def index_of(self, v: Sequence[int]) -> int | None:
        return self._vertex_index.get(tuple(v))

    @cached_property
    def _vertex_sum(self) -> LatticeVector:
        fits = linalg._products_fit(self._abs_max, 1, self.n)
        return tuple(linalg._exact_array(self._array, fits).sum(axis=0).tolist())

    @cached_property
    def _full_dim(self) -> bool:
        """Affine full dimension: the vectors (x, 1) have rank d + 1.

        n <= d points span at most an (n - 1)-flat, so they never do.  With
        n > d the start facet proves it: its d linearly independent vertices
        span the one affine hyperplane through them, which `_check_facet` has
        shown to carry no other vertex.  The exact rank decides only when the
        gift-wrap fails; validation re-raises that failure from the cache.
        """
        if self.n <= self.dim:
            return False
        try:
            _initial_raw_cached(self)
            return True
        except FanoError:
            pass
        a = self._array
        lifted = np.hstack((a, np.ones((self.n, 1), dtype=a.dtype)))
        return linalg.int_rank(lifted, self.dim + 1) == self.dim + 1

    @cached_property
    def _cert_cache(self) -> dict:
        return {}

    def products(self, u: Sequence[int]) -> list[int]:
        """<x, u> for every vertex x."""
        return linalg.products_with(self._array, u, self._abs_max)

    def coords_rows(self, dual_rows: Sequence[Sequence[int]]) -> np.ndarray:
        """Coordinate rows of all vertices w.r.t. a dual basis, one exact array."""
        return linalg.coords_rows(self._array, dual_rows, self._abs_max)


def _array_polytope(a: np.ndarray, hi: int) -> Polytope:
    """The polytope on the exact n x d array `a` of max |entry| `hi`,
    unchecked.  The one store rule: the array is kept as int64 when `hi` is
    below 2**31, as exact Python ints otherwise."""
    p = object.__new__(Polytope)
    p.__dict__.update(dim=a.shape[1], n=a.shape[0], _abs_max=hi,
                      _array=linalg._exact_array(a, hi < _INT64_STORE))
    return p


def make_polytope(rows: Iterable[Sequence[int]]) -> Polytope:
    """Build a polytope from vertex rows of integers (`linalg._to_array`'s
    rule: TypeError names the first other entry).

    Rejects duplicates and point sets that are not full-dimensional.  The
    full-dimension proof gift-wraps the start facet that validation reuses
    (`Polytope._full_dim`).  Rows that are not actually vertices of the hull
    are only detected later, by validation (NotAVertexError).
    """
    return _checked_polytope(*_vertex_array(rows))


def _vertex_array(rows, dim: int | None = None) -> tuple[np.ndarray, int]:
    """Vertex rows as one exact n x d array and its max |entry|, checked in
    this order: integer entries, d >= 1 (d = `dim`, else the first row's
    length), every row of length d."""
    rows = rows if isinstance(rows, np.ndarray) else list(rows)
    try:
        a, hi = linalg._to_array(rows, "vertex row")
    except DimensionError:  # ragged rows, their entries all integers
        a = None
    if not len(rows):
        raise NotFullDimError("empty vertex list")
    d = len(rows[0]) if dim is None else dim
    if d < 1:
        raise NotFullDimError("ambient dimension must be at least 1")
    if a is None or a.shape[1:] != (d,):
        v = next(v for v in rows if len(v) != d)
        raise NotFullDimError(f"vertex {tuple(v)} has length {len(v)}, expected {d}")
    return a, hi


def _checked_polytope(a: np.ndarray, hi: int) -> Polytope:
    """The polytope on the exact n x d vertex array `a` (n, d >= 1; int64 or
    object) of max |entry| `hi`: `make_polytope` and `fanofile.parse_fano`
    build the array once and end here.  Rejects a repeated row, naming the
    first one in input order, and a vertex set that is not full-dimensional;
    builds no vertex tuple."""
    p = _array_polytope(a, hi)
    i = _repeated_row(p._array)
    if i is not None:
        raise DuplicateVertexError(f"vertex {tuple(p._array[i].tolist())} appears more than once")
    if not p._full_dim:
        raise NotFullDimError("vertex set is not full-dimensional")
    return p


def _repeated_row(a: np.ndarray) -> int | None:
    """The first row of `a`, in order, equal to an earlier one, or None."""
    if a.dtype == object:
        keys = map(tuple, a.tolist())
    else:
        buf, width = a.tobytes(), a.shape[1] * a.itemsize
        keys = (buf[i:i + width] for i in range(0, len(buf), width))
    seen = set()
    for i, key in enumerate(keys):
        if key in seen:
            return i
        seen.add(key)
    return None


def vertex_sum(p: Polytope) -> LatticeVector:
    """Coordinatewise sum of all vertices, computed once per polytope."""
    return p._vertex_sum


def vertex_deficit(p: Polytope) -> int:
    """k = 3d - n, the deficit against the maximal vertex count 3d."""
    return 3 * p.dim - p.n


@dataclass(frozen=True, eq=False, init=False)
class FacetFrame:
    """A facet's vertex indices with the dual basis of its vertex basis.

    Row i of `dual` is `det` times the functional u_i that is 1 on vertex
    `vertex_indices[i]` and 0 on the other frame vertices; the u_i sum to
    `outer_normal` / `height`, which is 1 on the facet.  Public functions
    return sorted frames with `det` = `height` = 1, whose `dual_basis` is the
    u_i as an `IntMatrix`.  `FacetFrame(vertex_indices, dual_basis, outer_normal)`
    builds such a frame by hand from integer rows in any form.
    """

    vertex_indices: tuple[int, ...]
    dual: np.ndarray  # exact d x d array under `linalg._exact_array`'s rule
    dual_max: int  # max |entry| of dual: the bound on products with it
    det: int  # > 0; the vertex basis is unimodular iff det == 1
    outer_normal: LatticeVector  # primitive outer normal A
    height: int  # c > 0 with <A, x> = c on the facet, <= c on P

    def __init__(self, vertex_indices: tuple[int, ...], dual_basis, outer_normal: LatticeVector,
                 det: int = 1, height: int = 1, dual_max: int | None = None):
        if dual_max is None:  # rows in any integer form, not yet an exact array
            dual_basis, dual_max = linalg._to_array(dual_basis, "dual row")
            d = len(vertex_indices)
            if dual_basis.shape != (d, d) or len(outer_normal) != d:
                raise DimensionError(f"a frame on {d} vertices needs a {d} x {d} dual and normal")
        self.__dict__.update(vertex_indices=vertex_indices, dual=dual_basis, dual_max=dual_max,
                             det=det, outer_normal=outer_normal, height=height)

    @cached_property
    def dual_basis(self) -> IntMatrix:
        return IntMatrix(tuple(map(tuple, self.dual.tolist())))

    @cached_property
    def positions(self) -> dict[int, int]:
        """The frame position of every vertex index on the frame."""
        return {v: j for j, v in enumerate(self.vertex_indices)}

    def __eq__(self, other) -> bool:
        return isinstance(other, FacetFrame) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    @property
    def _key(self) -> tuple:
        return self.vertex_indices, self.dual_basis, self.outer_normal

    @property
    def dim(self) -> int:
        return len(self.vertex_indices)

    def position_of(self, vertex_index: int) -> int:
        if vertex_index not in self.positions:
            raise VertexIndexError(f"vertex {vertex_index} is not on facet {self.vertex_indices}")
        return self.positions[vertex_index]

    def coordinates(self, x: Sequence[int]) -> LatticeVector:
        """The coordinates of the integer point x (TypeError names a non-integer entry)."""
        x, _ = linalg._to_array(x, "x")
        if x.shape != (self.dim,):
            raise DimensionError("coordinates shape mismatch")
        return tuple(linalg.products_with(self.dual, x, self.dual_max))

    def level(self, x: Sequence[int]) -> int:
        return dot(self.outer_normal, x)


@dataclass(frozen=True)
class SmoothFanoCertificate:
    """Outcome of smooth-Fano validation; failures carry a concrete witness.

    A valid certificate carries its `proof`.  A complete proof counts every
    facet; a `local-unproven` one names the largest summand checked only
    LOCAL in `unproven_dim`.
    """

    valid: bool
    mode: Mode
    failure_kind: str | None = None
    witness: str | None = None
    facet_count: int | None = None
    proof: Proof | None = None
    unproven_dim: int | None = None

    def describe(self) -> str:
        if self.valid:
            extra = f" facets={self.facet_count}" if self.facet_count is not None else ""
            return f"valid mode={self.mode.value} proof={self.proof.value}{extra}"
        return f"invalid kind={self.failure_kind} witness={self.witness}"


def _make_raws(indices: np.ndarray, rows: np.ndarray, det: np.ndarray
               ) -> tuple[list[FacetFrame], np.ndarray]:
    """The records of K scaled dual bases: vertex indices (K x d), `rows`
    (K x d x d) and their dets (K), all exact arrays.  A record's row sum over
    its det is its normal; its dual is int64 exactly when its own max |entry|
    is below 2**62 (`linalg._exact_array`'s rule).  Returns the records and
    their row sums (K x d, exact)."""
    d = rows.shape[1]
    his = np.maximum.reduce(np.abs(rows), axis=(1, 2)).tolist()
    hi = max(his)
    int64 = rows.dtype != object and hi < linalg._I64_SAFE
    sums = np.add.reduce(linalg._exact_array(rows, int64 and linalg._products_fit(hi, 1, d)), axis=1)
    dets = det.tolist()
    normals, heights = sums, dets
    if max(dets) != 1:
        g = np.gcd.reduce(np.concatenate((sums, det[:, None]), axis=1), axis=1)
        if not g.all():
            raise InvariantViolationError("zero outer normal")
        normals, heights = sums // g[:, None], (det // g).tolist()
    duals = rows if int64 else [linalg._exact_array(r, h < linalg._I64_SAFE)
                                for r, h in zip(rows, his)]
    raws = [FacetFrame(tuple(i), r, tuple(a), t, h, m) for i, r, a, t, h, m in zip(
        indices.tolist(), duals, normals.tolist(), dets, heights, his)]
    return raws, sums


def _sorted_raw(raw: FacetFrame) -> FacetFrame:
    """The same record with its (index, dual row) pairs in index order."""
    idx = raw.vertex_indices
    if all(a < b for a, b in zip(idx, idx[1:])):
        return raw
    order = sorted(range(len(idx)), key=idx.__getitem__)
    return FacetFrame(tuple(idx[w] for w in order), raw.dual.take(order, axis=0),
                      raw.outer_normal, raw.det, raw.height, raw.dual_max)


def _min_ratio(entries: Iterable[tuple[int, int]], levels: Sequence[int], delta: int) -> list[int]:
    """Every index i of the (i, column[i]) `entries` minimizing
    (delta - levels[i]) / -column[i] over column[i] < 0, in the entries'
    index order; more than one index is a tie."""
    best: list[int] = []
    bn = bd = 0
    for i, x in entries:
        den = -x
        if den <= 0:
            continue
        num = delta - levels[i]
        if not best:
            best, bn, bd = [i], num, den
            continue
        lhs = num * bd
        rhs = bn * den
        if lhs < rhs:
            best, bn, bd = [i], num, den
        elif lhs == rhs:
            best.append(i)
    return best


def _ratio_targets(gaps: np.ndarray, cols: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, dict[tuple, list[int]]]:
    """The ratio rule on every column of exact arrays of at least two rows.

    For each index c of the axes after the first: the first row i minimizing
    gaps[i, c] / cols[i, c] over cols[i, c] < 0 (`gaps` broadcasts against
    `cols`), or -1 when no row qualifies.  Only the rows with the least floor
    of the ratio can minimize it; `_min_ratio` ranks them where floors tie.
    Returns these first minimizers, the least floors, and, for each c with
    no or several minimizers, all of them in row order.
    """
    keep = cols >= 0
    q = np.where(keep, -1, cols)
    q = np.floor_divide(gaps, q, out=q if q.dtype == gaps.dtype else None)
    np.putmask(q, keep, _I64_MAX if q.dtype != object else q.max() + 1)
    least = np.minimum.reduce(q, axis=0)
    cand = q == least  # every row of a column where no row qualifies
    best = cand.argmax(axis=0)
    odd: dict[tuple, list[int]] = {}
    if np.count_nonzero(cand) > best.size:  # some column has several candidates
        for c in map(tuple, np.argwhere(np.add.reduce(cand, axis=0) > 1).tolist()):
            col = (slice(None), *c)
            rows = cand[col].nonzero()[0]
            wins = rows[_min_ratio(enumerate(cols[col][rows].tolist()),
                                   np.broadcast_to(gaps, cols.shape)[col][rows].tolist(), 0)]
            best[c] = wins[0] if wins.size else -1
            if wins.size != 1:
                odd[c] = wins.tolist()
    return best, least, odd


def _ridge_targets(coords: np.ndarray, gaps: np.ndarray) -> tuple[np.ndarray, int, list[int]]:
    """The vertex entering across every ridge of K facets: for facet k and
    frame position j, the ratio rule's minimizer of gaps[i, k] / coords[i, k, j]
    over coords[i, k, j] < 0, where coords is n x K x d and gaps (n x K x 1)
    are the vertices' levels minus the facet's.  The target must be unique
    and lie below the facet (gap < 0).  Returns the first minimizers (K x d),
    the first k d + j where the rule fails (K d if none) and the minimizers
    there."""
    best, least, odd = _ratio_targets(gaps, coords)
    d = best.shape[1]
    bad = [k * d + j for k, j in odd]
    if np.count_nonzero(least) < least.size:  # only a zero floor can come from a zero gap
        on = gaps[best, np.arange(len(best))[:, None], 0] == 0
        bad += np.flatnonzero(on)[:1].tolist()
    if not bad:
        return best, best.size, []
    first = min(bad)
    c = divmod(first, d)
    return best, first, odd.get(c, [int(best[c])])


def _ridge_error(indices: tuple[int, ...], pos: int, targets: list[int]) -> FanoError:
    """The failure of the ratio rule across ridge `pos` of the facet on
    `indices`: no vertex below it, or `targets`, its minimizers, tie or lie
    on the facet's hyperplane."""
    if not targets:
        return NoNegativeVertexError(f"no vertex below ridge {pos} of facet {indices}")
    return NotSimplicialError(
        f"pivot tie at ridge {pos} of facet {indices}: "
        f"vertices {tuple(targets)} are coplanar with the ridge"
    )


def _raw_from_rows(p: Polytope, indices: Sequence[int]) -> FacetFrame:
    """The record of the sorted vertex index set `indices`."""
    dual, delta = linalg.scaled_dual(p._array[list(indices)])
    if delta < 0:
        dual, delta = -dual, -delta
    det = linalg._exact_array([delta], delta < linalg._I64_SAFE)
    return _make_raws(np.array([indices]), dual[None], det)[0][0]


def _check_facets(p: Polytope, raws: Sequence[FacetFrame], levels: np.ndarray,
                  tops: np.ndarray) -> None:
    """Verify that each record's hyperplane supports P and carries exactly d
    vertices, from the n x K `levels` of the vertices on the records'
    hyperplanes and the records' own levels `tops`, both scaled alike; the
    first record that fails raises."""
    above = levels > tops
    on = levels == tops
    bad = (np.add.reduce(on, axis=0) != p.dim) | (tops <= 0)
    if np.count_nonzero(above) or np.count_nonzero(bad):
        k = int((bad | np.logical_or.reduce(above, axis=0)).argmax())
        raw = raws[k]
        if above[:, k].any():
            raise InvariantViolationError(
                f"hyperplane of facet {raw.vertex_indices} does not support the polytope"
            )
        if raw.height <= 0:
            raise OriginNotInteriorError(
                f"facet hyperplane {raw.outer_normal} has non-positive level {raw.height}"
            )
        found = _indices(on[:, k])
        raise NotSimplicialError(
            f"hyperplane through facet {raw.vertex_indices} contains {len(found)} vertices: {found}"
        )


def _check_facet(p: Polytope, raw: FacetFrame) -> None:
    """`_check_facets` on one record, by the products with its normal."""
    _check_facets(p, [raw], linalg._vertex_products(p._array, [raw.outer_normal], p._abs_max),
                  linalg._exact_array([raw.height], raw.height < linalg._I64_SAFE))


def _wrap_target(values: np.ndarray, wv: np.ndarray, c: int) -> int | None:
    """The first vertex the ratio rule enters when the hyperplane at level c
    rotates towards w: the lowest index minimizing (c - values[i]) / wv[i]
    over vertices with wv[i] > 0, or None.  Each of them lies below c, since
    w is orthogonal to every vertex on the hyperplane.  Only the vertices
    with the least floor of that ratio can minimize it; `_min_ratio` ranks
    them."""
    idx = (wv > 0).nonzero()[0]
    if idx.size > 1:
        q = (c - values[idx]) // wv[idx]
        idx = idx[q == q.min()]
    if idx.size > 1:
        cands = _min_ratio(enumerate((-wv[idx]).tolist()), values[idx].tolist(), c)
        idx = idx[cands[:1]]
    return int(idx[0]) if idx.size else None


def _initial_raw(p: Polytope) -> FacetFrame:
    """Gift-wrap one facet: rotate a supporting hyperplane onto new vertices
    one kernel direction at a time until it supports a full-rank vertex set.

    The hyperplane is its level c and the exact array of its values <a, x>
    at the vertices, both divided by their gcd, which leaves every choice as
    it is.  A rotation to scale * a + shift * w updates the values from the
    products <w, x> alone: scale * values + shift * <w, x>.

    The record comes from the same elimination: the kernel's dropped rows Q
    (`IntKernel.dropped_rows`) make Q V^T diagonal for the facet's vertex
    rows V in the order they entered.  When every diagonal entry is +-1 the
    facet is unimodular and Q with those signs is its dual basis, which one
    exact product proves.  A facet of |det| > 1, or a kernel that dropped Q
    at the int64 bound, takes `_raw_from_rows` instead.
    """
    d = p.dim
    vertices, hx = p._array, p._abs_max
    values = vertices[:, 0]
    c = int(values.max())
    if c <= 0:
        raise OriginNotInteriorError("all vertices have non-positive first coordinate")
    hv = hx  # bounds |values|
    on = values == c
    kernel = IntKernel(d)
    entered = on.nonzero()[0].tolist()
    for i in entered:
        kernel.reduce(vertices[i], hx)
    while kernel.remaining > 0:
        if np.count_nonzero(on) > d - kernel.remaining:
            raise NotSimplicialError(
                f"supporting hyperplane contains dependent vertex set {_indices(on)}"
            )
        wv = linalg._vertex_products(vertices, kernel.row(0), hx)
        hw = linalg._max_abs(wv)
        fits = values.dtype != object and linalg._products_fit(hw, hv + c, 2)
        values, wv = linalg._exact_array(values, fits), linalg._exact_array(wv, fits)
        best = _wrap_target(values, wv, c)
        if best is None:
            wv = -wv
            best = _wrap_target(values, wv, c)
        if best is None:
            raise InvariantViolationError("no rotation direction during gift-wrap")
        scale, shift = int(wv[best]), c - int(values[best])
        values = scale * values + shift * wv
        c *= scale
        g = gcd_of([c, int(np.gcd.reduce(values))])
        values //= g
        c //= g
        hv = linalg._max_abs(values)
        was_on, on = on, values == c
        for i in (on & ~was_on).nonzero()[0].tolist():
            kernel.reduce(vertices[i], hx)
            entered.append(i)
    if np.count_nonzero(on) != d:
        found = _indices(on)
        raise NotSimplicialError(
            f"initial supporting hyperplane contains {len(found)} vertices: {found}"
        )
    # d vertices entered at rank d: each grew the rank and dropped one row of q
    idx = on.nonzero()[0]
    q = kernel.dropped_rows()
    raw = None
    if q is not None:
        prod = linalg._vertex_products(vertices[entered], q, hx)
        signs = prod.diagonal()
        if np.array_equal(prod * signs, np.eye(d, dtype=np.int64)):
            dual = (q * signs[:, None].astype(np.int64))[np.argsort(entered)]
            raw = _make_raws(idx[None], dual[None], np.ones(1, dtype=np.int64))[0][0]
    if raw is None:
        raw = _raw_from_rows(p, idx.tolist())
    _check_facet(p, raw)
    return raw


def _indices(mask: np.ndarray) -> tuple[int, ...]:
    return tuple(mask.nonzero()[0].tolist())


def _crossed(dual: np.ndarray, det: np.ndarray, ct: np.ndarray, pos: np.ndarray,
             ct_max: int, dual_max: int, det_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Dual-basis updates of K records, scaled duals `dual` (K x d x d) with
    dets `det`, when frame position pos[k] is replaced by a vertex whose
    coordinate row is ct[k]; every other position keeps its place.  Returns
    the new rows and dets.  The `_max` arguments bound |ct|, |dual| and det.

    One rank-1 update, rows = (beta D - c outer (sign D[pos])) // det; its
    entries are at most 2 max|c| max|D|, so it runs in int64 when that bound
    (and det) fits and on exact Python ints otherwise.
    """
    fits = linalg._products_fit(ct_max, dual_max, 2) and linalg._products_fit(det_max, 1, 1)
    dual, ct = linalg._exact_array(dual, fits), linalg._exact_array(ct, fits)
    k = np.arange(len(pos))
    c = ct[k, pos]
    sign = np.sign(c)
    beta = sign * c
    base = dual[k, pos] * sign[:, None]
    rows = beta[:, None, None] * dual - ct[:, :, None] * base[:, None, :]
    if det_max != 1:
        rows //= linalg._exact_array(det, fits)[:, None, None]  # exact: an adjugate
    rows[k, pos] = base
    return rows, beta


def _neighbor_raw(raw: FacetFrame, ct: Sequence[int], pos: int, target: int) -> FacetFrame:
    """`_crossed` on one record: frame position `pos` is replaced by
    `target`, whose coordinate row (exact ints) is `ct`."""
    ct_max = max(map(abs, ct))
    rows, beta = _crossed(raw.dual[None], linalg._exact_array([raw.det], raw.det < linalg._I64_SAFE),
                          linalg._exact_array([ct], ct_max < linalg._I64_SAFE), np.array([pos]),
                          ct_max, raw.dual_max, raw.det)
    indices = [target if w == pos else i for w, i in enumerate(raw.vertex_indices)]
    return _make_raws(np.array([indices]), rows, beta)[0][0]


def _ridge_target(indices: tuple[int, ...], entries: Iterable[tuple[int, int]],
                  levels: Sequence[int], delta: int, pos: int) -> int:
    """The vertex entering across ridge `pos` of the facet on `indices` at
    level `delta`: the ratio rule's unique minimizer over a column's
    (vertex, entry) `entries`, its negative ones at least, which lies below it."""
    targets = _min_ratio(entries, levels, delta)
    if len(targets) != 1 or levels[targets[0]] == delta:
        raise _ridge_error(indices, pos, targets)
    return targets[0]


def _enumerate_raw(p: Polytope) -> list[FacetFrame]:
    """Breadth-first closure of ridge pivots from the wrapped facet, one
    layer at a time.

    A layer of K facets is a few exact array operations: one ratio-rule
    kernel finds the target of every (facet, ridge) from the layer's n x K x d
    coordinates, the targets' sorted index tuples are checked against the
    facets found so far in (facet, ridge) order, one batched rank-1 update
    builds the new records, and one product of the vertices with their
    scaled duals and row sums gives the next layer's coordinates and levels,
    which check the new hyperplanes.  The start facet reads its cached
    `frame_coords`.  Records, their order and the first error are those of
    crossing one ridge after the other.
    """
    start = _initial_raw_cached(p)
    n, d = p.n, p.dim
    key = np.dtype((np.void, 8 * d))  # a row of d int64 indices as one hashable bytes
    idx = np.array([start.vertex_indices], dtype=np.int64)
    visited = {idx.tobytes()}
    facets, dual, dual_max = [start], start.dual[None], start.dual_max
    det, det_max = linalg._exact_array([start.det], start.det < linalg._I64_SAFE), start.det
    coords, levels = frame_coords(p, start)[:, None, :], frame_levels(p, start)[:, None]
    out = [start]
    covered = np.zeros(n, dtype=bool)
    diagonal = np.eye(d, dtype=bool)
    while True:
        covered[idx] = True
        best, stop, targets = _ridge_targets(coords, (levels - det)[:, :, None])
        # the neighbor across every (facet, ridge), as vertex indices
        swapped = np.where(diagonal, best[:, :, None], idx[:, None, :]).reshape(-1, d)
        keys = np.sort(swapped, axis=1)
        new = [j for j, b in enumerate(keys[:stop].view(key).ravel().tolist())
               if b not in visited and not visited.add(b)]
        if new:
            j = np.array(new)
            k, pos = j // d, j % d
            dual, det = _crossed(dual[k], det[k], coords[best.reshape(-1)[j], k], pos,
                                 d * p._abs_max * dual_max, dual_max, det_max)
            dual, idx = dual[np.arange(len(j))[:, None], swapped[j].argsort(axis=1)], keys[j]
            found, sums = _make_raws(idx, dual, det)
            both = np.concatenate((dual, sums[:, None, :]), axis=1).reshape(-1, d)
            coords = linalg._vertex_products(p._array, both, p._abs_max).reshape(n, len(j), d + 1)
            coords, levels = coords[:, :, :d], coords[:, :, d]
            _check_facets(p, found, levels, det)
        if stop < best.size:
            raise _ridge_error(facets[stop // d].vertex_indices, stop % d, targets)
        if not new:
            break
        out += found
        facets = found
        dual_max, det_max = max(raw.dual_max for raw in found), max(raw.det for raw in found)
    if np.count_nonzero(covered) < n:
        raise NotAVertexError(
            f"points at indices {_indices(~covered)} are not vertices of the hull"
        )
    return out


def _frame_from_raw(raw: FacetFrame) -> FacetFrame:
    """The sorted record, which must be unimodular; its error is also
    validation's witness of a facet that is not."""
    raw = _sorted_raw(raw)
    if raw.det != 1:
        raise NotUnimodularError(raw.det, f"facet {raw.vertex_indices} has |det| = {raw.det}")
    return raw


def _cross(p: Polytope, raw: FacetFrame, pos: int) -> FacetFrame:
    """Cross ridge `pos` of a unimodular record to its unimodular neighbor."""
    cv = p.products(raw.dual[pos])
    best = _ridge_target(raw.vertex_indices, enumerate(cv), p.products(raw.outer_normal), 1, pos)
    if cv[best] != -1:
        raise NotUnimodularError(
            cv[best],
            f"neighbor facet across position {pos} is not unimodular",
        )
    ct = linalg.products_with(raw.dual, p._array[best], raw.dual_max)  # D @ x
    return _neighbor_raw(raw, ct, pos, best)


def enumerate_facets(p: Polytope) -> tuple[FacetFrame, ...]:
    """All facets of a simplicial polytope with interior origin, as frames.

    Requires every facet basis to be unimodular (NotUnimodularError
    otherwise); use `is_smooth_fano` for a non-raising validity check.
    """
    frames = [_frame_from_raw(raw) for raw in _full_raws(p)]
    frames.sort(key=lambda f: f.vertex_indices)
    return tuple(frames)


def _full_raws(p: Polytope) -> list[FacetFrame]:
    cache = p._cert_cache
    if "raws" not in cache:
        cache["raws"] = _enumerate_raw(p)
    return cache["raws"]


def _initial_raw_cached(p: Polytope) -> FacetFrame:
    """The start facet: a free summand's seed (`_seed_start`), else
    `_initial_raw`, run once per polytope.  A failure is kept without its
    traceback and each caller gets a fresh copy of it (same type, arguments
    and attributes), so no raise pins frames or arrays in the cache."""
    cache = p._cert_cache
    if "initial" not in cache:
        try:
            cache["initial"] = _seed_start(p) if "block" in cache else _initial_raw(p)
        except FanoError as e:
            cache["initial"] = e.with_traceback(None)
    found = cache["initial"]
    if isinstance(found, FanoError):
        err = type(found).__new__(type(found), *found.args)
        err.__dict__.update(found.__dict__)
        raise err
    return found


def is_smooth_fano(p: Polytope, mode: Mode = Mode.FULL) -> SmoothFanoCertificate:
    """Validity certificate: full-dimensional, origin interior, every facet a
    unimodular simplex.

    The gift-wrapped facet's coordinates split P into free summands, and each
    summand is proved alone from its block of that facet: FULL enumerates its
    facets, and so does LOCAL up to dimension FULL_MODE_MAX_DIM.  Above it
    LOCAL checks the summand's start facet only and trusts the rest (proof
    `local-unproven`); pivots performed later keep checking every frame they touch.

    An invalid certificate's `failure_kind` is the first failure met from
    p's own gift-wrapped start facet, not a lattice invariant: a unimodular
    image of p can fail at its start facet, with another kind, before the
    summand that fails in p is reached.
    """
    cache = p._cert_cache
    key = ("cert", mode)
    if key in cache:
        return cache[key]
    if p._full_dim:
        cert = _certify(p, mode)
    else:
        cert = SmoothFanoCertificate(False, mode, "NotFullDim", "vertex set does not span")
    cache[key] = cert
    return cert


# the certificate's failure kind for each validation error
_FAILURE_KINDS = {
    NotSimplicialError: "FacetNotSimplex",
    NoNegativeVertexError: "OriginNotInterior",
    NotAVertexError: "NotAVertex",
    OriginNotInteriorError: "OriginNotInterior",
    NotFullDimError: "NotFullDim",
    NotUnimodularError: "FacetNotUnimodular",
}


def coordinate_blocks(coords: np.ndarray) -> tuple[list[list[int]], list[int]]:
    """The blocks of the support graph of a coordinate array's rows, and each row's block.

    Two positions are linked when some row is nonzero at both; the blocks are
    the connected components, each in position order, ordered by their first
    position.  In a lattice basis every row's support lies in one block, so
    the blocks split the point set into a free sum.  A row with empty support
    is the origin, which is no vertex of a polytope with interior origin:
    NotAVertexError.
    """
    positions = range(coords.shape[1])
    parent = list(positions)

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    supports: list[list[int]] = [[] for _ in range(len(coords))]
    for i, j in zip(*(a.tolist() for a in coords.nonzero())):
        supports[i].append(j)
    for sup in supports:
        for other in sup[1:]:
            ra, rb = find(sup[0]), find(other)
            if ra != rb:
                parent[rb] = ra
    origin = tuple(i for i, sup in enumerate(supports) if not sup)
    if origin:
        raise NotAVertexError(f"points at indices {origin} are not vertices of the hull")

    roots: dict[int, int] = {}
    blocks: list[list[int]] = []
    for j in positions:
        r = find(j)
        if r not in roots:
            roots[r] = len(blocks)
            blocks.append([])
        blocks[roots[r]].append(j)
    return blocks, [roots[find(sup[0])] for sup in supports]


def _block_polytopes(coords: np.ndarray, blocks: Sequence[list[int]], assign: Sequence[int]
                     ) -> list[tuple[tuple[int, ...], Polytope]]:
    """(vertex indices, block polytope) for every block of positions: the
    vertices `assign` puts in it, with their coordinate rows restricted to it."""
    members: list[list[int]] = [[] for _ in blocks]
    for i, b in enumerate(assign):
        members[b].append(i)
    return [(tuple(own), _array_polytope(rows, linalg._max_abs(rows)))
            for block, own in zip(blocks, members)
            for rows in [coords.take(own, axis=0).take(block, axis=1)]]


def _certify(p: Polytope, mode: Mode) -> SmoothFanoCertificate:
    """The certificate of an affinely full-dimensional p, one block of its
    start facet at a time; a failure inside a block of several names it."""
    prefix, count, unproven = "", 1, None
    try:
        start = _frame_from_raw(_initial_raw_cached(p))
        blocks = _block_summands(p)
        for _, own, q in blocks:
            if q is not p:
                prefix = f"factor on vertices {own}: "
                if is_standard_hexagon(q):
                    count *= 6
                    continue
                # the block holds the unit vectors of its positions, at level
                # 1, and every other vertex of it lies below, so its start
                # facet needs no check of its own
                if q.n == q.dim:
                    raise OriginNotInteriorError(
                        f"every vertex lies on the hyperplane of facet {start.vertex_indices}")
            if mode is Mode.LOCAL and q.dim > FULL_MODE_MAX_DIM:
                unproven = max(unproven or 0, q.dim)
                continue
            raws = _full_raws(q)
            for raw in raws:  # the witness is the first one in breadth-first order
                if raw.det != 1:
                    _frame_from_raw(raw)
            count *= len(raws)
    except tuple(_FAILURE_KINDS) as e:
        return SmoothFanoCertificate(False, mode, _FAILURE_KINDS[type(e)], prefix + str(e))
    if unproven is not None:
        return SmoothFanoCertificate(True, mode, proof=Proof.LOCAL_UNPROVEN,
                                     unproven_dim=unproven)
    proof = Proof.FULL if len(blocks) == 1 else Proof.BY_DECOMPOSITION
    return SmoothFanoCertificate(True, mode, facet_count=count, proof=proof)


def is_standard_hexagon(q: Polytope) -> bool:
    """Whether q, a block polytope or a validated one, has the vertex set
    HEXAGON_VERTICES in its start facet's coordinates, as a smooth hexagon
    has at each of its ordered edges, which its automorphisms permute
    transitively.  Nothing is built unless d = 2 and n = 6."""
    if q.dim != 2 or q.n != 6:
        return False
    if "block" in q._cert_cache:  # its start facet is its unit vectors
        return set(q.vertices) == HEXAGON_VERTICES
    start = _frame_from_raw(_initial_raw_cached(q))
    return set(map(tuple, frame_coords(q, start).tolist())) == HEXAGON_VERTICES


def _block_summands(p: Polytope) -> tuple[tuple[list[int], tuple[int, ...], Polytope], ...]:
    """(frame positions, vertex indices, block polytope) of every block of
    p's unimodular start facet; p itself is the one block of an irreducible p.
    Cached on p, so that the certificates of both modes prove the same
    summands.  The cache keeps () for one block: p in its own cache would be
    a reference cycle, which holds p's facet records until a gc collection."""
    cache = p._cert_cache
    if "summands" not in cache:
        coords = frame_coords(p, _frame_from_raw(_initial_raw_cached(p)))
        blocks, assign = coordinate_blocks(coords)
        cache["summands"] = () if len(blocks) == 1 else tuple(
            (block, own, q)
            for block, (own, q) in zip(blocks, _block_polytopes(coords, blocks, assign)))
        for _, _, q in cache["summands"]:
            q._cert_cache["block"] = True  # its start facet is its block of p's
    return cache["summands"] or ((list(range(p.dim)), tuple(range(p.n)), p),)


def _seed_start(q: Polytope) -> FacetFrame:
    """A block polytope's start facet in place of a gift-wrap: its block of
    the sum's start facet, on its unit vectors, so its dual is the identity."""
    units = np.eye(q.dim, dtype=np.int64)
    return FacetFrame(tuple(map(q.index_of, units.tolist())), units, (1,) * q.dim, dual_max=1)


def free_summands(p: Polytope, mode: Mode | None = None) -> tuple[Polytope, ...]:
    """The irreducible free summands of p, or (p,) when p is irreducible.

    Each summand is the block polytope that validation proved, in the
    lattice coordinates of the gift-wrapped facet restricted to its block,
    in block order; its facet enumeration and walks start at that block.
    """
    require_smooth_fano(p, mode)
    return tuple(q for _, _, q in _block_summands(p))


def free_sum(p: Polytope, mode: Mode | None = None
             ) -> tuple[IntMatrix, tuple[tuple[tuple[int, ...], Polytope], ...]]:
    """Validation's free-sum decomposition: (vertex indices, summand) for
    every `free_summands` entry, and the change of basis mapping each vertex
    to its summand's row padded into the summand's block -- the gift-wrapped
    facet's dual rows in block order, or the identity when p is irreducible.
    """
    require_smooth_fano(p, mode)
    blocks = _block_summands(p)
    summands = tuple((own, q) for _, own, q in blocks)
    if len(blocks) == 1:
        return IntMatrix.identity(p.dim), summands
    order = [j for positions, _, _ in blocks for j in positions]
    rows = _initial_raw_cached(p).dual.take(order, axis=0).tolist()
    return IntMatrix(tuple(map(tuple, rows))), summands


def require_smooth_fano(p: Polytope, mode: Mode | None = None) -> Mode:
    """Validate p in the given (or auto-selected) mode; return the mode used."""
    used = mode if mode is not None else auto_mode(p.dim)
    cert = is_smooth_fano(p, used)
    if not cert.valid:
        raise NotSmoothFanoError(cert)
    return used


def pivot(p: Polytope, frame: FacetFrame, vertex_index: int) -> tuple[FacetFrame, LatticeVector]:
    """Cross the ridge of `frame` opposite to `vertex_index`.

    Returns the neighboring frame and the opposite vertex: the unique vertex
    of the neighbor that is not on `frame`, found as the minimizer of the
    exact ratio (1 - level(x)) / (-coordinate of x along the dropped dual
    direction) over vertices with negative such coordinate.
    """
    pos = frame.position_of(vertex_index)
    neighbor = _cross(p, frame, pos)
    return _frame_from_raw(neighbor), tuple(p._array[neighbor.vertex_indices[pos]].tolist())


def frame_coords(p: Polytope, frame: FacetFrame) -> np.ndarray:
    """Coordinate rows of every vertex in `frame`, one exact n x d array
    computed once per frame; row i sums to vertex i's level.

    The array is int64 exactly when d times its largest |entry| fits, so that
    row sums and their differences with entries fit too: a dense disguise
    inflates the vertices and the dual basis, not the coordinates.  For
    frames that several stages read, above all the special facet, which is
    validation's start facet whenever the walk takes no step, and whose
    array is also the first layer of the enumeration; a walk over every
    facet calls `Polytope.coords_rows` and keeps nothing.
    """
    cache = p._cert_cache
    key = ("coords", frame.vertex_indices)
    if key not in cache:
        c = p.coords_rows(frame.dual)
        hi = max(int(c.max()), -int(c.min()))  # no n x d temporary, unlike np.abs
        cache[key] = linalg._exact_array(c, linalg._products_fit(hi, 1, p.dim))
    return cache[key]


def frame_levels(p: Polytope, frame: FacetFrame) -> np.ndarray:
    """Every vertex's level in `frame`, the row sums of `frame_coords`, once per frame."""
    cache, key = p._cert_cache, ("levels", frame.vertex_indices)
    if key not in cache:
        cache[key] = frame_coords(p, frame).sum(axis=1)
    return cache[key]


def opposite_indices(p: Polytope, frame: FacetFrame) -> list[int]:
    """Vertex index of opp(F, v) for every frame position, via the pivot rule
    on each column of `frame_coords`, over the vertices negative in it."""
    c = frame_coords(p, frame)
    rows, cols = (c < 0).nonzero()
    below: list[list[tuple[int, int]]] = [[] for _ in range(p.dim)]
    for i, j, x in zip(rows.tolist(), cols.tolist(), c[rows, cols].tolist()):
        below[j].append((i, x))
    return _opposites(frame.vertex_indices, below, frame_levels(p, frame).tolist())


def _opposites(indices: tuple[int, ...], columns: Iterable[Iterable[tuple[int, int]]],
               levels: Sequence[int]) -> list[int]:
    """`opposite_indices` of the unimodular frame on `indices`, given each
    coordinate column's (vertex, entry) pairs in vertex order, its negative
    ones at least, and every vertex's level."""
    return [_ridge_target(indices, column, levels, 1, pos) for pos, column in enumerate(columns)]


def frame_from_indices(p: Polytope, indices: Sequence[int]) -> FacetFrame:
    """Build and verify the frame on a given vertex index set (a facet; integers only)."""
    idx = sorted(linalg._to_array(indices, "indices")[0].tolist())
    if len(idx) != p.dim:
        raise NotSimplicialError(f"a facet frame needs exactly {p.dim} vertices")
    bad = next((i for i in idx if not 0 <= i < p.n), None)
    if bad is not None:
        raise VertexIndexError(f"vertex index {bad} is out of range for {p.n} vertices")
    bad = next((a for a, b in zip(idx, idx[1:]) if a == b), None)
    if bad is not None:
        raise VertexIndexError(f"vertex index {bad} appears more than once")
    raw = _raw_from_rows(p, idx)
    _check_facet(p, raw)
    return _frame_from_raw(raw)


def special_facet(p: Polytope, mode: Mode | None = None) -> FacetFrame:
    """A facet whose cone contains the vertex sum (all gamma coordinates >= 0).

    Starts from the gift-wrapped facet and pivots on any frame vertex with a
    negative gamma coordinate; the level of the vertex sum strictly increases
    with each step, so the walk terminates.  A step onto a facet that is not
    a unimodular simplex raises NotSmoothFanoError with that witness.
    """
    used = require_smooth_fano(p, mode)
    cache = p._cert_cache
    if "special" in cache:
        return cache["special"]
    s = vertex_sum(p)
    raw = _initial_raw_cached(p)
    for _ in range(_MAX_PIVOT_STEPS):
        gamma = linalg.products_with(raw.dual, s, raw.dual_max)  # D @ s
        pos = next((j for j, g in enumerate(gamma) if g < 0), None)
        if pos is None:
            frame = _frame_from_raw(raw)
            cache["special"] = frame
            return frame
        try:
            raw = _cross(p, raw, pos)
        except tuple(_FAILURE_KINDS) as e:
            # LOCAL validation never reached this facet: report it, don't crash
            raise NotSmoothFanoError(SmoothFanoCertificate(
                False, used, _FAILURE_KINDS[type(e)], str(e))) from None
    raise InvariantViolationError("special-facet walk did not terminate")


def picard_number(p: Polytope, mode: Mode | None = None) -> int:
    """Vertex count minus dimension (the Picard number of the toric manifold)."""
    require_smooth_fano(p, mode)
    return p.n - p.dim
