"""Lattice polytopes with exact facet enumeration and ridge pivoting.

The central objects are an immutable vertex list (`Polytope`) and per-facet
frames (`FacetFrame`) holding the dual basis of the facet's vertex basis and
its primitive outer normal.  All geometry is exact:

* one ratio rule (`_min_ratio`) picks every entering vertex: among vertices
  with negative coordinate along a direction, the minimizers of
  (level of the hyperplane - level of x) / (-coordinate of x), compared by
  exact integer cross-multiplication;
* an initial facet is found by gift-wrapping -- rotate a supporting
  hyperplane one kernel direction at a time, entering the first minimizer
  of the ratio rule;
* the remaining facets come from breadth-first ridge pivoting: dropping a
  frame vertex and entering the unique minimizer of the ratio rule along the
  dropped dual direction;
* ties in the ratio rule across a ridge certify a non-simplicial facet and
  are a hard error, never silently broken.

Internally a facet is one record, `_RawFacet`: its vertex indices by frame
position, the exact rational dual basis (`dual` / `det`) and the primitive
outer normal.  One dual-basis update (`_neighbor_raw`) crosses a ridge; the
enumeration, the special-facet walk and `pivot` all use it.  `FacetFrame` is
the public, sorted, unimodular view of a record.

Validation has two modes.  FULL enumerates every facet and checks each one.
LOCAL checks only the facets it materialises (the gift-wrapped start and
anything reached by pivoting); it exists because facet counts of hexagon
power sums grow exponentially while the splitting pipeline touches only one
pivot path.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from . import linalg
from .errors import (
    DuplicateVertexError,
    InvariantViolationError,
    NoNegativeVertexError,
    NotAVertexError,
    NotFullDimError,
    NotSimplicialError,
    NotSmoothFanoError,
    NotUnimodularError,
    OriginNotInteriorError,
)
from .linalg import IntMatrix, IntKernel, dot, gcd_of

LatticeVector = tuple[int, ...]

# FULL validation is the default up to this dimension; beyond it the CLI and
# the auto mode switch to LOCAL.
FULL_MODE_MAX_DIM = 12

# Safety cap for the special-facet ascent; the walk must terminate long
# before this since its objective strictly increases over a finite facet set.
_MAX_PIVOT_STEPS = 1_000_000


class Mode(enum.Enum):
    FULL = "full"
    LOCAL = "local"


def auto_mode(dim: int) -> Mode:
    return Mode.FULL if dim <= FULL_MODE_MAX_DIM else Mode.LOCAL


@dataclass(frozen=True)
class Polytope:
    """Immutable polytope given by its vertex list (exact integer coordinates)."""

    dim: int
    vertices: tuple[LatticeVector, ...]

    def __post_init__(self):
        for v in self.vertices:
            if len(v) != self.dim:
                raise NotFullDimError(
                    f"vertex {v} has length {len(v)}, expected {self.dim}"
                )

    @property
    def n(self) -> int:
        return len(self.vertices)

    def __repr__(self) -> str:
        return f"Polytope(d={self.dim}, n={self.n})"

    @cached_property
    def _vertex_index(self) -> dict[LatticeVector, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    def index_of(self, v: Sequence[int]) -> int | None:
        return self._vertex_index.get(tuple(v))

    @cached_property
    def _abs_max(self) -> int:
        return max((abs(x) for v in self.vertices for x in v), default=0)

    @cached_property
    def _array(self) -> np.ndarray:
        """The vertex rows as an exact array: int64 below 2**31, else object."""
        fits = self._abs_max < 2**31
        return linalg._exact_array(self.vertices, fits).reshape(self.n, self.dim)

    @cached_property
    def _full_dim(self) -> bool:
        """Affine full dimension: the vectors (x, 1) have rank d + 1."""
        return linalg.int_rank([v + (1,) for v in self.vertices], self.dim + 1) == self.dim + 1

    @cached_property
    def _cert_cache(self) -> dict:
        return {}

    def products(self, u: Sequence[int]) -> list[int]:
        """<x, u> for every vertex x."""
        return linalg.products_with(self._array, u, self._abs_max)

    def coords_rows(self, dual_rows: Sequence[Sequence[int]]) -> list[LatticeVector]:
        """Coordinate rows of all vertices w.r.t. a dual basis."""
        return linalg.coords_rows(self._array, dual_rows, self._abs_max)


def make_polytope(rows: Iterable[Sequence[int]]) -> Polytope:
    """Build a polytope from vertex rows.

    Rejects duplicates and point sets that are not full-dimensional.  Rows
    that are not actually vertices of the hull are only detected later,
    during facet enumeration (NotAVertexError).
    """
    vertices = tuple(tuple(int(x) for x in row) for row in rows)
    if not vertices:
        raise NotFullDimError("empty vertex list")
    d = len(vertices[0])
    if d < 1:
        raise NotFullDimError("ambient dimension must be at least 1")
    p = Polytope(d, vertices)  # checks every vertex length
    seen = set()
    for v in vertices:
        if v in seen:
            raise DuplicateVertexError(f"vertex {v} appears more than once")
        seen.add(v)
    if not p._full_dim:
        raise NotFullDimError("vertex set is not full-dimensional")
    return p


def vertex_sum(p: Polytope) -> LatticeVector:
    """Coordinatewise sum of all vertices."""
    acc = [0] * p.dim
    for v in p.vertices:
        for i, x in enumerate(v):
            acc[i] += x
    return tuple(acc)


def vertex_deficit(p: Polytope) -> int:
    """k = 3d - n, the deficit against the maximal vertex count 3d."""
    return 3 * p.dim - p.n


@dataclass(frozen=True)
class FacetFrame:
    """A facet's vertex indices with the dual basis of its vertex basis.

    Row i of `dual_basis` is the functional u_i that is 1 on vertex
    `vertex_indices[i]` and 0 on the other frame vertices.  Their sum is the
    primitive outer normal: 1 on the facet, <= 1 on the whole polytope.
    """

    vertex_indices: tuple[int, ...]
    dual_basis: IntMatrix
    outer_normal: LatticeVector

    @property
    def dim(self) -> int:
        return len(self.vertex_indices)

    def position_of(self, vertex_index: int) -> int:
        return self.vertex_indices.index(vertex_index)

    def coordinates(self, x: Sequence[int]) -> LatticeVector:
        return self.dual_basis.matvec(x)

    def level(self, x: Sequence[int]) -> int:
        return dot(self.outer_normal, x)


@dataclass(frozen=True)
class SmoothFanoCertificate:
    """Outcome of smooth-Fano validation; failures carry a concrete witness."""

    valid: bool
    mode: Mode
    failure_kind: str | None = None
    witness: str | None = None
    facet_count: int | None = None

    def describe(self) -> str:
        if self.valid:
            extra = f" facets={self.facet_count}" if self.facet_count is not None else ""
            return f"valid mode={self.mode.value}{extra}"
        return f"invalid kind={self.failure_kind} witness={self.witness}"


@dataclass(frozen=True)
class _RawFacet:
    """Internal facet record; `dual`/`det` is the exact rational dual basis.

    Row i of `dual` belongs to `indices[i]`.  Records are sorted by index
    except between the steps of a walk, which keeps frame positions fixed.
    """

    indices: tuple[int, ...]
    dual: tuple[LatticeVector, ...]
    det: int  # > 0; facet vertex basis is unimodular iff det == 1
    normal: LatticeVector  # primitive outer normal A
    level: int  # c > 0 with <A, x> = c on the facet, <= c on P


def _make_raw(indices: Sequence[int], dual: Sequence[LatticeVector], det: int) -> _RawFacet:
    """The record of a scaled dual basis; its row sum over `det` is the normal."""
    rowsum = [sum(col) for col in zip(*dual)]
    g = gcd_of(rowsum + [det])
    if g == 0:
        raise InvariantViolationError("zero outer normal")
    return _RawFacet(tuple(indices), tuple(dual), det,
                     tuple(a // g for a in rowsum), det // g)


def _sorted_raw(raw: _RawFacet) -> _RawFacet:
    """The same record with its (index, dual row) pairs in index order."""
    paired = sorted(zip(raw.indices, raw.dual))
    return _RawFacet(tuple(i for i, _ in paired), tuple(r for _, r in paired),
                     raw.det, raw.normal, raw.level)


def _min_ratio(column: Sequence[int], levels: Sequence[int], delta: int,
               where: Iterable[int]) -> list[int]:
    """Every index i in `where` minimizing (delta - levels[i]) / -column[i]
    over column[i] < 0, in index order; more than one index is a tie."""
    best: list[int] = []
    bn = bd = 0
    for i in where:
        den = -column[i]
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


def _raw_from_rows(p: Polytope, indices: Sequence[int]) -> _RawFacet:
    """The record of the sorted vertex index set `indices`."""
    dual, delta = linalg.scaled_dual([p.vertices[i] for i in indices])
    if delta < 0:
        dual = tuple(linalg.vec_neg(r) for r in dual)
        delta = -delta
    return _make_raw(indices, dual, delta)


def _check_facet(p: Polytope, raw: _RawFacet) -> None:
    """Verify the facet hyperplane supports P and carries exactly d vertices."""
    values = p.products(raw.normal)
    on = [i for i, v in enumerate(values) if v == raw.level]
    if max(values) > raw.level:
        raise InvariantViolationError(
            f"hyperplane of facet {raw.indices} does not support the polytope"
        )
    if raw.level <= 0:
        raise OriginNotInteriorError(
            f"facet hyperplane {raw.normal} has non-positive level {raw.level}"
        )
    if len(on) != p.dim:
        raise NotSimplicialError(
            f"hyperplane through facet {raw.indices} contains {len(on)} vertices: {tuple(on)}"
        )


def _initial_raw(p: Polytope) -> _RawFacet:
    """Gift-wrap one facet: rotate a supporting hyperplane onto new vertices
    one kernel direction at a time until it supports a full-rank vertex set."""
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
        w = kernel.row(0)
        wv = p.products(w)
        neg = [-x for x in wv]
        below = [i for i, v in enumerate(values) if v < c]
        cands = _min_ratio(neg, values, c, below)
        if not cands:
            w, wv, neg = linalg.vec_neg(w), neg, wv
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
        values = p.products(normal)
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


def _neighbor_raw(raw: _RawFacet, ct: Sequence[int], pos: int, target: int) -> _RawFacet:
    """Dual-basis update when frame position `pos` is replaced by `target`,
    whose coordinate row is `ct`; every other position keeps its place."""
    delta = raw.det
    sign = -1 if ct[pos] < 0 else 1
    beta = sign * ct[pos]
    base = raw.dual[pos]
    rows = []
    for w, row in enumerate(raw.dual):
        if w == pos:
            rows.append(tuple(sign * b for b in base))
        else:
            # exact division: the rows are the adjugate of the new vertex basis
            c = sign * ct[w]
            rows.append(tuple((beta * a - c * b) // delta for a, b in zip(row, base)))
    indices = [target if w == pos else i for w, i in enumerate(raw.indices)]
    return _make_raw(indices, rows, beta)


def _enumerate_raw(p: Polytope) -> list[_RawFacet]:
    """Breadth-first closure of ridge pivots starting from the wrapped facet."""
    from collections import deque

    start = _initial_raw_cached(p)
    visited = {start.indices}
    queue = deque([start])
    out = []
    covered = set()
    while queue:
        raw = queue.popleft()
        out.append(raw)
        covered.update(raw.indices)
        coords = p.coords_rows(raw.dual)
        levels = [sum(row) for row in coords]
        # _check_facet has shown that only the frame vertices lie on the
        # hyperplane, so every candidate ratio is positive
        for pos, column in enumerate(zip(*coords)):
            targets = _min_ratio(column, levels, raw.det, range(p.n))
            if not targets:
                raise NoNegativeVertexError(
                    f"no vertex below ridge {pos} of facet {raw.indices}"
                )
            if len(targets) > 1:
                raise NotSimplicialError(
                    f"pivot tie at ridge {pos} of facet {raw.indices}: "
                    f"vertices {tuple(targets)} are coplanar with the ridge"
                )
            key = tuple(sorted(set(raw.indices) - {raw.indices[pos]} | {targets[0]}))
            if key in visited:
                continue
            neighbor = _sorted_raw(_neighbor_raw(raw, coords[targets[0]], pos, targets[0]))
            _check_facet(p, neighbor)
            visited.add(neighbor.indices)
            queue.append(neighbor)
    if len(covered) != p.n:
        missing = sorted(set(range(p.n)) - covered)
        raise NotAVertexError(
            f"points at indices {tuple(missing)} are not vertices of the hull"
        )
    return out


def _frame_from_raw(raw: _RawFacet) -> FacetFrame:
    raw = _sorted_raw(raw)
    if raw.det != 1:
        raise NotUnimodularError(
            raw.det, f"facet {raw.indices} has vertex basis with |det| = {raw.det}"
        )
    # with det 1 the row sum is already primitive, so it is the normal
    return FacetFrame(raw.indices, IntMatrix(raw.dual), raw.normal)


def _frame_opposite(indices: Sequence[int], column: Sequence[int],
                    levels: Sequence[int], pos: int) -> int:
    """Index of the vertex across ridge `pos` of a unimodular frame, given
    every vertex's coordinate along the dropped dual row and its level."""
    best = _min_ratio(column, levels, 1, range(len(column)))
    if not best:
        raise NoNegativeVertexError(
            f"no vertex with negative coordinate along frame position {pos}"
        )
    if levels[best[0]] == 1:
        raise NotSimplicialError(
            f"vertex {best[0]} lies on the frame hyperplane {tuple(indices)}"
        )
    if len(best) > 1:
        raise NotSimplicialError(
            f"pivot tie across ridge {pos} of frame {tuple(indices)}"
        )
    return best[0]


def _cross(p: Polytope, raw: _RawFacet, pos: int) -> _RawFacet:
    """Cross ridge `pos` of a unimodular record to its unimodular neighbor."""
    cv = p.products(raw.dual[pos])
    best = _frame_opposite(raw.indices, cv, p.products(raw.normal), pos)
    if cv[best] != -1:
        raise NotUnimodularError(
            cv[best],
            f"neighbor facet across position {pos} is not unimodular",
        )
    x = p.vertices[best]
    return _neighbor_raw(raw, [dot(r, x) for r in raw.dual], pos, best)


def enumerate_facets(p: Polytope) -> tuple[FacetFrame, ...]:
    """All facets of a simplicial polytope with interior origin, as frames.

    Requires every facet basis to be unimodular (NotUnimodularError
    otherwise); use `is_smooth_fano` for a non-raising validity check.
    """
    raws = _full_raws(p)
    frames = [_frame_from_raw(raw) for raw in raws]
    frames.sort(key=lambda f: f.vertex_indices)
    return tuple(frames)


def _full_raws(p: Polytope) -> list[_RawFacet]:
    cache = p._cert_cache
    if "raws" not in cache:
        cache["raws"] = _enumerate_raw(p)
    return cache["raws"]


def _initial_raw_cached(p: Polytope) -> _RawFacet:
    cache = p._cert_cache
    if "initial" not in cache:
        cache["initial"] = _initial_raw(p)
    return cache["initial"]


def is_smooth_fano(p: Polytope, mode: Mode = Mode.FULL) -> SmoothFanoCertificate:
    """Validity certificate: full-dimensional, origin interior, every facet a
    unimodular simplex.

    FULL mode proves this for every facet.  LOCAL mode checks the single
    gift-wrapped facet and trusts the rest by construction; pivots performed
    later keep checking every frame they touch.
    """
    cache = p._cert_cache
    key = ("cert", mode)
    if key in cache:
        return cache[key]
    cert = _compute_certificate(p, mode)
    cache[key] = cert
    return cert


# the certificate's failure kind for each validation error
_FAILURE_KINDS = {
    NotSimplicialError: "FacetNotSimplex",
    NoNegativeVertexError: "OriginNotInterior",
    OriginNotInteriorError: "OriginNotInterior",
    NotFullDimError: "NotFullDim",
    NotUnimodularError: "FacetNotUnimodular",
}


def _compute_certificate(p: Polytope, mode: Mode) -> SmoothFanoCertificate:
    if not p._full_dim:
        return SmoothFanoCertificate(False, mode, "NotFullDim", "vertex set does not span")
    try:
        if mode is Mode.FULL:
            raws = _full_raws(p)
        else:
            raws = [_initial_raw_cached(p)]
    except tuple(_FAILURE_KINDS) as e:
        return SmoothFanoCertificate(False, mode, _FAILURE_KINDS[type(e)], str(e))
    for raw in raws:
        if raw.det != 1:
            return SmoothFanoCertificate(
                False, mode, "FacetNotUnimodular",
                f"facet {raw.indices} has |det| = {raw.det}",
            )
    count = len(raws) if mode is Mode.FULL else None
    return SmoothFanoCertificate(True, mode, facet_count=count)


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
    raw = _RawFacet(frame.vertex_indices, frame.dual_basis.entries, 1, frame.outer_normal, 1)
    pos = frame.position_of(vertex_index)
    neighbor = _cross(p, raw, pos)
    return _frame_from_raw(neighbor), p.vertices[neighbor.indices[pos]]


def opposite_indices(p: Polytope, frame: FacetFrame) -> list[int]:
    """Vertex index of opp(F, v) for every frame position, via the pivot rule."""
    return _opposites(frame, p.coords_rows(frame.dual_basis.entries))


def _opposites(frame: FacetFrame, coords: Sequence[LatticeVector]) -> list[int]:
    """`opposite_indices` given every vertex's coordinate row in `frame`."""
    levels = [sum(row) for row in coords]
    return [_frame_opposite(frame.vertex_indices, column, levels, pos)
            for pos, column in enumerate(zip(*coords))]


def frame_from_indices(p: Polytope, indices: Sequence[int]) -> FacetFrame:
    """Build and verify the frame on a given vertex index set (must be a facet)."""
    idx = sorted(int(i) for i in indices)
    if len(idx) != p.dim:
        raise NotSimplicialError(f"a facet frame needs exactly {p.dim} vertices")
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
        pos = next((j for j, u in enumerate(raw.dual) if dot(u, s) < 0), None)
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
