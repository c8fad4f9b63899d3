"""Exact integer linear algebra over arbitrary-precision integers.

Every returned value is a Python int, so no overflow is possible.  Each
kernel is one numpy computation over an array whose dtype `_exact_array`
picks: int64 when an a-priori bound certifies that every intermediate fits,
otherwise `object`, on which the same numpy code runs on exact Python ints.
A kernel whose bound breaks partway converts its working array and goes on.
The only rational arithmetic in the package is ratio comparison by integer
cross-multiplication.

One floor, _LARGE_DIM, marks the large dimensions, where disguised smooth
Fano polytopes give vertex rows, dual bases and kernel rows that are almost
all zeros.  From it on:

* `scaled_dual` of n rows is first the inverse mod _P, kept only when the
  exact product m @ X is I, which proves det m = +-1 and X = m^-1; otherwise
  fraction-free (Bareiss) elimination runs.  It serves the public API and
  the start facets the gift-wrap's kernel leaves without a dual basis
  (`IntKernel.dropped_rows`): non-unimodular ones and dense ones whose
  kernel rows outgrew int64;
* a product of vertex rows with rows of length d (`_vertex_products`)
  multiplies only nonzero entries.  One row with at most d/4 nonzeros
  meets only those columns.  Several rows expand into the pairs of nonzeros
  v[i, k], r[j, k] sharing a column k, and `np.add.at` sums their products,
  unless there are more pairs than output entries.  A sum has at most d
  terms either way, so `_products_fit` proves int64 as for the dense `@`,
  which runs in every other case.

One integer rule, `_to_array`, admits an entry only if `operator.index`
takes it, so nothing is rounded or parsed.  `Polytope(dim, vertices)`,
`make_polytope`, `FacetFrame` (a hand-built dual, `coordinates`),
`frame_from_indices`, `IntMatrix.from_rows`, `determinant`, `scaled_dual`,
`inverse_if_unimodular`, `coordinates_in_basis`, `int_rank`,
`IntKernel.reduce` without a bound and the generators' parameters pass it;
`products_with`, `coords_rows`, `FacetFrame.level` and a hand-built
`outer_normal` do not yet.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionError, NotUnimodularError, SingularMatrixError

IntVector = tuple[int, ...]

_I64_SAFE = 2**62  # int64 entries and products stay below this, so np.abs is safe
_P = 2147483629  # the modular dual's prime: a product of two residues fits int64
_LARGE_DIM = 80  # from this size the modular dual and the sparse products pay


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(u, v))


def gcd_of(values: Iterable[int]) -> int:
    return math.gcd(*values)


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, entries in row-major order."""

    entries: tuple[IntVector, ...]

    def __post_init__(self):
        if self.entries and any(len(r) != len(self.entries[0]) for r in self.entries):
            raise DimensionError("ragged rows in matrix")

    @staticmethod
    def from_rows(rows: Iterable[Sequence[int]]) -> "IntMatrix":
        return IntMatrix(tuple(map(tuple, _to_array(rows)[0].tolist())))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def row(self, i: int) -> IntVector:
        return self.entries[i]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.entries)) if self.entries else ())

    def matvec(self, v: Sequence[int]) -> IntVector:
        if len(v) != self.cols:
            raise DimensionError("matvec shape mismatch")
        return tuple(dot(r, v) for r in self.entries)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionError("matmul shape mismatch")
        bt = other.transpose().entries
        return IntMatrix(tuple(tuple(dot(r, c) for c in bt) for r in self.entries))

    def det(self) -> int:
        return determinant(self)


def _exact_array(rows, fits_int64: bool) -> np.ndarray:
    """`rows` as int64 when the caller's bound `fits_int64` holds, else as exact ints."""
    return np.asarray(rows, dtype=np.int64 if fits_int64 else object)


def _products_fit(a_max: int, b_max: int, length: int) -> bool:
    """Whether sums of `length` products of entries <= a_max, b_max fit int64."""
    return length * (a_max or 1) * (b_max or 1) < _I64_SAFE


def _max_abs(a: np.ndarray) -> int:
    return int(np.abs(a).max()) if a.size else 0


def _ints(values, what: str) -> list[int]:
    """`values` as ints by `operator.index`; TypeError names entry j as `what.format(j)`."""
    out = []
    for j, x in enumerate(values):
        try:
            out.append(operator.index(x))
        except TypeError:
            raise TypeError(f"{what.format(j)} is not an integer: {x!r}") from None
    return out


def _to_array(rows, what: str = "row", square: bool = False) -> tuple[np.ndarray, int]:
    """A vector, rows or an `IntMatrix` as a new exact array (int64 below
    _I64_SAFE), max |entry|.  An integer or bool array of at most 2 axes from
    one `np.array` call is taken as it is; any other, ragged rows included,
    goes through `_ints`, naming a non-integer as "x entry 1" in a vector
    `what` = "x", else as "row 0 entry 1", before any shape error."""
    rows = rows.entries if isinstance(rows, IntMatrix) else rows
    try:
        a = np.array(rows)
    except ValueError:  # ragged rows
        a = None
    if a is None or a.dtype.kind not in "bi" or a.ndim > 2:
        ints = (_ints(rows, what + " entry {}") if a is not None and a.ndim == 1
                else [_ints(row, f"{what} {i} entry {{}}") for i, row in enumerate(rows)])
        try:
            a = np.array(ints, dtype=np.int64)
        except OverflowError:
            a = np.array(ints, dtype=object)
        except ValueError:
            raise DimensionError("ragged rows") from None
    if square and a.shape != (len(a), len(a)) and a.shape != (0,):
        raise DimensionError("matrix is not square")
    hi = max(int(a.max()), -int(a.min())) if a.size else 0  # np.abs overflows at -2**63
    return _exact_array(a.reshape(len(a), len(a)) if square else a, hi < _I64_SAFE), hi


def _bareiss(w: np.ndarray, n: int) -> tuple[np.ndarray, int]:
    """Fraction-free Gauss-Jordan on the first n columns of the n-row exact
    array w: returns (w, sign), those columns now delta * I, det = sign * delta."""
    prev, sign = 1, 1
    for k in range(n):
        if w[k, k] == 0:
            nz = np.flatnonzero(w[k + 1:, k])
            if nz.size == 0:
                raise SingularMatrixError("matrix is singular")
            i = k + 1 + int(nz[0])
            w[[k, i]] = w[[i, k]]
            sign = -sign
        if w.dtype != object:
            hi = _max_abs(w)
            w = _exact_array(w, _products_fit(hi, hi, 2))
        pk = int(w[k, k])
        saved = w[k].copy()
        w = (w * pk - np.outer(w[:, k], saved)) // prev
        w[k] = saved
        prev = pk
    return w, sign


def determinant(m) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a, _ = _to_array(m, square=True)
    try:
        w, sign = _bareiss(a, len(a))
    except SingularMatrixError:
        return 0
    return sign * int(w[-1, -1]) if a.size else 1


def _inverse_mod_p(a: np.ndarray) -> np.ndarray | None:
    """a^-1 mod _P in symmetric residues (None if singular mod _P), by Gauss-Jordan
    in place on int64; a step changes only the rows nonzero in its pivot column."""
    n = len(a)
    w = (a % _P).astype(np.int64)
    swaps = []
    for k in range(n):
        nz = np.flatnonzero(w[k:, k])
        if nz.size == 0:
            return None
        i = k + int(nz[0])
        if i != k:
            w[[k, i]] = w[[i, k]]
            swaps.append((k, i))
        inv = pow(int(w[k, k]), -1, _P)
        w[k, k] = 1
        w[k] = w[k] * inv % _P
        rows = np.flatnonzero(w[:, k])
        rows = rows[rows != k]
        f = w[rows, k]
        w[rows, k] = 0
        w[rows] = (w[rows] - np.outer(f, w[k])) % _P
    for k, i in reversed(swaps):
        w[:, [k, i]] = w[:, [i, k]]
    return np.where(w > _P // 2, w - _P, w)


def scaled_dual(m) -> tuple[np.ndarray, int]:
    """Return (U, delta) with U[i]/delta the dual basis of the rows of m.

    U is one exact array, U = delta * (m^-1)^T, so <U[i], m[j]> = delta * delta_ij.
    A modular inverse X with m @ X = I (exact, by `_vertex_products`) gives U = X^T,
    delta = 1; Bareiss gives delta = det(m) up to the sign of its row swaps.
    Callers normalise the sign as needed (U and delta always flip together).
    """
    a, hi = _to_array(m, square=True)
    n = len(a)
    x = _inverse_mod_p(a) if n >= _LARGE_DIM else None
    if x is not None and np.array_equal(_vertex_products(a, x.T, hi), np.eye(n, dtype=np.int64)):
        return np.ascontiguousarray(x.T), 1
    w, _ = _bareiss(np.hstack([a, np.eye(n, dtype=np.int64)]), n)
    return np.ascontiguousarray(w[:, n:].T), (int(w[0, 0]) if n else 1)


def inverse_if_unimodular(m) -> IntMatrix:
    """Exact inverse of a unimodular integer matrix, else NotUnimodularError(det)."""
    try:
        dual, delta = scaled_dual(m)
    except SingularMatrixError:
        raise NotUnimodularError(0) from None
    if delta not in (1, -1):
        raise NotUnimodularError(determinant(m))  # |delta| = |det m| here
    return IntMatrix(tuple(map(tuple, (delta * dual.T).tolist())))


def coordinates_in_basis(basis, x: Sequence[int]) -> IntVector:
    """Coordinates c with x = sum_i c[i] * basis_row[i], for a unimodular basis."""
    x = _to_array(x, "x")[0].tolist()
    if len(x) != len(basis.entries if isinstance(basis, IntMatrix) else basis):
        raise DimensionError("vector length does not match basis dimension")
    return inverse_if_unimodular(basis).transpose().matvec(x)


class IntKernel:
    """Primitive integer basis of the orthogonal complement of a growing vector set.

    The rank of the vectors fed in is dimension minus the rows remaining.  The
    basis is kept in place in one d x d exact array, int64 while a growth bound
    holds: basis row i is `_sign` times row `_live[i]` of `_rows`.  A step
    multiplies only the vector's nonzero columns, writes only the rows it
    updates, and flips `_sign` where the pivot is negative.

    The row a rank-growing step drops as its pivot stays in `_rows` and is
    combined with every later pivot like the live rows, so it stays orthogonal
    to every rank-growing vector but its own (`dropped_rows`): after d of them
    these rows are their dual basis, each up to a scale.  They ride along only
    while the int64 bound holds for all rows; where it breaks they are zeroed,
    so products with `_rows` vanish on them, and the kernel goes on without.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._rows = np.eye(dim, dtype=np.int64)
        self._live = list(range(dim))  # the basis rows' ids in `_rows`, in basis order
        self._is_live = np.ones(dim, dtype=bool)
        self._dropped: list[int] | None = []  # each rank-growing step's pivot id, in order
        self._sign = 1
        self._max = 1  # bounds every |entry| of _rows

    @property
    def remaining(self) -> int:
        return len(self._live)

    @property
    def rank(self) -> int:
        return self.dim - self.remaining

    def rows(self) -> list[IntVector]:
        return list(map(tuple, (self._rows[self._live] * self._sign).tolist()))

    def row(self, i: int) -> np.ndarray:
        """Row i as an exact array, valid until the next `reduce`."""
        r = self._rows[self._live[i]]
        return r if self._sign > 0 else -r

    def dropped_rows(self) -> np.ndarray | None:
        """Row j is the row the j-th rank-growing `reduce` dropped, an int64 array
        orthogonal to every other rank-growing vector and not to its own; None
        once the int64 bound broke."""
        return None if self._dropped is None else self._rows[self._dropped]

    def _discard_dropped(self) -> None:
        self._rows[~self._is_live] = 0
        self._max = _max_abs(self._rows)
        self._dropped = None

    def reduce(self, vec, bound: int | None = None) -> bool:
        """Shrink the kernel by the hyperplane <., vec> = 0 (|vec| <= `bound`, if given);
        True if rank grew.  The pivot has the least nonzero |rows @ vec|, lowest index
        first; every other row with a nonzero product is combined with it."""
        if not self._live:
            return False
        vec, bound = _to_array(vec, "vector") if bound is None else (vec, bound)
        fits = self._rows.dtype != object and _products_fit(self._max, bound, self.dim)
        if not fits and self._dropped is not None:
            self._discard_dropped()
            return self.reduce(vec, bound)
        k = self._rows = _exact_array(self._rows, fits)
        cols = vec.nonzero()[0]
        w = k[:, cols] @ _exact_array(vec[cols], fits)
        nz = w.nonzero()[0]  # ids of the rows met; the live ones in basis order
        live = self._is_live[nz].nonzero()[0]
        if not live.size:
            return False
        w = w[nz] if self._sign > 0 else -w[nz]
        aw = np.abs(w)
        j = int(live[aw[live].argmin()])
        r, wr = int(nz[j]), int(w[j])
        if fits and not _products_fit(self._max, int(aw.max()), 2):
            if self._dropped is not None:
                self._discard_dropped()
                return self.reduce(vec, bound)
            k = self._rows = _exact_array(k, False)
            w = _exact_array(w, False)
        if wr < 0:
            self._sign, w, wr = -self._sign, -w, -wr
        # in _rows' own sign, k[i] * w[r] - w[i] * k[r] is the combined row; for
        # i = r it is zero, which drops the pivot row unless it is kept
        new = k[nz] * wr - w[:, None] * k[r]
        size = np.abs(new)
        g = np.gcd.reduce(size, axis=1)
        g[j] = 1
        if not g.all():
            raise SingularMatrixError("kernel rows became dependent")
        new //= g[:, None]
        if self._dropped is not None:
            new[j] = k[r]
            self._dropped.append(r)
        k[nz] = new
        self._max = max(self._max, int(size.max()))
        self._live.remove(r)
        self._is_live[r] = False
        return True


def int_rank(rows: Iterable[Sequence[int]], dim: int) -> int:
    """Rank of an integer vector family in dimension dim."""
    ker = IntKernel(dim)
    for r in rows:
        ker.reduce(r)
    return ker.rank


def _vertex_products(vertices: np.ndarray, rows, max_abs_vertices: int) -> np.ndarray:
    """<x, u> for every vertex row x of `vertices` and every u in `rows`, an
    exact array (bounded by `_max_abs`) or a sequence of int sequences;
    sparse from _LARGE_DIM columns on (module docstring)."""
    hu = (_max_abs(rows) if isinstance(rows, np.ndarray)
          else max((abs(a) for row in rows for a in row), default=0))
    d = vertices.shape[1]
    fits = vertices.dtype != object and _products_fit(max_abs_vertices, hu, d)
    v, r = _exact_array(vertices, fits), _exact_array(rows, fits)
    if d >= _LARGE_DIM:
        if r.ndim == 1 or len(r) == 1:
            cols = np.flatnonzero(r)
            if 4 * cols.size <= d:
                return v[:, cols] @ r[..., cols].T
        else:
            out = _sparse_products(v, r)
            if out is not None:
                return out
    return v @ r.T


def _sparse_products(v: np.ndarray, r: np.ndarray) -> np.ndarray | None:
    """v @ r.T summed over the pairs of nonzeros v[i, k], r[j, k], or None
    when there are more such pairs than output entries."""
    vk, vi = np.nonzero(v.T)  # v's nonzeros, column by column
    rk, rj = np.nonzero(r.T)
    per_col = np.bincount(rk, minlength=v.shape[1])
    reps = per_col[vk]  # the partners of each nonzero of v
    pairs = int(reps.sum())
    if pairs > v.shape[0] * r.shape[0]:
        return None
    # nonzero e of v meets r's nonzeros first[vk[e]], ..., first[vk[e]] + reps[e] - 1
    first = np.cumsum(per_col) - per_col
    e = np.repeat(np.arange(vk.size), reps)
    ridx = np.arange(pairs) - np.repeat(np.cumsum(reps) - reps, reps) + first[vk[e]]
    out = np.zeros((v.shape[0], r.shape[0]), dtype=v.dtype)
    np.add.at(out, (vi[e], rj[ridx]), v[vi, vk][e] * r[rj, rk][ridx])
    return out


def products_with(vertices: np.ndarray, u, max_abs_vertices: int) -> list[int]:
    """<x, u> for every vertex row x of `vertices`; `u` is 1-d, exact or ints."""
    rows = u if isinstance(u, np.ndarray) else [u]
    return _vertex_products(vertices, rows, max_abs_vertices).ravel().tolist()


def coords_rows(vertices: np.ndarray, dual_rows, max_abs_vertices: int) -> np.ndarray:
    """Rows <U, x> for every vertex x: the coordinate matrix w.r.t. a dual
    basis, one exact array in `_vertex_products`' dtype."""
    return _vertex_products(vertices, dual_rows, max_abs_vertices)
