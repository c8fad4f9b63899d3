"""Exact integer linear algebra over arbitrary-precision integers.

Every returned value is a Python int, so no overflow is possible.  Each
kernel is one numpy computation over an array whose dtype `_exact_array`
picks: int64 when an a-priori bound certifies that every intermediate fits,
otherwise `object`, on which the same numpy code runs on exact Python ints.
A kernel whose bound breaks partway converts its working array and goes on.
The only rational arithmetic in the package is ratio comparison by integer
cross-multiplication.

Determinants and scaled inverses use fraction-free (Bareiss/Montante)
elimination: intermediates are true minors of the input, so they stay as
small as the problem allows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionError, NotUnimodularError, SingularMatrixError

IntVector = tuple[int, ...]

# int64 products are trusted only below this bound (headroom under 2**63).
_I64_SAFE = 2**62


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(u, v))


def vec_add(u: Sequence[int], v: Sequence[int]) -> IntVector:
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Sequence[int], v: Sequence[int]) -> IntVector:
    return tuple(a - b for a, b in zip(u, v))


def vec_neg(u: Sequence[int]) -> IntVector:
    return tuple(-a for a in u)


def gcd_of(values: Iterable[int]) -> int:
    g = 0
    for v in values:
        g = math.gcd(g, v)
        if g == 1:
            return 1
    return g


def _as_rows(m) -> tuple[IntVector, ...]:
    if isinstance(m, IntMatrix):
        return m.entries
    return tuple(tuple(int(x) for x in row) for row in m)


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, entries in row-major order."""

    entries: tuple[IntVector, ...]

    def __post_init__(self):
        if self.entries and any(len(r) != len(self.entries[0]) for r in self.entries):
            raise DimensionError("ragged rows in matrix")

    @staticmethod
    def from_rows(rows: Iterable[Sequence[int]]) -> "IntMatrix":
        return IntMatrix(tuple(tuple(int(x) for x in row) for row in rows))

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


def determinant(m) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    rows = _as_rows(m)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionError(f"determinant of a non-square {n}x{len(rows[0])} matrix")
    if n == 0:
        return 1
    a = [list(r) for r in rows]
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


def _exact_array(rows, fits_int64: bool) -> np.ndarray:
    """`rows` as an int64 array when the caller's a-priori bound `fits_int64`
    holds, else as an object array of exact Python ints."""
    return np.asarray(rows, dtype=np.int64 if fits_int64 else object)


def _products_fit(a_max: int, b_max: int, length: int) -> bool:
    """Whether sums of `length` products of entries bounded by `a_max` and
    `b_max` certainly fit int64."""
    return length * (a_max or 1) * (b_max or 1) < _I64_SAFE


def _max_abs(a: np.ndarray) -> int:
    return int(np.abs(a).max()) if a.size else 0


def scaled_dual(m) -> tuple[tuple[IntVector, ...], int]:
    """Return (U, delta) with U[i]/delta the dual basis of the rows of m.

    U is integral: U = delta * (m^-1)^T, so <U[i], m[j]> = delta * delta_ij.
    delta is det(m) up to the sign introduced by internal row swaps; callers
    normalise the sign as needed (U and delta always flip together).
    """
    rows = _as_rows(m)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionError("scaled dual of a non-square matrix")
    if n == 0:
        return (), 1
    hi = max(abs(x) for row in rows for x in row)
    w = np.hstack([_exact_array(rows, _products_fit(hi, hi, 2)), np.eye(n, dtype=np.int64)])
    # fraction-free Gauss-Jordan on [m | I]: the entries are minors of m
    prev = 1
    for k in range(n):
        if w[k, k] == 0:
            nz = np.nonzero(w[k + 1:, k])[0]
            if nz.size == 0:
                raise SingularMatrixError("matrix is singular")
            i = k + 1 + int(nz[0])
            w[[k, i]] = w[[i, k]]
        if w.dtype != object:
            hi = _max_abs(w)
            w = _exact_array(w, _products_fit(hi, hi, 2))
        pk = int(w[k, k])
        saved = w[k].copy()
        w = (w * pk - np.outer(w[:, k], saved)) // prev
        w[k] = saved
        prev = pk
    delta = int(w[0, 0])
    # the right block is delta * m^-1; its transpose is the scaled dual basis
    dual = tuple(map(tuple, w[:, n:].T.tolist()))
    return dual, delta


def inverse_if_unimodular(m) -> IntMatrix:
    """Exact inverse of a unimodular integer matrix.

    Raises NotUnimodularError (carrying the determinant) if |det| != 1.
    """
    rows = _as_rows(m)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionError("inverse of a non-square matrix")
    try:
        dual, delta = scaled_dual(rows)
    except SingularMatrixError:
        raise NotUnimodularError(0) from None
    if delta not in (1, -1):
        # delta may differ from det(m) by a swap sign; magnitude is what counts
        d = determinant(rows)
        raise NotUnimodularError(d)
    # dual = delta * m^-T, hence m^-1 = delta * dual^T
    inv = tuple(tuple(delta * dual[j][i] for j in range(n)) for i in range(n))
    return IntMatrix(inv)


def coordinates_in_basis(basis, x: Sequence[int]) -> IntVector:
    """Coordinates c with x = sum_i c[i] * basis_row[i], for a unimodular basis."""
    rows = _as_rows(basis)
    if len(x) != len(rows):
        raise DimensionError("vector length does not match basis dimension")
    try:
        dual, delta = scaled_dual(rows)
    except SingularMatrixError:
        raise NotUnimodularError(0) from None
    if delta not in (1, -1):
        raise NotUnimodularError(determinant(rows))
    return tuple(delta * dot(u, x) for u in dual)


class IntKernel:
    """Primitive integer basis of the orthogonal complement of a growing vector set.

    Feeding vectors one at a time keeps an exact basis of the lattice-rational
    kernel; the rank of the fed set is dimension minus the rows remaining.
    The basis is one numpy array: int64 while a growth bound holds, then an
    object array of Python ints running the same code.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._rows = np.eye(dim, dtype=np.int64)

    @property
    def remaining(self) -> int:
        return self._rows.shape[0]

    @property
    def rank(self) -> int:
        return self.dim - self.remaining

    def rows(self) -> list[IntVector]:
        return list(map(tuple, self._rows.tolist()))

    def row(self, i: int) -> IntVector:
        return tuple(self._rows[i].tolist())

    def reduce(self, vec: Sequence[int]) -> bool:
        """Shrink the kernel by the hyperplane <., vec> = 0; True if rank grew."""
        if self.remaining == 0:
            return False
        k = self._rows
        hv = max((abs(int(v)) for v in vec), default=0)
        fits = k.dtype != object and _products_fit(_max_abs(k), hv, self.dim)
        k = _exact_array(k, fits)
        w = k @ _exact_array(vec, fits)
        nz = np.nonzero(w)[0]
        if nz.size == 0:
            return False
        r = int(min(nz, key=lambda i: (abs(int(w[i])), int(i))))
        if fits and not _products_fit(_max_abs(k), _max_abs(w), 2):
            k, w = _exact_array(k, False), _exact_array(w, False)
        new = np.delete(k * w[r] - np.outer(w, k[r]), r, axis=0)
        if new.shape[0]:
            g = np.gcd.reduce(np.abs(new), axis=1)
            if (g == 0).any():
                raise SingularMatrixError("kernel rows became dependent")
            new //= g[:, None]
        self._rows = new
        return True


def int_rank(rows: Iterable[Sequence[int]], dim: int) -> int:
    """Rank of an integer vector family in dimension dim."""
    ker = IntKernel(dim)
    for r in rows:
        ker.reduce(r)
        if ker.remaining == 0:
            break
    return ker.rank


def _vertex_products(vertices: np.ndarray, rows: Sequence[Sequence[int]],
                     max_abs_vertices: int) -> np.ndarray:
    """<x, u> for every vertex row x of `vertices` and every u in `rows`."""
    hu = max((abs(a) for row in rows for a in row), default=0)
    fits = vertices.dtype != object and _products_fit(max_abs_vertices, hu, vertices.shape[1])
    return _exact_array(vertices, fits) @ _exact_array(rows, fits).T


def products_with(vertices: np.ndarray, u: Sequence[int], max_abs_vertices: int) -> list[int]:
    """<x, u> for every vertex row x of `vertices`, exact."""
    return _vertex_products(vertices, [u], max_abs_vertices)[:, 0].tolist()


def coords_rows(vertices: np.ndarray, dual_rows: Sequence[IntVector],
                max_abs_vertices: int) -> list[IntVector]:
    """Rows <U, x> for every vertex x: the coordinate matrix w.r.t. a dual basis."""
    return list(map(tuple, _vertex_products(vertices, dual_rows, max_abs_vertices).tolist()))
