"""Exact integer linear algebra over arbitrary-precision integers.

Every stored value is a Python int, so no overflow is possible.  Hot paths
dispatch to numpy int64 only when an a-priori bound certifies that every
intermediate fits; otherwise they fall back to pure-Python arithmetic on the
same data.  The only rational arithmetic in the package is ratio comparison
by integer cross-multiplication.

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


def _scaled_dual_python(rows: Sequence[Sequence[int]]) -> tuple[tuple[IntVector, ...], int]:
    n = len(rows)
    w = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(rows)]
    prev = 1
    for k in range(n):
        if w[k][k] == 0:
            for i in range(k + 1, n):
                if w[i][k] != 0:
                    w[k], w[i] = w[i], w[k]
                    break
            else:
                raise SingularMatrixError("matrix is singular")
        pk = w[k][k]
        wk = w[k]
        for i in range(n):
            if i == k:
                continue
            wi = w[i]
            wik = wi[k]
            for j in range(2 * n):
                wi[j] = (wi[j] * pk - wik * wk[j]) // prev
        prev = pk
    delta = w[0][0]
    # right block is delta * M^-1; its transpose is the scaled dual basis
    inv_scaled = [r[n:] for r in w]
    dual = tuple(tuple(inv_scaled[i][j] for i in range(n)) for j in range(n))
    return dual, delta


def _scaled_dual_numpy(rows: Sequence[Sequence[int]]) -> tuple[tuple[IntVector, ...], int] | None:
    """int64 variant of the fraction-free Gauss-Jordan; None means 'bound broke,
    redo in exact Python arithmetic'."""
    n = len(rows)
    hi0 = max((abs(int(x)) for row in rows for x in row), default=0)
    if 2 * hi0 * hi0 >= _I64_SAFE:
        return None
    w = np.hstack([np.asarray(rows, dtype=np.int64), np.eye(n, dtype=np.int64)])
    prev = 1
    for k in range(n):
        if w[k, k] == 0:
            nz = np.nonzero(w[k + 1:, k])[0]
            if nz.size == 0:
                raise SingularMatrixError("matrix is singular")
            i = k + 1 + int(nz[0])
            w[[k, i]] = w[[i, k]]
        hi = int(np.abs(w).max())
        if 2 * hi * hi >= _I64_SAFE:
            return None
        pk = int(w[k, k])
        saved = w[k].copy()
        col = w[:, k].copy()
        w = (w * pk - np.outer(col, saved)) // prev
        w[k] = saved
        prev = pk
    delta = int(w[0, 0])
    inv_scaled = w[:, n:]
    dual = tuple(tuple(int(inv_scaled[i, j]) for i in range(n)) for j in range(n))
    return dual, delta


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
    if n >= 24:
        out = _scaled_dual_numpy(rows)
        if out is not None:
            return out
    return _scaled_dual_python(rows)


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
    Uses int64 numpy arrays while a growth bound holds, then falls back to
    Python ints.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._np: np.ndarray | None = np.eye(dim, dtype=np.int64)
        self._py: list[list[int]] | None = None

    @property
    def remaining(self) -> int:
        if self._np is not None:
            return self._np.shape[0]
        return len(self._py)

    @property
    def rank(self) -> int:
        return self.dim - self.remaining

    def rows(self) -> list[IntVector]:
        if self._np is not None:
            return [tuple(int(x) for x in r) for r in self._np]
        return [tuple(r) for r in self._py]

    def row(self, i: int) -> IntVector:
        if self._np is not None:
            return tuple(int(x) for x in self._np[i])
        return tuple(self._py[i])

    def _fall_back(self):
        self._py = [[int(x) for x in r] for r in self._np]
        self._np = None

    def reduce(self, vec: Sequence[int]) -> bool:
        """Shrink the kernel by the hyperplane <., vec> = 0; True if rank grew."""
        if self.remaining == 0:
            return False
        if self._np is not None:
            hi = int(np.abs(self._np).max()) or 1
            hv = max((abs(int(v)) for v in vec), default=0) or 1
            if hi * hv * self.dim >= _I64_SAFE:
                self._fall_back()
        if self._np is not None:
            k = self._np
            w = k @ np.asarray(vec, dtype=np.int64)
            nz = np.nonzero(w)[0]
            if nz.size == 0:
                return False
            r = int(min(nz, key=lambda i: (abs(int(w[i])), int(i))))
            wr = int(w[r])
            hi = int(np.abs(k).max())
            if 2 * hi * int(np.abs(w).max()) >= _I64_SAFE:
                self._fall_back()
            else:
                new = k * wr - np.outer(w, k[r])
                new = np.delete(new, r, axis=0)
                if new.shape[0]:
                    g = np.gcd.reduce(np.abs(new), axis=1)
                    if (g == 0).any():
                        raise SingularMatrixError("kernel rows became dependent")
                    new //= g[:, None]
                self._np = new
                return True
        rows = self._py
        w = [dot(r, vec) for r in rows]
        pick = None
        for i, wi in enumerate(w):
            if wi != 0 and (pick is None or abs(wi) < abs(w[pick])):
                pick = i
        if pick is None:
            return False
        wr = w[pick]
        base = rows[pick]
        out = []
        for i, row in enumerate(rows):
            if i == pick:
                continue
            nr = [a * wr - w[i] * b for a, b in zip(row, base)]
            g = gcd_of(nr)
            if g == 0:
                raise SingularMatrixError("kernel rows became dependent")
            if g > 1:
                nr = [a // g for a in nr]
            out.append(nr)
        self._py = out
        return True


def int_rank(rows: Iterable[Sequence[int]], dim: int) -> int:
    """Rank of an integer vector family in dimension dim."""
    ker = IntKernel(dim)
    for r in rows:
        ker.reduce(r)
        if ker.remaining == 0:
            break
    return ker.rank


def products_with(vertices_np: np.ndarray | None, vertices: Sequence[IntVector],
                  u: Sequence[int], max_abs_vertices: int) -> list[int]:
    """<x, u> for every x in vertices, int64-accelerated when certified safe."""
    if vertices_np is not None and vertices:
        d = len(u)
        hu = max((abs(int(a)) for a in u), default=0)
        if d * (max_abs_vertices or 1) * (hu or 1) < _I64_SAFE:
            return (vertices_np @ np.asarray(u, dtype=np.int64)).tolist()
    return [dot(x, u) for x in vertices]


def coords_rows(vertices_np: np.ndarray | None, vertices: Sequence[IntVector],
                dual_rows: Sequence[IntVector], max_abs_vertices: int) -> list[IntVector]:
    """Rows <U, x> for every vertex x: the coordinate matrix w.r.t. a dual basis."""
    if vertices_np is not None and vertices and dual_rows:
        d = len(dual_rows[0])
        hu = max(abs(a) for row in dual_rows for a in row)
        if d * (max_abs_vertices or 1) * (hu or 1) < _I64_SAFE:
            m = vertices_np @ np.asarray(dual_rows, dtype=np.int64).T
            return [tuple(int(v) for v in row) for row in m]
    return [tuple(dot(row, x) for row in dual_rows) for x in vertices]
