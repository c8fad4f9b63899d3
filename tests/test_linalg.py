from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanosplit.errors import DimensionError, NotUnimodularError
from fanosplit.linalg import (
    IntKernel,
    IntMatrix,
    coordinates_in_basis,
    determinant,
    dot,
    gcd_of,
    int_rank,
    inverse_if_unimodular,
    scaled_dual,
)

entries = st.integers(min_value=-6, max_value=6)


def square(n, elems=entries):
    return st.lists(st.lists(elems, min_size=n, max_size=n), min_size=n, max_size=n)


def test_determinant_identity():
    assert determinant(IntMatrix.identity(3)) == 1


def test_determinant_2x2_examples():
    # cofactor formula ad - bc, evaluated by hand
    assert determinant([(0, 1), (-1, 1)]) == 1
    assert determinant([(1, 1), (1, -1)]) == -2


def test_determinant_rejects_non_square():
    with pytest.raises(DimensionError):
        determinant([(1, 2, 3), (4, 5, 6)])


def test_determinant_large_entries_exact():
    big = 10**30
    m = [(big, 1), (1, big)]
    assert determinant(m) == big * big - 1


@settings(max_examples=200)
@given(st.integers(min_value=1, max_value=4).flatmap(lambda n: st.tuples(square(n), square(n))))
def test_determinant_multiplicative(mats):
    a, b = IntMatrix.from_rows(mats[0]), IntMatrix.from_rows(mats[1])
    assert determinant(a @ b) == determinant(a) * determinant(b)


def test_inverse_identity():
    assert inverse_if_unimodular(IntMatrix.identity(4)) == IntMatrix.identity(4)


def test_inverse_shear():
    # solve the 2x2 system by hand
    inv = inverse_if_unimodular([(1, 1), (0, 1)])
    assert inv.entries == ((1, -1), (0, 1))


def test_inverse_rejects_non_unimodular():
    with pytest.raises(NotUnimodularError) as exc:
        inverse_if_unimodular([(2, 0), (0, 1)])
    assert exc.value.det == 2


def test_inverse_rejects_singular():
    with pytest.raises(NotUnimodularError) as exc:
        inverse_if_unimodular([(1, 1), (1, 1)])
    assert exc.value.det == 0


@settings(max_examples=150)
@given(st.integers(min_value=1, max_value=5).flatmap(square))
def test_scaled_dual_is_scaled_inverse_transpose(rows):
    m = IntMatrix.from_rows(rows)
    d = determinant(m)
    if d == 0:
        return
    dual, delta = scaled_dual(m)
    assert abs(delta) == abs(d)
    n = m.rows
    for i in range(n):
        for j in range(n):
            assert dot(dual[i], m.row(j)) == (delta if i == j else 0)


def unimodular(n, steps=st.integers(min_value=0, max_value=8)):
    """Random unimodular matrices as products of elementary operations."""
    op = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-2, 2))
    return st.lists(op, min_size=0, max_size=10).map(lambda ops: _build_unimodular(n, ops))


def _build_unimodular(n, ops):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, c in ops:
        if i == j:
            continue
        for t in range(n):
            m[i][t] += c * m[j][t]
    return m


@settings(max_examples=150)
@given(st.integers(min_value=1, max_value=5).flatmap(unimodular))
def test_inverse_composes_to_identity(rows):
    m = IntMatrix.from_rows(rows)
    inv = inverse_if_unimodular(m)
    n = m.rows
    assert (m @ inv) == IntMatrix.identity(n)
    assert (inv @ m) == IntMatrix.identity(n)


def test_coordinates_standard_basis():
    assert coordinates_in_basis(IntMatrix.identity(2), (3, -1)) == (3, -1)


def test_coordinates_hexagon_facet_basis():
    # x = 1*(1,0) + 1*(-1,1) = (0,1): solve the linear system
    assert coordinates_in_basis([(1, 0), (-1, 1)], (0, 1)) == (1, 1)


def test_coordinates_permutation_basis():
    assert coordinates_in_basis([(0, 1), (1, 0)], (2, 5)) == (5, 2)


@settings(max_examples=100)
@given(st.integers(min_value=1, max_value=5).flatmap(unimodular))
def test_coordinates_of_basis_rows_are_unit_vectors(rows):
    m = IntMatrix.from_rows(rows)
    n = m.rows
    for i in range(n):
        c = coordinates_in_basis(m, m.row(i))
        assert c == tuple(1 if j == i else 0 for j in range(n))


@settings(max_examples=100)
@given(st.integers(min_value=1, max_value=5).flatmap(lambda n: st.tuples(unimodular(n), st.lists(st.integers(-9, 9), min_size=n, max_size=n))))
def test_coordinates_reconstruct_vector(data):
    rows, x = data
    m = IntMatrix.from_rows(rows)
    c = coordinates_in_basis(m, x)
    recon = [0] * m.rows
    for ci, row in zip(c, m.entries):
        for t, rt in enumerate(row):
            recon[t] += ci * rt
    assert tuple(recon) == tuple(x)


def test_int_rank():
    assert int_rank([(1, 0), (0, 1)], 2) == 2
    assert int_rank([(1, 0), (-1, 0), (2, 0)], 2) == 1
    assert int_rank([], 3) == 0


def test_kernel_tracks_orthogonal_complement():
    ker = IntKernel(3)
    ker.reduce((1, 1, 0))
    assert ker.remaining == 2
    for row in ker.rows():
        assert dot(row, (1, 1, 0)) == 0
    ker.reduce((1, 1, 0))  # same hyperplane: no rank growth
    assert ker.remaining == 2
    ker.reduce((0, 0, 5))
    assert ker.remaining == 1
    assert dot(ker.rows()[0], (0, 0, 5)) == 0


def test_scaled_dual_crosses_from_int64_to_exact_ints():
    # entries fit the int64 bound at the first pivot, but the later Bareiss
    # minors and the determinant do not
    import random

    random.seed(11)
    n = 5
    m = [[random.randint(-2**29, 2**29) for _ in range(n)] for _ in range(n)]
    dual, delta = scaled_dual(m)
    assert abs(delta) == abs(determinant(m)) > 2**63
    for i in range(n):
        for j in range(n):
            assert dot(dual[i], m[j]) == (delta if i == j else 0)


def test_kernel_reduce_crosses_from_int64_to_exact_ints():
    import random

    random.seed(5)
    d = 7
    vecs = [tuple(random.randint(-2**20, 2**20) for _ in range(d)) for _ in range(5)]
    ker = IntKernel(d)
    assert ker._rows.dtype != object
    for v in vecs:
        assert ker.reduce(v)
    assert ker._rows.dtype == object  # the kernel entries outgrew the int64 bound
    assert ker.rank == 5
    assert ker.remaining == 2
    for row in ker.rows():
        assert gcd_of(row) == 1
        for v in vecs:
            assert dot(row, v) == 0


def test_kernel_large_dimension_consistency():
    d = 60
    ker = IntKernel(d)
    vecs = [tuple(1 if j in (i, (i + 7) % d) else 0 for j in range(d)) for i in range(d - 1)]
    for v in vecs:
        ker.reduce(v)
    for row in ker.rows():
        for v in vecs:
            assert dot(row, v) == 0
