from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanosplit import linalg
from fanosplit.errors import DimensionError, NotUnimodularError, SingularMatrixError
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
from oracle import dense_products, determinant_rows, kernel_reduce_rows

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


def _assert_dropped_rows(ker, grown):
    """The kernel's dropped rows Q against the rank-growing vectors `grown`:
    Q V^T is diagonal with a nonzero diagonal, while Q rides along on int64;
    once discarded, Q is zero in the kernel's array and costs no more work."""
    q = ker.dropped_rows()
    if q is None:
        assert not ker._rows[~ker._is_live].any()
        return
    assert q.dtype == np.int64 and ker._rows.dtype == np.int64
    prods = dense_products(grown, q.tolist())
    assert [[x != 0 for x in row] for row in prods] == [
        [i == j for j in range(len(grown))] for i in range(len(grown))]


def test_kernel_reduce_crosses_from_int64_to_exact_ints():
    import random

    random.seed(5)
    d = 7
    vecs = [tuple(random.randint(-2**20, 2**20) for _ in range(d)) for _ in range(5)]
    ker = IntKernel(d)
    rows = [[int(i == j) for j in range(d)] for i in range(d)]
    assert ker._rows.dtype != object
    kept = []
    for v in vecs:
        assert ker.reduce(v) and kernel_reduce_rows(rows, v)
        assert ker.rows() == [tuple(r) for r in rows]
        kept.append(ker.dropped_rows() is not None)
        _assert_dropped_rows(ker, vecs[:len(kept)])
    # the dropped rows are discarded at the int64 bound, the live rows go on exact
    assert kept[0] and not kept[-1] and kept == sorted(kept, reverse=True)
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


# --- the modular dual against Bareiss elimination -------------------------

P = linalg._P
N = linalg._LARGE_DIM


def _shear_matrix(seed, n, steps):
    rng = random.Random(seed)
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return m


def _bareiss_dual(m):
    """The Bareiss path alone, on exact ints, normalised to delta > 0."""
    n = len(m)
    w, _ = linalg._bareiss(np.hstack([np.array(m, dtype=object), np.eye(n, dtype=np.int64)]), n)
    dual, delta = w[:, n:].T, int(w[0, 0])
    return (dual.tolist(), delta) if delta > 0 else ((-dual).tolist(), -delta)


def _spy_bareiss(monkeypatch):
    calls = []
    bareiss = linalg._bareiss
    monkeypatch.setattr(linalg, "_bareiss", lambda w, n: calls.append(n) or bareiss(w, n))
    return calls


def _assert_contract(m, dual, delta):
    assert (np.array(dual, dtype=object) @ np.array(m, dtype=object).T
            == delta * np.eye(len(m), dtype=np.int64)).all()


@pytest.mark.parametrize("steps", [3 * N, 30 * N])
def test_modular_dual_of_unimodular_matches_bareiss(steps, monkeypatch):
    # 3n +-1 shears leave a sixth of the entries nonzero here, 30n fill it
    m = _shear_matrix(steps, N, steps)
    calls = _spy_bareiss(monkeypatch)
    dual, delta = linalg.scaled_dual(m)
    assert calls == []
    assert (dual.tolist(), delta) == _bareiss_dual(m)
    assert dual.flags.c_contiguous


@pytest.mark.parametrize("factor", [2, -2, 7, -7])
def test_non_unimodular_falls_back_to_bareiss(factor, monkeypatch):
    m = _shear_matrix(factor, N, 3 * N)
    m[5] = [factor * a for a in m[5]]
    assert linalg._inverse_mod_p(np.array(m)) is not None  # invertible mod p
    calls = _spy_bareiss(monkeypatch)
    dual, delta = linalg.scaled_dual(m)
    assert calls == [N]
    assert abs(delta) == abs(factor)
    _assert_contract(m, dual.tolist(), delta)
    with pytest.raises(NotUnimodularError) as exc:
        inverse_if_unimodular(m)
    assert exc.value.det == factor == determinant_rows(m)


def test_singular_falls_back_to_bareiss(monkeypatch):
    m = _shear_matrix(3, N, 3 * N)
    m[1] = [a + b for a, b in zip(m[0], m[2])]
    assert linalg._inverse_mod_p(np.array(m)) is None
    calls = _spy_bareiss(monkeypatch)
    with pytest.raises(SingularMatrixError):
        linalg.scaled_dual(m)
    assert calls == [N]
    with pytest.raises(NotUnimodularError) as exc:
        inverse_if_unimodular(m)
    assert exc.value.det == 0


def test_identity_mod_p_is_rejected_by_the_exact_check(monkeypatch):
    m = [[int(i == j) for j in range(N)] for i in range(N)]
    m[0][0] = P + 1
    x = linalg._inverse_mod_p(np.array(m))
    assert (x == np.eye(N, dtype=np.int64)).all()  # m is the identity mod p
    calls = _spy_bareiss(monkeypatch)
    dual, delta = linalg.scaled_dual(m)
    assert calls == [N] and delta == P + 1
    _assert_contract(m, dual.tolist(), delta)
    with pytest.raises(NotUnimodularError) as exc:
        inverse_if_unimodular(m)
    assert exc.value.det == P + 1


def test_singular_mod_p_falls_back_to_bareiss(monkeypatch):
    m = [[int(i == j) for j in range(N)] for i in range(N)]
    m[0][0] = P
    calls = _spy_bareiss(monkeypatch)
    dual, delta = linalg.scaled_dual(m)
    assert calls == [N] and delta == P
    _assert_contract(m, dual.tolist(), delta)


@pytest.mark.parametrize("big, modular", [(2**29, True), (2**40, False), (2**70, False)])
def test_modular_dual_crossings(big, modular, monkeypatch):
    # m = I + big E01 + E23 has the inverse I - big E01 - E23: below p/2 the
    # modular result stands, checked on exact ints since n * big**2 > 2**62;
    # above it the lifted residue of -big is wrong, the check fails and
    # Bareiss runs
    m = [[int(i == j) for j in range(N)] for i in range(N)]
    m[0][1], m[2][3] = big, 1
    assert not linalg._products_fit(big, big, N)
    calls = _spy_bareiss(monkeypatch)
    dual, delta = linalg.scaled_dual(m)
    assert calls == ([] if modular else [N])
    assert ((delta * dual).tolist(), 1) == _bareiss_dual(m)
    inv = inverse_if_unimodular(m)
    assert inv.entries[0][1] == -big and inv.entries[2][3] == -1
    assert inv @ IntMatrix.from_rows(m) == IntMatrix.identity(N)


def test_size_rule_keeps_small_matrices_on_bareiss(monkeypatch):
    modular = []
    inverse_mod_p = linalg._inverse_mod_p
    monkeypatch.setattr(linalg, "_inverse_mod_p", lambda a: modular.append(len(a)) or inverse_mod_p(a))
    for n in (N - 1, N):
        linalg.scaled_dual(_shear_matrix(n, n, 3 * n))
    assert modular == [N]


@settings(max_examples=200)
@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.one_of(unimodular(n), square(n), square(n, st.integers(-2**40, 2**40)))))
def test_modular_dual_agrees_with_bareiss_on_small_matrices(rows):
    want = None if determinant_rows(rows) == 0 else _bareiss_dual(rows)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_LARGE_DIM", 1)  # every size tries mod p first
        try:
            dual, delta = linalg.scaled_dual(rows)
        except SingularMatrixError:
            assert want is None
            return
    if delta < 0:
        dual, delta = -dual, -delta
    assert (dual.tolist(), delta) == want


big_entries = st.one_of(entries, st.integers(-2**70, 2**70), st.sampled_from([2**63 - 1, -2**63, 2**64]))


@settings(max_examples=300)
@given(st.integers(min_value=0, max_value=6).flatmap(lambda n: square(n, big_entries)))
def test_determinant_matches_list_reference(rows):
    assert determinant(rows) == determinant_rows(rows)


@settings(max_examples=200)
@given(st.integers(min_value=1, max_value=6).flatmap(lambda d: st.lists(
    st.lists(st.one_of(entries, st.integers(-2**40, 2**40)), min_size=d, max_size=d),
    min_size=1, max_size=d + 2)))
def test_kernel_reduce_matches_list_reference(vecs):
    d = len(vecs[0])
    ker = IntKernel(d)
    rows = [[int(i == j) for j in range(d)] for i in range(d)]
    grown = []
    for v in vecs:
        grew = ker.reduce(v)
        assert grew == (bool(rows) and kernel_reduce_rows(rows, v))
        assert ker.rows() == [tuple(r) for r in rows]
        grown += [v] * grew
        _assert_dropped_rows(ker, grown)


@settings(max_examples=10, deadline=None)
@given(st.integers(80, 96).flatmap(lambda d: st.lists(st.lists(
    st.tuples(st.integers(0, d - 1), st.sampled_from([-2, -1, 1, 2])), min_size=1, max_size=4),
    min_size=d - 8, max_size=d + 4).map(lambda vecs: (d, vecs))))
def test_kernel_reduce_matches_list_reference_on_sparse_vectors(case):
    # large d, vectors with at most four nonzeros, as a disguised vertex has:
    # only their columns are multiplied, and only the rows they meet change
    d, vecs = case
    ker = IntKernel(d)
    rows = [[int(i == j) for j in range(d)] for i in range(d)]
    grown = []
    for entries in vecs:
        v = [0] * d
        for j, x in entries:
            v[j] += x
        grew = ker.reduce(v)
        assert grew == (bool(rows) and kernel_reduce_rows(rows, v))
        assert ker.rows() == [tuple(r) for r in rows]
        if rows:
            assert ker.row(0).tolist() == rows[0]
        grown += [v] * grew
    _assert_dropped_rows(ker, grown)


@pytest.mark.parametrize("steps, kept", [(3 * N, True), (30 * N, False)])
def test_kernel_dropped_rows_of_unimodular_rows_are_the_dual(steps, kept):
    # d independent rows of a unimodular matrix: the dropped rows are the dual
    # basis up to the sign of each row, in the order the rows were fed in;
    # dense rows (30 N shears) outgrow the int64 bound, which discards them
    m = _shear_matrix(3, N, steps)
    ker = IntKernel(N)
    for row in m:
        assert ker.reduce(row)
    q = ker.dropped_rows()
    assert (q is not None) == kept
    if not kept:
        return
    signs = [dot(u, row) for u, row in zip(q.tolist(), m)]
    assert set(signs) <= {1, -1}
    _assert_dropped_rows(ker, m)
    dual, delta = _bareiss_dual(m)
    assert delta == 1
    assert (q * np.array(signs)[:, None]).tolist() == dual


# --- sparse vertex products against the dense reference --------------------

@st.composite
def product_operands(draw):
    """(vertex array, rows as passed, rows as lists): 1-d, 1-row or m-row
    operands, int64 or object, mostly zeros or dense, with max |entries|
    on either side of the `_products_fit` boundary."""
    d, n = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    shape = draw(st.sampled_from(["1-d", "1-row", "m-row"]))
    m = draw(st.integers(2, 6)) if shape == "m-row" else 1
    hi_v = draw(st.sampled_from([1, 6, 2**31 - 1]))
    edge = (2**62 - 1) // (d * hi_v)  # d * hi_v * edge < 2**62 <= d * hi_v * (edge + 1)
    hi_r = draw(st.sampled_from([1, 6, edge, edge + 1, 2**70]))

    def matrix(rows, hi):
        zeros = draw(st.sampled_from([0, 1, 4, 30]))  # zero weight: dense to all-zero
        elems = st.sampled_from([0] * zeros + [1, -1, hi, -hi])
        return draw(st.lists(st.lists(elems, min_size=d, max_size=d), min_size=rows, max_size=rows))

    def exact(rows, hi):
        return np.array(rows, dtype=object if hi >= 2**62 or draw(st.booleans()) else np.int64)

    v, r = matrix(n, hi_v), matrix(m, hi_r)
    if shape == "1-d":
        rows = exact(r[0], hi_r)
    else:
        rows = exact(r, hi_r) if draw(st.booleans()) else list(map(tuple, r))
    return exact(v, hi_v), rows, r


@settings(max_examples=400, deadline=None)
@given(product_operands())
def test_sparse_products_match_dense_reference(ops):
    v, rows, r = ops
    want = dense_products(v.tolist(), r)
    hi = linalg._max_abs(v)
    fits = v.dtype != object and linalg._products_fit(hi, max(map(abs, sum(r, []))), v.shape[1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_LARGE_DIM", 1)  # every size takes the sparse rules
        got = linalg._vertex_products(v, rows, hi)
        assert got.dtype == (np.int64 if fits else object)
        assert got.tolist() == ([w[0] for w in want] if np.ndim(rows) == 1 else want)
        if len(r) == 1:
            u = rows if np.ndim(rows) == 1 else tuple(r[0])
            assert linalg.products_with(v, u, hi) == [w[0] for w in want]
        assert linalg.coords_rows(v, r, hi).tolist() == want


def test_pair_cap_boundary():
    v = np.array([[1, 0], [1, 0]], dtype=np.int64)
    r = v.copy()
    assert linalg._sparse_products(v, r).tolist() == [[1, 1], [1, 1]]  # 4 pairs, 4 entries
    v[0, 1] = r[0, 1] = 1  # one pair more than output entries
    assert linalg._sparse_products(v, r) is None
    assert linalg._sparse_products(v.astype(object), r.astype(object)) is None


def test_object_sparse_products_match_dense():
    # entries beyond int64 keep the pair cap of int64 operands: 5 x 4 pairs
    # for 5 x 4 output entries run sparse and match the dense reference
    rng = random.Random(7)
    v = [[rng.choice((-1, 1)) * 2**70 if k == i % 2 else 0 for k in range(12)] for i in range(5)]
    r = [[rng.choice((-3, 2, 5)) if k < 2 else 0 for k in range(12)] for _ in range(4)]
    vo, ro = np.array(v, dtype=object), np.array(r, dtype=object)
    assert linalg._sparse_products(vo, ro).tolist() == dense_products(v, r)
    vo[0, 1] = 1  # 4 pairs more
    assert linalg._sparse_products(vo, ro) is None


@pytest.mark.parametrize("nonzeros", [0, 2, 3, 8])
def test_sparse_row_rule_boundary(nonzeros, monkeypatch):
    # d = 8: up to 2 nonzeros take the column-gather path, 3 or more the dense @
    monkeypatch.setattr(linalg, "_LARGE_DIM", 1)
    rng = random.Random(nonzeros)
    v = np.array([[rng.randint(-3, 3) for _ in range(8)] for _ in range(5)], dtype=np.int64)
    u = [0] * 8
    for j in rng.sample(range(8), nonzeros):
        u[j] = rng.choice((-2, 1, 5))
    want = [w[0] for w in dense_products(v.tolist(), [u])]
    for rows in (np.array(u, dtype=np.int64), [tuple(u)], np.array(u, dtype=object)):
        assert linalg.products_with(v, rows if np.ndim(rows) == 1 else rows[0], 3) == want
        assert np.ravel(linalg._vertex_products(v, rows, 3)).tolist() == want


@pytest.mark.parametrize("steps", [N // 2, 3 * N])
@pytest.mark.parametrize("entry", ["zero", "nonzero"])
def test_perturbed_modular_inverse_falls_back_to_bareiss(steps, entry, monkeypatch):
    # a wrong inverse must fail the exact M X = I proof, whether the check
    # runs sparse (few shears) or over the dense @ (pairs beyond the cap)
    m = _shear_matrix(steps, N, steps)
    x = linalg._inverse_mod_p(np.array(m))
    assert (linalg._sparse_products(np.array(m), x.T) is None) == (steps == 3 * N)
    i, j = np.argwhere(x == 0 if entry == "zero" else x != 0)[0]
    bad = x.copy()
    bad[i, j] += 1
    monkeypatch.setattr(linalg, "_inverse_mod_p", lambda a: bad.copy())
    calls = _spy_bareiss(monkeypatch)
    dual, delta = linalg.scaled_dual(m)
    assert calls == [N]
    if delta < 0:
        dual, delta = -dual, -delta
    assert (dual.tolist(), delta) == _bareiss_dual(m)
