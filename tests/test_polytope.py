from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gc
import random
import weakref
from functools import reduce

import numpy as np

from fanosplit import linalg, polytope
from fanosplit.errors import (
    DimensionError,
    DuplicateVertexError,
    FanoError,
    NotAVertexError,
    NotFullDimError,
    NotSimplicialError,
    NotSmoothFanoError,
    NotUnimodularError,
    VertexIndexError,
)
from fanosplit.generators import bundle_b, example4d, hexagon, pentagon, random_image, simplex
from fanosplit.linalg import IntMatrix
from fanosplit.polytope import (
    FacetFrame,
    Mode,
    Polytope,
    Proof,
    _enumerate_raw,
    _min_ratio,
    _neighbor_raw,
    _ratio_targets,
    _raw_from_rows,
    enumerate_facets,
    frame_from_indices,
    free_summands,
    is_smooth_fano,
    make_polytope,
    opposite_indices,
    picard_number,
    pivot,
    special_facet,
    vertex_deficit,
    vertex_sum,
)
from fanosplit.equivalence import normal_form
from fanosplit.fanofile import parse_fano, serialize_fano
from fanosplit.splitting import direct_sum

from cli_digest import FAILING_FACTORS
from corpus import base_instances, imaged, large_sums
from oracle import (
    brute_facets,
    brute_neighbor,
    brute_valid,
    direct_sum_tuples,
    enumerate_raw_per_facet,
    initial_raw_lists,
    neighbor_raw_tuples,
)

E1 = (1, 0)
E2 = (0, 1)


def square():
    return make_polytope([(1, 1), (1, -1), (-1, 1), (-1, -1)])


def triangle():
    return make_polytope([(1, 0), (0, 1), (-1, -1)])


class TestMakePolytope:
    def test_hexagon_counts(self):
        p = hexagon()
        assert (p.dim, p.n) == (2, 6)

    def test_duplicate_vertex(self):
        with pytest.raises(DuplicateVertexError):
            make_polytope([(1, 0), (1, 0)])

    def test_rank_deficient(self):
        with pytest.raises(NotFullDimError):
            make_polytope([(1, 0), (-1, 0)])

    def test_affinely_flat_set_rejected(self):
        # spans linearly but lies on the affine line x+y=1
        with pytest.raises(NotFullDimError):
            make_polytope([(1, 0), (0, 1), (2, -1)])

    def test_interior_point_detected_during_enumeration(self):
        p = make_polytope([(1, 0), (0, 1), (-1, -1), (0, 0)])
        with pytest.raises(NotAVertexError):
            enumerate_facets(p)

    @pytest.mark.parametrize("rows, message", [
        ([[1.7, 0], [0, 1], [-1, -1]], "vertex row 0 entry 0 is not an integer: 1.7"),
        ([[1, 0], [0, "1"], [-1, -1]], "vertex row 1 entry 1 is not an integer: '1'"),
        ([[1, 0], [0, 1], [-1, np.float64(-1)]],
         "vertex row 2 entry 1 is not an integer: np.float64(-1.0)"),
        ([[1, 0], [0, 1], [-1, None]], "vertex row 2 entry 1 is not an integer: None"),
        ([[1, 0], [0, 1.0, 2], [-1, -1]], "vertex row 1 entry 1 is not an integer: 1.0"),
        (np.array([[1, 0], [0, 1], [-1, -1]], dtype=float),
         "vertex row 0 entry 0 is not an integer: np.float64(1.0)"),
    ])
    def test_non_integer_entries_are_refused(self, rows, message):
        # int() would truncate 1.7 to 1 and read "1"; only integers are coordinates
        with pytest.raises(TypeError) as exc:
            make_polytope(rows)
        assert str(exc.value) == message

    @pytest.mark.parametrize("call, error, message", [
        (lambda: Polytope(2, ((1.7, 0), (0, 1), (-1, -1))),
         TypeError, "vertex row 0 entry 0 is not an integer: 1.7"),
        (lambda: Polytope(2, (("1", "0"), (0, 1), (-1, -1))),
         TypeError, "vertex row 0 entry 0 is not an integer: '1'"),
        (lambda: Polytope(2, ((2**70, 0), (0, 1.5), (-1, -1))),
         TypeError, "vertex row 1 entry 1 is not an integer: 1.5"),
        (lambda: Polytope(0, ((),)), NotFullDimError, "ambient dimension must be at least 1"),
        (lambda: Polytope(1, (((1, 0),), ((-1, 0),))),
         TypeError, "vertex row 0 entry 0 is not an integer: (1, 0)"),
        (lambda: linalg.determinant([[1.5, 0], [0, 1]]),
         TypeError, "row 0 entry 0 is not an integer: 1.5"),
        (lambda: linalg.scaled_dual([[1, 0], [0, 1.5]]),
         TypeError, "row 1 entry 1 is not an integer: 1.5"),
        (lambda: linalg.inverse_if_unimodular([[1.5, 0], [0, 1]]),
         TypeError, "row 0 entry 0 is not an integer: 1.5"),
        (lambda: IntMatrix.from_rows([[1.5, 0], [0, 1]]),
         TypeError, "row 0 entry 0 is not an integer: 1.5"),
        (lambda: IntMatrix(((1.5,),)).det(), TypeError, "row 0 entry 0 is not an integer: 1.5"),
        (lambda: linalg.coordinates_in_basis([[1, 0], [0, 1]], [0.5, 1]),
         TypeError, "x entry 0 is not an integer: 0.5"),
        (lambda: linalg.coordinates_in_basis([[1, 0], [0, 1.5]], [0, 1]),
         TypeError, "row 1 entry 1 is not an integer: 1.5"),
        (lambda: linalg.int_rank([[0.5, 0], [0, 1]], 2),
         TypeError, "vector entry 0 is not an integer: 0.5"),
        (lambda: FacetFrame((0, 1), [[1.5, 0], [0, 1]], (1, 1)),
         TypeError, "dual row 0 entry 0 is not an integer: 1.5"),
        (lambda: FacetFrame((0, 1), [[1, 0], [0, 1], [1, 1]], (1, 1)), DimensionError,
         "a frame on 2 vertices needs a 2 x 2 dual and normal"),
        (lambda: FacetFrame((0, 1), [[1, 0], [0, 1]], (1, 1, 1)), DimensionError,
         "a frame on 2 vertices needs a 2 x 2 dual and normal"),
    ])
    def test_every_entry_point_takes_integers_only(self, call, error, message):
        # a cast would read 1.5 as 1 and "1" as 1, so a non-integer input could
        # be certified; a bad frame shape would end in numpy's matmul error
        with pytest.raises(error) as exc:
            call()
        assert type(exc.value) is error and str(exc.value) == message

    @pytest.mark.parametrize("make", [
        lambda: [(1, 0), (0, 1), (-1, -1)],
        lambda: [(True, False), (np.int8(0), np.int64(1)), (-1, -1)],
        lambda: np.array([[1, 0], [0, 1], [-1, -1]], dtype=np.int16),
        lambda: iter([[1, 0], [0, 1], [-1, -1]]),
        lambda: [(True, False), (np.uint64(0), np.int32(1)), (-1, -1)],
    ])
    def test_integer_entries_of_any_kind(self, make):
        # each constructor gets a fresh input, so an iterator or a 2-D array reaches it as given
        for p in (make_polytope(make()), Polytope(2, make())):
            assert p.vertices == ((1, 0), (0, 1), (-1, -1)) and p._array.dtype == np.int64
            assert all(type(x) is int for v in p.vertices for x in v)
        m = IntMatrix.from_rows(make())
        assert m.entries == ((1, 0), (0, 1), (-1, -1))
        assert all(type(x) is int for r in m.entries for x in r)
        assert linalg.int_rank(make(), 2) == 2
        rows = list(make())
        assert linalg.determinant(rows[:2]) == 1
        assert linalg.coordinates_in_basis(rows[:2], rows[2]) == (-1, -1)
        assert FacetFrame((0, 1), rows[:2], (1, 1)).coordinates(rows[2]) == (-1, -1)

    def test_entries_beyond_int64_stay_exact(self):
        big = 2**63
        p = Polytope(2, ((big, 0), (0, 1), (-1, -1)))
        assert p.vertices[0] == (big, 0) and p == make_polytope(p.vertices)
        assert linalg.determinant([[big, 0], [np.int64(0), 1]]) == big
        assert IntMatrix.from_rows([[big, 1]]).entries == ((big, 1),)

    @pytest.mark.parametrize("big", [0, 2**31, 2**62, 2**63, 10**20])
    def test_store_dtype(self, big):
        p = make_polytope([(1, 0), (0, 1), (-1 - big, -1)])
        assert p._array.dtype == (np.int64 if p._abs_max < 2**31 else object)
        assert p._abs_max == 1 + big and p.vertices[2] == (-1 - big, -1)

    def test_vertex_tuples_are_built_on_first_use(self):
        p = make_polytope([(1, 0), (0, 1), (-1, -1)])
        assert "vertices" not in p.__dict__
        assert (repr(p), p.n) == ("Polytope(d=2, n=3)", 3) and "vertices" not in p.__dict__
        q = Polytope(2, ((1, 0), (0, 1), (-1, -1)))
        assert "vertices" not in q.__dict__ and "vertices" not in direct_sum(p, q).__dict__
        assert p == q and hash(p) == hash(q) and p.vertices == q.vertices
        assert p != Polytope(2, ((1, 0), (0, 1), (-1, -2))) and p != Polytope(2, ((1, 0), (0, 1)))
        assert pivot(p, special_facet(p), 0)[1] == pivot(q, special_facet(q), 0)[1] == (-1, -1)


def _first_repeat(rows) -> tuple[int, ...] | None:
    """The set walk: the first row, in input order, whose value came before."""
    seen = set()
    for v in map(tuple, rows):
        if v in seen:
            return v
        seen.add(v)
    return None


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.lists(
    st.lists(st.integers(-2, 2), min_size=d, max_size=d), min_size=2, max_size=8)),
       st.sampled_from([0, 2**40, 2**70]))
def test_duplicate_check_names_the_set_walks_vertex(rows, scale):
    # int64 stores (scale 0) and object stores (entries from 2**31 on, and
    # beyond int64)
    rows = [[x * scale or x for x in row] for row in rows]
    want = _first_repeat(rows)
    try:
        make_polytope(rows)
    except DuplicateVertexError as e:
        assert str(e) == f"vertex {want} appears more than once"
        return
    except NotFullDimError:
        pass
    assert want is None


def _points(d: int, k: int, origin: bool):
    """Point lists in dimension d inside an affine subspace of dimension k,
    through the origin when `origin`; k = d is the whole space."""
    coef = st.integers(-2, 2)
    vec = st.tuples(*[coef] * d)
    return st.tuples(st.just((0,) * d) if origin else vec, st.lists(vec, min_size=k, max_size=k),
                     st.lists(st.lists(coef, min_size=k, max_size=k), min_size=1, max_size=3 * d + 1)
                     ).map(lambda t: [tuple(b + sum(c * v[j] for c, v in zip(cs, t[1]))
                                            for j, b in enumerate(t[0])) for cs in t[2]])


class TestFullDim:
    """The gift-wrapped facet proves full dimension; the exact rank decides
    only when n <= d or the gift-wrap fails."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda d: st.tuples(st.integers(0, d), st.booleans()).flatmap(
        lambda kb: _points(d, *kb))))
    def test_matches_exact_rank(self, points):
        d = len(points[0])
        p = Polytope(d, tuple(points))
        assert p._full_dim == (linalg.int_rank([v + (1,) for v in points], d + 1) == d + 1)

    @pytest.mark.parametrize("build", [
        lambda: make_polytope([(1, 0), (0, 1), (2, -1)]),
        lambda: is_smooth_fano(Polytope(2, ((1, 0), (2, 0), (3, 0)))),
    ])
    def test_flat_input_makes_one_rank_call(self, build, monkeypatch):
        ranks = []
        int_rank = linalg.int_rank
        monkeypatch.setattr(linalg, "int_rank", lambda rows, d: ranks.append(d) or int_rank(rows, d))
        try:
            build()
        except NotFullDimError:
            pass
        assert ranks == [3]

    @pytest.mark.parametrize("points", [
        [(1,)], [(1, 0), (0, 1)], [(1, 0), (2, 0)], [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
        [(0, 0, 0, 0)], [(5, -3, 2, 2**70), (1, 1, 1, 1), (0, 2, 0, 2)],
    ])
    def test_at_most_d_points_make_no_rank_call(self, points, monkeypatch):
        # n <= d points span at most an (n - 1)-flat
        ranks = []
        int_rank = linalg.int_rank
        monkeypatch.setattr(linalg, "int_rank", lambda rows, d: ranks.append(d) or int_rank(rows, d))
        p = Polytope(len(points[0]), tuple(points))
        assert not p._full_dim
        assert is_smooth_fano(p).failure_kind == "NotFullDim"
        with pytest.raises(NotFullDimError):
            make_polytope(points)
        assert ranks == []

    @pytest.mark.parametrize("rows, witness", [
        ([(1, 1), (1, -1), (-1, 1), (-1, -1)],
         "FacetNotUnimodular witness=facet (0, 1) has |det| = 2"),
        ([(1, 0), (0, 1), (-1, -2)],
         "FacetNotUnimodular witness=facet (0, 2) has |det| = 2"),
        ([(0, 1), (-1, 0), (-1, 2)],
         "OriginNotInterior witness=all vertices have non-positive first coordinate"),
    ])
    def test_gift_wrap_runs_once(self, rows, witness, monkeypatch):
        calls = []
        initial_raw = polytope._initial_raw
        monkeypatch.setattr(polytope, "_initial_raw", lambda p: calls.append(p) or initial_raw(p))
        p = make_polytope(rows)
        for mode in (Mode.FULL, Mode.LOCAL, Mode.FULL):
            assert is_smooth_fano(p, mode).describe() == "invalid kind=" + witness
        assert len(calls) == 1
        cached = p._cert_cache["initial"]
        if isinstance(cached, FanoError):
            assert cached.__traceback__ is None


class TestArrayGiftWrap:
    """The array gift-wrap against `initial_raw_lists`, the list reference:
    the same record, or the same error."""

    @staticmethod
    def _same(p):
        try:
            want = initial_raw_lists(p)
        except FanoError as e:
            with pytest.raises(type(e)) as exc:
                polytope._initial_raw(p)
            assert str(exc.value) == str(e)
            return
        got = polytope._initial_raw(p)
        assert got.vertex_indices == want.vertex_indices
        assert got.dual.tolist() == want.dual.tolist()
        assert got.dual.dtype == want.dual.dtype
        assert (got.det, got.outer_normal, got.height) == (want.det, want.outer_normal, want.height)

    @pytest.mark.parametrize("name, base", base_instances(), ids=[n for n, _ in base_instances()])
    def test_corpus_and_two_disguises(self, name, base):
        for q in [base] + imaged(base, range(1, 3)):
            self._same(q)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda d: st.tuples(st.integers(0, d), st.booleans()).flatmap(
        lambda kb: _points(d, *kb))))
    def test_point_sets_flat_ones_included(self, points):
        self._same(Polytope(len(points[0]), tuple(points)))

    @staticmethod
    def _spy_fallback(monkeypatch):
        """The polytopes whose start facet's dual `_raw_from_rows` computes."""
        calls = []
        raw_from_rows = polytope._raw_from_rows
        monkeypatch.setattr(polytope, "_raw_from_rows",
                            lambda p, idx: calls.append(p) or raw_from_rows(p, idx))
        return calls

    @pytest.mark.parametrize("m", [40, 120])
    def test_large_sums(self, m, monkeypatch):
        # disguised bundle_b(1)^3 + hexagon^m at d = 89 and 249, where the
        # start facet's dual comes from the gift-wrap's kernel
        calls = self._spy_fallback(monkeypatch)
        p = reduce(direct_sum, [bundle_b(1)] * 3 + [hexagon()] * m)
        self._same(random_image(p, 1))
        assert calls == []

    @pytest.mark.parametrize("factor", [2**20, 2**29, 2**30 - 1, 2**40])
    def test_large_entries(self, factor, monkeypatch):
        # vertices below 2**31 whose products with a kernel row leave the
        # int64 bound mid-wrap (2**29 and up), and object vertices (2**40);
        # `fallbacks` says, per disguise, whether the kernel's rows broke
        # the int64 bound, so that `_raw_from_rows` gave the dual
        fallbacks = [factor > 2**20, True]
        calls = self._spy_fallback(monkeypatch)
        base = direct_sum(bundle_b(1), direct_sum(hexagon(), example4d()))
        for q, fallback in zip(imaged(base, range(1, 3)), fallbacks):
            rows = [list(v) for v in q.vertices]
            for row in rows:
                row[1] += factor * row[0] + (factor // 3) * row[4]
                row[6] -= factor * row[2]
            sheared = Polytope(q.dim, tuple(map(tuple, rows)))
            assert (sheared._array.dtype == object) == (sheared._abs_max >= 2**31)
            calls.clear()
            self._same(sheared)
            assert calls == [sheared] * fallback


@pytest.mark.parametrize("x", [2**31 - 1, -(2**31 - 1), 2**31, -2**31,
                               2**63 - 1, -2**63, 2**64, -2**64])
def test_exact_vertex_array_boundaries(x):
    # -2**63 fits int64 but np.abs overflows on it; 2**64 fits no int64
    rows = ((x, 1), (0, -1), (1, 0))
    p = Polytope(2, rows)
    hi = max(abs(a) for row in rows for a in row)
    assert p._abs_max == hi and type(p._abs_max) is int
    assert p._array.dtype == (np.int64 if hi < 2**31 else object)
    assert p._array.tolist() == [list(row) for row in rows]


# entries on both sides of the int64 store's bound 2**31 and beyond 2**62
_STORE_ENTRIES = st.one_of(st.integers(-2, 2), st.sampled_from(
    [s * b for b in (2**31 - 1, 2**31, 2**62 + 1, 2**63, 10**20) for s in (1, -1)]))


class TestStoreRule:
    """Every way to build a polytope keeps one store: int64 below 2**31,
    exact ints otherwise."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda d: st.lists(
        st.tuples(*[_STORE_ENTRIES] * d), min_size=d + 1, max_size=d + 3, unique=True)))
    def test_constructors_keep_one_store(self, rows):
        d = len(rows[0])
        p = Polytope(d, tuple(rows))
        assert "vertices" not in p.__dict__
        try:
            q = make_polytope(rows)
        except FanoError:
            return  # not full-dimensional: no file to round-trip
        r = parse_fano(serialize_fano(q))
        for other in (q, r):
            assert other._array.dtype == p._array.dtype and other._abs_max == p._abs_max
            assert np.array_equal(other._array, p._array)
        assert p._array.dtype == (np.int64 if p._abs_max < 2**31 else object)
        assert p.vertices == tuple(rows)

    @pytest.mark.parametrize("big", [1, 2**31 - 1, 2**31, 2**63, 10**20])
    @pytest.mark.parametrize("first", [True, False])
    def test_direct_sum_matches_tuple_padding(self, big, first):
        small, large = hexagon(), Polytope(2, ((big, 1), (0, -1), (-1, 0)))
        p, q = (large, small) if first else (small, large)
        got, want = direct_sum(p, q), direct_sum_tuples(p, q)
        assert "vertices" not in got.__dict__
        assert got._array.dtype == want._array.dtype == (np.int64 if big < 2**31 else object)
        assert got == want and got._abs_max == want._abs_max and got.vertices == want.vertices
        assert direct_sum(got, got) == direct_sum_tuples(want, want)


class TestFacetEnumeration:
    def test_hexagon_has_six_edges(self):
        assert len(enumerate_facets(hexagon())) == 6

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_simplex_facet_count(self, d):
        assert len(enumerate_facets(simplex(d))) == d + 1

    def test_bundle_facet_count(self):
        # simplicial 3-polytope with 8 vertices: Euler gives 2*8 - 4 facets
        assert len(enumerate_facets(bundle_b(1))) == 12

    def test_facets_support_polytope(self):
        p = example4d()
        for f in enumerate_facets(p):
            levels = p.products(f.outer_normal)
            assert max(levels) == 1
            on = [i for i, v in enumerate(levels) if v == 1]
            assert tuple(on) == f.vertex_indices

    def test_dual_basis_is_dual(self):
        p = hexagon()
        for f in enumerate_facets(p):
            for i, vi in enumerate(f.vertex_indices):
                coords = f.coordinates(p.vertices[vi])
                assert coords == tuple(1 if j == i else 0 for j in range(p.dim))


class TestPivot:
    def test_hexagon_pivot(self):
        p = hexagon()
        f = frame_from_indices(p, [0, 1])  # {e1, e2}
        neigh, opp = pivot(p, f, 0)
        assert opp == (-1, 1)
        assert neigh.vertex_indices == (1, 2)  # {e2, -e1+e2}

    def test_example4d_pivot(self):
        p = example4d()
        f = frame_from_indices(p, [0, 1, 2, 3])
        neigh, opp = pivot(p, f, 0)
        assert opp == (-1, -1, 1, 1)

    def test_triangle_pivot(self):
        p = triangle()
        f = frame_from_indices(p, [0, 1])
        neigh, opp = pivot(p, f, 0)
        assert opp == (-1, -1)

    def test_pivot_to_non_unimodular_neighbor(self):
        p = Polytope(2, ((1, 0), (0, 1), (-1, -2)))
        f = frame_from_indices(p, [0, 1])
        with pytest.raises(NotUnimodularError) as info:
            pivot(p, f, 1)
        assert info.value.det == -2
        assert str(info.value) == "neighbor facet across position 1 is not unimodular"
        neigh, opp = pivot(p, f, 0)
        assert opp == (-1, -2)
        assert neigh.vertex_indices == (1, 2)
        assert neigh.outer_normal == (-3, 1)

    def test_pivot_onto_a_vertex_on_the_facet(self):
        # (2, -1) lies on the hyperplane x + y = 1 of the hand-built frame
        # on (1, 0), (0, 1) and is the one minimizer of the ratio rule across
        # ridge 1: the frame's hyperplane carries three vertices
        p = Polytope(2, ((1, 0), (0, 1), (2, -1), (-1, -1)))
        f = FacetFrame((0, 1), IntMatrix.identity(2), (1, 1))
        with pytest.raises(NotSimplicialError) as info:
            pivot(p, f, 1)
        assert str(info.value) == (
            "pivot tie at ridge 1 of facet (0, 1): vertices (2,) are coplanar with the ridge")

    def test_pivot_rejects_a_vertex_off_the_frame(self):
        p = example4d()
        f = frame_from_indices(p, [0, 1, 2, 3])
        with pytest.raises(VertexIndexError) as info:
            pivot(p, f, 4)
        assert str(info.value) == "vertex 4 is not on facet (0, 1, 2, 3)"

    @pytest.mark.parametrize("indices, message", [
        ([0, 2, 5, -1], "vertex index -1 is out of range for 10 vertices"),
        ([0, 2, 5, 10], "vertex index 10 is out of range for 10 vertices"),
        ([0, 2, 2, 5], "vertex index 2 appears more than once"),
    ])
    def test_frame_from_indices_rejects_bad_indices(self, indices, message):
        with pytest.raises(VertexIndexError) as info:
            frame_from_indices(example4d(), indices)
        assert str(info.value) == message

    @pytest.mark.parametrize("indices, message", [
        ([0.9, 1.2], "indices entry 0 is not an integer: 0.9"),
        (["0", "1"], "indices entry 0 is not an integer: '0'"),
        ([0, np.float64(1)], "indices entry 1 is not an integer: np.float64(1.0)"),
    ])
    def test_frame_from_indices_takes_integers_only(self, indices, message):
        # int() would truncate 0.9 and 1.2 to facet (0, 1) and read "0"
        with pytest.raises(TypeError) as info:
            frame_from_indices(hexagon(), indices)
        assert str(info.value) == message
        assert frame_from_indices(hexagon(), [np.int64(1), False]).vertex_indices == (0, 1)

    def test_pivot_involution(self):
        p = example4d()
        for f in enumerate_facets(p):
            for v in f.vertex_indices:
                neigh, opp = pivot(p, f, v)
                back, back_opp = pivot(p, neigh, p.index_of(opp))
                assert back == f
                assert p.index_of(back_opp) == v

    def test_opposite_has_coordinate_minus_one(self):
        for p in (hexagon(), pentagon(), example4d(), bundle_b(1)):
            for f in enumerate_facets(p):
                for v in f.vertex_indices:
                    _, opp = pivot(p, f, v)
                    pos = f.position_of(v)
                    assert f.coordinates(opp)[pos] == -1


class TestSmoothFano:
    def test_hexagon_valid(self):
        cert = is_smooth_fano(hexagon())
        assert cert.valid
        assert cert.facet_count == 6

    def test_square_not_unimodular(self):
        cert = is_smooth_fano(square())
        assert not cert.valid
        assert cert.failure_kind == "FacetNotUnimodular"

    def test_origin_not_interior(self):
        p = make_polytope([(1, 0), (0, 1), (1, 1)])
        cert = is_smooth_fano(p)
        assert not cert.valid
        assert cert.failure_kind == "OriginNotInterior"

    def test_origin_on_boundary(self):
        p = make_polytope([(1, 0), (-1, 0), (0, 1)])
        cert = is_smooth_fano(p)
        assert not cert.valid
        assert cert.failure_kind == "OriginNotInterior"

    def test_non_simplicial_detected(self):
        # octahedron facets have 3 vertices in d=3, but the cube's do not
        cube = make_polytope([(a, b, c) for a in (1, -1) for b in (1, -1) for c in (1, -1)])
        cert = is_smooth_fano(cube)
        assert not cert.valid
        assert cert.failure_kind == "FacetNotSimplex"
        assert cert.describe() == (
            "invalid kind=FacetNotSimplex witness=initial supporting hyperplane "
            "contains 4 vertices: (0, 1, 2, 3)"
        )
        # a triangular prism: the gift-wrapped triangle's |det| = 3 is found
        # before its square facets, in both modes
        prism = make_polytope([(1, 1, 0), (1, 0, 1), (1, -1, -1),
                               (-1, 1, 0), (-1, 0, 1), (-1, -1, -1)])
        for mode in Mode:
            assert is_smooth_fano(prism, mode).describe() == (
                "invalid kind=FacetNotUnimodular witness=facet (0, 1, 2) has |det| = 3"
            )
        # a hexagon with three collinear vertices: its start facet is
        # unimodular, and the enumeration meets the long edge as a pivot tie
        flat = make_polytope([(-2, -2), (-1, -2), (-1, -1), (-1, 2), (0, 1), (1, -2)])
        assert is_smooth_fano(flat).describe() == (
            "invalid kind=FacetNotSimplex witness=pivot tie at ridge 0 of facet "
            "(4, 5): vertices (0, 1) are coplanar with the ridge"
        )

    def test_local_mode_agrees_on_valid_instances(self):
        for p in (hexagon(), pentagon(), simplex(3), example4d(), bundle_b(1)):
            assert is_smooth_fano(p, Mode.FULL).valid
            assert is_smooth_fano(p, Mode.LOCAL).valid

    def test_local_mode_catches_bad_initial_facet(self):
        cert = is_smooth_fano(square(), Mode.LOCAL)
        assert not cert.valid

    @pytest.mark.parametrize("mode", [Mode.FULL, Mode.LOCAL])
    def test_flat_vertex_set_certificate(self, mode):
        # built directly, so make_polytope's rank check never sees it
        cert = is_smooth_fano(Polytope(2, ((1, 0), (2, 0), (3, 0))), mode)
        assert not cert.valid
        assert cert.failure_kind == "NotFullDim"
        assert cert.witness == "vertex set does not span"


class TestVertexSumAndSpecialFacet:
    def test_hexagon_sum_zero(self):
        assert vertex_sum(hexagon()) == (0, 0)

    def test_example4d_sum_zero(self):
        assert vertex_sum(example4d()) == (0, 0, 0, 0)

    def test_bundle_sum(self):
        assert vertex_sum(bundle_b(1)) == (0, 0, 1)

    def test_sum_beyond_int64(self):
        p = Polytope(2, ((2**62, 1), (2**62, -3), (-1, 2**70)))
        assert vertex_sum(p) == (2**63 - 1, 2**70 - 2)

    def test_special_facet_gamma_nonnegative(self):
        for p in (hexagon(), pentagon(), simplex(2), example4d(), bundle_b(1), bundle_b(2)):
            f = special_facet(p)
            s = vertex_sum(p)
            gamma = f.coordinates(s)
            assert all(g >= 0 for g in gamma)
            # gamma really are the coordinates of the vertex sum
            recon = [0] * p.dim
            for g, vi in zip(gamma, f.vertex_indices):
                for t, x in enumerate(p.vertices[vi]):
                    recon[t] += g * x
            assert tuple(recon) == s

    def test_example4d_standard_facet_is_special(self):
        p = example4d()
        f = frame_from_indices(p, [0, 1, 2, 3])
        assert all(g >= 0 for g in f.coordinates(vertex_sum(p)))

    @pytest.mark.parametrize("entries, dtype", [
        (((2, -1, 0), (0, 3, 1), (-4, 0, 5)), np.int64),
        (((2**63, 1, -5), (3, -2**70, 0), (1, 1, 2**64)), object),
    ])
    def test_coordinates_are_exact(self, entries, dtype):
        # a hand-built frame: any integer dual basis, its outer normal unused
        f = FacetFrame((0, 1, 2), IntMatrix(entries), (1, 1, 1))
        assert f.dual.dtype == dtype
        assert f.dual_basis == IntMatrix(entries) == IntMatrix.from_rows(f.dual.tolist())
        for x in ((1, 2, 3), (0, 0, 0), (2**70, -2**65, 7), [-(2**63), 2**62, -1]):
            assert f.coordinates(x) == f.dual_basis.matvec(x)
        with pytest.raises(DimensionError):
            f.coordinates((1, 2))

    @pytest.mark.parametrize("x, message", [
        ((0.5, 1.5), "x entry 0 is not an integer: 0.5"),
        ((1, "2"), "x entry 1 is not an integer: '2'"),
        (np.array([1.0, 2.0]), "x entry 0 is not an integer: np.float64(1.0)"),
    ])
    def test_coordinates_take_integers_only(self, x, message):
        # numpy would cast (0.5, 1.5) to (0, 1)
        f = frame_from_indices(hexagon(), [0, 1])
        with pytest.raises(TypeError) as info:
            f.coordinates(x)
        assert str(info.value) == message
        assert f.coordinates(np.array([2, -3])) == f.coordinates((2, -3)) == (2, -3)

    def test_coordinates_are_exact_at_large_dimension(self):
        # from d = 80 on, one row's products touch only its nonzero columns
        for _, p in large_sums():
            f = special_facet(p)
            big = tuple(2**63 if j % 7 == 0 else -j for j in range(p.dim))
            for x in (vertex_sum(p), p.vertices[0], p.vertices[-1], big):
                assert f.coordinates(x) == f.dual_basis.matvec(x)

    def test_special_facet_requires_validity(self):
        with pytest.raises(NotSmoothFanoError):
            special_facet(square())


class TestPicard:
    def test_hexagon(self):
        assert picard_number(hexagon()) == 4

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_simplex(self, d):
        assert picard_number(simplex(d)) == 1

    def test_bundle(self):
        assert picard_number(bundle_b(1)) == 5

    def test_deficit(self):
        assert vertex_deficit(example4d()) == 2
        assert vertex_deficit(hexagon()) == 0


class TestAgainstBruteForceOracle:
    """Pivot-based enumeration must agree with exhaustive subset enumeration."""

    @pytest.mark.parametrize("build", [hexagon, pentagon, lambda: simplex(1),
                                       lambda: simplex(2), lambda: simplex(3),
                                       example4d, lambda: bundle_b(1)])
    def test_facets_and_neighbors_match(self, build):
        p = build()
        frames = enumerate_facets(p)
        expected = brute_facets(p)
        assert {f.vertex_indices for f in frames} == set(expected)
        for f in frames:
            opposites = opposite_indices(p, f)
            for j, v in enumerate(f.vertex_indices):
                neigh, opp = pivot(p, f, v)
                oracle_neigh, oracle_opp = brute_neighbor(expected, f.vertex_indices, v)
                assert neigh.vertex_indices == oracle_neigh
                assert p.index_of(opp) == oracle_opp
                assert opposites[j] == oracle_opp


def _record(rows):
    """The sorted record of a nonsingular integer basis."""
    return _raw_from_rows(Polytope(len(rows), tuple(map(tuple, rows))), range(len(rows)))


def _shears(rng, d, steps):
    m = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(steps):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-2, -1, 1, 2))
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return m


class TestNeighborUpdate:
    """The array rank-1 update against the row-by-row tuple reference."""

    def check(self, rows, x, pos, target=99):
        """Cross position `pos` of the record of `rows` onto the point x."""
        raw = _record(rows)
        dual = tuple(map(tuple, raw.dual.tolist()))
        ct = [linalg.dot(u, x) for u in dual]
        new = _neighbor_raw(raw, ct, pos, target)
        expected = neighbor_raw_tuples(raw.vertex_indices, dual, raw.det, ct, pos, target)
        got = tuple(map(tuple, new.dual.tolist()))
        assert (new.vertex_indices, got, new.det, new.outer_normal, new.height) == expected
        # the new rows are the scaled dual of the new basis
        basis = [x if w == pos else row for w, row in enumerate(rows)]
        for i, u in enumerate(got):
            assert [linalg.dot(u, b) for b in basis] == [new.det * (i == j) for j in range(len(rows))]
        assert new.dual_max == max(abs(a) for row in got for a in row)
        assert (new.dual.dtype == object) == (new.dual_max >= linalg._I64_SAFE)
        return raw, ct, new

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 9), st.integers(0, 2**32))
    def test_unimodular_records(self, d, seed):
        rng = random.Random(seed)
        rows = _shears(rng, d, 3 * d)
        pos = rng.randrange(d)
        ct = [rng.randint(-3, 3) for _ in range(d)]
        ct[pos] = rng.choice((-1, 1))
        x = [sum(c * row[t] for c, row in zip(ct, rows)) for t in range(d)]
        _, _, new = self.check(rows, x, pos)
        assert new.det == 1 and new.dual.dtype == np.int64

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 7), st.integers(0, 2**32))
    def test_records_with_det_above_one(self, d, seed):
        rng = random.Random(seed)
        rows = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(d)]
        if linalg.determinant(rows) in (-1, 0, 1):
            return
        x = [rng.randint(-5, 5) for _ in range(d)]
        raw = _record(rows)
        pos = next((j for j, u in enumerate(raw.dual.tolist()) if linalg.dot(u, x)), None)
        if pos is not None:
            self.check(rows, x, pos)

    def test_update_crosses_from_int64_to_exact_ints(self):
        # an int64 record whose update fails the product bound, and whose
        # neighbor fits int64 again
        rng = random.Random(3)
        rows = [[rng.randint(-2**10, 2**10) for _ in range(4)] for _ in range(4)]
        x = [rng.randint(-2**10, 2**10) for _ in range(4)]
        raw, ct, new = self.check(rows, x, 1)
        assert raw.dual.dtype == np.int64 and raw.det > 1
        assert not linalg._products_fit(max(map(abs, ct)), raw.dual_max, 2)
        assert new.dual.dtype == np.int64
        # an int64 record whose neighbor does not fit int64
        rows = [[rng.randint(-2**12, 2**12) for _ in range(5)] for _ in range(5)]
        x = [rng.randint(-2**40, 2**40) for _ in range(5)]
        raw, _, new = self.check(rows, x, 2)
        assert raw.dual.dtype == np.int64 and new.dual.dtype == object
        # a record of exact ints, crossed on
        rows = [[rng.randint(-2**13, 2**13) for _ in range(6)] for _ in range(6)]
        raw, _, new = self.check(rows, [rng.randint(-9, 9) for _ in range(6)], 0)
        assert raw.dual.dtype == object

    def test_pivot_at_d100_matches_frame_from_indices(self):
        p = random_image(direct_sum(example4d(), reduce(direct_sum, [hexagon()] * 48)), 5)
        assert p.dim == 100
        f = special_facet(p)
        hand_built = FacetFrame(f.vertex_indices, f.dual_basis, f.outer_normal)
        for z in f.vertex_indices[::17]:
            neigh, opp = pivot(p, f, z)
            assert neigh == frame_from_indices(p, neigh.vertex_indices)
            assert set(neigh.vertex_indices) - set(f.vertex_indices) == {p.index_of(opp)}
            assert pivot(p, hand_built, z) == (neigh, opp)
            # a pivot from a pivoted frame crosses back
            back, back_opp = pivot(p, neigh, p.index_of(opp))
            assert back == f and p.index_of(back_opp) == z


def _outcome(enumerate_raw, p: Polytope):
    """Every record of `enumerate_raw` on a fresh copy of p, field by field
    with the dtype of its dual, or the type and message of its error."""
    try:
        raws = enumerate_raw(Polytope(p.dim, p.vertices))
    except FanoError as e:
        return type(e), str(e)
    return [(r.vertex_indices, r.dual.dtype, r.dual.tolist(), r.det, r.outer_normal, r.height,
             r.dual_max) for r in raws]


def _sheared(p: Polytope, factor: int) -> Polytope:
    """p under the shear x_1 += factor * x_0."""
    return Polytope(p.dim, tuple((v[0], v[1] + factor * v[0], *v[2:]) for v in p.vertices))


# disguises of small bases for the property test: the valid half of its inputs
_SMALL_BASES = [p for _, p in base_instances() if p.dim <= 4]


class TestLayerEnumeration:
    """The layer enumeration against the per-facet loop of `tests/oracle.py`:
    the same records in the same order, each with the same dual dtype, and
    the same first error."""

    def check(self, p: Polytope):
        got = _outcome(_enumerate_raw, p)
        assert got == _outcome(enumerate_raw_per_facet, p)
        return got

    @pytest.mark.parametrize("name, base", base_instances(), ids=[n for n, _ in base_instances()])
    def test_corpus_and_two_disguises(self, name, base):
        for q in [base] + imaged(base, range(1, 3)):
            assert isinstance(self.check(q), list)

    @pytest.mark.parametrize("rows, error", [
        # cube: the gift-wrap meets a square
        ([(a, b, c) for a in (1, -1) for b in (1, -1) for c in (1, -1)], NotSimplicialError),
        # triangular prism: a pivot tie at a square facet
        ([(1, 1, 0), (1, 0, 1), (1, -1, -1), (-1, 1, 0), (-1, 0, 1), (-1, -1, -1)],
         NotSimplicialError),
        # the interior-point file: (0, 0) is on no facet
        ([(1, 0), (0, 1), (-1, -1), (0, 0)], NotAVertexError),
        # complete, through a facet with |det| = 2
        ([(1, 0), (0, 1), (-1, -2)], None),
        # complete, dividing the rows of |det| = 2 facets by their det
        ([(-2, -2), (-1, 1), (2, 0)], None),
    ])
    def test_invalid_inputs(self, rows, error):
        got = self.check(make_polytope(rows))
        if error is None:
            assert max(r[3] for r in got) > 1
        else:
            assert got[0] is error

    @pytest.mark.parametrize("factor", [2**40, 2**70])
    def test_object_layers(self, factor):
        # 2**40 vertex entries make every layer's coordinates object ints;
        # the records' duals stay int64 below 2**62 and are object ints above
        for base in (bundle_b(1), example4d()):
            p = _sheared(random_image(base, 3), factor)
            assert p._array.dtype == object
            dtypes = {r[1] for r in self.check(p)}
            assert dtypes == ({np.dtype(np.int64)} if factor < 2**62 else {np.dtype(object)})

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        st.tuples(st.sampled_from(_SMALL_BASES), st.integers(0, 2**32)).map(
            lambda bs: random_image(*bs)),
        st.integers(1, 4).flatmap(lambda d: st.sets(
            st.tuples(*[st.integers(-2, 2)] * d), min_size=d + 1, max_size=d + 4))))
    def test_random_point_sets(self, case):
        if isinstance(case, Polytope):
            assert isinstance(self.check(case), list)
            return
        try:
            p = make_polytope(sorted(case))
        except FanoError:
            return
        self.check(p)

    def test_neighbor_check_failure(self, monkeypatch):
        # a wrong update: every new record's det doubled, so that its
        # hyperplane lies below all its vertices
        crossed = polytope._crossed
        monkeypatch.setattr(polytope, "_crossed",
                            lambda *args: (lambda rows, det: (rows, 2 * det))(*crossed(*args)))
        with pytest.raises(NotSimplicialError) as exc:
            _enumerate_raw(simplex(2))
        assert str(exc.value) == "hyperplane through facet (1, 2) contains 0 vertices: ()"


class TestRatioTargets:
    """The array ratio rule against `_min_ratio` on every column."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 8).flatmap(lambda n: st.tuples(
        st.lists(st.integers(-6, 0), min_size=n, max_size=n),
        st.lists(st.lists(st.integers(-4, 3), min_size=n, max_size=n), min_size=1, max_size=4))))
    def test_matches_min_ratio(self, case):
        gaps, columns = case
        cols = np.array(columns).T
        for dtype in (np.int64, object):
            best, _, odd = _ratio_targets(np.array(gaps, dtype=dtype)[:, None], cols.astype(dtype))
            for j, column in enumerate(columns):
                # (0 - gap) / -x over x < 0 is gap / x
                wins = _min_ratio(enumerate(column), gaps, 0)
                assert best[j] == (wins[0] if wins else -1)
                assert odd.get((j,), wins) == wins


class TestOneRecord:
    """A frame is the facet record itself: the public constructor, the
    `IntMatrix` view of its array and the enumeration cache agree on it."""

    @pytest.mark.parametrize("name, base", base_instances(), ids=[n for n, _ in base_instances()])
    def test_corpus_and_one_disguise(self, name, base):
        for p in [base] + imaged(base, range(1, 2)):
            frames = enumerate_facets(p)
            assert all(a is b for a, b in zip(frames, enumerate_facets(p), strict=True))
            for f in frames:
                hand_built = FacetFrame(f.vertex_indices, f.dual_basis, f.outer_normal)
                assert hand_built == f and hash(hand_built) == hash(f)
                assert f.dual_basis == IntMatrix.from_rows(f.dual.tolist())
                assert [f.position_of(v) for v in f.vertex_indices] == list(range(p.dim))


class TestCertifyByDecomposition:
    """The certificate proves each free summand alone; it must agree with
    enumerating every facet of the whole polytope and with the brute oracle."""

    @pytest.mark.parametrize("name, base", base_instances())
    def test_matches_monolithic_enumeration(self, name, base):
        for p in [base] + imaged(base, range(1, 3)):
            cert = is_smooth_fano(p, Mode.FULL)
            raws = _enumerate_raw(p)
            assert cert.valid == all(raw.det == 1 for raw in raws)
            assert cert.facet_count == len(raws)

    def test_proof_kinds(self):
        b = bundle_b(1)
        b4 = direct_sum(direct_sum(b, b), direct_sum(b, b))
        assert is_smooth_fano(b).describe() == "valid mode=full proof=full facets=12"
        assert is_smooth_fano(random_image(b4, 1), Mode.LOCAL).describe() == (
            "valid mode=local proof=by-decomposition facets=20736")
        big = direct_sum(simplex(13), direct_sum(simplex(14), hexagon()))
        cert = is_smooth_fano(big, Mode.LOCAL)
        assert (cert.proof, cert.unproven_dim, cert.facet_count) == (
            Proof.LOCAL_UNPROVEN, 14, None)
        assert cert.describe() == "valid mode=local proof=local-unproven"
        assert is_smooth_fano(big, Mode.FULL).facet_count == 14 * 15 * 6

    def test_summands_need_no_rank_check(self, monkeypatch):
        # each block holds a lattice basis of its own coordinates
        b = bundle_b(1)
        p = random_image(direct_sum(direct_sum(b, simplex(13)), pentagon()), 2)
        p = Polytope(p.dim, p.vertices)
        ranks = []
        int_rank = linalg.int_rank
        monkeypatch.setattr(linalg, "int_rank", lambda rows, d: ranks.append(d) or int_rank(rows, d))
        assert is_smooth_fano(p, Mode.LOCAL).unproven_dim == 13
        assert ranks == []

    def test_one_gift_wrap_per_input(self, monkeypatch):
        # every summand starts at its block of the input's start facet
        calls = []
        initial_raw = polytope._initial_raw
        monkeypatch.setattr(polytope, "_initial_raw", lambda p: calls.append(p) or initial_raw(p))
        p = random_image(reduce(direct_sum, [bundle_b(1), pentagon(), simplex(2), hexagon()]), 1)
        p = Polytope(p.dim, p.vertices)
        for mode in Mode:
            assert is_smooth_fano(p, mode).describe() == (
                f"valid mode={mode.value} proof=by-decomposition facets=1080")
        summands = free_summands(p)
        facets = [enumerate_facets(q) for q in summands]
        normal_form(p)
        assert calls == [p]
        assert [(q.dim, q.n) for q in summands] == [(3, 8), (2, 6), (2, 3), (2, 5)]
        for q, frames in zip(summands, facets):
            seed = q._cert_cache["initial"]
            units = IntMatrix.identity(q.dim)
            assert tuple(q.vertices[i] for i in seed.vertex_indices) == units.entries
            assert (seed.dual_basis, seed.outer_normal, seed.det, seed.height, seed.dual_max) == (
                units, (1,) * q.dim, 1, 1, 1)
            assert seed in frames
            assert is_smooth_fano(q).describe() == f"valid mode=full proof=full facets={len(frames)}"
        assert calls == [p]

    def test_blocks_need_no_start_facet_check(self, monkeypatch):
        # P's own start-facet check already holds for each block's start facet
        checked = []
        check_facet = polytope._check_facet
        monkeypatch.setattr(polytope, "_check_facet",
                            lambda q, raw: checked.append(q) or check_facet(q, raw))
        b = bundle_b(1)
        p = random_image(reduce(direct_sum, [b, b, pentagon(), hexagon()]), 1)
        p = Polytope(p.dim, p.vertices)
        assert is_smooth_fano(p).describe() == "valid mode=full proof=by-decomposition facets=4320"
        assert checked == [p]

    @pytest.mark.parametrize("build", [lambda: bundle_b(2), lambda: direct_sum(bundle_b(1), hexagon())])
    def test_validated_polytope_is_freed_without_a_collection(self, build):
        # no cache entry refers back to its polytope, so reference counting
        # frees it with its facet records, irreducible or not
        p = random_image(build(), 1)
        p = Polytope(p.dim, p.vertices)
        for mode in Mode:
            assert is_smooth_fano(p, mode).valid
        free_summands(p)
        polytope.free_sum(p)
        alive = weakref.ref(p)
        gc.disable()
        try:
            del p
            assert alive() is None
        finally:
            gc.enable()

    # one failing summand per failure kind, next to a hexagon
    @pytest.mark.parametrize("rows, witness", [
        ([(1, 0), (0, 1), (-1, -2)],
         "FacetNotUnimodular witness=factor on vertices (0, 1, 2): "
         "facet (0, 2) has |det| = 2"),
        ([(-2, 1), (-1, 1), (0, 1), (1, 0)],
         "OriginNotInterior witness=factor on vertices (0, 1, 2, 3): "
         "no vertex below ridge 0 of facet (2, 3)"),
        ([(-1, -1), (1, -1), (0, 1), (0, -1)],
         "FacetNotSimplex witness=factor on vertices (0, 1, 2, 3): "
         "pivot tie at ridge 1 of facet (1, 2): vertices (0, 3) are coplanar with the ridge"),
        ([(1, -1), (1, 0), (2, -1)],
         "OriginNotInterior witness=factor on vertices (0, 1, 2): "
         "no vertex below ridge 1 of facet (0, 2)"),
        ([(-2, -2), (0, -1), (1, 1)],
         "OriginNotInterior witness=factor on vertices (1,): "
         "every vertex lies on the hyperplane of facet (1, 2, 5, 7)"),
        ([(-2, -2), (-1, -1), (0, 1), (1, -2)],
         "NotAVertex witness=factor on vertices (0, 1, 2, 3): "
         "points at indices (1,) are not vertices of the hull"),
    ])
    @pytest.mark.parametrize("mode", list(Mode))
    def test_failing_factor_keeps_its_kind(self, rows, witness, mode, monkeypatch):
        p = direct_sum(Polytope(2, tuple(rows)), hexagon())
        ranks = []
        int_rank = linalg.int_rank
        monkeypatch.setattr(linalg, "int_rank", lambda rows, d: ranks.append(d) or int_rank(rows, d))
        assert is_smooth_fano(p, mode).describe() == "invalid kind=" + witness
        assert ranks == []

    # The kind is the first failure met from the input's own gift-wrapped
    # start facet, not a lattice invariant: the disguises of rows 2 and 6
    # fail at the gift-wrap (a non-simplicial or non-unimodular start facet)
    # before any summand is met, where the plain sums fail in their summand.
    @pytest.mark.parametrize("rows, witness", zip(FAILING_FACTORS, [
        "FacetNotUnimodular witness=factor on vertices (0, 1, 6): facet (0, 2) has |det| = 2",
        "FacetNotSimplex witness=initial supporting hyperplane contains 5 vertices: "
        "(0, 1, 2, 3, 6)",
        "FacetNotSimplex witness=factor on vertices (0, 1, 6, 8): "
        "pivot tie at ridge 1 of facet (1, 2): vertices (0, 3) are coplanar with the ridge",
        "OriginNotInterior witness=factor on vertices (0, 1, 6): "
        "no vertex below ridge 1 of facet (1, 2)",
        "OriginNotInterior witness=factor on vertices (1,): "
        "every vertex lies on the hyperplane of facet (1, 2, 4, 6)",
        "FacetNotUnimodular witness=facet (1, 2, 3, 6) has |det| = 2",
    ], strict=True))
    @pytest.mark.parametrize("mode", list(Mode))
    def test_disguised_failing_factor_kind(self, rows, witness, mode):
        p = random_image(direct_sum(Polytope(2, tuple(rows)), hexagon()), 1)
        assert is_smooth_fano(p, mode).describe() == "invalid kind=" + witness

    @pytest.mark.parametrize("mode", list(Mode))
    def test_origin_row_is_not_a_vertex(self, mode):
        p = Polytope(13, simplex(13).vertices + ((0,) * 13,))
        assert is_smooth_fano(p, mode).describe() == (
            "invalid kind=NotAVertex witness=points at indices (14,) are not "
            "vertices of the hull")

    # coordinates in [-1, 1] make valid sets common, [-2, 2] adds failures
    @settings(max_examples=150, deadline=None)
    @given(st.tuples(st.integers(1, 3), st.integers(1, 2)).flatmap(lambda db: st.tuples(
        st.sets(st.tuples(*[st.integers(-db[1], db[1])] * db[0]),
                min_size=db[0] + 1, max_size=db[0] + 3),
        st.booleans())))
    def test_matches_brute_oracle(self, case):
        points, plus_hexagon = case
        try:
            p = make_polytope(sorted(points))
        except FanoError:
            return
        if plus_hexagon:
            p = direct_sum(p, hexagon())
        cert = is_smooth_fano(p)
        assert cert.valid == brute_valid(p)
        assert is_smooth_fano(p, Mode.LOCAL).valid == cert.valid
        if cert.valid:
            assert cert.facet_count == len(brute_facets(p))
        else:
            assert cert.failure_kind and cert.witness
