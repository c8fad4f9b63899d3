from __future__ import annotations

import pytest

from fanosplit.errors import (
    DuplicateVertexError,
    NotAVertexError,
    NotFullDimError,
    NotSimplicialError,
    NotSmoothFanoError,
    NotUnimodularError,
)
from fanosplit.generators import bundle_b, example4d, hexagon, pentagon, simplex
from fanosplit.polytope import (
    Mode,
    Polytope,
    enumerate_facets,
    frame_from_indices,
    is_smooth_fano,
    make_polytope,
    opposite_indices,
    picard_number,
    pivot,
    special_facet,
    vertex_deficit,
    vertex_sum,
)

from oracle import brute_facets, brute_neighbor

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
        # a triangular prism: its square facets surface as a pivot tie in
        # FULL mode, while LOCAL sees only the non-unimodular start facet
        prism = make_polytope([(1, 1, 0), (1, 0, 1), (1, -1, -1),
                               (-1, 1, 0), (-1, 0, 1), (-1, -1, -1)])
        assert is_smooth_fano(prism, Mode.FULL).describe() == (
            "invalid kind=FacetNotSimplex witness=pivot tie at ridge 0 of facet "
            "(0, 1, 2): vertices (4, 5) are coplanar with the ridge"
        )
        assert is_smooth_fano(prism, Mode.LOCAL).describe() == (
            "invalid kind=FacetNotUnimodular witness=facet (0, 1, 2) has |det| = 3"
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
