from __future__ import annotations

import numpy as np
import pytest

from fanosplit.analysis import goodness_partition, levels_and_eta, opposites, phi_map
from fanosplit.errors import NotSpecialFacetError
from fanosplit.generators import bundle_b, example4d, hexagon
from fanosplit.polytope import (Mode, enumerate_facets, frame_coords, frame_from_indices,
                                make_polytope, opposite_indices, special_facet)

from corpus import base_instances, reference_instances
from oracle import (levels_by_normal, negated_by_lookup, negation_by_lookup, opposites_by_rows,
                    pair_orbit, phi_by_lookup)


def triangle():
    return make_polytope([(1, 0), (0, 1), (-1, -1)])


def hexagon_frame():
    p = hexagon()
    return p, frame_from_indices(p, [0, 1])


def example4d_frame():
    p = example4d()
    return p, frame_from_indices(p, [0, 1, 2, 3])


class TestLevels:
    def test_hexagon_eta(self):
        p, f = hexagon_frame()
        levels, eta = levels_and_eta(p, f)
        assert (eta.eta(1), eta.eta(0), eta.eta(-1)) == (2, 2, 2)
        assert levels[0] == 1 and levels[4] == -1

    def test_example4d_eta(self):
        p, f = example4d_frame()
        _, eta = levels_and_eta(p, f)
        assert (eta.eta(1), eta.eta(0), eta.eta(-1)) == (4, 2, 4)
        assert eta.k == 2

    def test_triangle_eta(self):
        p = triangle()
        f = frame_from_indices(p, [0, 1])
        _, eta = levels_and_eta(p, f)
        assert eta.eta(1) == 2
        assert eta.eta(-2) == 1
        assert eta.eta(0) == eta.eta(-1) == 0

    def test_coordinate_dtype_follows_the_coordinates(self):
        # vertices beyond 2**31 are exact ints, yet their coordinates are
        # small: int64; a row sum at 2**62 keeps exact ints
        shear = [[1, 2**40], [0, 1]]
        p = make_polytope([[x * shear[0][j] + y * shear[1][j] for j in range(2)]
                           for x, y in hexagon().vertices])
        assert p._array.dtype == object
        f = special_facet(p)
        assert frame_coords(p, f).dtype == np.int64
        assert goodness_partition(p, f).a_bar == set(f.vertex_indices)
        p = make_polytope([(1, 0), (0, 1), (-(2**61), -(2**61))])
        f = frame_from_indices(p, [0, 1])
        assert frame_coords(p, f).dtype == object
        levels, eta = levels_and_eta(p, f)
        assert levels[2] == -(2**62) and eta.eta(-(2**62)) == 1
        assert opposite_indices(p, f) == [2, 2]

    def test_eta_at_every_hexagon_facet(self):
        from fanosplit.polytope import enumerate_facets

        p = hexagon()
        for f in enumerate_facets(p):
            _, eta = levels_and_eta(p, f)
            assert eta.as_pairs() == ((1, 2), (0, 2), (-1, 2))


class TestOpposites:
    def test_hexagon(self):
        p, f = hexagon_frame()
        opp = opposites(p, f)
        assert p.vertices[opp[0]] == (-1, 1)
        assert p.vertices[opp[1]] == (1, -1)

    def test_example4d_shared_opposite(self):
        p, f = example4d_frame()
        opp = opposites(p, f)
        assert p.vertices[opp[0]] == (-1, -1, 1, 1)
        assert opp[0] == opp[1]
        assert p.vertices[opp[2]] == (1, 1, -1, -1)

    def test_triangle(self):
        p = triangle()
        f = frame_from_indices(p, [0, 1])
        opp = opposites(p, f)
        assert p.vertices[opp[0]] == (-1, -1)


class TestPhi:
    def test_hexagon_phi_swaps(self):
        p, f = hexagon_frame()
        phi = phi_map(p, f, opposites(p, f))
        assert phi == {0: 1, 1: 0}

    def test_example4d_phi_vanishes(self):
        p, f = example4d_frame()
        phi = phi_map(p, f, opposites(p, f))
        assert phi == {0: None, 1: None, 2: None, 3: None}

    def test_triangle_phi_vanishes(self):
        p = triangle()
        f = frame_from_indices(p, [0, 1])
        phi = phi_map(p, f, opposites(p, f))
        assert phi == {0: None, 1: None}


class TestGoodnessPartition:
    def test_hexagon_partition(self):
        p, f = hexagon_frame()
        g = goodness_partition(p, f)
        assert g.a == g.a_prime == g.a_bar == {0, 1}
        assert g.b == g.c == frozenset()
        assert g.gamma == (0, 0)
        assert g.bar_pairs == ((0, 1),)
        assert g.levels == (1, 1, 0, 0, -1, -1)
        assert g.negation == {0: 4, 1: 5}
        assert g.orbits == {(0, 1): (0, 1, 2, 3, 4, 5)}

    def test_example4d_partition(self):
        p, f = example4d_frame()
        g = goodness_partition(p, f)
        assert g.b == {0, 1, 2, 3}
        assert g.a == g.c == frozenset()
        assert g.a_bar == frozenset()
        assert len(g.b) == 2 * 2  # |B| = 2k is attained here

    def test_triangle_partition(self):
        p = triangle()
        f = frame_from_indices(p, [0, 1])
        g = goodness_partition(p, f)
        assert g.c == {0, 1}
        assert g.a == g.b == frozenset()

    def test_partition_covers_frame(self):
        for p in (hexagon(), example4d(), bundle_b(1), bundle_b(2)):
            f = special_facet(p)
            g = goodness_partition(p, f)
            assert g.a | g.b | g.c == set(f.vertex_indices)
            assert not (g.a & g.b) and not (g.a & g.c) and not (g.b & g.c)
            assert g.a_bar <= g.a_prime <= g.a

    def test_negation_is_minus_the_vertex_not_a_multiple(self):
        # -2 e_0 is a vertex and -e_0 is not, so (1, 0), in A, has no negation
        p = make_polytope([(1, 0), (0, 1), (-2, 0), (2, -2), (-1, 1)])
        f = frame_from_indices(p, [0, 1])
        g = goodness_partition(p, f)
        assert 0 in g.a
        assert g.negation == negation_by_lookup(p, g.a) == {}
        # nor is (-1, -1, 1), at level -1 with its least entry at e_0
        p = make_polytope([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 1, 0), (-1, -1, 1),
                           (1, 0, -1), (0, -1, -1)])
        f = frame_from_indices(p, [0, 1, 2])
        g = goodness_partition(p, f)
        assert 0 in g.a
        assert g.negation == negation_by_lookup(p, g.a) == {}

    def test_rejects_non_special_facet(self):
        p = bundle_b(1)
        s = (0, 0, 1)
        from fanosplit.polytope import enumerate_facets

        non_special = [
            f for f in enumerate_facets(p)
            if any(g < 0 for g in f.coordinates(s))
        ]
        assert non_special  # the walk has something to do on B_1
        with pytest.raises(NotSpecialFacetError):
            goodness_partition(p, non_special[0])


class TestPartitionMatchesReferences:
    """The partition's levels, eta, opposites, phi, negations and orbits
    against the rules they replace, on every reference instance."""

    def test_every_reference_instance(self):
        for name, p in reference_instances():
            f = special_facet(p, Mode.LOCAL)
            g = goodness_partition(p, f)
            levels, eta = levels_and_eta(p, f)
            assert g.levels == tuple(levels[i] for i in range(p.n)), name
            assert list(g.levels) == levels_by_normal(p, f), name
            assert g.eta == eta, name
            rows = frame_coords(p, f).tolist()
            assert [g.opp[v] for v in f.vertex_indices] == opposites_by_rows(p, f, rows), name
            assert g.phi == phi_by_lookup(p, f, g.opp), name
            assert g.negation == negation_by_lookup(p, g.a), name
            assert set(g.negation) == g.a_prime, name
            negated = set(g.negation.values())
            for i in range(p.n):
                assert (i in negated) == negated_by_lookup(p, g, i), (name, i)
            assert tuple(g.orbits) == g.bar_pairs, name
            for (v, w), orbit in g.orbits.items():
                assert orbit == pair_orbit(p, v, w), (name, v, w)

    def test_every_facet_of_the_bases(self):
        # levels, opposites and phi are defined at every facet, special or not
        for name, p in base_instances():
            if p.dim > 6:
                continue
            for f in enumerate_facets(p):
                rows = frame_coords(p, f).tolist()
                levels, _ = levels_and_eta(p, f)
                assert list(levels.values()) == levels_by_normal(p, f), (name, f)
                opp = opposite_indices(p, f)
                assert opp == opposites_by_rows(p, f, rows), (name, f)
                opp = dict(zip(f.vertex_indices, opp))
                assert phi_map(p, f, opp) == phi_by_lookup(p, f, opp), (name, f)
