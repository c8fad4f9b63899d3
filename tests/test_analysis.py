from __future__ import annotations

import pytest

from fanosplit.analysis import goodness_partition, levels_and_eta, opposites, phi_map
from fanosplit.errors import NotSpecialFacetError
from fanosplit.generators import bundle_b, example4d, hexagon
from fanosplit.polytope import Mode, frame_from_indices, make_polytope, special_facet

from corpus import reference_instances
from oracle import negated_by_lookup, pair_orbit


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
    """The partition's levels, eta, negations and orbits against the rules
    they replace, on every reference instance."""

    def test_every_reference_instance(self):
        for name, p in reference_instances():
            f = special_facet(p, Mode.LOCAL)
            g = goodness_partition(p, f)
            levels, eta = levels_and_eta(p, f)
            assert g.levels == tuple(levels[i] for i in range(p.n)), name
            assert g.eta == eta, name
            assert set(g.negation) == g.a_prime, name
            negated = set(g.negation.values())
            for i in range(p.n):
                assert (i in negated) == negated_by_lookup(p, g, i), (name, i)
            assert tuple(g.orbits) == g.bar_pairs, name
            for (v, w), orbit in g.orbits.items():
                assert orbit == pair_orbit(p, v, w), (name, v, w)
