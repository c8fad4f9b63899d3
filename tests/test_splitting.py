from __future__ import annotations

import random

import pytest

from fanosplit.analysis import goodness_partition
from fanosplit.equivalence import are_equivalent
from fanosplit.generators import (
    bundle_b,
    example4d,
    hexagon,
    pentagon,
    random_image,
    simplex,
)
from fanosplit.polytope import Mode, special_facet, vertex_deficit
from fanosplit.splitting import (
    clean_pairs,
    direct_sum,
    finest_split,
    guaranteed_hexagons,
    hexagon_split,
    split_threshold,
)

from corpus import base_instances


def power_sum(p, m):
    out = p
    for _ in range(m - 1):
        out = direct_sum(out, p)
    return out


class TestDirectSum:
    def test_counts_add(self):
        s = direct_sum(hexagon(), hexagon())
        assert (s.dim, s.n) == (4, 12)

    def test_cross_polytope(self):
        s = direct_sum(simplex(1), simplex(1))
        assert set(s.vertices) == {(1, 0), (-1, 0), (0, 1), (0, -1)}

    def test_deficit_of_mixed_sum(self):
        s = direct_sum(hexagon(), bundle_b(1))
        assert (s.dim, s.n) == (5, 14)
        assert vertex_deficit(s) == 1


class TestCleanPairs:
    def test_hexagon_single_pair(self):
        p = hexagon()
        f = special_facet(p)
        g = goodness_partition(p, f)
        pairs = clean_pairs(p, f, g)
        assert len(pairs) == 1

    def test_bundle_has_none(self):
        p = bundle_b(1)
        f = special_facet(p)
        g = goodness_partition(p, f)
        assert clean_pairs(p, f, g) == []

    def test_bundle_plus_hexagon_finds_planted_pair(self):
        p = direct_sum(bundle_b(1), hexagon())
        f = special_facet(p)
        g = goodness_partition(p, f)
        pairs = clean_pairs(p, f, g)
        assert len(pairs) == 1
        v, w = pairs[0]
        # the pair spans the planted hexagon block: coordinates 3 and 4
        for i in (v, w):
            assert p.vertices[i][:3] == (0, 0, 0)


class TestHexagonSplit:
    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_hexagon_powers_full(self, m):
        p = power_sum(hexagon(), m)
        dec = hexagon_split(p, Mode.FULL)
        assert dec.hexagon_count == m
        assert dec.residual is None
        assert len(dec.factors) == m

    def test_hexagon_power_local_large(self):
        p = power_sum(hexagon(), 60)
        dec = hexagon_split(p, Mode.LOCAL)
        assert dec.hexagon_count == 60
        assert dec.residual is None

    def test_example4d_trivial(self):
        dec = hexagon_split(example4d())
        assert dec.hexagon_count == 0
        assert dec.residual is not None
        assert dec.residual.polytope.n == 10
        assert dec.residual.polytope.dim == 4

    def test_bundle_plus_hexagons(self):
        p = direct_sum(bundle_b(1), power_sum(hexagon(), 3))
        dec = hexagon_split(p, Mode.FULL)
        assert dec.hexagon_count == 3
        assert dec.residual.polytope.dim == 3
        assert dec.residual.polytope.n == 8

    def test_factors_reassemble(self):
        p = direct_sum(pentagon(), hexagon())
        dec = hexagon_split(p, Mode.FULL)
        # reassembly is asserted internally; spot-check the public pieces
        assert sum(len(f.vertex_indices) for f in dec.factors) == p.n
        assert dec.change_of_basis.rows == p.dim
        from fanosplit.linalg import determinant

        assert abs(determinant(dec.change_of_basis)) == 1

    def test_threshold_arithmetic(self):
        assert split_threshold(3) == 248
        assert guaranteed_hexagons(249, 3) == 1
        assert guaranteed_hexagons(250, 3) == 2

    def test_degenerate_inputs_give_trivial_decomposition(self):
        # no paired core: one residual factor, no error
        for p in (simplex(1), pentagon(), simplex(3)):
            dec = hexagon_split(p)
            assert dec.hexagon_count == 0
            assert len(dec.factors) == 1
            assert dec.factors[0].kind == "residual"
            assert dec.factors[0].polytope.n == p.n

    def test_theorem_violation_formatting(self):
        from fanosplit.errors import TheoremViolationError

        err = TheoremViolationError(249, 3, 0, 1)
        assert "d=249" in str(err)
        assert "guaranteed" in str(err)


class TestFinestSplit:
    def test_double_hexagon(self):
        dec = finest_split(direct_sum(hexagon(), hexagon()))
        assert len(dec.factors) == 2
        assert dec.hexagon_count == 2
        for f in dec.factors:
            assert are_equivalent(f.polytope, hexagon())

    def test_bundle_does_not_split(self):
        dec = finest_split(bundle_b(1))
        assert len(dec.factors) == 1
        assert dec.hexagon_count == 0

    def test_bundle2_does_not_split(self):
        dec = finest_split(bundle_b(2))
        assert len(dec.factors) == 1

    def test_example4d_does_not_split(self):
        dec = finest_split(example4d())
        assert len(dec.factors) == 1

    def test_mixed_sum_recovery(self):
        p = direct_sum(direct_sum(pentagon(), simplex(2)), bundle_b(1))
        dec = finest_split(p)
        assert len(dec.factors) == 3
        expected = [pentagon(), simplex(2), bundle_b(1)]
        remaining = list(expected)
        for f in dec.factors:
            match = next((q for q in remaining if are_equivalent(f.polytope, q)), None)
            assert match is not None
            remaining.remove(match)
        assert not remaining

    def test_disguised_sum_recovery(self):
        rng = random.Random(11)
        parts = [hexagon(), simplex(1), example4d()]
        p = parts[0]
        for q in parts[1:]:
            p = direct_sum(p, q)
        disguised = random_image(p, 99)
        dec = finest_split(disguised)
        assert len(dec.factors) == 3
        remaining = [hexagon(), simplex(1), example4d()]
        for f in dec.factors:
            match = next((q for q in remaining if are_equivalent(f.polytope, q)), None)
            assert match is not None
            remaining.remove(match)
        assert not remaining

    def test_hexagon_kind_matches_lattice_equivalence(self):
        reference = hexagon()
        for name, p in base_instances():
            for q in (p, random_image(p, 1)):
                dec = finest_split(q)
                for f in dec.factors:
                    assert (f.kind == "hexagon") == are_equivalent(f.polytope, reference), name
                assert dec.hexagon_count == sum(f.kind == "hexagon" for f in dec.factors)
