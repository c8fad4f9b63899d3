from __future__ import annotations

import random
import re

import pytest

from fanosplit import splitting
from fanosplit.analysis import goodness_partition, support_bound_violation
from fanosplit.equivalence import are_equivalent
from fanosplit.generators import (
    bundle_b,
    example4d,
    hexagon,
    pentagon,
    random_image,
    simplex,
)
from fanosplit.errors import InvariantViolationError
from fanosplit.linalg import determinant
from fanosplit.polytope import (Mode, frame_coords, free_summands, special_facet,
                                vertex_deficit)
from fanosplit.splitting import (
    clean_pairs,
    direct_sum,
    finest_split,
    guaranteed_hexagons,
    hexagon_split,
    split_threshold,
)

from corpus import base_instances, reference_instances
from oracle import clean_pairs_rows, extract_rows, support_bound_rows


def power_sum(p, m):
    out = p
    for _ in range(m - 1):
        out = direct_sum(out, p)
    return out


def assert_reassembles(p, dec):
    """The basis is unimodular and maps every vertex to its factor's row,
    padded with zeros into the factor's block."""
    basis = dec.change_of_basis
    assert abs(determinant(basis)) == 1
    assert sorted(i for f in dec.factors for i in f.vertex_indices) == list(range(p.n))
    for f in dec.factors:
        lo, hi = f.block
        for i, row in zip(f.vertex_indices, f.polytope.vertices, strict=True):
            assert basis.matvec(p.vertices[i]) == (0,) * lo + row + (0,) * (p.dim - hi)


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


def split_rows(p, f, g, rows):
    """`hexagon_split` of p at f by loops over coordinate rows."""
    return extract_rows(p, f, g, clean_pairs_rows(p, f, g, rows), rows)


def outcome(fn, *args):
    try:
        return fn(*args)
    except InvariantViolationError as e:
        return str(e)


class TestArraySplit:
    """clean_pairs, the support bound and hexagon_split on the coordinate
    array against the loops over row tuples they replaced."""

    def test_match_row_references(self):
        for name, p in reference_instances():
            f = special_facet(p, Mode.LOCAL)
            g = goodness_partition(p, f)
            rows = frame_coords(p, f).tolist()
            assert clean_pairs(p, f, g) == clean_pairs_rows(p, f, g, rows), name
            assert hexagon_split(p, Mode.LOCAL) == split_rows(p, f, g, rows), name

    def test_failures_match_row_references(self, monkeypatch):
        # coordinate entries and whole rows changed at random: every failure
        # text shows up, each as the reference words it
        b = bundle_b(1)
        bases = [direct_sum(hexagon(), hexagon()),
                 direct_sum(pentagon(), direct_sum(hexagon(), hexagon())),
                 direct_sum(direct_sum(b, b), direct_sum(hexagon(), hexagon())),
                 random_image(direct_sum(example4d(), direct_sum(hexagon(), hexagon())), 1)]
        rng = random.Random(0)
        seen = set()
        for p in bases:
            f = special_facet(p, Mode.LOCAL)
            g = goodness_partition(p, f)
            base = frame_coords(p, f)
            bar = [f.position_of(v) for v in sorted(g.a_bar)]
            for _ in range(200):
                coords = base.copy()
                for _ in range(rng.randint(1, 2)):
                    if rng.random() < 0.7:
                        coords[rng.randrange(p.n), rng.randrange(p.dim)] = rng.choice((-1, 0, 1, 2))
                    else:
                        coords[rng.randrange(p.n), rng.sample(bar, min(len(bar), 5))] = -1
                rows = coords.tolist()
                k = vertex_deficit(p)
                levels = [sum(row) for row in rows]
                assert (support_bound_violation(coords, levels, bar, k)
                        == support_bound_rows(rows, levels, bar, k))
                with monkeypatch.context() as m:
                    m.setattr(splitting, "frame_coords", lambda q, frame: coords)
                    pairs = (
                        (outcome(clean_pairs, p, f, g), outcome(clean_pairs_rows, p, f, g, rows)),
                        (outcome(hexagon_split, p, Mode.LOCAL), outcome(split_rows, p, f, g, rows)))
                for got, want in pairs:
                    assert got == want
                    if isinstance(got, str):
                        seen.add(re.sub(r"-?\d+", "N", got.split(":")[0]))
        assert seen == {
            "vertex N at level N touches N paired-core directions, above the bound N",
        }

    def test_hexagons_match_finest_split(self):
        # each hexagon free summand gives exactly one clean pair, and each
        # clean pair's orbit is a hexagon summand's vertex set
        for name, p in reference_instances():
            hexagons = [{frozenset(f.vertex_indices) for f in dec.factors if f.kind == "hexagon"}
                        for dec in (hexagon_split(p), finest_split(p))]
            assert hexagons[0] == hexagons[1], name


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
        assert sum(len(f.vertex_indices) for f in dec.factors) == p.n
        assert dec.change_of_basis.rows == p.dim
        assert_reassembles(p, dec)

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

    def test_factors_are_the_free_summands(self):
        for name, p in base_instances():
            for q in (p, random_image(p, 4)):
                dec = finest_split(q)
                assert all(f.polytope is s for f, s in
                           zip(dec.factors, free_summands(q), strict=True)), name
                assert_reassembles(q, dec)
                assert_reassembles(q, hexagon_split(q))
