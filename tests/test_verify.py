from __future__ import annotations

import random
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import oracle
from fanosplit import analysis, polytope, verify
from fanosplit.errors import InvariantViolationError, UnclassifiableVertexError
from fanosplit.generators import bundle_b, example4d, hexagon, pentagon, random_image, simplex
from fanosplit.polytope import (Mode, frame_from_indices, free_summands, is_smooth_fano,
                                make_polytope, special_facet)
from fanosplit.splitting import direct_sum
from fanosplit.verify import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    REPORT_ONLY,
    TYPE_B_SUPPORTED,
    TYPE_C_OPPOSITE,
    TYPE_NEGATED_BASIS,
    _Ctx,
    _check_good_neighbor_normal,
    _check_unique_opposite_iff_phi,
    _classify,
    classify_level_minus_one,
    verify_bounds,
)

from corpus import base_instances, large_sums, reference_instances
from oracle import (crossed_neighbor_normal, negated_by_lookup, product_opposite_failures,
                    unique_opposite_pairwise)


def by_name(report):
    return {c.name: c for c in report.checks}


class TestVerifyBounds:
    def test_hexagon_all_satisfied(self):
        report = verify_bounds(hexagon())
        assert report.passed
        assert report.all_satisfied
        checks = by_name(report)
        # k = 0: the deficit-dependent family is downgraded but still holds
        assert checks["eta-level-bounds"].status == REPORT_ONLY
        assert checks["eta-level-bounds"].satisfied
        assert checks["opposite-coordinate"].status == PASS

    def test_example4d_tight_eta(self):
        p = example4d()
        report = verify_bounds(p)
        assert report.passed and report.all_satisfied
        assert report.k == 2
        from fanosplit.analysis import levels_and_eta

        f = special_facet(p)
        _, eta = levels_and_eta(p, f)
        assert eta.eta(0) == p.dim - report.k  # lower bound attained

    def test_triple_bundle_hard_mode(self):
        p = direct_sum(direct_sum(bundle_b(1), bundle_b(1)), bundle_b(1))
        assert (p.dim, p.n) == (9, 24)
        report = verify_bounds(p)
        assert report.k == 3
        assert report.passed
        # k >= 3: nothing is downgraded to report-only
        assert all(c.status in (PASS, FAIL, NOT_APPLICABLE) for c in report.checks)
        assert all(c.status != FAIL for c in report.checks)

    def test_separating_coordinate_can_fail(self):
        from fanosplit.verify import _check_separating_coordinate

        # the outer normal's values against the coordinate sums, ctx.levels
        base = _Ctx(random_image(example4d(), 1), Mode.LOCAL)
        assert _check_separating_coordinate(base) == (True, "", True)
        for shift in (1, -1):
            levels = list(base.levels)
            levels[2] += shift
            ctx = SimpleNamespace(**{**vars(base), "levels": tuple(levels)})
            assert _check_separating_coordinate(ctx) == (False, (
                f"level {base.levels[2]} of vertex 2 is not its coordinate sum {levels[2]}"), True)

    def test_no_shared_minus_one_can_fail(self):
        from types import SimpleNamespace

        from fanosplit.verify import _check_no_shared_minus_one

        # good frame vertices 0, 1, 2 at positions 0, 1, 2; 1 and 2 share an opposite
        g = SimpleNamespace(a={0}, b={1, 2}, opp={0: 10, 1: 11, 2: 11})
        coords = np.zeros((7, 3), dtype=np.int64)
        coords[5], coords[6] = (-1, 0, -1), (-1, -1, 0)
        ctx = SimpleNamespace(g=g, pos={0: 0, 1: 1, 2: 2}, v_minus1=[5, 6], coords=coords)
        # the failing pair comes first, then the vertex
        assert _check_no_shared_minus_one(ctx) == (False, (
            "level -1 vertex 6 has coordinate -1 at both 0 and 1 despite "
            "distinct opposites"), True)
        ctx.coords[6] = (0, -1, -1)  # a pair with one opposite is no failure
        assert _check_no_shared_minus_one(ctx)[1].startswith(
            "level -1 vertex 5 has coordinate -1 at both 0 and 2 ")
        ctx.coords[5] = (0, 0, -1)
        assert _check_no_shared_minus_one(ctx) == (True, "", True)
        g.opp[0] = 11  # every good vertex has one opposite: no pair to check
        assert _check_no_shared_minus_one(ctx) == (True, "", False)

    def test_good_neighbor_normal_can_fail(self, monkeypatch):
        # a vertex at value 2 of u_F - u_z, where z is the first good vertex,
        # must fail the report
        p = example4d()
        f = special_facet(p)
        g = verify.goodness_partition(p, f)
        z = min(g.a | g.b)
        jz = f.position_of(z)
        coords = polytope.frame_coords(p, f)
        i = next(i for i in range(p.n) if i not in f.vertex_indices and i != g.opp[z])
        levels = list(g.levels)
        levels[i] = coords[i][jz] + 2
        monkeypatch.setattr(verify, "goodness_partition",
                            lambda q, frame: replace(g, levels=tuple(levels)))
        report = verify_bounds(p)
        assert not report.passed
        assert report.lines()[-1] == "RESULT fail"
        assert by_name(report)["good-neighbor-normal"].line() == (
            f"CHECK good-neighbor-normal fail neighbor normal across good vertex {z} "
            "is not u_F - u_z")

    @pytest.mark.parametrize("value", [2, 1])
    def test_good_neighbor_normal_branches(self, value):
        # u_F - u_z above 1 somewhere, or 1 on a vertex beyond F - z + opp(z)
        ctx = _Ctx(hexagon(), Mode.LOCAL)
        assert _check_good_neighbor_normal(ctx) == (True, "", True)
        z = min(ctx.g.a | ctx.g.b)
        jz = ctx.pos[z]
        i = next(i for i in range(ctx.n)
                 if i not in ctx.frame.vertex_indices and i != ctx.g.opp[z])
        coords = ctx.coords.copy()
        coords[i, jz] = ctx.levels[i] - value
        forced = SimpleNamespace(g=ctx.g, pos=ctx.pos, frame=ctx.frame, levels=ctx.levels,
                                 coords=coords)
        assert _check_good_neighbor_normal(forced) == (
            False, f"neighbor normal across good vertex {z} is not u_F - u_z", True)

    def test_good_neighbor_normal_matches_crossed_neighbors(self):
        for name, p in reference_instances():
            ctx = _Ctx(p, Mode.LOCAL)
            assert _check_good_neighbor_normal(ctx) == crossed_neighbor_normal(ctx), name

    def test_unique_opposite_iff_phi_matches_pairwise(self):
        for name, p in reference_instances():
            ctx = _Ctx(p, Mode.LOCAL)
            assert _check_unique_opposite_iff_phi(ctx) == unique_opposite_pairwise(ctx), name

    def test_unique_opposite_iff_phi_can_fail(self):
        # good frame vertices 0, 1, 2; 1 and 2 share an opposite, yet 2 has phi
        g = SimpleNamespace(a={0, 2}, b={1}, opp={0: 10, 1: 11, 2: 11, 3: 12},
                            phi={0: 5, 1: None, 2: 7})
        ctx = SimpleNamespace(g=g, frame=SimpleNamespace(vertex_indices=(0, 1, 2, 3)))
        expect = (False, "good vertex 2: unique opposite=False but phi=7", True)
        assert _check_unique_opposite_iff_phi(ctx) == unique_opposite_pairwise(ctx) == expect
        g.phi[2] = None
        assert _check_unique_opposite_iff_phi(ctx) == unique_opposite_pairwise(ctx) == (
            True, "", True)
        g.phi[0] = None  # a unique opposite without phi fails too
        assert _check_unique_opposite_iff_phi(ctx) == unique_opposite_pairwise(ctx) == (
            False, "good vertex 0: unique opposite=True but phi=None", True)

    def test_local_verify_analyzes_the_special_facet_once(self, monkeypatch):
        _, p = large_sums()[0]
        assert p.dim == 89
        special_facet(p, Mode.LOCAL)
        partitions, levels, crossings = [], [], []
        for module, name, calls in ((verify, "goodness_partition", partitions),
                                    (analysis, "levels_and_eta", levels),
                                    (polytope, "_cross", crossings)):
            fn = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *a, fn=fn, calls=calls: calls.append(a) or fn(*a))
        assert verify_bounds(p, Mode.LOCAL).all_satisfied
        assert (len(partitions), len(levels), len(crossings)) == (1, 1, 0)
        assert not hasattr(verify, "_cross")

    def test_report_lines_shape(self):
        report = verify_bounds(pentagon())
        lines = report.lines()
        assert lines[0].startswith("INSTANCE d=2 n=5 k=1")
        assert lines[-1] == "RESULT pass"
        assert all(l.startswith("CHECK ") for l in lines[1:-1])

    def test_both_modes_report_alike(self):
        report_full = verify_bounds(example4d(), Mode.FULL)
        report_local = verify_bounds(example4d(), Mode.LOCAL)
        assert report_full.passed and report_local.passed
        assert report_full.lines()[1:] == report_local.lines()[1:]

    def test_to_dict_roundtrip(self):
        report = verify_bounds(simplex(3))
        data = report.to_dict()
        assert data["passed"] is True
        assert len(data["checks"]) == len(report.checks)


# each check that reads the special facet's coordinate array, and the loop
# over row tuples it replaced
ROW_REFERENCES = (
    (verify._check_opposite_coordinate, oracle.opposite_coordinate_rows),
    (verify._check_level_zero_opposites, oracle.level_zero_opposites_rows),
    (verify._check_expansion_structure, oracle.expansion_structure_rows),
    (verify._check_expansion_bounds, oracle.expansion_bounds_rows),
    (verify._check_good_neighbor_normal, oracle.good_neighbor_normal_rows),
    (verify._check_opposite_is_lowest, oracle.opposite_is_lowest_rows),
    (verify._check_nongood_low_vertex, oracle.nongood_low_vertex_rows),
    (verify._check_shared_low_coordinate, oracle.shared_low_coordinate_rows),
    (verify._check_no_shared_minus_one, oracle.no_shared_minus_one_rows),
    (verify._check_low_vertex_support, oracle.low_vertex_support_rows),
)


def as_rows(ctx):
    """ctx with its coordinate array as a list of row tuples."""
    return SimpleNamespace(**{**vars(ctx), "coords": [tuple(r) for r in ctx.coords.tolist()]})


class TestArrayChecks:
    def test_match_row_references(self):
        for name, p in reference_instances():
            ctx = _Ctx(p, Mode.LOCAL)
            rows = as_rows(ctx)
            for check, reference in ROW_REFERENCES:
                assert check(ctx) == reference(rows), (name, check.__name__)

    def test_failures_match_row_references(self):
        # stub contexts: entries, whole rows, levels and the A/B/C membership
        # of frame vertices changed at random; every failure text of every
        # check shows up, each as the reference words it
        b = bundle_b(1)
        bases = [hexagon(), example4d(), direct_sum(simplex(1), simplex(2)),
                 direct_sum(direct_sum(b, b), b), direct_sum(example4d(), hexagon()),
                 direct_sum(pentagon(), direct_sum(hexagon(), hexagon())),
                 direct_sum(hexagon(), hexagon()), direct_sum(example4d(), simplex(1))]
        rng = random.Random(0)
        seen = set()
        for p in bases:
            base = _Ctx(p, Mode.LOCAL)
            for _ in range(300):
                coords, levels = base.coords.copy(), list(base.levels)
                parts = {"a": set(base.g.a), "b": set(base.g.b), "c": set(base.g.c)}
                for _ in range(rng.randint(1, 3)):
                    r = rng.random()
                    if r < 0.6:
                        coords[rng.randrange(p.n), rng.randrange(p.dim)] = rng.choice(
                            (-2, -1, -1, 0, 1, 2, 3))
                    elif r < 0.7:
                        coords[rng.randrange(p.n), rng.sample(range(p.dim), min(p.dim, 5))] = \
                            rng.choice((-1, 1, 2))
                    elif r < 0.85:
                        levels[rng.randrange(p.n)] = rng.choice((-2, -1, 0, 1))
                    else:
                        v = rng.choice(base.frame.vertex_indices)
                        for part in parts.values():
                            part.discard(v)
                        parts[rng.choice("abc")].add(v)
                g = SimpleNamespace(**{**vars(base.g), **{k: frozenset(v) for k, v in parts.items()}})
                ctx = SimpleNamespace(**{**vars(base), "g": g, "coords": coords,
                                         "levels": tuple(levels),
                                         "v_minus1": [i for i, lv in enumerate(levels) if lv == -1]})
                rows = as_rows(ctx)
                for check, reference in ROW_REFERENCES:
                    got = check(ctx)
                    assert got == reference(rows), (check.__name__, got)
                    if not got[0]:
                        text = re.sub(r"-?\d+", "N", got[1])
                        seen.add((check.__name__, re.sub(r"(facet|of) \(N(, N)*\)", r"\1 F", text)))
        assert seen == {
            ("_check_opposite_coordinate",
             "facet F: coordinate of opposite vertex N along position N is N"),
            ("_check_level_zero_opposites", "levelN vertex N is opposite to no vertex of F"),
            ("_check_level_zero_opposites",
             "levelN vertex N, facet position N: coordinate N vs opposite=False"),
            ("_check_level_zero_opposites",
             "levelN vertex N, facet position N: coordinate N vs opposite=True"),
        } | {
            ("_check_expansion_structure", text) for text in (
                "opp(N) has coordinate N at its own position",
                "opp(N): negative coefficient at phi-paired N",
                "opp(N): negative coefficient at non-good N",
                "opp(N): coefficient < N at N",
                "opp(N): coefficient sum N != N",
                "opp(N) of non-good vertex has coefficient sum N > N")
        } | {
            ("_check_expansion_bounds", "opp(N): phi-paired coefficient sum N > k+N=N"),
            ("_check_expansion_bounds", "opp(N): good-phi-zero coefficient sum N < -k=N"),
            ("_check_good_neighbor_normal", "neighbor normal across good vertex N is not u_F - u_z"),
            ("_check_opposite_is_lowest",
             "vertex N has negative coordinate at N but level N >= level of opp (N)"),
            ("_check_nongood_low_vertex", "non-good vertex N has N level N vertices below it"),
            ("_check_nongood_low_vertex", "level N vertex N below N is not opp(N)"),
            ("_check_shared_low_coordinate",
             "positions (N, N): N level N vertices dip below opp(N)"),
            ("_check_no_shared_minus_one",
             "level N vertex N has coordinate N at both N and N despite distinct opposites"),
            ("_check_low_vertex_support",
             "vertex N touches N paired-core directions, bound is Nk+N=N"),
        }


class TestSummandWalk:
    def test_matches_product_walk(self):
        # the facet lemmas hold at every facet of every summand FULL validation
        # proves, hexagon summands included, so verify checks the special facet only
        for name, p in base_instances():
            for x in (p, random_image(p, 3), random_image(p, 4)):
                for q in free_summands(x, Mode.FULL):
                    assert product_opposite_failures(q) == (None, None), name

    def test_full_verify_reads_only_the_special_facet(self, monkeypatch):
        p = random_image(direct_sum(bundle_b(1), bundle_b(1)), 5)
        assert is_smooth_fano(p, Mode.FULL).facet_count == 144
        frame = special_facet(p, Mode.FULL)
        enumerations, duals = [], []
        for name in ("enumerate_facets", "_enumerate_raw"):
            fn = getattr(polytope, name)
            monkeypatch.setattr(polytope, name, lambda q, fn=fn: enumerations.append(q) or fn(q))
        coords_rows = polytope.Polytope.coords_rows
        monkeypatch.setattr(polytope.Polytope, "coords_rows",
                            lambda q, dual: duals.append(dual) or coords_rows(q, dual))
        assert verify_bounds(p, Mode.FULL).all_satisfied
        assert enumerations == []
        assert all(dual is frame.dual for dual in duals)
        assert not any(hasattr(verify, name) for name in ("enumerate_facets", "free_sum", "_opposites"))

    def test_forced_failure_reads_the_same_in_both_modes(self, monkeypatch):
        # a coordinate of opp(F, v) at v, and one of a level-0 vertex, made wrong
        p = random_image(direct_sum(bundle_b(1), hexagon()), 2)
        frame = special_facet(p, Mode.FULL)
        g = verify.goodness_partition(p, frame)
        opp = [g.opp[v] for v in frame.vertex_indices]
        coords = polytope.frame_coords(p, frame).copy()
        coords[opp[0], 0] = -2
        i = next(i for i, level in enumerate(g.levels) if level == 0 and i not in opp[:2])
        coords[i, 1] = -1
        monkeypatch.setattr(verify, "frame_coords", lambda q, f: coords)
        full, local = (verify_bounds(p, mode) for mode in (Mode.FULL, Mode.LOCAL))
        assert full.lines()[1:] == local.lines()[1:]
        zero = oracle.level_zero_failure(frame.vertex_indices, coords.tolist(), opp, g.levels)
        assert zero is not None
        assert by_name(full)["opposite-coordinate"].details == (
            f"facet {frame.vertex_indices}: coordinate of opposite vertex {opp[0]} "
            "along position 0 is -2")
        assert by_name(full)["level-zero-opposites"].details == zero


class TestClassifier:
    def test_hexagon_negated_basis(self):
        p = hexagon()
        f = frame_from_indices(p, [0, 1])
        counts = classify_level_minus_one(p, f)
        assert set(counts[TYPE_NEGATED_BASIS]) == {p.index_of((-1, 0)), p.index_of((0, -1))}
        assert counts[TYPE_C_OPPOSITE] == counts[TYPE_B_SUPPORTED] == ()

    def test_example4d_b_supported(self):
        p = example4d()
        f = frame_from_indices(p, [0, 1, 2, 3])
        counts = classify_level_minus_one(p, f)
        assert len(counts[TYPE_B_SUPPORTED]) == 4
        assert counts[TYPE_C_OPPOSITE] == counts[TYPE_NEGATED_BASIS] == ()

    def test_triangle_empty(self):
        p = make_polytope([(1, 0), (0, 1), (-1, -1)])
        f = frame_from_indices(p, [0, 1])
        counts = classify_level_minus_one(p, f)
        assert all(v == () for v in counts.values())

    def test_c_opposite_case(self):
        # segment + triangle: the segment's frame vertex is not good (its
        # opposite is the other endpoint, at level -1), so that endpoint is
        # classified as the opposite of a non-good vertex
        p = direct_sum(simplex(1), simplex(2))
        f = special_facet(p)
        counts = classify_level_minus_one(p, f)
        assert len(counts[TYPE_C_OPPOSITE]) == 1
        assert counts[TYPE_B_SUPPORTED] == ()
        assert counts[TYPE_NEGATED_BASIS] == ()

    def test_unclassifiable_texts_quote_the_coordinate_row(self, monkeypatch):
        p = hexagon()
        f = special_facet(p)
        g = verify.goodness_partition(p, f)
        i = g.levels.index(-1)
        row = tuple(polytope.frame_coords(p, f)[i].tolist())
        with pytest.raises(UnclassifiableVertexError) as exc:
            _classify(p, f, replace(g, negation={}))  # no negated-basis vertex left
        assert str(exc.value) == f"vertex {i} at level -1 fits no structural type (coords {row})"
        p = example4d()
        f = special_facet(p)
        g = verify.goodness_partition(p, f)
        i = g.levels.index(-1)
        coords = polytope.frame_coords(p, f).copy()
        coords[i, next(f.position_of(v) for v in sorted(g.b) if coords[i, f.position_of(v)] == 0)] = -2
        monkeypatch.setattr(verify, "frame_coords", lambda q, frame: coords)
        with pytest.raises(UnclassifiableVertexError) as exc:
            _classify(p, f, g)
        assert str(exc.value) == (f"vertex {i} dips at a good-phi-zero coordinate but violates "
                                  f"the sign pattern: {tuple(coords[i].tolist())}")

    def test_bound_violation_raises_the_text_verify_reports(self, monkeypatch):
        p = direct_sum(direct_sum(bundle_b(1), bundle_b(1)), bundle_b(1))
        f = special_facet(p)
        g = verify.goodness_partition(p, f)
        assert g.c == frozenset()
        # one c-opposite vertex is one more than |C| = 0 allows, and leaves
        # a negated-basis vertex short
        monkeypatch.setattr(verify, "_classify", lambda q, frame, part: {
            TYPE_C_OPPOSITE: (0,), TYPE_B_SUPPORTED: (), TYPE_NEGATED_BASIS: ()})
        text = "1 c-opposite vertices > |C|=0; 0 negated-basis vertices < 1"
        with pytest.raises(InvariantViolationError) as exc:
            classify_level_minus_one(p, f)
        assert str(exc.value) == text
        assert by_name(verify_bounds(p))["level-minus-one-types"].line() == (
            f"CHECK level-minus-one-types fail {text}")

    def test_negated_basis_matches_lookup(self):
        for name, p in reference_instances():
            f = special_facet(p, Mode.LOCAL)
            g = verify.goodness_partition(p, f)
            counts = _classify(p, f, g)
            assert sum(map(len, counts.values())) == g.eta.eta(-1), name
            assert all(negated_by_lookup(p, g, i) for i in counts[TYPE_NEGATED_BASIS]), name

    def test_totals_match_eta_on_special_facets(self):
        from fanosplit.analysis import goodness_partition, levels_and_eta
        from fanosplit.errors import NotSpecialFacetError
        from fanosplit.polytope import enumerate_facets

        for p in (pentagon(), bundle_b(1), direct_sum(simplex(1), simplex(2))):
            seen_special = 0
            for f in enumerate_facets(p):
                try:
                    goodness_partition(p, f)
                except NotSpecialFacetError:
                    continue
                seen_special += 1
                counts = classify_level_minus_one(p, f)
                _, eta = levels_and_eta(p, f)
                assert sum(len(v) for v in counts.values()) == eta.eta(-1)
            assert seen_special > 0


class TestCorpusSmoke:
    @pytest.mark.parametrize("build", [
        hexagon, pentagon, lambda: simplex(1), lambda: simplex(2), lambda: simplex(3),
        example4d, lambda: bundle_b(1), lambda: bundle_b(2),
    ])
    def test_generators_verify(self, build):
        report = verify_bounds(build())
        assert report.passed, [c.details for c in report.checks if c.status == FAIL]
        assert report.all_satisfied
