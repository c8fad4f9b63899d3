from __future__ import annotations

import pytest

from fanosplit.generators import bundle_b, example4d, hexagon, pentagon, simplex
from fanosplit.polytope import Mode, frame_from_indices, make_polytope, special_facet
from fanosplit.splitting import direct_sum
from fanosplit.verify import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    REPORT_ONLY,
    TYPE_B_SUPPORTED,
    TYPE_C_OPPOSITE,
    TYPE_NEGATED_BASIS,
    classify_level_minus_one,
    verify_bounds,
)


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
        from types import SimpleNamespace

        from fanosplit.verify import _check_separating_coordinate

        ctx = SimpleNamespace(coords=[(1, 0), (0, 1), (-1, -1)], levels=[1, 1, -2])
        assert _check_separating_coordinate(ctx) == (True, "", True)
        ctx.levels[2] = 0
        assert _check_separating_coordinate(ctx) == (
            False, "level 0 of vertex 2 is not its coordinate sum -2", True
        )

    def test_report_lines_shape(self):
        report = verify_bounds(pentagon())
        lines = report.lines()
        assert lines[0].startswith("INSTANCE d=2 n=5 k=1")
        assert lines[-1] == "RESULT pass"
        assert all(l.startswith("CHECK ") for l in lines[1:-1])

    def test_full_mode_runs_all_facets(self):
        report_full = verify_bounds(example4d(), Mode.FULL)
        report_local = verify_bounds(example4d(), Mode.LOCAL)
        assert report_full.passed and report_local.passed

    def test_to_dict_roundtrip(self):
        report = verify_bounds(simplex(3))
        data = report.to_dict()
        assert data["passed"] is True
        assert len(data["checks"]) == len(report.checks)


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
