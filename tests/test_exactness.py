"""Exactness under coordinate growth: the int64 arrays must hand over to
object arrays of Python ints when their bounds break, with identical
results."""

from __future__ import annotations

from fanosplit.equivalence import are_equivalent, normal_form
from fanosplit.generators import bundle_b, hexagon
from fanosplit.polytope import Polytope, is_smooth_fano
from fanosplit.verify import verify_bounds

BIG = 10**13


def sheared(p, col_from, col_to, factor):
    rows = []
    for v in p.vertices:
        w = list(v)
        w[col_to] += factor * v[col_from]
        rows.append(tuple(w))
    return Polytope(p.dim, tuple(rows))


def test_huge_shear_of_hexagon_still_validates():
    q = sheared(hexagon(), 0, 1, BIG)
    assert q._array.dtype == object  # int64 is off; everything runs on Python ints
    cert = is_smooth_fano(q)
    assert cert.valid
    assert cert.facet_count == 6


def test_huge_shear_preserves_normal_form():
    p = hexagon()
    q = sheared(p, 0, 1, BIG)
    assert normal_form(q).digest == normal_form(p).digest
    assert are_equivalent(p, q)


def test_huge_shear_verifies():
    q = sheared(bundle_b(1), 0, 2, BIG)
    report = verify_bounds(q)
    assert report.passed
    assert report.all_satisfied


def test_moderate_entries_use_fast_path_with_same_results():
    # entries near the int64 comfort zone but inside it: the array stays int64
    p = hexagon()
    q_small = sheared(p, 0, 1, 10**6)
    assert q_small._array.dtype != object
    q_big = sheared(p, 0, 1, BIG)
    nf_small = normal_form(q_small)
    nf_big = normal_form(q_big)
    assert nf_small.digest == nf_big.digest == normal_form(p).digest


def test_large_determinant_exact():
    from fanosplit.linalg import determinant

    assert determinant([(BIG, 1), (1, BIG)]) == BIG * BIG - 1
