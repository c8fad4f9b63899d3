from __future__ import annotations

import pytest

from fanosplit.equivalence import are_equivalent, normal_form
from fanosplit.errors import SizeLimitError
from fanosplit.generators import (
    bundle_b,
    example4d,
    hexagon,
    pentagon,
    random_image,
    simplex,
)
from fanosplit import polytope
from fanosplit.polytope import Polytope, make_polytope


def apply_map(p, rows):
    verts = [tuple(sum(r * x for r, x in zip(row, v)) for row in rows) for v in p.vertices]
    return Polytope(p.dim, tuple(verts))


def test_hexagon_invariant_under_shear():
    p = hexagon()
    q = apply_map(p, [(1, 1), (0, 1)])
    assert normal_form(p).digest == normal_form(q).digest


def test_hexagon_vs_pentagon_differ():
    assert normal_form(hexagon()).digest != normal_form(pentagon()).digest
    assert not are_equivalent(hexagon(), pentagon())


def test_block_swap_of_double_hexagon():
    from fanosplit.splitting import direct_sum

    p = direct_sum(hexagon(), hexagon())
    swapped = Polytope(4, tuple((v[2], v[3], v[0], v[1]) for v in p.vertices))
    assert normal_form(p).digest == normal_form(swapped).digest


def test_equivalence_of_random_images():
    for build in (hexagon, pentagon, lambda: simplex(3), example4d, lambda: bundle_b(1)):
        p = build()
        for seed in (1, 2, 3):
            assert are_equivalent(p, random_image(p, seed))


def test_mirror_of_bundle():
    p = bundle_b(1)
    mirrored = Polytope(3, tuple(tuple(-x for x in v) for v in p.vertices))
    assert are_equivalent(p, mirrored)


def test_distinct_generators_inequivalent():
    gens = [hexagon(), pentagon(), simplex(2), simplex(3), example4d(), bundle_b(1)]
    for i, p in enumerate(gens):
        for q in gens[i + 1:]:
            assert not are_equivalent(p, q)


def test_normal_form_row_order_irrelevant():
    p = hexagon()
    q = Polytope(2, tuple(reversed(p.vertices)))
    assert normal_form(p).digest == normal_form(q).digest


def test_digest_serialization_shape():
    nf = normal_form(simplex(2))
    text = nf.digest_text()
    lines = text.split("\n")
    assert len(lines) == 3
    assert all(len(line.split()) == 2 for line in lines)
    ints = [int(t) for line in lines for t in line.split()]
    assert all(abs(i) <= 2 for i in ints)


def test_budget_exhaustion_raises():
    with pytest.raises(SizeLimitError):
        normal_form(example4d(), budget=3)


def test_self_equivalence():
    p = example4d()
    assert are_equivalent(p, p)


def test_size_mismatch_skips_full_enumeration_above_full_dim(monkeypatch):
    # d = 14 and 15 are auto-LOCAL: inputs of different (d, n) are not enumerated
    calls = []
    enumerate_raw = polytope._enumerate_raw
    monkeypatch.setattr(polytope, "_enumerate_raw",
                        lambda q: calls.append(q.dim) or enumerate_raw(q))
    assert not are_equivalent(simplex(14), bundle_b(5))
    assert calls == []
