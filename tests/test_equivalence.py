from __future__ import annotations

import gc
import itertools

import pytest

from fanosplit import equivalence
from fanosplit.cli import main
from fanosplit.equivalence import DEFAULT_BUDGET, are_equivalent, normal_form
from fanosplit.errors import SizeLimitError
from fanosplit.fanofile import save_polytope
from fanosplit.generators import (
    bundle_b,
    example4d,
    hexagon,
    pentagon,
    random_image,
    simplex,
)
from fanosplit import polytope
from fanosplit.polytope import Polytope, free_summands, is_smooth_fano, make_polytope, vertex_sum
from fanosplit.splitting import direct_sum

from corpus import base_instances
from oracle import factor_form_unpruned, monolithic_digest


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


def power_sum(p, m):
    out = p
    for _ in range(m - 1):
        out = direct_sum(out, p)
    return out


def test_factored_equivalence_matches_monolithic_reference():
    members = [p for _, p in base_instances() if p.dim <= 6]
    polys = [x for p in members for x in [p] + [random_image(p, seed) for seed in (1, 2, 3)]]
    mono = [monolithic_digest(x) for x in polys]
    for i, a in enumerate(polys):
        for j in range(i + 1, len(polys)):
            assert are_equivalent(a, polys[j]) == (mono[i] == mono[j]), (a, polys[j])
    for x, digest in zip(polys, mono):
        nf = normal_form(x)
        assert list(nf.canonical_matrix.entries) == sorted(nf.canonical_matrix.entries)
        canonical = make_polytope(nf.canonical_matrix.entries)
        assert is_smooth_fano(canonical).valid
        assert monolithic_digest(canonical) == digest
        if len(free_summands(x)) == 1 and not any(vertex_sum(x)):
            assert nf.digest == digest  # unchanged for irreducible, vertex sum 0


def test_summand_shape_mismatch_skips_factor_search(tmp_path, capsys, monkeypatch):
    calls = []
    factor_form = equivalence._factor_form
    monkeypatch.setattr(equivalence, "_factor_form",
                        lambda q, *args: calls.append(q.dim) or factor_form(q, *args))
    a, b = tmp_path / "a.fano", tmp_path / "b.fano"
    save_polytope(power_sum(bundle_b(1), 2), a)
    save_polytope(direct_sum(example4d(), hexagon()), b)
    assert main(["eq", str(a), str(b)]) == 1
    assert capsys.readouterr().out == "not-equivalent\n"
    assert calls == []


def test_large_sum_normal_form_matches_disguise():
    p = direct_sum(power_sum(bundle_b(1), 3), power_sum(hexagon(), 20))
    assert p.dim == 49
    assert normal_form(p).digest == normal_form(random_image(p, 1)).digest


def _ordering_count(p) -> int:
    """The least budget under which normal_form(p) completes."""
    budget = 1
    while True:
        try:
            normal_form(p, budget)
            return budget
        except SizeLimitError:
            budget += 1


def test_budget_covers_all_summands_together():
    a, b = example4d(), hexagon()
    counts = [_ordering_count(a), _ordering_count(b)]
    p = direct_sum(a, b)
    with pytest.raises(SizeLimitError):
        normal_form(p, budget=max(counts))
    normal_form(p, budget=sum(counts))


def test_pruned_factor_forms_match_unpruned_search():
    bases = [p for _, p in base_instances()] + [simplex(d) for d in range(2, 8)]
    bases += [power_sum(hexagon(), k) for k in range(1, 5)]
    bases += [bundle_b(k) for k in (1, 2, 3)] + [pentagon()]
    for base in bases:
        for x in (base, random_image(base, 1), random_image(base, 2)):
            for q in free_summands(x):
                pruned = equivalence._summand_form(q, [0], DEFAULT_BUDGET)
                assert pruned == factor_form_unpruned(q, [0]), x


def test_hexagon_search_spends_the_charged_orderings():
    # the form and charge a hexagon summand gets without a search are the
    # search's own on every vertex order
    form = equivalence._HEXAGON_FORM
    assert form == tuple(sorted(polytope.HEXAGON_VERTICES))
    for order in itertools.permutations(sorted(polytope.HEXAGON_VERTICES)):
        budget_state = [0]
        assert equivalence._factor_form(Polytope(2, order), budget_state, DEFAULT_BUDGET) == form
        assert budget_state == [equivalence._HEXAGON_ORDERINGS], order


def test_hexagon_summands_need_no_search(monkeypatch):
    searched, enumerated = [], []
    factor_form, enumerate_raw = equivalence._factor_form, polytope._enumerate_raw
    monkeypatch.setattr(equivalence, "_factor_form",
                        lambda q, *args: searched.append(q.dim) or factor_form(q, *args))
    monkeypatch.setattr(polytope, "_enumerate_raw",
                        lambda q: enumerated.append((q.dim, q.n)) or enumerate_raw(q))
    p = random_image(direct_sum(bundle_b(1), power_sum(hexagon(), 3)), 1)
    normal_form(p)
    assert searched == [3]
    assert (2, 6) not in enumerated


@pytest.mark.parametrize("d", [9, 12])
def test_disguised_simplex_normal_forms_finish(d):
    a, b = (random_image(simplex(d), seed) for seed in (1, 2))
    assert normal_form(a).digest == normal_form(simplex(d)).digest
    assert are_equivalent(a, b)


def test_normal_form_leaves_no_cyclic_garbage():
    def from_equivalence(x):
        code = getattr(x, "__code__", None) or getattr(x, "gi_code", None) or getattr(x, "f_code", None)
        return code is not None and code.co_filename == equivalence.__file__

    p = random_image(bundle_b(2), 1)
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        normal_form(p)
        gc.collect()
        leaked = [x for x in gc.garbage if from_equivalence(x)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert leaked == []
