"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

from __future__ import annotations

import random
import time
from pathlib import Path

import pytest

from fanosplit.analysis import goodness_partition, levels_and_eta
from fanosplit.cli import main
from fanosplit.equivalence import are_equivalent, normal_form
from fanosplit.fanofile import save_polytope
from fanosplit.generators import (
    bundle_b,
    example4d,
    hexagon,
    pentagon,
    random_image,
    simplex,
)
from fanosplit.polytope import (
    Mode,
    enumerate_facets,
    frame_from_indices,
    is_smooth_fano,
    picard_number,
    pivot,
    special_facet,
    vertex_deficit,
)
from fanosplit.splitting import (
    direct_sum,
    finest_split,
    guaranteed_hexagons,
    hexagon_split,
    split_threshold,
)
from fanosplit.verify import verify_bounds

from corpus import base_instances, generator_instances
from oracle import brute_facets, brute_neighbor


def announce(num: int, label: str, started: float, budget: float | None = None):
    elapsed = time.monotonic() - started
    if budget is not None:
        assert elapsed < budget, f"criterion {num} took {elapsed:.1f}s, budget {budget}s"
    print(f"ACCEPTANCE {num} {label}: PASS ({elapsed:.2f}s)")


def power_sum(p, m):
    out = p
    for _ in range(m - 1):
        out = direct_sum(out, p)
    return out


def test_criterion_01_hexagon(tmp_path):
    t0 = time.monotonic()
    p = hexagon()
    path = tmp_path / "hex.fano"
    save_polytope(p, path)
    assert main(["check", str(path)]) == 0
    assert is_smooth_fano(p).valid
    for f in enumerate_facets(p):
        _, eta = levels_and_eta(p, f)
        assert (eta.eta(1), eta.eta(0), eta.eta(-1)) == (2, 2, 2)
    assert picard_number(p) == 4
    announce(1, "hexagon validity, eta, picard", t0, budget=1.0)


def test_criterion_02_example4d():
    t0 = time.monotonic()
    p = example4d()
    assert is_smooth_fano(p).valid
    assert vertex_deficit(p) == 2
    named = frame_from_indices(p, [0, 1, 2, 3])
    from fanosplit.polytope import vertex_sum

    assert all(g >= 0 for g in named.coordinates(vertex_sum(p)))  # it is special
    g = goodness_partition(p, named)
    assert (len(g.a), len(g.b), len(g.c)) == (0, 4, 0)
    report = verify_bounds(p)
    assert report.passed and report.all_satisfied
    f = special_facet(p)
    _, eta = levels_and_eta(p, f)
    assert eta.eta(0) == p.dim - vertex_deficit(p) == 2  # lower bound is tight
    announce(2, "d=4 example: partition and tight eta", t0, budget=1.0)


def test_criterion_03_bundle_family():
    t0 = time.monotonic()
    for dprime in (1, 2, 3):
        p = bundle_b(dprime)
        mode = Mode.FULL if dprime <= 2 else Mode.LOCAL
        cert = is_smooth_fano(p, mode)
        assert cert.valid
        if dprime == 2:
            assert cert.facet_count == 108
        assert p.n == 7 * dprime + 1
        dec = finest_split(p, mode)
        assert len(dec.factors) == 1
    announce(3, "bundle family valid and unsplittable", t0, budget=30.0)


def test_criterion_04_sharpness_arithmetic():
    t0 = time.monotonic()
    for m in range(1, 6):
        p = power_sum(bundle_b(1), m)
        assert picard_number(p) == 5 * m
    for dprime in (1, 2, 3):
        assert picard_number(bundle_b(dprime)) == 4 * dprime + 1
    announce(4, "picard sharpness", t0)


def test_criterion_05_planted_recovery():
    t0 = time.monotonic()
    p = power_sum(bundle_b(1), 3)
    p = direct_sum(p, power_sum(hexagon(), 120))
    d, k = p.dim, vertex_deficit(p)
    assert (d, p.n, k) == (249, 744, 3)
    assert d >= split_threshold(k) == 248
    dec = hexagon_split(p, Mode.LOCAL)  # TheoremViolationError would propagate
    assert guaranteed_hexagons(d, k) == 1
    assert dec.hexagon_count == 120 >= guaranteed_hexagons(d, k)
    assert dec.residual.polytope.dim == 9
    assert dec.residual.polytope.n == 24
    announce(5, "planted hexagon recovery at d=249", t0, budget=60.0)


def test_criterion_06_split_round_trip():
    t0 = time.monotonic()
    parts = [hexagon(), pentagon(), simplex(1), simplex(2), simplex(3),
             example4d(), bundle_b(1)]
    recovered = 0
    for case in range(50):
        rng = random.Random(1000 + case)
        count = rng.randint(2, 4)
        chosen = [parts[rng.randrange(len(parts))] for _ in range(count)]
        p = chosen[0]
        for q in chosen[1:]:
            p = direct_sum(p, q)
        disguised = random_image(p, seed=case)
        dec = finest_split(disguised)
        assert len(dec.factors) == count, f"case {case}: {len(dec.factors)} != {count}"
        remaining = list(chosen)
        for fac in dec.factors:
            match = next(
                (q for q in remaining if are_equivalent(fac.polytope, q)), None
            )
            assert match is not None, f"case {case}: unmatched factor"
            remaining.remove(match)
        assert not remaining
        recovered += 1
    assert recovered == 50
    announce(6, "50/50 disguised sums recovered", t0)


def test_criterion_07_claim_suite_on_corpus():
    t0 = time.monotonic()
    instances = 0
    for name, p in base_instances():
        mode = Mode.FULL if p.dim <= 6 else Mode.LOCAL
        report = verify_bounds(p, mode)
        assert report.passed, f"{name}: {[c.details for c in report.checks if c.status == 'fail']}"
        assert report.all_satisfied, f"{name}: report-only violation"
        assert p.n <= 3 * p.dim
        instances += 1
        for seed in range(1, 21):
            q = random_image(p, seed)
            report = verify_bounds(q, Mode.LOCAL)
            assert report.passed, f"{name} seed {seed}"
            assert report.all_satisfied, f"{name} seed {seed}: report-only violation"
            assert q.n <= 3 * q.dim
            instances += 1
    assert instances >= 300
    announce(7, f"structural-claim suite on {instances} corpus instances", t0)


def test_criterion_08_pivot_oracle_agreement():
    t0 = time.monotonic()
    members = [(name, p) for name, p in base_instances() if p.dim <= 4]
    assert members
    for name, p in members:
        frames = enumerate_facets(p)
        expected = brute_facets(p)
        assert {f.vertex_indices for f in frames} == set(expected), name
        for f in frames:
            for v in f.vertex_indices:
                neigh, opp = pivot(p, f, v)
                oracle_neigh, oracle_opp = brute_neighbor(expected, f.vertex_indices, v)
                assert neigh.vertex_indices == oracle_neigh, name
                assert p.index_of(opp) == oracle_opp, name
    announce(8, f"pivot oracle agreement on {len(members)} members", t0)


def test_criterion_09_normal_form_invariance():
    t0 = time.monotonic()
    members = [(name, p) for name, p in base_instances() if p.dim <= 6]
    for name, p in members:
        reference = normal_form(p).digest
        for seed in range(1, 21):
            q = random_image(p, seed)
            assert normal_form(q).digest == reference, f"{name} seed {seed}"
    gens = generator_instances()
    for i, (na, a) in enumerate(gens):
        for nb, b in gens[i + 1:]:
            assert not are_equivalent(a, b), f"{na} vs {nb}"
    announce(9, f"normal-form invariance on {len(members)} members x 20 seeds", t0, budget=15.0)


def test_criterion_10_cli_determinism(tmp_path, capsys):
    t0 = time.monotonic()
    hex_file = tmp_path / "hex.fano"
    mix_file = tmp_path / "mix.fano"
    save_polytope(hexagon(), hex_file)
    save_polytope(direct_sum(bundle_b(1), hexagon()), mix_file)

    def run_all(tag: str) -> tuple[str, bytes, bytes]:
        gen_out = tmp_path / f"gen_{tag}.fano"
        split_dir = tmp_path / f"split_{tag}"
        for cmd in (
            ["gen", "bundleB", "2", "-o", str(gen_out)],
            ["gen", "random_image", "hexagon", "--seed", "9", "-o", str(gen_out.with_suffix(".r"))],
            ["check", str(hex_file)],
            ["analyze", str(mix_file)],
            ["split", str(mix_file), "-o", str(split_dir)],
            ["nf", str(hex_file)],
            ["eq", str(hex_file), str(mix_file)],
            ["verify", str(hex_file), str(mix_file)],
            ["verify", str(mix_file), "--json"],
        ):
            main(cmd)
        stdout = capsys.readouterr().out
        manifest = (split_dir / "decomposition.txt").read_bytes()
        gen_bytes = gen_out.read_bytes() + gen_out.with_suffix(".r").read_bytes()
        return stdout, manifest, gen_bytes

    first = run_all("a")
    second = run_all("b")
    assert first == second
    announce(10, "CLI outputs byte-identical across runs", t0)
