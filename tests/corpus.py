"""Shared instance corpus: the named generators, their pairwise direct sums
up to dimension 10, seeded unimodular disguises of each, and two large
disguised sums."""

from __future__ import annotations

from itertools import combinations_with_replacement

from fanosplit.generators import (
    bundle_b,
    example4d,
    hexagon,
    pentagon,
    random_image,
    simplex,
)
from fanosplit.polytope import Polytope
from fanosplit.splitting import direct_sum

MAX_SUM_DIM = 10


def generator_instances() -> list[tuple[str, Polytope]]:
    return [
        ("hexagon", hexagon()),
        ("pentagon", pentagon()),
        ("simplex1", simplex(1)),
        ("simplex2", simplex(2)),
        ("simplex3", simplex(3)),
        ("example4d", example4d()),
        ("bundleB1", bundle_b(1)),
        ("bundleB2", bundle_b(2)),
        ("bundleB3", bundle_b(3)),
    ]


def base_instances() -> list[tuple[str, Polytope]]:
    gens = generator_instances()
    out = list(gens)
    for (na, a), (nb, b) in combinations_with_replacement(gens, 2):
        if a.dim + b.dim <= MAX_SUM_DIM:
            out.append((f"{na}+{nb}", direct_sum(a, b)))
    return out


def imaged(p: Polytope, seeds: range) -> list[Polytope]:
    return [random_image(p, seed) for seed in seeds]


def large_sums() -> list[tuple[str, Polytope]]:
    """Disguised sums above the FULL range with many paired-core pairs:
    bundleB1^3+hexagon^40 (d = 89) and pentagon+hexagon^60 (d = 122)."""
    b = bundle_b(1)
    out = []
    for name, p, m in (("bundleB1^3+hexagon^40", direct_sum(direct_sum(b, b), b), 40),
                       ("pentagon+hexagon^60", pentagon(), 60)):
        for _ in range(m):
            p = direct_sum(p, hexagon())
        out.append((name, random_image(p, 1)))
    return out


def reference_instances() -> list[tuple[str, Polytope]]:
    """Every base instance, one disguise of each, and the large sums."""
    return [(f"{name} {kind}", q) for name, p in base_instances()
            for kind, q in (("plain", p), ("disguised", random_image(p, 1)))] + large_sums()
