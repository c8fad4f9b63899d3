"""Per-facet analysis: vertex levels, opposite vertices, and the goodness
partition of a special facet's vertex set.

Terminology used throughout (all relative to a facet frame F of a smooth
Fano polytope):

* level of a vertex x: the value of F's outer normal on x (1 on F itself,
  at most 1 everywhere);
* eta vector: the count of vertices per level;
* opp(F, v): the unique vertex of the neighboring facet across the ridge
  F minus v that is not on F;
* v is good when opp(F, v) lies at level 0;
* phi(v): opp(F, v) + v when that point is again a frame vertex, else 0.

The frame's vertex set splits into A (good, phi != 0), B (good, phi = 0) and
C (not good).  A' keeps the members of A whose negation is also a vertex;
the paired core keeps those whose phi-partner is in A' as well and whose
gamma coordinates (of the vertex sum) vanish on the pair.  Pairs in the core
are exactly the candidates for hexagon splitting.

The partition also carries every vertex's level, the eta vector, the
negation of each member of A' and the orbit {v, w, w - v, v - w, -v, -w} of
each paired-core pair (v, w), so no consumer derives them again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .errors import InvariantViolationError, NotSpecialFacetError
from .polytope import (FacetFrame, Polytope, frame_coords, frame_levels, opposite_indices,
                       vertex_deficit, vertex_sum)


@dataclass(frozen=True)
class EtaVector:
    """Vertex counts per level for one facet, with the instance scalars."""

    counts: Mapping[int, int]
    d: int
    n: int
    k: int

    def __post_init__(self):
        if any(j > 1 for j in self.counts):
            raise InvariantViolationError("vertex above facet level 1")
        if self.counts.get(1, 0) != self.d:
            raise InvariantViolationError(
                f"level 1 holds {self.counts.get(1, 0)} vertices, expected d = {self.d}"
            )
        if sum(self.counts.values()) != self.n:
            raise InvariantViolationError("level counts do not sum to the vertex count")

    def eta(self, j: int) -> int:
        return self.counts.get(j, 0)

    def at_most(self, j: int) -> int:
        """Number of vertices on level j or below."""
        return sum(c for level, c in self.counts.items() if level <= j)

    def as_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.counts.items(), reverse=True))


def levels_and_eta(p: Polytope, f: FacetFrame) -> tuple[dict[int, int], EtaVector]:
    """Level of every vertex w.r.t. f's outer normal, the sum of its row of
    `frame_coords`, and the aggregated counts."""
    values = frame_levels(p, f).tolist()
    levels = dict(enumerate(values))
    counts: dict[int, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    eta = EtaVector(counts, p.dim, p.n, vertex_deficit(p))
    return levels, eta


def opposites(p: Polytope, f: FacetFrame) -> dict[int, int]:
    """opp(F, v) for every frame vertex v, as a map of vertex indices."""
    opp = opposite_indices(p, f)
    return {v: o for v, o in zip(f.vertex_indices, opp)}


def phi_map(p: Polytope, f: FacetFrame, opp: Mapping[int, int]) -> dict[int, int | None]:
    """phi(v) = opp(F, v) + v when that point is a frame vertex, else None.

    In f's coordinates frame vertex k is e_k, so phi(v) is frame vertex k
    exactly when C[opp(v)] = e_k - e_j, j the position of v: a row at level
    0 with entries of absolute sum 2 and -1 at j.
    """
    idx = f.vertex_indices
    y = [opp[v] for v in idx]
    rows = frame_coords(p, f).take(y, axis=0)  # row j is C[opp(v_j)]
    levels = frame_levels(p, f).tolist()
    weight = np.abs(rows).sum(axis=1).tolist()
    own, k = rows.diagonal().tolist(), rows.argmax(axis=1).tolist()
    return {v: idx[k[j]] if levels[y[j]] == 0 and weight[j] == 2 and own[j] == -1 else None
            for j, v in enumerate(idx)}


@dataclass(frozen=True)
class GoodnessPartition:
    """The A/B/C partition of a special facet, with phi, opposites, gamma, the
    levels, eta and the negations of A' (all vertex references are indices)."""

    frame: FacetFrame
    a: frozenset[int]
    b: frozenset[int]
    c: frozenset[int]
    phi: Mapping[int, int | None]
    opp: Mapping[int, int]
    a_prime: frozenset[int]
    a_bar: frozenset[int]
    gamma: tuple[int, ...]
    levels: tuple[int, ...]
    eta: EtaVector
    negation: Mapping[int, int]

    @cached_property
    def bar_pairs(self) -> tuple[tuple[int, int], ...]:
        """The paired core as disjoint (v, phi(v)) pairs, each sorted."""
        seen = set()
        pairs = []
        for v in sorted(self.a_bar):
            if v in seen:
                continue
            w = self.phi[v]
            pairs.append((v, w))
            seen.update((v, w))
        return tuple(pairs)

    @cached_property
    def orbits(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """The orbit (v, w, w - v, v - w, -v, -w) of each paired-core pair (v, w):
        phi(v) = w and phi(w) = v make w - v and v - w the opposites."""
        opp, neg = self.opp, self.negation
        return {(v, w): (v, w, opp[v], opp[w], neg[v], neg[w]) for v, w in self.bar_pairs}

    def gamma_of(self, vertex_index: int) -> int:
        return self.gamma[self.frame.position_of(vertex_index)]


def goodness_partition(p: Polytope, f: FacetFrame) -> GoodnessPartition:
    """Partition f's vertex set by goodness and build the paired core.

    Requires f to be special (NotSpecialFacetError otherwise): the gamma
    coordinates of the vertex sum must be nonnegative, which the paired-core
    definition depends on.
    """
    s = vertex_sum(p)
    gamma = f.coordinates(s)
    if any(g < 0 for g in gamma):
        raise NotSpecialFacetError(
            f"facet {f.vertex_indices} has negative gamma coordinates {gamma}"
        )
    levels, eta = levels_and_eta(p, f)
    opp = opposites(p, f)
    phi = phi_map(p, f, opp)
    a, b, c = set(), set(), set()
    for v in f.vertex_indices:
        if levels[opp[v]] == 0:
            (a if phi[v] is not None else b).add(v)
        else:
            c.add(v)
    # -v is the vertex whose coordinate row is -e_j, j the position of v: the
    # row at level -1 with one nonzero entry, at j
    low = [i for i, lv in levels.items() if lv == -1]
    rows = frame_coords(p, f).take(low, axis=0)
    single = (rows.astype(bool).sum(axis=1) == 1).tolist()
    at = {j: i for i, j, one in zip(low, rows.argmin(axis=1).tolist(), single) if one}
    negation = {v: at[j] for j, v in enumerate(f.vertex_indices) if v in a and j in at}
    a_prime = negation.keys()
    pos = f.positions
    a_bar = {
        v for v in a_prime
        if phi[v] in a_prime and gamma[pos[v]] == 0 and gamma[pos[phi[v]]] == 0
    }
    for v in a_bar:
        w = phi[v]
        if w not in a_bar or phi[w] != v:
            raise InvariantViolationError(
                f"paired core is not closed under phi at vertex {v}"
            )
    return GoodnessPartition(
        frame=f,
        a=frozenset(a),
        b=frozenset(b),
        c=frozenset(c),
        phi=phi,
        opp=opp,
        a_prime=frozenset(a_prime),
        a_bar=frozenset(a_bar),
        gamma=gamma,
        levels=tuple(levels.values()),
        eta=eta,
        negation=negation,
    )


def support_bound_violation(coords: np.ndarray, levels: Sequence[int],
                            bar_positions: Sequence[int], k: int) -> tuple[int, int, int] | None:
    """The first vertex on a negative level whose row of the coordinate
    array is nonzero at more than 2k + 2 paired-core positions, as
    (vertex, support, 2k + 2)."""
    bound = 2 * k + 2
    if len(bar_positions) <= bound:  # no row can exceed it
        return None
    support = coords.astype(bool)[:, bar_positions].sum(axis=1)
    over = (support > bound).nonzero()[0].tolist()
    i = next((i for i in over if levels[i] <= -1), None)
    return None if i is None else (i, int(support[i]), bound)
