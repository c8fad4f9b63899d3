"""Structural-claim harness: evaluates every in-scope inequality and
structural property of the facet analysis on a concrete instance and emits a
line-oriented report.

Every check is exact.  Checks whose stated bounds involve the vertex deficit
k are hard assertions only in the regime k >= 3; below that they are still
evaluated but reported as `report-only`, never failing the report.  Checks
whose quantification domain is empty report `not-applicable`.

A genuine `fail` on a validated polytope is surfaced as a candidate
implementation bug (or counterexample) and fails the whole report.

Every check reads the special facet alone, in both modes.  The facet lemmas
of opposite-coordinate (opp(F, v) has coordinate -1 at v) and
level-zero-opposites (every level-0 vertex is such an opposite) hold at every
facet FULL validation enumerates: the vertex y entered across ridge j has
c_j(y) < 0, and the neighbour F - v_j + y has |det| = |c_j(y)| = 1.  A level-0
x with c_j(x) < 0 has ratio 1/|c_j(x)| <= 1 <= 1 - level(y), and ties raise
NotSimplicialError, so x = y; x is not the origin, so its row, summing to 0,
has a negative entry.  A hexagon summand is the standard hexagon, where both
hold by inspection.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .analysis import GoodnessPartition, goodness_partition, support_bound_violation
from .errors import UnclassifiableVertexError, InvariantViolationError
from .polytope import (
    FacetFrame,
    Mode,
    Polytope,
    frame_coords,
    require_smooth_fano,
    special_facet,
    vertex_deficit,
)

PASS = "pass"
FAIL = "fail"
REPORT_ONLY = "report-only"
NOT_APPLICABLE = "not-applicable"

# checks whose bounds involve the vertex deficit k; hard only for k >= 3
_K_DEPENDENT = frozenset({
    "eta-level-bounds",
    "vertex-sum-level",
    "partition-size-bounds",
    "opposite-expansion-bounds",
    "level-minus-one-types",
    "paired-core-size",
    "low-vertex-support-bound",
})

TYPE_C_OPPOSITE = "c-opposite"
TYPE_B_SUPPORTED = "b-supported"
TYPE_NEGATED_BASIS = "negated-basis"


@dataclass(frozen=True)
class CheckRecord:
    name: str
    status: str
    satisfied: bool | None
    details: str = ""

    def line(self) -> str:
        parts = [f"CHECK {self.name} {self.status}"]
        if self.status == REPORT_ONLY:
            parts.append("satisfied" if self.satisfied else "violated")
        if self.details and (self.status == FAIL or (self.status == REPORT_ONLY and not self.satisfied)):
            parts.append(self.details)
        return " ".join(parts)


@dataclass(frozen=True)
class BoundsReport:
    d: int
    n: int
    k: int
    mode: Mode
    checks: tuple[CheckRecord, ...]

    @property
    def passed(self) -> bool:
        return all(c.status != FAIL for c in self.checks)

    @property
    def all_satisfied(self) -> bool:
        """Pass plus every report-only check holding; useful in test suites."""
        return self.passed and all(
            c.satisfied is not False for c in self.checks
        )

    def lines(self) -> list[str]:
        head = f"INSTANCE d={self.d} n={self.n} k={self.k} mode={self.mode.value}"
        body = [c.line() for c in self.checks]
        tail = f"RESULT {'pass' if self.passed else 'fail'}"
        return [head, *body, tail]

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "n": self.n,
            "k": self.k,
            "mode": self.mode.value,
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "status": c.status,
                    "satisfied": c.satisfied,
                    "details": c.details,
                }
                for c in self.checks
            ],
        }


class _Ctx:
    """Shared per-instance analysis data for the checks."""

    def __init__(self, p: Polytope, mode: Mode):
        self.p = p
        self.d = p.dim
        self.n = p.n
        self.k = vertex_deficit(p)
        self.frame = special_facet(p, mode)
        self.g = goodness_partition(p, self.frame)
        self.levels, self.eta = self.g.levels, self.g.eta
        self.coords = frame_coords(p, self.frame)
        self.pos = self.frame.positions
        self.v_minus1 = [i for i, lv in enumerate(self.levels) if lv == -1]
        self.s_level = sum(self.g.gamma)  # the level of the vertex sum


def classify_level_minus_one(p: Polytope, f: FacetFrame) -> dict[str, tuple[int, ...]]:
    """Assign every level -1 vertex to exactly one structural type.

    * c-opposite: opposite of a non-good frame vertex with negative
      coordinate there;
    * b-supported: coordinate -1 at some good-phi-zero vertex, coordinates
      >= 0 on the rest of the frame except possibly further -1 entries in
      that set;
    * negated-basis: the negation of a good frame vertex with phi != 0.

    Raises UnclassifiableVertexError if a vertex fits no type (that would
    contradict the classification); when k >= 3 the per-type count bounds
    are asserted as well (InvariantViolationError).
    """
    g = goodness_partition(p, f)
    counts = _classify(p, f, g)
    k = vertex_deficit(p)
    if k >= 3:
        problems = _level_minus_one_bound_problems(counts, g, k)
        if problems:
            raise InvariantViolationError("; ".join(problems))
    return counts


def _classify(p: Polytope, f: FacetFrame, g: GoodnessPartition) -> dict[str, tuple[int, ...]]:
    """`classify_level_minus_one` on f's partition g, without the count bounds."""
    coords = frame_coords(p, f)
    pos = f.positions
    negated = set(g.negation.values())  # -v for each v in A'
    out = {TYPE_C_OPPOSITE: [], TYPE_B_SUPPORTED: [], TYPE_NEGATED_BASIS: []}
    for i, lv in enumerate(g.levels):
        if lv != -1:
            continue
        row = coords[i]
        neg_c = [w for w in g.c if row[pos[w]] < 0]
        if neg_c:
            if not any(g.opp[w] == i for w in neg_c):
                raise UnclassifiableVertexError(
                    f"vertex {i} has a negative non-good coordinate but is not "
                    f"the opposite of any such frame vertex"
                )
            out[TYPE_C_OPPOSITE].append(i)
            continue
        if any(row[pos[v]] == -1 for v in g.b):
            ok_rest = all(row[pos[u]] >= 0 for u in g.a) and \
                all(row[pos[w]] >= 0 for w in g.c) and \
                all(row[pos[v]] >= -1 for v in g.b)
            if not ok_rest:
                raise UnclassifiableVertexError(
                    f"vertex {i} dips at a good-phi-zero coordinate but violates "
                    f"the sign pattern: {tuple(row.tolist())}"
                )
            out[TYPE_B_SUPPORTED].append(i)
            continue
        if i not in negated:
            raise UnclassifiableVertexError(
                f"vertex {i} at level -1 fits no structural type (coords {tuple(row.tolist())})"
            )
        out[TYPE_NEGATED_BASIS].append(i)
    return {t: tuple(v) for t, v in out.items()}


def _level_minus_one_bound_problems(counts: dict[str, tuple[int, ...]],
                                    g: GoodnessPartition, k: int) -> list[str]:
    """The per-type count bounds on the classified level -1 vertices."""
    eta1 = sum(len(v) for v in counts.values())  # each has exactly one type
    n_c = len(counts[TYPE_C_OPPOSITE])
    n_b = len(counts[TYPE_B_SUPPORTED])
    n_a = len(counts[TYPE_NEGATED_BASIS])
    problems = []
    if n_c > len(g.c):
        problems.append(f"{n_c} c-opposite vertices > |C|={len(g.c)}")
    if n_b > (k + 1) * len(g.b):
        problems.append(f"{n_b} b-supported vertices > (k+1)|B|={(k + 1) * len(g.b)}")
    if n_a < eta1 - len(g.c) - (k + 1) * len(g.b):
        problems.append(
            f"{n_a} negated-basis vertices < {eta1 - len(g.c) - (k + 1) * len(g.b)}"
        )
    return problems


def _check_vertex_count(ctx):
    ok = ctx.n <= 3 * ctx.d
    return ok, f"n={ctx.n} exceeds 3d={3 * ctx.d}" if not ok else "", True


def _check_eta_bounds(ctx):
    eta, d, k = ctx.eta, ctx.d, ctx.k
    problems = []
    if not (d - k <= eta.eta(0) <= d):
        problems.append(f"eta_0={eta.eta(0)} outside [{d - k}, {d}]")
    if not (d - 2 * k <= eta.eta(-1) <= d):
        problems.append(f"eta_-1={eta.eta(-1)} outside [{d - 2 * k}, {d}]")
    if eta.at_most(-2) > 2 * k:
        problems.append(f"eta_<=-2={eta.at_most(-2)} > 2k={2 * k}")
    low = [j for j in eta.counts if j < -k - 1 and eta.counts[j]]
    if low:
        problems.append(f"vertices below level {-k - 1}: levels {sorted(low)}")
    return not problems, "; ".join(problems), True


def _check_sum_level(ctx):
    ok = ctx.s_level <= ctx.k
    return ok, f"level of vertex sum is {ctx.s_level}, k={ctx.k}" if not ok else "", True


def _check_opposite_coordinate(ctx):
    frame = ctx.frame.vertex_indices
    opp = [ctx.g.opp[v] for v in frame]
    at = ctx.coords[opp, range(len(opp))].tolist()
    j = next((j for j, c in enumerate(at) if c != -1), None)
    if j is not None:
        return False, (f"facet {frame}: coordinate of opposite vertex "
                       f"{opp[j]} along position {j} is {at[j]}"), True
    return True, "", True


def _check_level_zero_opposites(ctx):
    # row t of `bad` marks where level-0 vertex zero[t] breaks its rule:
    # coordinate -1 at each position it is opposite to, >= 0 at every other
    frame = ctx.frame.vertex_indices
    zero = [i for i, lv in enumerate(ctx.levels) if lv == 0]
    rows = ctx.coords[zero]
    is_opp = np.equal.outer(zero, [ctx.g.opp[v] for v in frame])
    bad = np.where(is_opp, rows != -1, rows < 0)
    failing = (~is_opp.any(axis=1) | bad.any(axis=1)).nonzero()[0]
    if failing.size:
        t = failing[0]
        if not is_opp[t].any():
            return False, f"level-0 vertex {zero[t]} is opposite to no vertex of {frame}", True
        j = int(bad[t].argmax())
        return False, (f"level-0 vertex {zero[t]}, facet position {j}: coordinate "
                       f"{int(rows[t, j])} vs opposite={bool(is_opp[t, j])}"), True
    return True, "", True


def _check_unique_opposite_iff_phi(ctx):
    g = ctx.g
    shared = Counter(g.opp[w] for w in ctx.frame.vertex_indices)
    for v in sorted(g.a | g.b):
        unique = shared[g.opp[v]] == 1
        if unique != (g.phi[v] is not None):
            return False, (
                f"good vertex {v}: unique opposite={unique} but phi="
                f"{g.phi[v]}"
            ), True
    return True, "", bool(g.a | g.b)


def _check_partition_sizes(ctx):
    g, d, k = ctx.g, ctx.d, ctx.k
    problems = []
    if len(g.a) < d - 2 * k:
        problems.append(f"|A|={len(g.a)} < d-2k={d - 2 * k}")
    if len(g.b) + len(g.c) > 2 * k:
        problems.append(f"|B|+|C|={len(g.b) + len(g.c)} > 2k={2 * k}")
    if len(g.c) > k:
        problems.append(f"|C|={len(g.c)} > k={k}")
    return not problems, "; ".join(problems), True


def _check_expansion_structure(ctx):
    # phi(z) is the vertex at opp(z) + z, so opp(z) = phi(z) - z holds for
    # every z in A by definition: only the own-position entry is checked there
    g = ctx.g
    frame = ctx.frame.vertex_indices
    own = ctx.coords[[g.opp[z] for z in frame], [ctx.pos[z] for z in frame]].tolist()
    for z, at_z in zip(frame, own):
        if at_z != -1:
            return False, f"opp({z}) has coordinate {at_z} at its own position", True
        rest = ctx.levels[g.opp[z]] + 1  # the coefficient sum without the -1 at z
        if z in g.b:
            row = ctx.coords[g.opp[z]].tolist()
            for u in g.a:
                if row[ctx.pos[u]] < 0:
                    return False, f"opp({z}): negative coefficient at phi-paired {u}", True
            for w in g.c:
                if row[ctx.pos[w]] < 0:
                    return False, f"opp({z}): negative coefficient at non-good {w}", True
            for v in g.b:
                if v != z and row[ctx.pos[v]] < -1:
                    return False, f"opp({z}): coefficient < -1 at {v}", True
            if rest != 1:
                return False, f"opp({z}): coefficient sum {rest} != 1", True
        elif z not in g.a and rest > 0:
            return False, f"opp({z}) of non-good vertex has coefficient sum {rest} > 0", True
    return True, "", True


def _check_expansion_bounds(ctx):
    g, k = ctx.g, ctx.k
    applicable = False
    for z in ctx.frame.vertex_indices:
        if z not in g.b:
            continue
        applicable = True
        row = ctx.coords[g.opp[z]].tolist()
        a_sum = sum(row[ctx.pos[u]] for u in g.a)
        b_sum = sum(row[ctx.pos[v]] for v in g.b if v != z)
        if a_sum > k + 1:
            return False, f"opp({z}): phi-paired coefficient sum {a_sum} > k+1={k + 1}", True
        if b_sum < -k:
            return False, f"opp({z}): good-phi-zero coefficient sum {b_sum} < -k={-k}", True
    return True, "", applicable


def _check_good_neighbor_normal(ctx):
    # u_F - u_z is the neighbour's normal iff it is <= 1 on P and 1 exactly on
    # F - z + opp(z), whose coordinate -1 of opp(z) at z makes it unimodular
    # column x of `values` is u_F - u_z on every vertex, z = good[x]; with
    # opp(z) among the vertices at 1, its maximum is 1 unless some value is larger
    g = ctx.g
    good = sorted(g.a | g.b)
    values = ctx.coords[:, [ctx.pos[z] for z in good]]  # a copy
    np.subtract(np.asarray(ctx.levels, dtype=values.dtype)[:, None], values, out=values)
    top = np.zeros(values.shape, dtype=bool)  # where each column should be 1
    top[list(ctx.frame.vertex_indices)] = True
    x = range(len(good))
    top[good, x], top[[g.opp[z] for z in good], x] = False, True
    bad = ((values > 1) | ((values == 1) != top)).any(axis=0).tolist()
    z = next((z for z, b in zip(good, bad) if b), None)
    if z is not None:
        return False, f"neighbor normal across good vertex {z} is not u_F - u_z", True
    return True, "", bool(good)


def _check_opposite_is_lowest(ctx):
    # the negative entries by frame position, then by vertex: the loop order
    # over (z, i), since position j holds frame vertex j
    g, levels = ctx.g, ctx.levels
    frame = ctx.frame.vertex_indices
    cols, rows = (ctx.coords.T < 0).nonzero()
    for j, i in zip(cols.tolist(), rows.tolist()):
        y = g.opp[frame[j]]
        if i != y and levels[i] >= levels[y]:
            return False, (
                f"vertex {i} has negative coordinate at {frame[j]} but level "
                f"{levels[i]} >= level of opp ({levels[y]})"
            ), True
    return True, "", True


def _check_nongood_low_vertex(ctx):
    g = ctx.g
    for w in sorted(g.c):
        column = ctx.coords[:, ctx.pos[w]].tolist()
        hits = [i for i in ctx.v_minus1 if column[i] < 0]
        if len(hits) > 1:
            return False, f"non-good vertex {w} has {len(hits)} level -1 vertices below it", True
        if hits and hits[0] != g.opp[w]:
            return False, f"level -1 vertex {hits[0]} below {w} is not opp({w})", True
    return True, "", bool(g.c)


def _check_shared_low_coordinate(ctx):
    # the carriers of z are the level -1 vertices with coordinate -1 at z;
    # row t of `below` compares carrier r[t] of good[x[t]] with opp(good[x[t]])
    g = ctx.g
    good = sorted(g.a | g.b)
    low = ctx.coords[ctx.v_minus1]
    x, r = (low == -1)[:, [ctx.pos[z] for z in good]].T.nonzero()
    if (x[1:] == x[:-1]).any():  # some z has two carriers
        below = low[r] < ctx.coords[[g.opp[good[t]] for t in x.tolist()]]
        counts = np.zeros((len(good), ctx.d), dtype=np.intp)  # carriers below opp(z), by position
        np.add.at(counts, x, below)
        if (counts > 1).any():
            t, jbar = divmod(int((counts > 1).argmax()), ctx.d)
            return False, (
                f"positions ({ctx.pos[good[t]]}, {jbar}): {counts[t, jbar]} level -1 vertices "
                f"dip below opp({good[t]})"
            ), True
    return True, "", bool(good)


def _check_separating_coordinate(ctx):
    # a vertex below another has a smaller coordinate somewhere, because each
    # level, the outer normal's value, is the sum of the vertex's coordinate
    # row (ctx.levels); checking that premise proves the claim
    values = ctx.p.products(ctx.frame.outer_normal)
    for i, (level, row_sum) in enumerate(zip(values, ctx.levels)):
        if level != row_sum:
            return False, f"level {level} of vertex {i} is not its coordinate sum {row_sum}", True
    return True, "", True


def _check_no_shared_minus_one(ctx):
    # one pass over the level -1 vertices; the reported failure is the first
    # in (good pair, vertex) order
    g = ctx.g
    good = sorted(g.a | g.b)
    minus = ctx.coords[ctx.v_minus1][:, [ctx.pos[v] for v in good]] == -1
    first = None
    for t in (minus.sum(axis=1) > 1).nonzero()[0].tolist():
        i = ctx.v_minus1[t]
        hits = [good[x] for x in minus[t].nonzero()[0].tolist()]
        pair = next(((v, w) for x, v in enumerate(hits) for w in hits[x + 1:]
                     if g.opp[v] != g.opp[w]), None)
        if pair is not None and (first is None or pair < first[0]):
            first = pair, i
    if first is not None:
        (v, w), i = first
        return False, (
            f"level -1 vertex {i} has coordinate -1 at both {v} and {w} "
            f"despite distinct opposites"
        ), True
    return True, "", len({g.opp[v] for v in good}) > 1


def _check_level_minus_one_types(ctx):
    if not ctx.v_minus1:
        return True, "", False
    try:
        counts = _classify(ctx.p, ctx.frame, ctx.g)
    except UnclassifiableVertexError as e:
        return False, str(e), True
    problems = _level_minus_one_bound_problems(counts, ctx.g, ctx.k)
    return not problems, "; ".join(problems), True


def _check_phi_almost_involution(ctx):
    g = ctx.g
    for v in sorted(g.a_prime):
        ww = g.phi[g.phi[v]]
        if ww is not None and ww != v:
            return False, f"phi(phi({v})) = {ww}, neither 0 nor {v}", True
    return True, "", bool(g.a_prime)


def _check_phi_preimage_bound(ctx):
    g = ctx.g
    if not g.a_prime:
        return True, "", False
    hits: dict[int, int] = {}
    for v in sorted(g.a_prime):
        z = g.phi[v]
        hits[z] = hits.get(z, 0) + 1
    worst = max(hits.values())
    if worst > 1:
        z = max(hits, key=lambda t: hits[t])
        return False, f"frame vertex {z} is phi-image of {hits[z]} negation-closed vertices", True
    return True, "", True


def _check_paired_core_size(ctx):
    g, d, k = ctx.g, ctx.d, ctx.k
    bound = 2 * len(g.a_prime) - d - 2 * k
    ok = len(g.a_bar) >= bound
    return ok, f"|paired core|={len(g.a_bar)} < {bound}" if not ok else "", True


def _check_low_vertex_support(ctx):
    bar_positions = [ctx.pos[v] for v in sorted(ctx.g.a_bar)]
    bad = support_bound_violation(ctx.coords, ctx.levels, bar_positions, ctx.k)
    if bad is None:
        return True, "", any(lv <= -1 for lv in ctx.levels)
    i, support, bound = bad
    return False, (f"vertex {i} touches {support} paired-core directions, "
                   f"bound is 2k+2={bound}"), True


_CHECKS = (
    ("vertex-count-max", _check_vertex_count),
    ("eta-level-bounds", _check_eta_bounds),
    ("vertex-sum-level", _check_sum_level),
    ("opposite-coordinate", _check_opposite_coordinate),
    ("level-zero-opposites", _check_level_zero_opposites),
    ("unique-opposite-iff-phi", _check_unique_opposite_iff_phi),
    ("partition-size-bounds", _check_partition_sizes),
    ("opposite-expansion-structure", _check_expansion_structure),
    ("opposite-expansion-bounds", _check_expansion_bounds),
    ("good-neighbor-normal", _check_good_neighbor_normal),
    ("opposite-is-lowest", _check_opposite_is_lowest),
    ("nongood-low-vertex", _check_nongood_low_vertex),
    ("shared-low-coordinate", _check_shared_low_coordinate),
    ("separating-coordinate", _check_separating_coordinate),
    ("no-shared-minus-one", _check_no_shared_minus_one),
    ("level-minus-one-types", _check_level_minus_one_types),
    ("phi-almost-involution", _check_phi_almost_involution),
    ("phi-preimage-bound", _check_phi_preimage_bound),
    ("paired-core-size", _check_paired_core_size),
    ("low-vertex-support-bound", _check_low_vertex_support),
)


def verify_bounds(p: Polytope, mode: Mode | None = None) -> BoundsReport:
    """Run the full checklist on p at its special facet, in either mode.

    No other facet is read: at every other facet, the facet lemmas that
    opposite-coordinate and level-zero-opposites check are proved by FULL
    validation (module docstring).
    """
    used = require_smooth_fano(p, mode)
    ctx = _Ctx(p, used)
    records = []
    for name, fn in _CHECKS:
        ok, details, applicable = fn(ctx)
        if not applicable:
            records.append(CheckRecord(name, NOT_APPLICABLE, None, ""))
        elif name in _K_DEPENDENT and ctx.k < 3:
            records.append(CheckRecord(name, REPORT_ONLY, bool(ok), details))
        elif ok:
            records.append(CheckRecord(name, PASS, True, ""))
        else:
            records.append(CheckRecord(name, FAIL, False, details))
    return BoundsReport(ctx.d, ctx.n, ctx.k, used, tuple(records))
