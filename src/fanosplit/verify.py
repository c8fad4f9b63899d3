"""Structural-claim harness: evaluates every in-scope inequality and
structural property of the facet analysis on a concrete instance and emits a
line-oriented report.

Every check is exact.  Checks whose stated bounds involve the vertex deficit
k are hard assertions only in the regime k >= 3; below that they are still
evaluated but reported as `report-only`, never failing the report.  Checks
whose quantification domain is empty report `not-applicable`.

A genuine `fail` on a validated polytope is surfaced as a candidate
implementation bug (or counterexample) and fails the whole report.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .analysis import GoodnessPartition, goodness_partition, levels_and_eta
from .errors import UnclassifiableVertexError, InvariantViolationError
from .linalg import vec_neg, vec_sub
from .polytope import (
    FacetFrame,
    Mode,
    Polytope,
    _opposites,
    enumerate_facets,
    pivot,
    require_smooth_fano,
    special_facet,
    vertex_deficit,
    vertex_sum,
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
        self.mode = mode
        self.d = p.dim
        self.n = p.n
        self.k = vertex_deficit(p)
        self.frame = special_facet(p, mode)
        self.levels_map, self.eta = levels_and_eta(p, self.frame)
        self.levels = [self.levels_map[i] for i in range(p.n)]
        self.g = goodness_partition(p, self.frame)
        self.coords = p.coords_rows(self.frame.dual_basis.entries)
        self.pos = {v: j for j, v in enumerate(self.frame.vertex_indices)}
        self.v_minus1 = [i for i, lv in enumerate(self.levels) if lv == -1]
        self.s_level = sum(self.frame.coordinates(vertex_sum(p)))

    @cached_property
    def opposite_failures(self) -> tuple[str | None, str | None]:
        """First failures of the opposite-coordinate and level-zero-opposites
        checks, from one walk over every facet (FULL) or the special facet."""
        frames = enumerate_facets(self.p) if self.mode is Mode.FULL else (self.frame,)
        coord_fail = zero_fail = None
        for f in frames:
            coords = self.p.coords_rows(f.dual_basis.entries)
            opp = _opposites(f, coords)
            coord_fail = coord_fail or _opposite_coordinate_failure(f, coords, opp)
            zero_fail = zero_fail or _level_zero_failure(f, coords, opp)
            if coord_fail and zero_fail:
                break
        return coord_fail, zero_fail


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
    are asserted as well.
    """
    g = goodness_partition(p, f)
    coords = p.coords_rows(f.dual_basis.entries)
    levels = p.products(f.outer_normal)
    pos = {v: j for j, v in enumerate(f.vertex_indices)}
    out = {TYPE_C_OPPOSITE: [], TYPE_B_SUPPORTED: [], TYPE_NEGATED_BASIS: []}
    for i, lv in enumerate(levels):
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
                    f"the sign pattern: {row}"
                )
            out[TYPE_B_SUPPORTED].append(i)
            continue
        z = p.index_of(vec_neg(p.vertices[i]))
        if z is None or z not in g.a:
            raise UnclassifiableVertexError(
                f"vertex {i} at level -1 fits no structural type (coords {row})"
            )
        out[TYPE_NEGATED_BASIS].append(i)
    counts = {t: tuple(v) for t, v in out.items()}
    k = vertex_deficit(p)
    if k >= 3:
        problems = _level_minus_one_bound_problems(counts, g, k)
        if problems:
            raise InvariantViolationError("; ".join(problems))
    return counts


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
    if eta.eta(1) != d:
        problems.append(f"eta_1={eta.eta(1)} != d")
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
    ok = 0 <= ctx.s_level <= ctx.k
    return ok, f"level of vertex sum is {ctx.s_level}, k={ctx.k}" if not ok else "", True


def _opposite_coordinate_failure(f, coords, opp):
    for j in range(len(opp)):
        if coords[opp[j]][j] != -1:
            return (f"facet {f.vertex_indices}: coordinate of opposite vertex "
                    f"{opp[j]} along position {j} is {coords[opp[j]][j]}")
    return None


def _level_zero_failure(f, coords, opp):
    opp_set = set(opp)
    for i, row in enumerate(coords):
        if sum(row) != 0:
            continue
        if i not in opp_set:
            return f"level-0 vertex {i} is opposite to no vertex of {f.vertex_indices}"
        for j, c in enumerate(row):
            is_opp = opp[j] == i
            if is_opp != (c < 0) or (c < 0 and c != -1):
                return f"level-0 vertex {i}, facet position {j}: coordinate {c} vs opposite={is_opp}"
    return None


def _check_opposite_coordinate(ctx):
    details = ctx.opposite_failures[0]
    return details is None, details or "", True


def _check_level_zero_opposites(ctx):
    details = ctx.opposite_failures[1]
    return details is None, details or "", True


def _check_unique_opposite_iff_phi(ctx):
    g = ctx.g
    for v in sorted(g.a | g.b):
        unique = all(
            g.opp[w] != g.opp[v] for w in ctx.frame.vertex_indices if w != v
        )
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


def _expansion_rows(ctx):
    """(z, coords of opp(F, z)) pairs indexed by frame vertex."""
    for v in ctx.frame.vertex_indices:
        yield v, ctx.coords[ctx.g.opp[v]]


def _check_expansion_structure(ctx):
    g = ctx.g
    for z, row in _expansion_rows(ctx):
        jz = ctx.pos[z]
        if row[jz] != -1:
            return False, f"opp({z}) has coordinate {row[jz]} at its own position", True
        rest = sum(row) + 1  # coefficient sum without the -1 at z
        if z in g.a:
            expect = vec_sub(ctx.p.vertices[g.phi[z]], ctx.p.vertices[z])
            if ctx.p.vertices[g.opp[z]] != expect:
                return False, f"opp({z}) != phi({z}) - {z} for a phi-paired vertex", True
        elif z in g.b:
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
        else:
            if rest > 0:
                return False, f"opp({z}) of non-good vertex has coefficient sum {rest} > 0", True
    return True, "", True


def _check_expansion_bounds(ctx):
    g, k = ctx.g, ctx.k
    applicable = False
    for z, row in _expansion_rows(ctx):
        if z not in g.b:
            continue
        applicable = True
        a_sum = sum(row[ctx.pos[u]] for u in g.a)
        b_sum = sum(row[ctx.pos[v]] for v in g.b if v != z)
        if a_sum > k + 1:
            return False, f"opp({z}): phi-paired coefficient sum {a_sum} > k+1={k + 1}", True
        if b_sum < -k:
            return False, f"opp({z}): good-phi-zero coefficient sum {b_sum} < -k={-k}", True
    return True, "", applicable


def _check_good_neighbor_normal(ctx):
    g = ctx.g
    good = sorted(g.a | g.b)
    for z in good:
        neigh, _ = pivot(ctx.p, ctx.frame, z)
        expect = vec_sub(ctx.frame.outer_normal, ctx.frame.dual_basis.row(ctx.pos[z]))
        if neigh.outer_normal != expect:
            return False, f"neighbor normal across good vertex {z} is not u_F - u_z", True
    return True, "", bool(good)


def _check_opposite_is_lowest(ctx):
    g = ctx.g
    for z in ctx.frame.vertex_indices:
        jz = ctx.pos[z]
        opp_level = ctx.levels[g.opp[z]]
        for i in range(ctx.n):
            if i == g.opp[z] or ctx.coords[i][jz] >= 0:
                continue
            if ctx.levels[i] >= opp_level:
                return False, (
                    f"vertex {i} has negative coordinate at {z} but level "
                    f"{ctx.levels[i]} >= level of opp ({opp_level})"
                ), True
    return True, "", True


def _check_nongood_low_vertex(ctx):
    g = ctx.g
    for w in sorted(g.c):
        jw = ctx.pos[w]
        hits = [i for i in ctx.v_minus1 if ctx.coords[i][jw] < 0]
        if len(hits) > 1:
            return False, f"non-good vertex {w} has {len(hits)} level -1 vertices below it", True
        if hits and hits[0] != g.opp[w]:
            return False, f"level -1 vertex {hits[0]} below {w} is not opp({w})", True
    return True, "", bool(g.c)


def _check_shared_low_coordinate(ctx):
    g = ctx.g
    good = sorted(g.a | g.b)
    for z in good:
        jz = ctx.pos[z]
        y_row = ctx.coords[g.opp[z]]
        carriers = [i for i in ctx.v_minus1 if ctx.coords[i][jz] == -1]
        for jbar in range(ctx.d):
            low = [i for i in carriers if ctx.coords[i][jbar] < y_row[jbar]]
            if len(low) > 1:
                return False, (
                    f"positions ({jz}, {jbar}): {len(low)} level -1 vertices dip "
                    f"below opp({z})"
                ), True
    return True, "", bool(good)


def _check_separating_coordinate(ctx):
    # a vertex below another has a smaller coordinate somewhere, because each
    # level is the sum of the vertex's coordinate row; checking that premise
    # proves the claim
    for i, (row, level) in enumerate(zip(ctx.coords, ctx.levels)):
        if sum(row) != level:
            return False, f"level {level} of vertex {i} is not its coordinate sum {sum(row)}", True
    return True, "", True


def _check_no_shared_minus_one(ctx):
    g = ctx.g
    good = sorted(g.a | g.b)
    applicable = False
    for ai in range(len(good)):
        for bi in range(ai + 1, len(good)):
            v, w = good[ai], good[bi]
            if g.opp[v] == g.opp[w]:
                continue
            applicable = True
            jv, jw = ctx.pos[v], ctx.pos[w]
            for i in ctx.v_minus1:
                if ctx.coords[i][jv] == -1 and ctx.coords[i][jw] == -1:
                    return False, (
                        f"level -1 vertex {i} has coordinate -1 at both {v} and {w} "
                        f"despite distinct opposites"
                    ), True
    return True, "", applicable


def _check_level_minus_one_types(ctx):
    if not ctx.v_minus1:
        return True, "", False
    try:
        counts = classify_level_minus_one(ctx.p, ctx.frame)
    except (UnclassifiableVertexError, InvariantViolationError) as e:
        return False, str(e), True
    problems = _level_minus_one_bound_problems(counts, ctx.g, ctx.k)
    return not problems, "; ".join(problems), True


def _check_phi_almost_involution(ctx):
    g = ctx.g
    for v in sorted(g.a_prime):
        w = g.phi[v]
        if w is None:
            return False, f"phi-paired vertex {v} has phi = 0", True
        ww = g.phi[w]
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
    g, k = ctx.g, ctx.k
    bar_positions = [ctx.pos[v] for v in sorted(g.a_bar)]
    low = [i for i, lv in enumerate(ctx.levels) if lv <= -1]
    if not low:
        return True, "", False
    for i in low:
        support = sum(1 for j in bar_positions if ctx.coords[i][j] != 0)
        if support > 2 * k + 2:
            return False, (
                f"vertex {i} touches {support} paired-core directions, "
                f"bound is 2k+2={2 * k + 2}"
            ), True
    return True, "", True


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
    """Run the full checklist on p at its special facet.

    In FULL mode the opposite-coordinate and level-zero-opposites checks run
    across every facet; in LOCAL mode only at the special facet.
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
