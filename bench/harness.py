"""Benchmark passes: inputs, timed CLI calls, oracle verdicts and metrics."""

from __future__ import annotations

import io
import os
import resource
import shutil
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import workloads
from fanosplit import cli
from oracle import Op, Oracle, Outcome, known_defect
from speed import REFERENCE_S, kernel_seconds
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
# the speed kernel runs before the first op of a pass, after its last, and
# between ops once this much time has passed since it last ran
KERNEL_EVERY_S = 0.2


def run_op(argv: list[str]):
    """One `cli.main` call; returns (seconds, Outcome)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as e:
        code = e.code
    except Exception as e:  # an op that crashes counts as failed
        error = f"{type(e).__name__}: {e}"
    return perf_counter() - t0, Outcome(code, out.getvalue(), err.getvalue(), error)


class Bench:
    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.specs = workloads.WORKLOADS[workload]
        self.out = BENCH / "out"
        self.work = self.out / f"work-{os.getpid()}"
        self.polytopes = {}
        self.oracle = Oracle()
        self.tracer = None
        if trace:
            self.tracer = Tracer()
        # op times are reference times (see speed.py) unless named raw
        self.op_seconds: list[float] = []
        self.template_seconds: dict[int, list[float]] = {}
        self.pass_seconds: list[float] = []
        self.raw_pass_seconds: list[float] = []
        self.traced_pass_seconds: list[float] = []
        self.op_scale: dict[int, float] = {}  # tracer op id -> reference factor
        self.kernel_seconds: list[float] = []
        self.setup_once: dict[str, float] = {}  # set-up steps before the first pass
        self.setup_seconds: list[float] = []  # one per pass: its inputs
        self.attempted = 0
        self.failures: list[str] = []
        self.unexpected = 0
        self.ops_run = 0

    def make_pass(self, index: int, specs=None, tag: str | None = None):
        """Write one pass's input files; return its ops."""
        specs = specs or self.specs
        tag = tag or f"p{index}"
        where = self.work / tag
        where.mkdir(parents=True)
        ops = []
        for i, spec in enumerate(specs):
            files, inputs = [], []
            for slot, b in enumerate(spec.bases):
                path = where / f"op{i:03d}_{slot}.fano"
                label = f"{self.workload} seed={self.seed} {tag} op={i}"
                if b is None:
                    q, text = None, workloads.malformed_text(label)
                else:
                    s = workloads.op_seed(self.workload, self.seed, index, i, slot)
                    q = workloads.disguise(self.polytopes[b], s, spec.shuffle_only)
                    text = workloads.fano_text(q, label)
                path.write_text(text, encoding="ascii")
                files.append(str(path))
                inputs.append(q)
            outdir = None
            if spec.kind == "split-o":
                outdir = where / f"op{i:03d}_out"
                argv = ["split", files[0], "-o", str(outdir)]
            else:
                argv = [spec.kind, *files]
            ops.append(Op(i, spec, argv, tuple(inputs), outdir))
        return ops

    def kernel(self) -> float:
        k = kernel_seconds()
        self.kernel_seconds.append(k)
        return k

    def run_pass(self, ops, traced: bool):
        """Run the ops in order; returns [(raw s, reference s, Outcome)]."""
        raw, before, kernels = [], [], [self.kernel()]
        last = perf_counter()
        ids = range(self.ops_run, self.ops_run + len(ops))
        if traced:
            self.tracer.install()
        try:
            for op_id, op in zip(ids, ops):
                if perf_counter() - last >= KERNEL_EVERY_S:
                    kernels.append(self.kernel())
                    last = perf_counter()
                before.append(len(kernels) - 1)
                if traced:
                    self.tracer.begin_op(op_id)
                raw.append(run_op(op.argv))
        finally:
            if traced:
                self.tracer.uninstall()
        self.ops_run += len(ops)
        kernels.append(self.kernel())
        results = []
        for op_id, (t, outcome), k in zip(ids, raw, before):
            scale = REFERENCE_S / ((kernels[k] + kernels[k + 1]) / 2)
            self.op_scale[op_id] = scale
            results.append((t, t * scale, outcome))
        return results

    def judge(self, ops, results) -> None:
        for op, (_, _, outcome) in zip(ops, results):
            self.attempted += 1
            try:
                problem = self.oracle.judge(op, outcome)
            except (OSError, ValueError, KeyError) as e:
                problem = f"oracle could not read the output: {e}"
            if problem is None:
                continue
            self.failures.append(f"{op.spec.kind} {op.key[1]}: {problem}")
            if not known_defect(op, outcome):
                self.unexpected += 1

    def set_up(self, imported: float) -> None:
        """Time the set-up before the first pass, in reference seconds:
        `imported` (seconds of imports), the median of three builds of the
        base polytopes, and the warm-up."""
        self.setup_once["imports"] = imported * REFERENCE_S / self.kernel()
        self.setup_once["bases"] = statistics.median(
            self.timed(self.build_bases)[1] for _ in range(3))
        self.setup_once["warm-up"] = self.timed(self.warm_up)[1]

    def timed(self, fn, *args):
        """fn(*args) and its reference seconds, from the speed kernel run
        just before and just after it."""
        k = self.kernel()
        t0 = perf_counter()
        result = fn(*args)
        t = perf_counter() - t0
        return result, t * REFERENCE_S / ((k + self.kernel()) / 2)

    def build_bases(self) -> None:
        self.polytopes = {}
        for spec in self.specs:
            for b in spec.bases:
                if b is not None and b not in self.polytopes:
                    self.polytopes[b] = b.build()

    def warm_up(self) -> None:
        """Prove the oracle rejects a wrong expectation, check the fast
        disguise, and run every command once on a small input."""
        workloads.check_fast_image()
        small = workloads.base("bundleB1", hexagons=1)
        self.polytopes[small] = small.build()
        specs = [workloads.OpSpec(kind, (small,) * (2 if kind == "eq" else 1))
                 for kind in ("check", "analyze", "split", "split-o", "nf", "eq", "verify")]
        ops = self.make_pass(-1, specs, "warm-up")
        results = [run_op(op.argv) for op in ops]
        split_op, (_, outcome) = ops[3], results[3]
        for op, (_, out) in zip(ops, results):
            problem = Oracle().judge(op, out)
            if problem is not None:
                raise RuntimeError(f"warm-up {op.spec.kind} failed: {problem}")
        wrong = workloads.OpSpec("split-o", (workloads.base("bundleB1", hexagons=2),))
        if Oracle().judge(replace(split_op, spec=wrong), outcome) is None:
            raise RuntimeError("oracle self-check: a wrong expected hexagon count passed")
        shutil.rmtree(self.work / "warm-up")

    def measure(self, seconds: float) -> None:
        start = perf_counter()
        index = 0
        while True:
            t0 = perf_counter()
            ops, made = self.timed(self.make_pass, index)
            self.setup_seconds.append(made)
            traced = self.tracer is not None and index % 2 == 1
            results = self.run_pass(ops, traced)
            self.judge(ops, results)
            shutil.rmtree(self.work / f"p{index}")
            ref = sum(r for _, r, _ in results)
            if traced:
                self.traced_pass_seconds.append(ref)
            else:
                self.pass_seconds.append(ref)
                self.raw_pass_seconds.append(sum(t for t, _, _ in results))
                self.op_seconds.extend(r for _, r, _ in results)
                for op, (_, r, _) in zip(ops, results):
                    self.template_seconds.setdefault(op.index, []).append(r)
            index += 1
            # stop when one more pass like this one would end after `seconds`
            now = perf_counter()
            done = index >= (2 if self.tracer else 1)
            if done and (now - start) + (now - t0) > seconds:
                break

    def end_to_end(self) -> dict:
        pct = workloads.TAIL_PERCENTILE[self.workload]
        ms = [t * 1000 for t in self.op_seconds]
        tail = statistics.quantiles(ms, n=100, method="inclusive")[pct - 1]
        beyond = sum(1 for t in ms if t > tail)
        typical = [statistics.median(self.template_seconds[i]) for i in range(len(self.specs))]
        self.notes = [
            f"times are reference times; speed kernel median "
            f"{statistics.median(self.kernel_seconds) * 1000:.2f} ms "
            f"(reference {REFERENCE_S * 1000:.2f} ms) over {len(self.kernel_seconds)} runs",
            f"wall_s: sum of the median times of {len(self.specs)} op templates over "
            f"{len(self.pass_seconds)} passes; pass times "
            + " ".join(f"{t:.3f}" for t in self.pass_seconds)
            + ", raw " + " ".join(f"{t:.3f}" for t in self.raw_pass_seconds),
            f"op_ms.p50, op_ms.tail: {len(ms)} ops; tail is p{pct}, {beyond} ops beyond it",
            "setup_s: " + ", ".join(f"{k} {v:.3f} s" for k, v in self.setup_once.items())
            + f", median of {len(self.setup_seconds)} pass input set-ups "
            + f"{statistics.median(self.setup_seconds):.3f} s",
        ]
        for i, spec in enumerate(self.specs):
            bases = " ".join(b.name if b else "malformed" for b in spec.bases)
            self.notes.append(f"  op {i:3d} {typical[i] * 1000:10.2f} ms  {spec.kind} {bases}")
        return {
            "wall_s": (sum(typical), "s"),
            "op_ms.p50": (statistics.median(ms), "ms"),
            "op_ms.tail": (tail, "ms"),
            "setup_s": (sum(self.setup_once.values()) + statistics.median(self.setup_seconds),
                        "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    def per_layer(self) -> dict:
        tr = self.tracer
        s = tr.summary(self.op_scale)
        passes = len(self.traced_pass_seconds)

        def per_pass(key):
            return s.get(key, 0.0) / passes

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for name in PER_LAYER_SELF:
            out[f"{name}.self_s"] = (per_pass(f"{name}.self_s"), "s")
        for name in PER_LAYER_CALLS:
            out[f"{name}.calls"] = (per_pass(f"{name}.calls"), "count")
        for layer in LAYER_NAMES:
            out[f"{layer}.self_s"] = (per_pass(f"{layer}.self_s"), "s")
        out["polytope.facets"] = (tr.facets / passes, "count")
        out["polytope.facets_per_s"] = (
            ratio(tr.facets, s.get("polytope.certify_full.total_s", 0.0)), "1/s")
        out["equivalence.frames_per_s"] = (
            ratio(tr.frames, s.get("equivalence.normal_form.total_s", 0.0)), "1/s")
        out["equivalence.eq_shortcut_ratio"] = (ratio(s["eq.shortcut"], s["eq.calls"]), "ratio")
        out["splitting.clean_ratio"] = (ratio(tr.pairs_clean, tr.pairs_offered), "ratio")
        traced = statistics.median(self.traced_pass_seconds)
        out["trace.overhead_ratio"] = (traced / statistics.median(self.pass_seconds) - 1, "ratio")
        coverage = ratio(s["trace.self_s"], sum(self.traced_pass_seconds))
        out["trace.coverage_ratio"] = (coverage, "ratio")
        # above 1 when two verify threads overlap; below, time escaped the spans
        if coverage < 0.95:
            print(f"trace: layer self times cover {coverage:.3f} of traced op time",
                  file=sys.stderr)
            self.unexpected += 1
        return out


# span names whose self time the traced run reports (layer map in README.md)
PER_LAYER_SELF = (
    "polytope.certify_full", "polytope.certify_local", "polytope.special_facet",
    "polytope.pivot", "polytope.opposite_indices", "polytope.make_polytope",
    "linalg.coords_rows", "linalg.products_with", "linalg.scaled_dual",
    "linalg.int_rank", "linalg.IntKernel.reduce", "linalg.IntKernel.rows",
    "analysis.goodness_partition", "splitting.hexagon_split",
    "splitting.finest_split", "splitting.clean_pairs", "equivalence.normal_form",
    "equivalence.are_equivalent", "cli.main", "fanofile.load_polytope",
    "fanofile.parse_fano", "fanofile.save_polytope", "verify.verify_bounds",
    "verify.classify_level_minus_one",
)
PER_LAYER_CALLS = ("linalg.coords_rows", "linalg.products_with", "polytope.pivot",
                   "equivalence.normal_form")
LAYER_NAMES = ("cli", "fanofile", "polytope", "linalg", "analysis", "splitting",
               "equivalence", "verify")
