"""Outside-in span tracer for the fanosplit layers.

`install()` replaces every public function of the layer modules, in every
`fanosplit` namespace that holds it (so `from .polytope import pivot` in
`verify` is traced too), plus `IntKernel.reduce` and `IntKernel.rows`, with a
wrapper that records a span: (name, start, end, parent, op).  No file of the
package is edited, and `uninstall()` restores the originals.  Spans stay in
memory until `write()`.

Self time is a span's duration minus the part of it covered by its child
spans.  `is_smooth_fano` spans are named by mode: `polytope.certify_full`
(facet enumeration) and `polytope.certify_local` (gift-wrap).
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from fanosplit import (analysis, cli, equivalence, fanofile, linalg, polytope,
                       splitting, verify)

LAYERS = (cli, fanofile, polytope, linalg, analysis, splitting, equivalence, verify)

# vector helpers called in inner loops; a span costs more than their body,
# so their time stays in the caller's self time
_UNTRACED = {"dot", "vec_add", "vec_sub", "vec_neg", "gcd_of"}


def _layer_functions():
    for mod in LAYERS:
        layer = mod.__name__.rsplit(".", 1)[1]
        for attr, fn in vars(mod).items():
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and not attr.startswith("_") and attr not in _UNTRACED):
                yield f"{layer}.{attr}", fn


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple] = []  # (index, name id, start, end, parent, op)
        self._next = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()  # counters are updated from verify's threads
        self._patches: list[tuple[object, str, object]] = []
        self.op = -1
        self._root: int | None = None
        self.facets = 0
        self.frames = 0
        self.pairs_offered = 0
        self.pairs_clean = 0
        self._certified: dict[int, object] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        wrapped = {}
        for name, fn in _layer_functions():
            wrapped[fn] = self._wrap(name, fn)
        namespaces = [m for n, m in sys.modules.items()
                      if n == "fanosplit" or n.startswith("fanosplit.")]
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapped[value])
        for attr in ("reduce", "rows"):
            fn = getattr(linalg.IntKernel, attr)
            self._patches.append((linalg.IntKernel, attr, fn))
            setattr(linalg.IntKernel, attr, self._wrap(f"linalg.IntKernel.{attr}", fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def begin_op(self, op: int) -> None:
        self.op = op
        self._root = None
        self._certified.clear()

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer = self
        by_mode = name == "polytope.is_smooth_fano"
        if by_mode:
            full, local = self._id("polytope.certify_full"), self._id("polytope.certify_local")
            on_exit = self._count_facets
        else:
            full = local = self._id(name)
            on_exit = {
                "polytope.enumerate_facets": self._count_frames,
                "splitting.clean_pairs": self._count_pairs,
            }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = full
            if by_mode:
                mode = args[1] if len(args) > 1 else kwargs.get("mode")
                if mode is not None and mode.value == "local":
                    nid = local
            stack = tracer._stack()
            idx = next(tracer._next)
            if stack:
                parent = stack[-1][0]
            else:
                # a worker thread of the op, or the op's root span
                parent = tracer._root if tracer._root is not None else -1
                if tracer._root is None:
                    tracer._root = idx
            parent_nid = stack[-1][1] if stack else -1
            stack.append((idx, nid))
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans.append((idx, nid, t0, t1, parent, tracer.op))
            if on_exit is not None:
                with tracer._lock:
                    on_exit(nid, parent_nid, args, result)
            return result

        return traced

    def _count_facets(self, nid, parent_nid, args, cert) -> None:
        p = args[0]
        if (self.names[nid] == "polytope.certify_full" and cert.facet_count
                and id(p) not in self._certified):
            self._certified[id(p)] = p  # held so the id is not reused in this op
            self.facets += cert.facet_count

    def _count_frames(self, nid, parent_nid, args, frames) -> None:
        if parent_nid >= 0 and self.names[parent_nid] == "equivalence.normal_form":
            self.frames += len(frames)

    def _count_pairs(self, nid, parent_nid, args, pairs) -> None:
        self.pairs_offered += len(args[2].bar_pairs)
        self.pairs_clean += len(pairs)

    # ------------------------------------------------------------ analysis

    def self_times(self) -> dict[int, float]:
        """Self time of every span, by span index."""
        children = defaultdict(list)
        for idx, _, t0, t1, parent, _ in self.spans:
            children[parent].append((t0, t1))
        out = {}
        for idx, _, t0, t1, _, _ in self.spans:
            covered, end = 0.0, t0
            for c0, c1 in sorted(children.get(idx, ())):
                c0, c1 = max(c0, end), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            out[idx] = (t1 - t0) - covered
        return out

    def summary(self, op_scale: dict[int, float]) -> dict[str, float]:
        """Totals over all recorded spans: `<span>.self_s`, `<span>.calls`,
        `<span>.total_s` and `<layer>.self_s`, plus the eq shortcut count.
        Times are multiplied by their op's factor in `op_scale`."""
        own = self.self_times()
        out: dict[str, float] = defaultdict(float)
        names = {}
        for idx, nid, t0, t1, parent, op in self.spans:
            name = self.names[nid]
            names[idx] = (name, parent)
            scale = op_scale[op]
            own[idx] *= scale
            out[f"{name}.self_s"] += own[idx]
            out[f"{name}.total_s"] += (t1 - t0) * scale
            out[f"{name}.calls"] += 1
            out[f"{name.split('.', 1)[0]}.self_s"] += own[idx]
            out["trace.self_s"] += own[idx]
        # `eq` ops: are_equivalent called by the CLI, answered with or
        # without a normal_form search below it
        searched = set()
        for idx, (name, parent) in names.items():
            if name == "equivalence.normal_form":
                while parent in names:
                    if names[parent][0] == "equivalence.are_equivalent":
                        searched.add(parent)
                    parent = names[parent][1]
        eq = [idx for idx, (name, parent) in names.items()
              if name == "equivalence.are_equivalent" and names.get(parent, ("",))[0] == "cli.main"]
        out["eq.calls"] = len(eq)
        out["eq.shortcut"] = sum(1 for idx in eq if idx not in searched)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="ascii") as f:
            f.write("span\tname\tstart\tend\tparent\top\n")
            for idx, nid, t0, t1, parent, op in sorted(self.spans):
                f.write(f"{idx}\t{self.names[nid]}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{op}\n")
