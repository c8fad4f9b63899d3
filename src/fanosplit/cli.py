"""Command-line front end.

Exit codes: 0 success (valid / equivalent / all pass), 1 negative outcome
(invalid polytope, not equivalent, failed checks), 2 I/O or parse errors,
3 canonical-form budget exhausted.  All output is deterministic: repeated
runs on the same inputs are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .equivalence import are_equivalent, normal_form, DEFAULT_BUDGET
from .errors import FanoError, FanoFileError, NotSmoothFanoError, SizeLimitError
from .fanofile import load_polytope, save_polytope, serialize_fano
from .generators import generate
from .polytope import (
    FULL_MODE_MAX_DIM,
    Mode,
    Polytope,
    Proof,
    auto_mode,
    free_summands,
    is_smooth_fano,
    special_facet,
    vertex_deficit,
)
from .analysis import goodness_partition
from .splitting import guaranteed_hexagons, hexagon_split, split_threshold
from .verify import verify_bounds


def _fail_io(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _resolve_mode(flag: str | None, p: Polytope) -> Mode:
    """The given mode, else the auto mode; validates p in it and warns on
    stderr when some irreducible factor was validated only locally."""
    mode = Mode(flag) if flag else auto_mode(p.dim)
    cert = is_smooth_fano(p, mode)
    if cert.proof is Proof.LOCAL_UNPROVEN:
        print(
            f"warning: factor of dimension {cert.unproven_dim} > {FULL_MODE_MAX_DIM} "
            f"validated locally (pass --mode full to override)",
            file=sys.stderr,
        )
    return mode


def _budget(text: str) -> int:
    """A normal-form budget: an integer of at least 1."""
    try:
        budget = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if budget < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {budget}")
    return budget


def _cmd_gen(args) -> int:
    params = []
    for tok in args.params:
        try:
            params.append(int(tok))
        except ValueError:
            params.append(tok)
    try:
        p = generate(args.name, params, args.seed)
    except ValueError as e:
        return _fail_io(str(e))
    text = serialize_fano(p)
    if args.output:
        Path(args.output).write_text(text, encoding="ascii", newline="\n")
    else:
        sys.stdout.write(text)
    return 0


def _load_or_invalid(path: str) -> Polytope | str:
    """The polytope in `path`, else `check`'s line for a vertex set that is none."""
    try:
        return load_polytope(path)
    except FanoError as e:
        if isinstance(e, FanoFileError):
            raise
        return f"invalid construction={e}"


def _cmd_check(args) -> int:
    p = _load_or_invalid(args.file)
    if isinstance(p, str):
        print(p)
        return 1
    cert = is_smooth_fano(p, _resolve_mode(args.mode, p))
    print(f"{cert.describe()} d={p.dim} n={p.n}")
    return 0 if cert.valid else 1


def _cmd_analyze(args) -> int:
    p = load_polytope(args.file)
    f = special_facet(p, _resolve_mode(args.mode, p))
    g = goodness_partition(p, f)
    print(f"d={p.dim} n={p.n} k={vertex_deficit(p)}")
    print(f"picard={p.n - p.dim}")
    print("special-facet= " + " ".join(str(i) for i in f.vertex_indices))
    print("eta= " + " ".join(f"{level}:{count}" for level, count in g.eta.as_pairs()))
    print(
        f"partition |A|={len(g.a)} |B|={len(g.b)} |C|={len(g.c)} "
        f"|A'|={len(g.a_prime)} |Abar|={len(g.a_bar)}"
    )
    support = [
        f"{v}:{gam}" for v, gam in zip(f.vertex_indices, g.gamma) if gam != 0
    ]
    print("gamma-support= " + " ".join(support))
    return 0


def _write_factors(dec, outdir: Path) -> list[str]:
    names = []
    for i, fac in enumerate(dec.factors):
        name = f"factor_{i:03d}.fano"
        save_polytope(fac.polytope, outdir / name)
        names.append(name)
    return names


def _manifest_lines(dec, names: list[str]) -> list[str]:
    lines = []
    for i, (fac, name) in enumerate(zip(dec.factors, names)):
        lines.append(
            f"FACTOR {i} dim={fac.polytope.dim} n={fac.polytope.n} "
            f"file={name} kind={fac.kind}"
        )
    lines.append("BASIS")
    for row in dec.change_of_basis.entries:
        lines.append(" ".join(str(x) for x in row))
    return lines


def _cmd_split(args) -> int:
    p = load_polytope(args.file)
    mode = _resolve_mode(args.mode, p)
    dec = hexagon_split(p, mode)
    # written before anything is printed, so a write error leaves stdout empty
    if args.output:
        outdir = Path(args.output)
        outdir.mkdir(parents=True, exist_ok=True)
        names = _write_factors(dec, outdir)
        manifest = _manifest_lines(dec, names)
        (outdir / "decomposition.txt").write_text(
            "\n".join(manifest) + "\n", encoding="ascii", newline="\n"
        )
    d, k = p.dim, vertex_deficit(p)
    print(f"hexagons={dec.hexagon_count}")
    if d >= split_threshold(k):
        print(f"f-bound={guaranteed_hexagons(d, k)}")
    residual = dec.residual
    if residual is not None:
        print(f"residual-dim={residual.polytope.dim} residual-n={residual.polytope.n}")
    if not args.hexagons_only:
        print(f"finest-factors={len(free_summands(p, mode))}")
    return 0


def _cmd_nf(args) -> int:
    print(normal_form(load_polytope(args.file), args.budget).digest_text())
    return 0


def _cmd_eq(args) -> int:
    p = load_polytope(args.file1)
    q = load_polytope(args.file2)
    same = are_equivalent(p, q, args.budget)
    print("equivalent" if same else "not-equivalent")
    return 0 if same else 1


def _cmd_verify(args) -> int:
    # the JSON array keeps a file that fails construction, as `check` words it
    polys = [(path, _load_or_invalid(path) if args.json else load_polytope(path))
             for path in args.files]

    # every file is verified before anything is printed, so an error in a
    # later file leaves stdout empty; a report, or the line of a failed file
    results = []
    for path, p in polys:
        try:
            results.append((path, p if isinstance(p, str)
                            else verify_bounds(p, _resolve_mode(args.mode, p))))
        except NotSmoothFanoError as e:
            results.append((path, e.certificate.describe()))

    reports = []
    for path, report in results:
        failed = isinstance(report, str)
        if args.json:
            reports.append({"file": path, "passed": False, "certificate": report} if failed
                           else {"file": path, **report.to_dict()})
        else:
            print(f"== {path}")
            print(report if failed else "\n".join(report.lines()))
    if args.json:
        print(json.dumps(reports, sort_keys=True))
    return 0 if all(not isinstance(r, str) and r.passed for _, r in results) else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use; it holds only
    constants, and `parse_args` returns a fresh namespace on every call."""
    parser = argparse.ArgumentParser(
        prog="fanosplit",
        description="Exact toolkit for smooth Fano lattice polytopes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="write a named generator's polytope")
    g.add_argument("name")
    g.add_argument("params", nargs="*")
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("-o", "--output")
    g.set_defaults(fn=_cmd_gen)

    c = sub.add_parser("check", help="smooth-Fano validity certificate")
    c.add_argument("file")
    c.add_argument("--mode", choices=["full", "local"])
    c.set_defaults(fn=_cmd_check)

    a = sub.add_parser("analyze", help="special-facet analysis summary")
    a.add_argument("file")
    a.add_argument("--mode", choices=["full", "local"])
    a.set_defaults(fn=_cmd_analyze)

    s = sub.add_parser("split", help="hexagon and finest direct-sum decomposition")
    s.add_argument("file")
    s.add_argument("--mode", choices=["full", "local"])
    s.add_argument("--hexagons-only", action="store_true")
    s.add_argument("-o", "--output", help="directory for factor files + manifest")
    s.set_defaults(fn=_cmd_split)

    n = sub.add_parser("nf", help="print the canonical normal-form digest")
    n.add_argument("file")
    n.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    n.set_defaults(fn=_cmd_nf)

    e = sub.add_parser("eq", help="test lattice equivalence of two files")
    e.add_argument("file1")
    e.add_argument("file2")
    e.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    e.set_defaults(fn=_cmd_eq)

    v = sub.add_parser("verify", help="run the structural-claim checklist")
    v.add_argument("files", nargs="+")
    v.add_argument("--mode", choices=["full", "local"])
    v.add_argument("--json", action="store_true")
    v.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except FanoFileError as e:
        return _fail_io(str(e))
    except SizeLimitError as e:
        print(f"size-limit budget={e.budget}", file=sys.stderr)
        return 3
    except NotSmoothFanoError as e:
        print(e.certificate.describe())
        return 1
    except FanoError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        return _fail_io(str(e))


if __name__ == "__main__":
    sys.exit(main())
