"""Command-line front end.

Exit codes: 0 success (valid / equivalent / all pass), 1 negative outcome
(invalid polytope, not equivalent, failed checks), 2 I/O or parse errors,
3 canonical-form budget exhausted.  All output is deterministic: repeated
runs on the same inputs are byte-identical.
"""

from __future__ import annotations

import argparse
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
    auto_mode,
    is_smooth_fano,
    special_facet,
    vertex_deficit,
)
from .analysis import goodness_partition, levels_and_eta
from .splitting import (
    finest_split,
    guaranteed_hexagons,
    hexagon_split,
    split_threshold,
)
from .verify import verify_bounds


def _fail_io(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _resolve_mode(flag: str | None, p: Polytope) -> Mode:
    if flag:
        return Mode(flag)
    mode = auto_mode(p.dim)
    if mode is Mode.LOCAL:
        print(
            f"warning: dimension {p.dim} > {FULL_MODE_MAX_DIM}, using local "
            f"validation (pass --mode full to override)",
            file=sys.stderr,
        )
    return mode


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


def _cmd_check(args) -> int:
    try:
        p = load_polytope(args.file)
    except FanoError as e:
        if isinstance(e, FanoFileError):
            return _fail_io(str(e))
        print(f"invalid construction={e}")
        return 1
    cert = is_smooth_fano(p, _resolve_mode(args.mode, p))
    print(f"{cert.describe()} d={p.dim} n={p.n}")
    return 0 if cert.valid else 1


def _cmd_analyze(args) -> int:
    p = load_polytope(args.file)
    f = special_facet(p, _resolve_mode(args.mode, p))
    _, eta = levels_and_eta(p, f)
    g = goodness_partition(p, f)
    print(f"d={p.dim} n={p.n} k={vertex_deficit(p)}")
    print(f"picard={p.n - p.dim}")
    print("special-facet= " + " ".join(str(i) for i in f.vertex_indices))
    print("eta= " + " ".join(f"{level}:{count}" for level, count in eta.as_pairs()))
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
    d, k = p.dim, vertex_deficit(p)
    print(f"hexagons={dec.hexagon_count}")
    if d >= split_threshold(k):
        print(f"f-bound={guaranteed_hexagons(d, k)}")
    residual = dec.residual
    if residual is not None:
        print(f"residual-dim={residual.polytope.dim} residual-n={residual.polytope.n}")
    fine = None
    if not args.hexagons_only:
        fine = finest_split(p, mode)
        print(f"finest-factors={len(fine.factors)}")
    if args.output:
        outdir = Path(args.output)
        outdir.mkdir(parents=True, exist_ok=True)
        names = _write_factors(dec, outdir)
        manifest = _manifest_lines(dec, names)
        (outdir / "decomposition.txt").write_text(
            "\n".join(manifest) + "\n", encoding="ascii", newline="\n"
        )
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
    polys = [(path, load_polytope(path)) for path in args.files]

    # every file is verified before anything is printed, so an error in a
    # later file leaves stdout empty
    results = []
    for path, p in polys:
        try:
            results.append((path, verify_bounds(p, _resolve_mode(args.mode, p)), None))
        except NotSmoothFanoError as e:
            results.append((path, None, e.certificate))

    all_pass = True
    reports = []
    for path, report, cert in results:
        if report is None:
            print(f"== {path}")
            print(cert.describe())
            all_pass = False
            continue
        if args.json:
            reports.append({"file": path, **report.to_dict()})
        else:
            print(f"== {path}")
            for line in report.lines():
                print(line)
        if not report.passed:
            all_pass = False
    if args.json:
        print(json.dumps(reports, sort_keys=True))
    return 0 if all_pass else 1


def _build_parser() -> argparse.ArgumentParser:
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
    n.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    n.set_defaults(fn=_cmd_nf)

    e = sub.add_parser("eq", help="test lattice equivalence of two files")
    e.add_argument("file1")
    e.add_argument("file2")
    e.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
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
