from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from fanosplit import cli
from fanosplit.cli import main
from fanosplit.fanofile import save_polytope, serialize_fano
from fanosplit import linalg, polytope
from fanosplit.generators import MAX_ENTRIES, bundle_b, example4d, hexagon, random_image, simplex
from fanosplit.polytope import Polytope, make_polytope
from fanosplit.splitting import direct_sum

from corpus import base_instances


def write(tmp_path: Path, name: str, p) -> str:
    path = tmp_path / name
    save_polytope(p, path)
    return str(path)


def test_gen_then_check(tmp_path, capsys):
    out = tmp_path / "h.fano"
    assert main(["gen", "hexagon", "-o", str(out)]) == 0
    assert out.read_text() == serialize_fano(hexagon())
    assert main(["check", str(out)]) == 0
    assert "valid" in capsys.readouterr().out


def test_gen_unknown_name(capsys):
    assert main(["gen", "icosahedron"]) == 2


def test_gen_random_image_with_seed(tmp_path):
    out = tmp_path / "r.fano"
    assert main(["gen", "random_image", "bundleB", "1", "--seed", "5", "-o", str(out)]) == 0
    again = tmp_path / "r2.fano"
    assert main(["gen", "random_image", "bundleB", "1", "--seed", "5", "-o", str(again)]) == 0
    assert out.read_bytes() == again.read_bytes()


def test_check_invalid_polytope(tmp_path, capsys):
    square = make_polytope([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    path = write(tmp_path, "sq.fano", square)
    assert main(["check", path]) == 1
    assert "FacetNotUnimodular" in capsys.readouterr().out


def test_check_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.fano"
    bad.write_text("fano 1\n2 2\n1 0\n0 x\n")
    assert main(["check", str(bad)]) == 2
    assert "line 4" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["check", "verify"])
def test_non_ascii_byte_is_a_parse_error(tmp_path, capsys, cmd):
    bad = tmp_path / "bad.fano"
    bad.write_bytes(b"fano 1\n2 3\n1 0\n0 1\n-1 \xe9\n")
    assert main([cmd, str(bad)]) == 2
    assert capsys.readouterr().err == "error: line 5, column 4: non-ASCII byte 0xe9\n"


def test_check_missing_file(capsys):
    assert main(["check", "/nonexistent/nowhere.fano"]) == 2


def test_check_interior_point_exits_one(tmp_path, capsys):
    # (0,0,...) is inside the hull; enumeration flags it as not a vertex
    path = tmp_path / "inner.fano"
    path.write_text("fano 1\n2 4\n1 0\n0 1\n-1 -1\n0 0\n")
    assert main(["check", str(path)]) == 1
    captured = capsys.readouterr()
    assert "invalid kind=NotAVertex witness=points at indices (3,) are not vertices" in captured.out
    assert "error:" not in captured.err


@pytest.mark.parametrize("cmd", ["analyze", "split", "nf", "eq", "verify"])
def test_interior_point_is_invalid_certificate(tmp_path, capsys, cmd):
    path = tmp_path / "inner.fano"
    path.write_text("fano 1\n2 4\n1 0\n0 1\n-1 -1\n0 0\n")
    argv = [cmd, str(path)] + ([str(path)] if cmd == "eq" else [])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert ("invalid kind=NotAVertex witness=points at indices (3,) are not "
            "vertices of the hull\n") in captured.out
    assert captured.err == ""


def test_eq_validates_before_comparing_sizes(tmp_path, capsys):
    inner = tmp_path / "inner.fano"
    inner.write_text("fano 1\n2 4\n1 0\n0 1\n-1 -1\n0 0\n")
    triangle = write(tmp_path, "p2.fano", make_polytope([(1, 0), (0, 1), (-1, -1)]))
    assert main(["eq", triangle, str(inner)]) == 1
    assert capsys.readouterr().out.startswith("invalid kind=NotAVertex ")


@pytest.mark.parametrize("extra", [[], ["--mode", "local"]])
def test_split_origin_row_is_invalid_certificate(tmp_path, capsys, extra):
    # d = 13 is auto-LOCAL, and LOCAL validation accepts a point at level 0
    p = simplex(13)
    path = tmp_path / "origin.fano"
    path.write_text(serialize_fano(Polytope(13, p.vertices + ((0,) * 13,))))
    assert main(["split", str(path)] + extra) == 1
    captured = capsys.readouterr()
    assert captured.out == ("invalid kind=NotAVertex witness=points at indices "
                            "(14,) are not vertices of the hull\n")
    assert captured.err.startswith("warning:") or captured.err == ""
    assert "error:" not in captured.err


def test_split_invalid_factor_is_invalid_certificate(tmp_path, capsys):
    # LOCAL validation and the special-facet walk accept this sum; the
    # validation of its quadrilateral factor does not
    quad = make_polytope([(-2, -2), (0, 1), (1, 0), (1, 1)])
    path = write(tmp_path, "qh.fano", random_image(direct_sum(quad, hexagon()), 1))
    assert main(["split", path, "--mode", "local"]) == 1
    captured = capsys.readouterr()
    assert captured.out == (
        "invalid kind=FacetNotUnimodular witness=factor on vertices "
        "(0, 1, 6, 8): facet (0, 1) has |det| = 2\n"
    )
    assert captured.err == ""


def test_split_enumerates_input_and_each_factor_once(tmp_path, capsys, monkeypatch):
    p = direct_sum(direct_sum(bundle_b(1), bundle_b(1)), bundle_b(1))
    path = write(tmp_path, "b3.fano", p)
    calls = []
    enumerate_raw = polytope._enumerate_raw
    monkeypatch.setattr(polytope, "_enumerate_raw",
                        lambda q: calls.append(q.dim) or enumerate_raw(q))
    assert main(["split", path]) == 0
    assert "finest-factors=3" in capsys.readouterr().out
    assert sorted(calls) == [3, 3, 3]


def test_analyze_example4d(tmp_path, capsys):
    path = write(tmp_path, "x.fano", example4d())
    assert main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "d=4 n=10 k=2" in out
    assert "picard=6" in out
    assert "|B|=4" in out


def test_analyze_hexagon_gamma_empty(tmp_path, capsys):
    path = write(tmp_path, "h.fano", hexagon())
    assert main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "gamma-support=\n" in out or out.rstrip().endswith("gamma-support=")


def test_split_writes_manifest(tmp_path, capsys):
    p = direct_sum(bundle_b(1), hexagon())
    path = write(tmp_path, "s.fano", p)
    outdir = tmp_path / "factors"
    assert main(["split", path, "-o", str(outdir)]) == 0
    out = capsys.readouterr().out
    assert "hexagons=1" in out
    assert "residual-dim=3 residual-n=8" in out
    assert "finest-factors=2" in out
    manifest = (outdir / "decomposition.txt").read_text().split("\n")
    assert manifest[0].startswith("FACTOR 0 dim=2 n=6 file=factor_000.fano kind=hexagon")
    assert manifest[1].startswith("FACTOR 1 dim=3 n=8 file=factor_001.fano kind=residual")
    assert manifest[2] == "BASIS"
    assert len([l for l in manifest if l]) == 3 + p.dim
    assert (outdir / "factor_000.fano").exists()
    assert (outdir / "factor_001.fano").exists()


@pytest.mark.parametrize("target, errno", [("taken", 17), ("taken/sub", 20)])
def test_split_output_error_leaves_stdout_empty(tmp_path, capsys, target, errno):
    # -o names an existing regular file, or a path below one
    path = write(tmp_path, "h.fano", hexagon())
    (tmp_path / "taken").write_text("")
    assert main(["split", path, "-o", str(tmp_path / target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: [Errno {errno}] ")


def test_split_hexagons_only(tmp_path, capsys):
    path = write(tmp_path, "h.fano", hexagon())
    assert main(["split", path, "--hexagons-only"]) == 0
    out = capsys.readouterr().out
    assert "hexagons=1" in out
    assert "finest-factors" not in out


def test_nf_and_eq(tmp_path, capsys):
    a = write(tmp_path, "a.fano", hexagon())
    from fanosplit.generators import random_image

    b = write(tmp_path, "b.fano", random_image(hexagon(), 7))
    assert main(["nf", a]) == 0
    digest_a = capsys.readouterr().out
    assert main(["nf", b]) == 0
    digest_b = capsys.readouterr().out
    assert digest_a == digest_b
    assert main(["eq", a, b]) == 0
    assert "equivalent" in capsys.readouterr().out.strip()

    c = write(tmp_path, "c.fano", example4d())
    assert main(["eq", a, c]) == 1
    assert capsys.readouterr().out.strip() == "not-equivalent"


def test_eq_budget_exhaustion(tmp_path, capsys):
    a = write(tmp_path, "a.fano", example4d())
    b = write(tmp_path, "b.fano", example4d())
    assert main(["eq", a, b, "--budget", "2"]) == 3


@pytest.mark.parametrize("cmd", ["nf", "eq"])
@pytest.mark.parametrize("budget", ["0", "-5"])
def test_budget_below_one_is_a_usage_error(tmp_path, capsys, cmd, budget):
    a = write(tmp_path, "a.fano", hexagon())
    argv = [cmd, a] + ([a] if cmd == "eq" else []) + ["--budget", budget]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --budget: must be at least 1, got {budget}" in captured.err


def test_gen_rejects_a_size_no_list_can_hold(capsys):
    # bundleB 10**20 asks for rows of length 3 * 10**20
    assert main(["gen", "bundleB", str(10**20)]) == 2
    assert capsys.readouterr() == ("", (
        "error: bundleB 100000000000000000000 would have 700000000000000000001 x "
        "300000000000000000000 vertex entries, more than 100000000\n"))


@pytest.mark.parametrize("argv, refused", [
    (["simplex", str(10**20)], f"simplex {10**20} would have {10**20 + 1} x {10**20}"),
    (["bundleB", "100000000"], "bundleB 100000000 would have 700000001 x 300000000"),
    (["random_image", "simplex", "100000", "--seed", "1"],
     "simplex 100000 would have 100001 x 100000"),
])
def test_gen_refuses_an_output_above_the_entry_cap(argv, refused, capsys):
    # each would build at least 10**10 entries before writing a line
    assert main(["gen", *argv]) == 2
    assert capsys.readouterr() == (
        "", f"error: {refused} vertex entries, more than {MAX_ENTRIES}\n")


def test_gen_refuses_a_non_integer_parameter(capsys):
    assert main(["gen", "simplex", "2.9"]) == 2
    assert capsys.readouterr() == ("", "error: simplex dimension is not an integer: '2.9'\n")


def test_gen_rejects_nested_random_image(capsys):
    assert main(["gen", "random_image", "random_image", "hexagon", "--seed", "1"]) == 2
    assert capsys.readouterr() == (
        "", "error: random_image cannot be the base of random_image\n")


def test_verify_exit_codes(tmp_path, capsys):
    good = write(tmp_path, "good.fano", hexagon())
    assert main(["verify", good]) == 0
    out = capsys.readouterr().out
    assert "RESULT pass" in out
    assert "CHECK vertex-count-max pass" in out

    square = make_polytope([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    bad = write(tmp_path, "bad.fano", square)
    assert main(["verify", good, bad]) == 1
    out = capsys.readouterr().out
    assert out.index(f"== {good}") < out.index(f"== {bad}")


def test_verify_warns_on_local_fallback(tmp_path, capsys):
    path = write(tmp_path, "s13h.fano", direct_sum(simplex(13), hexagon()))
    assert main(["verify", path]) == 0
    captured = capsys.readouterr()
    assert "INSTANCE d=15 n=20 k=25 mode=local" in captured.out
    assert captured.err == (
        "warning: factor of dimension 13 > 12 validated locally "
        "(pass --mode full to override)\n"
    )
    # every factor of hexagon^7 is proved, so LOCAL mode warns of nothing
    p = hexagon()
    for _ in range(6):
        p = direct_sum(p, hexagon())
    path = write(tmp_path, "h7.fano", p)
    assert main(["verify", path]) == 0
    captured = capsys.readouterr()
    assert "INSTANCE d=14 n=42 k=0 mode=local" in captured.out
    assert captured.err == ""


@pytest.mark.parametrize("cmd", ["analyze", "split", "verify"])
def test_local_walk_failure_is_invalid_certificate(tmp_path, capsys, cmd):
    # LOCAL validation proves the triangle summand by enumerating its facets
    p = make_polytope([(1, 0), (0, 1), (-1, -2)])
    for _ in range(7):
        p = direct_sum(p, hexagon())
    path = write(tmp_path, "th7.fano", p)
    assert main([cmd, path, "--mode", "local"]) == 1
    captured = capsys.readouterr()
    assert ("invalid kind=FacetNotUnimodular witness=factor on vertices (0, 1, 2): "
            "facet (0, 2) has |det| = 2\n") in captured.out
    assert "error:" not in captured.err


# the auto-mode commands on the interior-point file are pinned above
@pytest.mark.parametrize("case, argv", [
    ("inner", ["check", "--mode", "local"]),
    ("simplex13+origin", ["check"]),
    ("simplex13+origin", ["check", "--mode", "local"]),
    ("simplex13+origin", ["analyze"]),
    ("simplex13+origin", ["verify"]),
])
def test_origin_row_is_not_a_vertex_in_every_mode(tmp_path, capsys, case, argv):
    path = tmp_path / f"{case}.fano"
    if case == "inner":
        path.write_text("fano 1\n2 4\n1 0\n0 1\n-1 -1\n0 0\n")
        index = 3
    else:
        path.write_text(serialize_fano(Polytope(13, simplex(13).vertices + ((0,) * 13,))))
        index = 14
    assert main(argv[:1] + [str(path)] + argv[1:]) == 1
    captured = capsys.readouterr()
    assert (f"invalid kind=NotAVertex witness=points at indices ({index},) are not "
            f"vertices of the hull") in captured.out
    assert captured.err == ""


@pytest.mark.parametrize("extra", [[], ["--mode", "local"]])
@pytest.mark.parametrize("hexagons, line", [
    (0, "invalid kind=FacetNotUnimodular witness=facet (0, 2) has |det| = 2 d=2 n=3\n"),
    (7, "invalid kind=FacetNotUnimodular witness=factor on vertices (0, 1, 2): "
        "facet (0, 2) has |det| = 2 d=16 n=45\n"),
])
def test_check_rejects_triangle(tmp_path, capsys, extra, hexagons, line):
    p = make_polytope([(1, 0), (0, 1), (-1, -2)])
    for _ in range(hexagons):
        p = direct_sum(p, hexagon())
    path = write(tmp_path, "t.fano", p)
    assert main(["check", path] + extra) == 1
    assert capsys.readouterr() == (line, "")


_ERROR_CASES = (
    [(cmd, "square", 1) for cmd in ("analyze", "split", "nf", "eq")]
    + [(cmd, "malformed", 2) for cmd in ("check", "analyze", "split", "nf", "eq", "verify")]
    + [(cmd, "budget", 3) for cmd in ("nf", "eq")]
)


@pytest.mark.parametrize("cmd, case, code", _ERROR_CASES)
def test_error_paths_per_command(tmp_path, capsys, cmd, case, code):
    if case == "malformed":
        path = tmp_path / "bad.fano"
        path.write_text("fano 1\n2 2\n1 0\n0 x\n")
        path = str(path)
    elif case == "square":
        path = write(tmp_path, "sq.fano", make_polytope([(1, 1), (1, -1), (-1, 1), (-1, -1)]))
    else:
        path = write(tmp_path, "x.fano", example4d())
    argv = [cmd, path] + ([path] if cmd == "eq" else [])
    if case == "budget":
        argv += ["--budget", "2"]
    assert main(argv) == code
    captured = capsys.readouterr()
    if case == "square":
        assert captured.out.startswith("invalid kind=FacetNotUnimodular ")
        assert "error:" not in captured.err
    elif case == "malformed":
        assert captured.out == ""
        assert "line 4" in captured.err
    else:
        assert captured.out == ""
        assert captured.err == "size-limit budget=2\n"


def test_verify_json(tmp_path, capsys):
    good = write(tmp_path, "good.fano", example4d())
    assert main(["verify", good, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data[0]["passed"] is True
    assert data[0]["k"] == 2


def test_verify_json_keeps_invalid_files_in_the_array(tmp_path, capsys):
    good = write(tmp_path, "good.fano", example4d())
    square = make_polytope([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    bad = write(tmp_path, "bad.fano", square)
    dup = tmp_path / "dup.fano"
    dup.write_text("fano 1\n2 4\n1 0\n0 1\n-1 -1\n1 0\n")
    flat = tmp_path / "flat.fano"
    flat.write_text("fano 1\n2 3\n1 0\n0 1\n2 -1\n")
    assert main(["verify", "--json", bad, good, str(dup), str(flat)]) == 1
    data = json.loads(capsys.readouterr().out)
    assert [(r["file"], r["passed"]) for r in data] == [
        (bad, False), (good, True), (str(dup), False), (str(flat), False)]
    assert data[0]["certificate"].startswith("invalid kind=FacetNotUnimodular witness=")
    assert data[0].keys() == {"file", "passed", "certificate"}
    # the line `check` prints for a file that fails construction
    assert data[2]["certificate"] == "invalid construction=vertex (1, 0) appears more than once"
    assert data[3]["certificate"] == "invalid construction=vertex set is not full-dimensional"
    for path, line in ((dup, data[2]["certificate"]), (flat, data[3]["certificate"])):
        assert main(["check", str(path)]) == 1
        assert capsys.readouterr() == (line + "\n", "")
    # text mode stops at the first such file, and a malformed file exits 2
    assert main(["verify", good, str(dup)]) == 1
    assert capsys.readouterr() == ("", "error: vertex (1, 0) appears more than once\n")
    malformed = tmp_path / "malformed.fano"
    malformed.write_text("fano 1\n2 3\n1 0\n0 x\n-1 -1\n")
    assert main(["verify", "--json", str(dup), str(malformed)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and "line 4" in captured.err


def test_outputs_are_deterministic(tmp_path, capsys):
    path = write(tmp_path, "x.fano", direct_sum(hexagon(), example4d()))
    runs = []
    for _ in range(2):
        for cmd in (["analyze", path], ["split", path], ["verify", path]):
            assert main(cmd) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]


def _runs_in_cwd(inputs: list[tuple[str, Polytope]]) -> list[tuple]:
    """Write each input to the working directory, run `check`, `split`,
    `split -o` and `verify` on it, and return every run's argv, exit code,
    stdout, stderr and written factor files."""
    runs = []
    for name, p in inputs:
        f = f"{name}.fano"
        save_polytope(p, f)
        for argv in (["check", f], ["split", f], ["split", f, "-o", f + ".split"], ["verify", f]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            written = Path(argv[-1])
            files = ([(q.name, q.read_text()) for q in sorted(written.iterdir())]
                     if "-o" in argv and written.is_dir() else [])
            runs.append((argv, code, out.getvalue(), err.getvalue(), files))
    return runs


def test_large_dim_floor_leaves_cli_output_unchanged(tmp_path, monkeypatch):
    # floor 1 sends every product through the sparse rules and every dual
    # through the modular inverse; an unreachable floor keeps the dense @ and
    # Bareiss everywhere, also on the d = 89 sum
    big = direct_sum(direct_sum(bundle_b(1), bundle_b(1)), bundle_b(1))
    for _ in range(40):
        big = direct_sum(big, hexagon())
    inputs = [("big", random_image(big, 1))]
    for name, p in base_instances():
        inputs += [(name, p), (f"{name}_1", random_image(p, 1))]
    results = []
    for floor in (1, 10**9):
        monkeypatch.setattr(linalg, "_LARGE_DIM", floor)
        work = tmp_path / str(floor)
        work.mkdir()
        monkeypatch.chdir(work)
        results.append(_runs_in_cwd(inputs))
    assert results[0] == results[1]
    assert results[0][0][1:3] == (0, "valid mode=local proof=by-decomposition facets="
                                  f"{12 ** 3 * 6 ** 40} d=89 n=264\n")


def _outcome(argv: list[str] | None) -> tuple:
    """Exit code, stdout and stderr of one in-process run; argparse's usage
    errors and help end in SystemExit, whose code is the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


def test_one_parser_serves_every_run(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the terminal width
    f = write(tmp_path, "h.fano", hexagon())
    g = write(tmp_path, "b.fano", random_image(bundle_b(1), 1))
    usage = [["nf", f, "--budget", "0"], ["eq", f, g, "--budget", "x"],
             ["check", f, "--mode", "bogus"], ["check"], ["bogus", f], ["-h"], ["nf", "-h"]]
    valid = [["nf", f], ["eq", f, g], ["check", g, "--mode", "local"], ["analyze", g],
             ["verify", f, g], ["split", g], ["nf", g, "--budget", "1"]]
    argvs = [argv for pair in zip(valid, usage) for argv in pair] + valid[:1]
    assert cli._build_parser() is cli._build_parser()
    reused = [_outcome(argv) for argv in argvs]
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = [_outcome(argv) for argv in argvs]
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 2, 1, 2, 0, 2, 0, 2, 0, 2, 0, 0, 3, 0, 0]
    for code, out, err in reused[1:11:2]:
        assert out == "" and err.startswith("usage: fanosplit ")
    assert reused[11][1].startswith("usage: fanosplit [-h] {gen,check,analyze,split,nf,eq,verify}")
    assert reused[13][1].startswith("usage: fanosplit nf [-h] [--budget BUDGET] file")


def test_main_without_argv_reads_sys_argv_per_call(tmp_path, monkeypatch):
    f = write(tmp_path, "h.fano", hexagon())
    for argv in (["nf", f], ["check", f], ["check", f, "--mode", "bogus"]):
        monkeypatch.setattr(sys, "argv", ["fanosplit", *argv])
        assert _outcome(None) == _outcome(argv)
    assert _outcome(None)[0] == 2


def _d89(tmp_path) -> str:
    """A file holding disguised bundle_b(1)^3 + hexagon^40 (d = 89)."""
    p = bundle_b(1)
    for q in [bundle_b(1)] * 2 + [hexagon()] * 40:
        p = direct_sum(p, q)
    return write(tmp_path, "d89.fano", random_image(p, 1))


@pytest.mark.parametrize("command", ["check", "split", "split -o OUT", "verify"])
def test_commands_build_no_input_vertex_tuples(tmp_path, monkeypatch, capsys, command):
    # a parsed input keeps only its exact vertex array; a step that builds
    # the n tuples of d ints (`Polytope.vertices`) would cost the time and
    # memory the one-array store saves
    path = _d89(tmp_path)
    loaded = []
    load = cli.load_polytope
    monkeypatch.setattr(cli, "load_polytope", lambda f: loaded.append(load(f)) or loaded[-1])
    name, *rest = command.replace("OUT", str(tmp_path / "out")).split()
    assert main([name, path, *rest]) == 0
    assert capsys.readouterr().out
    (q,) = loaded
    assert q.dim == 89 and "vertices" not in q.__dict__


@pytest.mark.parametrize("command", ["check", "split", "verify"])
def test_commands_run_one_elimination(tmp_path, monkeypatch, capsys, command):
    # the gift-wrap's kernel hands back the start facet's dual basis, so a
    # valid input needs no second elimination: no modular inverse, no Bareiss
    path = _d89(tmp_path)
    calls = []
    for name in ("_inverse_mod_p", "_bareiss"):
        fn = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    assert main([command, path]) == 0
    assert capsys.readouterr().out
    assert calls == []
