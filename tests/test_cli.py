from __future__ import annotations

import json
from pathlib import Path

import pytest

from fanosplit.cli import main
from fanosplit.fanofile import save_polytope, serialize_fano
from fanosplit.generators import bundle_b, example4d, hexagon
from fanosplit.polytope import make_polytope
from fanosplit.splitting import direct_sum


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


def test_check_missing_file(capsys):
    assert main(["check", "/nonexistent/nowhere.fano"]) == 2


def test_check_interior_point_exits_one(tmp_path, capsys):
    # (0,0,...) is inside the hull; enumeration flags it as not a vertex
    path = tmp_path / "inner.fano"
    path.write_text("fano 1\n2 4\n1 0\n0 1\n-1 -1\n0 0\n")
    assert main(["check", str(path)]) == 1
    assert "not vertices" in capsys.readouterr().err


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
    p = hexagon()
    for _ in range(6):
        p = direct_sum(p, hexagon())
    path = write(tmp_path, "h7.fano", p)
    assert main(["verify", path]) == 0
    captured = capsys.readouterr()
    assert "INSTANCE d=14 n=42 k=0 mode=local" in captured.out
    assert "warning: dimension 14 > 12, using local validation" in captured.err


@pytest.mark.parametrize("cmd", ["analyze", "split", "verify"])
def test_local_walk_failure_is_invalid_certificate(tmp_path, capsys, cmd):
    # LOCAL validation accepts the gift-wrapped facet; the special-facet walk
    # then meets a facet with |det| = 2 and reports it as a certificate
    p = make_polytope([(1, 0), (0, 1), (-1, -2)])
    for _ in range(7):
        p = direct_sum(p, hexagon())
    path = write(tmp_path, "th7.fano", p)
    assert main([cmd, path, "--mode", "local"]) == 1
    captured = capsys.readouterr()
    assert "invalid kind=FacetNotUnimodular witness=neighbor facet across position" in captured.out
    assert "error:" not in captured.err


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


def test_outputs_are_deterministic(tmp_path, capsys):
    path = write(tmp_path, "x.fano", direct_sum(hexagon(), example4d()))
    runs = []
    for _ in range(2):
        for cmd in (["analyze", path], ["split", path], ["verify", path]):
            assert main(cmd) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]
