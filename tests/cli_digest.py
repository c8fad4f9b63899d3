"""One digest of the CLI's observable behaviour, for byte-identity checks.

    PYTHONPATH=src python tests/cli_digest.py

Runs `fanosplit.cli.main` in-process over a fixed list of argument vectors
and prints the run count and one sha256 over every run's (argv, exit code,
stdout, stderr).  Two commits that print the same digest behave the same on
these inputs, byte for byte, including every error message.  The inputs:

* SETS seeded random point sets in dimension 1-4, 30 % of them affinely or
  linearly flat, each through `check`, `check --mode local`, `analyze`,
  `split`, `nf`, `verify` and `eq` against the previous set;
* two disguises of each corpus base (`tests/corpus.py`), each through
  `check`, `analyze`, `split`, `split -o`, `nf`, `verify`,
  `verify --mode local` and `verify --json`, and the pair through `eq` (the
  files `split -o` writes are digested too);
* a fixed list of malformed files;
* argparse usage errors and `-h` / `nf -h`, each after a valid run, on the
  last corpus pair;
* each FAILING_FACTORS polytope next to a hexagon, plain and in one
  disguise, through `check` and `check --mode local`;
* two disguises of each SYMMETRIC polytope, each through `nf`, and the pair
  through `eq`: inputs whose normal forms the automorphism pruning cuts
  short;
* the same for each HEXAGON_SUMS polytope, whose hexagon summands take
  their normal form from their vertex set;
* a disguise of simplex(13) + hexagon through `check`, `verify` and
  `verify --json`: its simplex summand lies above the FULL range, so its
  proof is `local-unproven`, and verify's checks at the special facet are
  all it gets.

The files are written to a fresh temporary directory, which is the working
directory during the runs and is deleted afterwards; argv and the output name
them by relative path, and COLUMNS is pinned to 80 so that help text does not
depend on the terminal: the digest does not depend on where it runs.  An
exception escaping `main` is recorded by type and message, so a crash changes
the digest instead of stopping the run; the SystemExit of a usage error or of
help is recorded by its code, as the exit code.  Not a test: the digest of a
parent commit is the expected value (run this script with the parent's `src`
on PYTHONPATH to get it).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile
from functools import reduce
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from corpus import base_instances  # noqa: E402
from fanosplit import cli  # noqa: E402
from fanosplit.fanofile import serialize_fano  # noqa: E402
from fanosplit.generators import bundle_b, example4d, hexagon, random_image, simplex  # noqa: E402
from fanosplit.polytope import Polytope  # noqa: E402
from fanosplit.splitting import direct_sum  # noqa: E402

SETS = 1200

MALFORMED = [
    "",
    "fano 2\n2 3\n1 0\n0 1\n-1 -1\n",
    "fano 1\n",
    "fano 1\n2\n1 0\n",
    "fano 1\n2 3 4\n1 0\n",
    "fano 1\n0 3\n",
    "fano 1\n2 2\n1 0\n0 x\n",
    "fano 1\n2 3\n1 0\n0 1\n",
    "fano 1\n2 2\n1 0\n0 1\n9 9\n",
    "fano 1\n2 2\n1 0 3\n0 1\n",
    "fano 1\n2 3\n1\t0\n0  1 # c\n-1 -1\n",
    "fano 1\n2 3\n1 0\n0 1\n-1 \xe9\n",
]

# invalid summands, one per failure kind and witness of a summand's proof
FAILING_FACTORS = [
    [(1, 0), (0, 1), (-1, -2)],
    [(-2, 1), (-1, 1), (0, 1), (1, 0)],
    [(-1, -1), (1, -1), (0, 1), (0, -1)],
    [(1, -1), (1, 0), (2, -1)],
    [(-2, -2), (0, -1), (1, 1)],
    [(-2, -2), (-1, -1), (0, 1), (1, -2)],
]

SYMMETRIC = [(f"simplex{d}", simplex(d)) for d in range(4, 8)]
SYMMETRIC.append(("hexagon3", direct_sum(direct_sum(hexagon(), hexagon()), hexagon())))

# sums of many hexagons and one other summand, as the theorem's inputs are
HEXAGON_SUMS = [("bundle_b1_hexagon6", reduce(direct_sum, [bundle_b(1)] + [hexagon()] * 6)),
                ("example4d_hexagon4", reduce(direct_sum, [example4d()] + [hexagon()] * 4))]


def _point_set(rng: random.Random) -> list[tuple[int, ...]]:
    """A random point set; about 30 % lie in a proper affine or linear subspace."""
    d = rng.randint(1, 4)
    n = rng.randint(1, 3 * d + 1)
    if rng.random() >= 0.3:
        return [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(n)]
    k = rng.randint(0, d - 1)
    base = [0] * d if rng.random() < 0.5 else [rng.randint(-2, 2) for _ in range(d)]
    dirs = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(k)]
    points = []
    for _ in range(n):
        cs = [rng.randint(-2, 2) for _ in range(k)]
        points.append(tuple(b + sum(c * v[j] for c, v in zip(cs, dirs))
                            for j, b in enumerate(base)))
    return points


def _fano_text(points: list[tuple[int, ...]]) -> str:
    lines = ["fano 1", f"{len(points[0])} {len(points)}"]
    lines.extend(" ".join(map(str, v)) for v in points)
    return "\n".join(lines) + "\n"


def _argvs():
    """Write every input file to the working directory and yield each
    argument vector in order."""
    rng = random.Random(20261018)
    prev = None
    for i in range(SETS):
        f = f"random_{i:04d}.fano"
        Path(f).write_text(_fano_text(_point_set(rng)), encoding="ascii")
        yield from (["check", f], ["check", "--mode", "local", f], ["analyze", f],
                    ["split", f], ["nf", f], ["verify", f])
        if prev is not None:
            yield ["eq", prev, f]
        prev = f
    for name, base in base_instances():
        files = []
        for seed in (1, 2):
            f = f"{name}_{seed}.fano"
            Path(f).write_text(serialize_fano(random_image(base, seed)), encoding="ascii")
            files.append(f)
        for f in files:
            yield from (["check", f], ["analyze", f], ["split", f],
                        ["split", f, "-o", f + ".split"], ["nf", f], ["verify", f],
                        ["verify", "--mode", "local", f], ["verify", "--json", f])
        yield ["eq", *files]
    for i, text in enumerate(MALFORMED):
        f = f"malformed_{i:02d}.fano"
        Path(f).write_bytes(text.encode("latin-1"))
        yield ["check", f]
        yield ["verify", f]
    a, b = files  # the last corpus pair
    usage = (["nf", a, "--budget", "0"], ["eq", a, b, "--budget", "x"],
             ["check", a, "--mode", "bogus"], ["check"], ["bogus", a], ["-h"], ["nf", "-h"])
    valid = (["nf", a], ["eq", a, b], ["check", a, "--mode", "local"], ["analyze", a],
             ["verify", a, b], ["split", a], ["check", b])
    for pair in zip(valid, usage):
        yield from pair
    for i, rows in enumerate(FAILING_FACTORS):
        p = direct_sum(Polytope(2, tuple(rows)), hexagon())
        for tag, q in (("plain", p), ("disguised", random_image(p, 1))):
            f = f"factor_{i}_{tag}.fano"
            Path(f).write_text(serialize_fano(q), encoding="ascii")
            yield from (["check", f], ["check", "--mode", "local", f])
    for name, base in SYMMETRIC + HEXAGON_SUMS:
        files = []
        for seed in (1, 2):
            f = f"{name}_{seed}.fano"
            Path(f).write_text(serialize_fano(random_image(base, seed)), encoding="ascii")
            files.append(f)
            yield ["nf", f]
        yield ["eq", *files]
    f = "simplex13_hexagon.fano"
    Path(f).write_text(serialize_fano(random_image(direct_sum(simplex(13), hexagon()), 1)),
                       encoding="ascii")
    yield from (["check", f], ["verify", f], ["verify", "--json", f])


def _run(argv: list[str]) -> tuple[int | str, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as e:  # a crash is an outcome to digest, not to stop on
            code = f"{type(e).__name__}: {e}"
        except SystemExit as e:  # argparse's usage errors and help
            code = e.code
    return code, out.getvalue(), err.getvalue()


def main() -> int:
    os.environ["COLUMNS"] = "80"
    digest = hashlib.sha256()
    runs = 0
    home = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="fanosplit-cli-digest-") as work:
        os.chdir(work)
        try:
            for run_argv in _argvs():
                code, out, err = _run(run_argv)
                digest.update(repr((run_argv, code, out, err)).encode())
                outdir = Path(run_argv[-1])
                if "-o" in run_argv and outdir.is_dir():
                    for path in sorted(outdir.iterdir()):
                        digest.update(repr((path.name, path.read_text())).encode())
                runs += 1
        finally:
            os.chdir(home)
    print(f"runs={runs} sha256={digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
