"""Checks every op's answer against what its inputs are by construction.

Only facts that hold for any correct implementation are checked: verdicts and
exit codes, the planted hexagon and summand counts, exact reassembly of
`split -o` output, normal-form digest (in)equality, `eq` verdicts and the
`verify` result line.  Digest values and certificate wording are not pinned.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fanosplit.polytope import Polytope

from workloads import KNOWN_DEFECTS, Base, OpSpec


@dataclass
class Outcome:
    code: int | None
    stdout: str
    stderr: str
    error: str | None = None  # an exception that escaped cli.main


@dataclass
class Op:
    """A concrete op: its template, CLI arguments and the inputs it parses."""

    index: int
    spec: OpSpec
    argv: list[str]
    inputs: tuple[Polytope | None, ...]
    outdir: Path | None = None

    @property
    def key(self) -> tuple[str, str]:
        return (self.spec.kind, self.spec.bases[0].name if self.spec.bases[0] else "")


def _value(lines: list[str], key: str) -> int | None:
    for line in lines:
        if line.startswith(key + "="):
            return int(line.split("=", 1)[1].split()[0])
    return None


def _read_fano(path: Path) -> list[tuple[int, ...]]:
    rows = [line.split("#", 1)[0].split()
            for line in path.read_text(encoding="ascii").split("\n")]
    rows = [r for r in rows if r]
    if rows[0] != ["fano", "1"]:
        raise ValueError(f"{path.name}: missing fano header")
    d, n = map(int, rows[1])
    vertices = [tuple(map(int, r)) for r in rows[2:]]
    if len(vertices) != n or any(len(v) != d for v in vertices):
        raise ValueError(f"{path.name}: malformed factor file")
    return vertices


def _check_reassembly(p: Polytope, outdir: Path, hexagons: int) -> str | None:
    """BASIS applied to the input vertices = union of the padded factors."""
    lines = (outdir / "decomposition.txt").read_text(encoding="ascii").splitlines()
    at = lines.index("BASIS")
    factor_lines, basis = lines[:at], [tuple(map(int, r.split())) for r in lines[at + 1:]]
    if len(basis) != p.dim or any(len(r) != p.dim for r in basis):
        return "manifest BASIS is not a d x d matrix"
    big = max(abs(x) for r in basis for x in r) * max(abs(x) for v in p.vertices for x in v)
    if big * p.dim < 2**62:
        image = (np.asarray(p.vertices, dtype=np.int64)
                 @ np.asarray(basis, dtype=np.int64).T).tolist()
        transformed = {tuple(r) for r in image}
    else:
        transformed = {tuple(sum(a * x for a, x in zip(r, v)) for r in basis)
                       for v in p.vertices}
    rebuilt = set()
    offset = 0
    kinds = []
    for line in factor_lines:
        fields = dict(f.split("=", 1) for f in line.split()[2:])
        dim = int(fields["dim"])
        kinds.append(fields["kind"])
        for v in _read_fano(outdir / fields["file"]):
            if len(v) != dim:
                return f"factor {fields['file']} is not {dim}-dimensional"
            rebuilt.add((0,) * offset + v + (0,) * (p.dim - offset - dim))
        offset += dim
    if offset != p.dim:
        return f"factor dimensions sum to {offset}, not {p.dim}"
    if kinds.count("hexagon") != hexagons:
        return f"manifest lists {kinds.count('hexagon')} hexagon factors, expected {hexagons}"
    if transformed != rebuilt:
        return "BASIS image of the input differs from the union of the factors"
    return None


class Oracle:
    """Judges ops one at a time; remembers nf digests across the whole run."""

    def __init__(self):
        self.digest_of: dict[str, str] = {}
        self.base_of: dict[str, str] = {}

    def judge(self, op: Op, out: Outcome) -> str | None:
        """None if the answer is right, else what is wrong with it."""
        if out.error is not None:
            return f"unexpected exception: {out.error}"
        spec = op.spec
        if spec.bases == (None,):
            return None if out.code == 2 else f"malformed file: exit {out.code}, expected 2"
        valid = all(b.valid for b in spec.bases)
        lines = out.stdout.splitlines()
        if not valid:
            if out.code != 1:
                return f"invalid input: exit {out.code}, expected 1"
            if spec.kind == "check" and not (lines and lines[0].startswith("invalid")):
                return "invalid input: check printed no invalid verdict"
            return None
        if spec.kind == "eq":
            return self._judge_eq(spec, out)
        if out.code != 0:
            return f"exit {out.code}, expected 0 ({out.stderr.strip()[-200:]})"
        b = spec.bases[0]
        p = op.inputs[0]
        if spec.kind == "check":
            if not lines or lines[0].startswith("invalid"):
                return "valid input: check printed no valid verdict"
        elif spec.kind in ("split", "split-o"):
            hexagons, factors = _value(lines, "hexagons"), _value(lines, "finest-factors")
            if hexagons != b.hexagons:
                return f"hexagons={hexagons}, planted {b.hexagons}"
            if factors != b.factors:
                return f"finest-factors={factors}, planted {b.factors}"
            if spec.kind == "split-o":
                return _check_reassembly(p, op.outdir, b.hexagons)
        elif spec.kind == "verify":
            results = [line for line in lines if line.startswith("RESULT ")]
            if results != ["RESULT pass"] * len(spec.bases):
                return f"verify results {results}, expected {len(spec.bases)} x RESULT pass"
        elif spec.kind == "analyze":
            head = f"d={p.dim} n={p.n} k={3 * p.dim - p.n}"
            if head not in lines or f"picard={p.n - p.dim}" not in lines:
                return f"analyze did not report {head} picard={p.n - p.dim}"
        elif spec.kind == "nf":
            return self._judge_nf(b, out.stdout)
        return None

    @staticmethod
    def _judge_eq(spec: OpSpec, out: Outcome) -> str | None:
        a, b = spec.bases
        same = a == b
        want = ("equivalent", 0) if same else ("not-equivalent", 1)
        got = (out.stdout.strip(), out.code)
        return None if got == want else f"eq gave {got}, expected {want}"

    def _judge_nf(self, b: Base, digest: str) -> str | None:
        if not digest.strip():
            return "nf printed no digest"
        seen = self.digest_of.setdefault(b.name, digest)
        if seen != digest:
            return f"nf digest differs between disguises of {b.name}"
        owner = self.base_of.setdefault(digest, b.name)
        if owner != b.name:
            return f"nf digest of {b.name} equals that of {owner}"
        return None


def known_defect(op: Op, out: Outcome) -> bool:
    """The documented seed defect: LOCAL check says valid, exit 0."""
    return op.key in KNOWN_DEFECTS and out.error is None and out.code == 0
