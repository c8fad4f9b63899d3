"""Bit-exact text format for polytope vertex files.

Layout: a header line ``fano 1``, a dimension line ``d n``, then n lines of
d space-separated decimal integers.  ``#`` starts a comment running to the
end of the line; blank lines are ignored; line endings are LF.  Parsing then
serializing is byte-identical up to comments and blank lines.
"""

from __future__ import annotations

import re
from pathlib import Path

from .errors import FanoFileError
from .polytope import Polytope, _checked_polytope

HEADER = "fano 1"

_TOKEN = re.compile(r"\S+")
_NON_ASCII = re.compile(rb"[\x80-\xff]")


def _significant_lines(text: str):
    for lineno, raw in enumerate(text.split("\n"), start=1):
        body = raw.split("#", 1)[0]
        if body.strip():
            yield lineno, body


def _parse_ints(lineno: int, body: str, expected: int, what: str) -> tuple[int, ...]:
    """The `expected` integers of a line, as a vertex row.  A well-formed
    line is split and converted in one pass; any other line goes to
    `_scan_ints`, which locates its error."""
    tokens = body.split()
    if len(tokens) == expected and "_" not in body:
        try:
            return tuple(map(int, tokens))
        except ValueError:
            pass
    return _scan_ints(lineno, body, expected, what)


def _scan_ints(lineno: int, body: str, expected: int, what: str) -> tuple[int, ...]:
    """Token by token, raising FanoFileError at the first offending column
    (`\\S+` and `str.split` agree on whitespace, so the tokens are the same).
    A token with `_` is no decimal integer, though `int` reads Python's
    digit-group underscores."""
    tokens = list(_TOKEN.finditer(body))
    if len(tokens) != expected:
        col = tokens[expected].start() + 1 if len(tokens) > expected else len(body.rstrip()) + 1
        raise FanoFileError(lineno, col, f"expected {expected} {what}, got {len(tokens)}")
    out = []
    for tok in tokens:
        text = tok.group()
        try:
            if "_" in text:
                raise ValueError(text)
            out.append(int(text))
        except ValueError:
            raise FanoFileError(
                lineno, tok.start() + 1, f"not an integer: {text!r}"
            ) from None
    return tuple(out)


def parse_fano(text: str) -> Polytope:
    lines = _significant_lines(text)
    try:
        lineno, body = next(lines)
    except StopIteration:
        raise FanoFileError(1, 1, "empty file") from None
    if body.strip() != HEADER:
        raise FanoFileError(lineno, 1, f"expected header {HEADER!r}")
    try:
        lineno, body = next(lines)
    except StopIteration:
        raise FanoFileError(lineno + 1, 1, "missing dimension line") from None
    d, n = _parse_ints(lineno, body, 2, "integers (dimension and vertex count)")
    if d < 1 or n < 1:
        raise FanoFileError(lineno, 1, f"dimension and count must be positive, got {d} {n}")
    rows = []
    last_line = lineno
    for _ in range(n):
        try:
            lineno, body = next(lines)
        except StopIteration:
            raise FanoFileError(
                last_line + 1, 1, f"expected {n} vertex lines, got {len(rows)}"
            ) from None
        rows.append(_parse_ints(lineno, body, d, "coordinates"))
        last_line = lineno
    for lineno, body in lines:
        raise FanoFileError(lineno, 1, "unexpected data after the vertex block")
    return _checked_polytope(tuple(rows))


def serialize_fano(p: Polytope) -> str:
    lines = [HEADER, f"{p.dim} {p.n}"]
    lines.extend(" ".join(str(x) for x in v) for v in p.vertices)
    return "\n".join(lines) + "\n"


def load_polytope(path: str | Path) -> Polytope:
    try:
        text = Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError:
        data = Path(path).read_bytes()
        pos = _NON_ASCII.search(data).start()
        raise FanoFileError(data.count(b"\n", 0, pos) + 1, pos - data.rfind(b"\n", 0, pos),
                            f"non-ASCII byte 0x{data[pos]:02x}") from None
    return parse_fano(text)


def save_polytope(p: Polytope, path: str | Path) -> None:
    Path(path).write_text(serialize_fano(p), encoding="ascii", newline="\n")
