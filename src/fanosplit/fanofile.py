"""Bit-exact text format for polytope vertex files.

Layout: a header line ``fano 1``, a dimension line ``d n``, then n lines of
d space-separated decimal integers.  ``#`` starts a comment running to the
end of the line; blank lines are ignored; line endings are LF.  Parsing then
serializing is byte-identical up to comments and blank lines.

Two parses, one per kind of input.  `parse_fano` converts a plain vertex
block (`_plain_block`) to the polytope's exact vertex array at once, by one
numpy call.  Every other line -- the dimension line, and each line of a
block with an entry beyond 2**62, a blank other than space, tab and CR, or
a malformed line -- goes token by token through `_parse_ints`, which keeps
entries exact and locates the first error.
"""

from __future__ import annotations

import re
from itertools import islice
from pathlib import Path

import numpy as np

from . import linalg
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
    """The `expected` integers of a line, token by token, raising
    FanoFileError at the first offending column.  A token with `_` or a
    non-ASCII character is no decimal integer, though `int` reads Python's
    digit-group underscores and every Unicode decimal digit ('١', '１')."""
    tokens = list(_TOKEN.finditer(body))
    if len(tokens) != expected:
        col = tokens[expected].start() + 1 if len(tokens) > expected else len(body.rstrip()) + 1
        raise FanoFileError(lineno, col, f"expected {expected} {what}, got {len(tokens)}")
    out = []
    for tok in tokens:
        text = tok.group()
        try:
            if "_" in text or not text.isascii():
                raise ValueError(text)
            out.append(int(text))
        except ValueError:
            raise FanoFileError(
                lineno, tok.start() + 1, f"not an integer: {text!r}"
            ) from None
    return tuple(out)


def _plain_block(block: str, n: int, d: int) -> np.ndarray | None:
    """The n lines of `block` as one n x d int64 array, converted by one
    `np.fromstring` call, or None unless every line is d tokens [+-]digits
    between blanks (space, tab, CR), which `int` and numpy read alike."""
    try:
        raw = np.frombuffer(f"\n{block}\n".encode("ascii"), dtype=np.uint8)
    except UnicodeEncodeError:
        return None
    digit = (raw - 48) < 10  # uint8: the bytes below "0" wrap round
    blank = (raw == 32) | (raw == 10) | (raw == 9) | (raw == 13)
    sign = (raw == 43) | (raw == 45)
    signs = sign.nonzero()[0]  # each starts its token, and a digit follows it
    if not ((digit | blank | sign).all() and blank[signs - 1].all() and digit[signs + 1].all()):
        return None
    starts = blank[:-1] > blank[1:]  # a token starts at byte i + 1
    if not (np.add.reduceat(starts, (raw == 10).nonzero()[0][:-1], dtype=np.intp) == d).all():
        return None
    # exactly n * d integers, so numpy sizes its array once instead of growing it
    return np.fromstring(block, dtype=np.int64, count=n * d, sep=" ").reshape(n, d)


def _vertex_block(text: str) -> tuple[np.ndarray, int]:
    """The vertex rows of a `fano 1` text as one exact array and its max |entry|.

    A plain block (`_plain_block`) is converted by one `np.fromstring` call
    and kept when every |entry| is below 2**62, since numpy saturates a token
    beyond int64 silently (-99999999999999999999 reads as 2**63 - 1).  Any
    other block goes line by line through `_parse_ints`, which keeps larger
    entries exact and raises the first error; the header, dimension-line,
    line-count and trailing-data errors are the same on both paths."""
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
    block = list(islice(lines, n))
    extra = next(lines, None)
    if len(block) == n and extra is None:
        a = _plain_block("\n".join(body for _, body in block), n, d)
        if a is not None:
            hi = max(int(a.max()), -int(a.min()))
            if hi < linalg._I64_SAFE:
                return a, hi
    rows = []
    last_line = lineno
    for lineno, body in block:
        rows.append(_parse_ints(lineno, body, d, "coordinates"))
        last_line = lineno
    if len(rows) < n:
        raise FanoFileError(last_line + 1, 1, f"expected {n} vertex lines, got {len(rows)}")
    if extra is not None:
        raise FanoFileError(extra[0], 1, "unexpected data after the vertex block")
    return linalg._to_array(rows)


def parse_fano(text: str) -> Polytope:
    """The polytope of a `fano 1` text, built on its exact vertex array
    (`_vertex_block`) with no vertex tuple."""
    return _checked_polytope(*_vertex_block(text))


def serialize_fano(p: Polytope) -> str:
    lines = [HEADER, f"{p.dim} {p.n}"]
    lines.extend(" ".join(map(str, row)) for row in p._array.tolist())
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
