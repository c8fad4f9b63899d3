from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanosplit.errors import FanoError, FanoFileError
from fanosplit.fanofile import (_parse_ints, _plain_block, _significant_lines,
                                _vertex_block, parse_fano, serialize_fano)
from fanosplit.generators import bundle_b, example4d, hexagon, pentagon, random_image, simplex
from fanosplit.splitting import direct_sum

from oracle import parse_fano_lines, parse_ints_scan

HEX_TEXT = """fano 1
2 6
1 0
0 1
-1 1
1 -1
-1 0
0 -1
"""


def test_parse_hexagon():
    p = parse_fano(HEX_TEXT)
    assert (p.dim, p.n) == (2, 6)
    assert p.vertices[0] == (1, 0)


def test_serialize_hexagon_exact_bytes():
    assert serialize_fano(hexagon()) == HEX_TEXT


def test_round_trip_on_generators():
    for p in (hexagon(), pentagon(), simplex(3), example4d(), bundle_b(2)):
        q = parse_fano(serialize_fano(p))
        assert q.vertices == p.vertices
        assert serialize_fano(q) == serialize_fano(p)


def test_comments_and_blank_lines_ignored():
    text = "# a polytope\n\nfano 1   # header\n 2 3 \n1 0\n# interior comment\n0 1\n\n-1 -1\n"
    p = parse_fano(text)
    assert p.n == 3
    assert serialize_fano(p) == "fano 1\n2 3\n1 0\n0 1\n-1 -1\n"


@pytest.mark.parametrize(
    "text, line",
    [
        ("", 1),
        ("fano 2\n2 3\n1 0\n0 1\n-1 -1\n", 1),
        ("fano 1\n2\n1 0\n", 2),
        ("fano 1\n2 2\n1 0\n0 x\n", 4),
        ("fano 1\n2 3\n1 0\n0 1\n", 5),
        ("fano 1\n2 2\n1 0\n0 1\n9 9\n", 5),
        ("fano 1\n2 2\n1 0 3\n0 1\n", 3),
    ],
)
def test_parse_errors_carry_line(text, line):
    with pytest.raises(FanoFileError) as exc:
        parse_fano(text)
    assert exc.value.line == line


def test_error_column_points_at_bad_token():
    with pytest.raises(FanoFileError) as exc:
        parse_fano("fano 1\n2 2\n1 0\n0 abc\n")
    assert (exc.value.line, exc.value.col) == (4, 3)


def _outcome(parse, line: str):
    """The ints a vertex line of dimension 3 parses to, or its error's place
    and message; the line goes through the comment stripping first."""
    ((lineno, body),) = _significant_lines(line)
    try:
        return parse(lineno, body, 3, "coordinates")
    except FanoFileError as e:
        return e.line, e.col, str(e)


@pytest.mark.parametrize("line", [
    # well-formed
    "1 0 -1", "1\t0\t-1", "  1   0 \t  -1  ", "1 0 -1 # comment", "1 0 -1#c 7",
    "+1 -0 1", "007 0 -1\r", "\u0661 0 -1", "1 0 " + "9" * 40,
    # malformed: the error's column
    "1 0 -1 2", "1 0 -1 2 3 # c", "1 0", "1", "   1  ", "x 0 -1", "1 x -1", "1 0 x",
    "1.5 0 -1", "+1 -0 1_0", "1_0 0 -1", "1 0 1__0", "1 0 +-1", "1 0 _1", "1 0 0x1", "1 0 " + "9" * 5000,
    "\u0661 0 -1", "1 0 -\uff11", "1 \u00b2 0",
])
def test_parse_ints_matches_scan(line):
    assert _outcome(_parse_ints, line) == _outcome(parse_ints_scan, line)


@pytest.mark.parametrize("body, col, token", [
    ("1_0 0", 1, "1_0"), ("0 -0_1", 3, "-0_1"), (" 1 2_2", 4, "2_2"),
])
def test_digit_group_underscores_are_not_integers(body, col, token):
    # int() reads "1_0" as 10; the format has decimal integers only
    with pytest.raises(FanoFileError) as exc:
        _parse_ints(7, body, 2, "coordinates")
    assert str(exc.value) == f"line 7, column {col}: not an integer: {token!r}"


@pytest.mark.parametrize("text, line, col, token", [
    (HEX_TEXT.replace("-1 1\n", "-1 1_0\n"), 5, 4, "1_0"),
    (HEX_TEXT[:-len("0 -1\n")] + "0 -0_1\n", 8, 3, "-0_1"),
    (HEX_TEXT.replace("2 6", "2 0_6"), 2, 3, "0_6"),
    # int() reads every Unicode decimal digit; the format has ASCII digits only
    ("fano 1\n2 3\n\u0661 0\n0 1\n-1 -1\n", 3, 1, "\u0661"),
    (HEX_TEXT.replace("-1 1\n", "-1 \uff11\n"), 5, 4, "\uff11"),
    (HEX_TEXT.replace("2 6", "2 \uff16"), 2, 3, "\uff16"),
    (HEX_TEXT.replace("2 6", "\u0662 6"), 2, 1, "\u0662"),
])
def test_underscore_in_a_file_is_a_parse_error(text, line, col, token):
    with pytest.raises(FanoFileError) as exc:
        parse_fano(text)
    assert str(exc.value) == f"line {line}, column {col}: not an integer: {token!r}"


@settings(max_examples=50)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda d: st.lists(
            st.tuples(*[st.integers(-99, 99) for _ in range(d)]),
            min_size=d + 1,
            max_size=8,
            unique=True,
        )
    )
)
def test_round_trip_property(rows):
    from fanosplit.errors import FanoError
    from fanosplit.polytope import make_polytope

    try:
        p = make_polytope(rows)
    except FanoError:
        return  # degenerate sample; format round-trip needs a valid polytope
    assert parse_fano(serialize_fano(p)).vertices == p.vertices


# --- the one-call block conversion against the line-by-line parse ----------

BOUNDARY = [2**62 - 1, 2**62, 2**63 - 1, 2**63, 10**20]


def _file_outcome(parse, text: str):
    """What a text parses to: the polytope's d, vertices and store dtype, or
    the error's kind and place."""
    try:
        p = parse(text)
    except FanoFileError as e:
        return "FanoFileError", e.line, e.col, str(e)
    except FanoError as e:
        return type(e).__name__, str(e)
    return p.dim, p.vertices, p._array.dtype


def _same_as_lines(text: str) -> None:
    assert _file_outcome(parse_fano, text) == _file_outcome(parse_fano_lines, text)


@pytest.mark.parametrize("text", [
    HEX_TEXT,
    # a line with d + 1 tokens next to one with d - 1: the same total count
    "fano 1\n2 3\n1 0 0\n1\n-1 -1\n",
    "fano 1\n2 3\n1 0\n0\n-1 -1 1\n",
    "fano 1\n2 3\n1_0 0\n0 1\n-1 -1\n",
    "fano 1\n2 3\n+1 0\n0 +1\n-1 -1\n",
    "fano 1\n2 3\n001 -0\n0 007\n-01 -1\n",
    "fano 1\n2 3\n1\t0\n0 \t 1\n\t-1 -1\t\n",
    "# c\nfano 1 # h\n\n2 3\n1 0 # v\n\n# c\n0 1\n-1 -1\n\n",
    "fano 1\n2 3\n1 0\n0 1\n-1 -1\n0 0\n",
    "fano 1\n2 3\n1 0\n0 1\n",
    "fano 1\n2 3\n1 0\n0 1\n- 1 -1\n",
    "fano 1\n2 3\n1 0\n0 1\n-1-1 2\n",
    "fano 1\n2 3\n1 0\n0 1\n-1 -1\r\n",
    "fano 1\n2 3\n1 0\n0 1\n\u0661 -1\n",
    "fano 1\n2 3\n1 0\n0 1\n-1\x0b-1\n",
    "fano 1\n2 3\n1 0\n0 1\n-1\x1c-1\n",
    "fano 1\n2 3\n1 0\n0 1\n-1\x01 -1\n",
    "fano 1\n2 3\n1 0 -\n1\n-1 -1\n",
    "fano 1\n2 3\n1 0\n0 1\n-1 -\n",
    "fano 1\n2 3\n1 0\n0 1\n-1 + # c\n",
    "fano 1\n2 3\n1 0\n0 1\n1 0\n",
] + [f"fano 1\n2 3\n1 0\n0 1\n{s}{b} -1\n" for b in BOUNDARY for s in "-+"]
  + [f"fano 1\n2 3\n{b} 0\n0 1\n-{b} -1\n" for b in BOUNDARY])
def test_parse_matches_line_by_line(text):
    _same_as_lines(text)


@st.composite
def fano_texts(draw):
    """Texts of small vertex blocks: signs, lone signs, leading zeros, tabs,
    comments, blank lines, digit-group underscores, entries on both sides of
    2**62 and 2**63, and sometimes a token moved from one line to another."""
    d, n = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    entry = st.one_of(st.integers(-3, 3), st.sampled_from(BOUNDARY).flatmap(
        lambda b: st.sampled_from([b, -b])))
    rows = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        rows[i].append(rows[j].pop())

    def token(x):
        form = draw(st.sampled_from(["plain", "plain", "plus", "zeros", "underscore", "sign"]))
        if form == "sign":  # a lone sign: no integer, though numpy reads "1 -" as 1, 0
            return "-" if x < 0 else "+"
        text = str(abs(x))
        if form == "zeros":
            text = "00" + text
        elif form == "underscore" and len(text) > 1:
            text = text[0] + "_" + text[1:]
        return ("-" if x < 0 else "+" if form == "plus" else "") + text

    lines = ["fano 1", f"{d} {n}"]
    for row in rows:
        line = draw(st.sampled_from([" ", "\t", "  "])).join(map(token, row))
        if draw(st.booleans()):
            line += draw(st.sampled_from([" # note", "#", "\t"]))
        lines.append(line)
        if not draw(st.integers(0, 5)):
            lines.append(draw(st.sampled_from(["", "# comment", "   "])))
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n", "\n0 0\n"]))


@settings(max_examples=300, deadline=None)
@given(fano_texts())
def test_parse_matches_line_by_line_property(text):
    _same_as_lines(text)


@pytest.mark.parametrize("block, plain", [
    ("1 -2\n+3 007", True), ("-1  0\n0 1", True), ("99999999999999999999 2\n3 4", True),
    ("-1\t0\n0 1", True), ("1 -2\r\n3 4", True), ("\t1\r-2\r\n3 \t4\r", True),
    # any other block takes the line-by-line parse
    ("1 -2\n3", False), ("1_0 2\n3 4", False), ("1\x0b2\n3 4", False), ("1 2\x0c\n3 4", False),
    ("- 1 2\n3 4", False), ("1 -\n3 4", False), ("1-2 3\n4 5", False), ("1 2-\n3 4", False),
    ("1 +-2\n3 4", False), ("1 x\n3 4", False), ("1.5 2\n3 4", False), ("1e5 2\n3 4", False),
    ("0x1 2\n3 4", False), ("1\x012 3\n4 5", False), ("1\x1c2\n3 4", False),
    ("\u0661 2\n3 4", False), ("1\xa02\n3 4", False), ("1 2\n3 +", False), ("1 2\n3 - ", False),
])
def test_plain_block(block, plain):
    assert (_plain_block(block, 2, 2) is not None) == plain


def test_serialized_inputs_take_the_block_conversion(monkeypatch):
    # every file `serialize_fano` writes is plain: one numpy call converts it
    calls, fromstring = [], np.fromstring
    monkeypatch.setattr(np, "fromstring", lambda *a, **k: calls.append(a) or fromstring(*a, **k))
    p = random_image(direct_sum(bundle_b(2), hexagon()), 1)
    a, hi = _vertex_block(serialize_fano(p))
    assert len(calls) == 1 and a.dtype == np.int64 and a.tolist() == list(map(list, p.vertices))
    assert hi == max(abs(x) for v in p.vertices for x in v)
