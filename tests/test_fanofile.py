from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanosplit.errors import FanoFileError
from fanosplit.fanofile import (_parse_ints, _scan_ints, _significant_lines, parse_fano,
                                serialize_fano)
from fanosplit.generators import bundle_b, example4d, hexagon, pentagon, simplex

from oracle import parse_ints_scan

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
    # well-formed: the split fast path
    "1 0 -1", "1\t0\t-1", "  1   0 \t  -1  ", "1 0 -1 # comment", "1 0 -1#c 7",
    "+1 -0 1", "007 0 -1\r", "\u0661 0 -1", "1 0 " + "9" * 40,
    # malformed: the scan locates the error
    "1 0 -1 2", "1 0 -1 2 3 # c", "1 0", "1", "   1  ", "x 0 -1", "1 x -1", "1 0 x",
    "1.5 0 -1", "+1 -0 1_0", "1_0 0 -1", "1 0 1__0", "1 0 +-1", "1 0 _1", "1 0 0x1", "1 0 " + "9" * 5000,
])
def test_parse_ints_matches_scan(line):
    assert _outcome(_parse_ints, line) == _outcome(parse_ints_scan, line)


@pytest.mark.parametrize("parse", [_parse_ints, _scan_ints])
@pytest.mark.parametrize("body, col, token", [
    ("1_0 0", 1, "1_0"), ("0 -0_1", 3, "-0_1"), (" 1 2_2", 4, "2_2"),
])
def test_digit_group_underscores_are_not_integers(parse, body, col, token):
    # int() reads "1_0" as 10; the format has decimal integers only
    with pytest.raises(FanoFileError) as exc:
        parse(7, body, 2, "coordinates")
    assert str(exc.value) == f"line 7, column {col}: not an integer: {token!r}"


@pytest.mark.parametrize("text, line, col, token", [
    (HEX_TEXT.replace("-1 1\n", "-1 1_0\n"), 5, 4, "1_0"),
    (HEX_TEXT[:-len("0 -1\n")] + "0 -0_1\n", 8, 3, "-0_1"),
    (HEX_TEXT.replace("2 6", "2 0_6"), 2, 3, "0_6"),
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
