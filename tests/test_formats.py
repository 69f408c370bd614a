"""CGF parsing and serialization, DOT export."""

import pytest
from hypothesis import given, settings, strategies as st

from gemkit import PALETTE, ColourfulGraph, FormatError, parse_cgf, to_dot, write_cgf
from conftest import torus_graph, two_tetrahedra_graph
from test_graph import colourful_graphs


def test_write_cgf_exact_text():
    text = write_cgf(two_tetrahedra_graph())
    assert text == "cgf 3 4\n3 4\n3 4\n3 4\n4 3\n"


def test_write_cgf_with_comment():
    text = write_cgf(torus_graph(), comment="three triangles\nglued")
    assert text.startswith("# three triangles\n# glued\ncgf 2 6\n")
    assert parse_cgf(text) == torus_graph()


@settings(max_examples=80, deadline=None)
@given(colourful_graphs())
def test_round_trip(G):
    assert parse_cgf(write_cgf(G)) == G


def test_parse_ignores_blank_lines_and_comments():
    text = "\n# header comment\n\ncgf 1 4\n# body\n3 4\n\n4 3\n"
    G = parse_cgf(text)
    assert G.d == 1 and G.n == 4


def test_parse_empty_input():
    with pytest.raises(FormatError):
        parse_cgf("# only a comment\n")


def test_parse_bad_magic():
    with pytest.raises(FormatError) as exc:
        parse_cgf("gfc 1 4\n3 4\n4 3\n")
    assert exc.value.token == "gfc"


def test_parse_reports_line_and_token():
    with pytest.raises(FormatError) as exc:
        parse_cgf("cgf 1 4\n3 four\n4 3\n")
    assert exc.value.line == 2
    assert exc.value.token == "four"


@pytest.mark.parametrize(
    "text,message,token",
    [
        ("cgf 3\n", "header needs 'cgf <d> <n>', got 2 tokens", None),
        ("cgf 3 4 5\n", "header needs 'cgf <d> <n>', got 4 tokens", None),
        ("cgf 0 4\n3 4\n", "d must be >= 1", "0"),
    ],
    ids=["short", "long", "d0"],
)
def test_parse_rejects_a_bad_header(text, message, token):
    with pytest.raises(FormatError, match=message) as exc:
        parse_cgf(text)
    assert exc.value.line == 1
    assert exc.value.token == token


def test_parse_rejects_odd_n():
    with pytest.raises(FormatError):
        parse_cgf("cgf 1 3\n")


def test_parse_rejects_wrong_matching_count():
    with pytest.raises(FormatError):
        parse_cgf("cgf 2 4\n3 4\n4 3\n")


def test_parse_rejects_wrong_entry_count():
    with pytest.raises(FormatError):
        parse_cgf("cgf 1 4\n3 4 3\n4 3\n")


def test_parse_rejects_out_of_range_partner():
    with pytest.raises(FormatError):
        parse_cgf("cgf 1 4\n3 5\n4 3\n")


def test_parse_rejects_repeated_partner():
    with pytest.raises(FormatError):
        parse_cgf("cgf 1 4\n3 3\n4 3\n")


def test_dot_export_structure():
    dot = to_dot(torus_graph())
    assert dot.startswith("graph G {")
    assert dot.rstrip().endswith("}")
    assert "w1 -- b1 [color=red, label=1];" in dot
    assert dot.count(" -- ") == 9


def test_dot_palette_wraps_after_eight_colours():
    G = ColourfulGraph(8, [(2,)] * 9)
    dot = to_dot(G)
    # colour 9 reuses the first palette entry
    assert f"[color={PALETTE[0]}, label=1]" in dot
    assert f"[color={PALETTE[0]}, label=9]" in dot
    assert f"[color={PALETTE[7]}, label=8]" in dot
