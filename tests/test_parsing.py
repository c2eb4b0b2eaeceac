"""The edge-list and vector-file readers against their original line loops.

Both readers decode the common form of a file in bulk and hand anything else
to a line loop.  The generated inputs mix that common form with what the
bulk path must decline: comments, blank lines, CRLF and CR endings, a
missing final newline, tabs, runs of spaces, the characters str.splitlines
or str.split treat as line breaks or spaces beyond ASCII, signs, digit
separators, non-ASCII digits, and tokens beyond int64.  Every input must give
what the original loop gives: the same graph or vector, or the same error
type and text, line number included.
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from consensim.cli import _read_vector_file  # noqa: E402
from consensim.graph import Digraph, GraphFormatError, load_edge_list, parse_edge_list  # noqa: E402

from helpers import parse_edge_list_oracle, read_vector_file_oracle  # noqa: E402

PARSE_SETTINGS = settings(max_examples=400, deadline=None, derandomize=True, database=None)

LINE_ENDINGS = ["\n"] * 6 + ["\r\n", "\r"]
# str.split() splits on all of these; str.splitlines() also breaks lines on
# the vertical tab and everything after it
SPACES = [" "] * 8 + [
    "  ", "\t", "\xa0", "\u3000", "\x0b", "\x0c", "\x1c", "\x1e", "\x85", "\u2028"
]
ODD_TOKENS = [
    "007", "-1", "+1", "1.5", "x", "\u0663", "1_0", "nodes", "#",
    str(2**63 - 1), str(2**63), str(2**64), "9" * 20, "1" + "0" * 18,
]


def outcome(read, *args):
    """What a reader gives: the graph's (n, edges, m), or the error's type and text."""
    try:
        g = read(*args)
    except (GraphFormatError, ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return g.n, g.edges, g.m


@st.composite
def tokens(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(ODD_TOKENS))
    return str(draw(st.integers(0, 7)))


@st.composite
def edge_list_texts(draw):
    """Edge-list text: the common form, sometimes with faults and odd lines."""
    lines = []
    if draw(st.booleans()):
        lines.append(f"nodes {draw(st.sampled_from(['0', '1', '3', '5', '8', '8', '8']))}")
    odd = draw(st.booleans())
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 19)) if odd else 0
        if kind <= 12:
            sep = draw(st.sampled_from(SPACES)) if odd else " "
            lines.append(f"{draw(tokens()) if odd else draw(st.integers(0, 7))}{sep}"
                         f"{draw(tokens()) if odd else draw(st.integers(0, 7))}")
        elif kind == 13:
            lines.append(draw(st.sampled_from(["", " ", "\t", "\xa0"])))
        elif kind == 14:
            lines.append(draw(st.sampled_from(["# comment", "  # indented", "#0 1"])))
        elif kind == 15:
            lines.append(" ".join(draw(tokens()) for _ in range(draw(st.integers(1, 4)))))
        elif kind == 16:
            lines.append(f"nodes {draw(tokens())}")
        else:
            pad = draw(st.sampled_from(SPACES))
            lines.append(f"{pad}{draw(tokens())} {draw(tokens())}{pad}")
    endings = [draw(st.sampled_from(LINE_ENDINGS)) if odd else "\n" for _ in lines]
    text = "".join(line + end for line, end in zip(lines, endings))
    if text and draw(st.booleans()):
        text = text[: -len(endings[-1])]
    return text


@st.composite
def valid_edge_list_texts(draw):
    """The common form without a fault, so that the bulk path returns a graph."""
    n = draw(st.integers(1, 9))
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), unique=True)
    )
    header = f"nodes {n}\n" if draw(st.booleans()) else ""
    text = header + "".join(f"{i} {j}\n" for i, j in pairs if i != j)
    return text[:-1] if text and draw(st.booleans()) else text


# each one faulty, or just outside the common form
NEAR_COMMON_LINES = [
    "0 1 2 3", "0 1 2", "5", "", "#", "0 1 ", " 0 1", "0  1", "0\t1", "0 1\r", "3 3", "0 1",
    "1 9", "00 01", "+1 2", "nodes 4", str(2**63) + " 0", "0 " + "9" * 19,
]


@st.composite
def near_common_texts(draw):
    """The common form with one line from NEAR_COMMON_LINES put in."""
    lines = draw(valid_edge_list_texts()).split("\n")
    lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(NEAR_COMMON_LINES)))
    return "\n".join(lines)


any_edge_list = st.one_of(edge_list_texts(), valid_edge_list_texts(), near_common_texts())


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("parsing")


@PARSE_SETTINGS
@given(text=any_edge_list)
def test_str_lines_and_file_read_as_the_original_loop(text, work_dir):
    assert outcome(parse_edge_list, text) == outcome(parse_edge_list_oracle, text)
    lines = text.splitlines(keepends=True)
    assert outcome(parse_edge_list, lines) == outcome(parse_edge_list_oracle, lines)

    path = work_dir / "graph.txt"
    path.write_bytes(text.encode("utf-8"))

    def oracle(p):
        with open(p, "r", encoding="utf-8") as fh:
            return parse_edge_list_oracle(fh)

    assert outcome(load_edge_list, path) == outcome(oracle, path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("0 1\n1 2\n1 2\n3 3\n", "line 3: duplicate edge (1, 2)"),
        ("0 1\n2 2\n0 1\n", "line 2: self-loop on node 2"),
        ("nodes 3\n0 1\n2 2\n0 9\n", "line 3: self-loop on node 2"),
        ("nodes 3\n0 1\n0 9\n2 2\n", "line 3: edge (0, 9) exceeds declared node count 3"),
        ("nodes 3\n0 1\n0 1\n0 9\n", "line 3: duplicate edge (0, 1)"),
        ("0 1\n1 0\n1 0\n0 x\n", "line 3: duplicate edge (1, 0)"),
        ("0 1\n1 0\n0 x\n1 0\n", "line 3: not a nonnegative integer: 'x'"),
        ("nodes 3\n0 99999999999999999999\n",
         "line 2: edge (0, 99999999999999999999) exceeds declared node count 3"),
    ],
)
def test_the_first_faulty_line_is_reported(text, message):
    # every later line is faulty too, in a different way
    with pytest.raises(GraphFormatError) as info:
        parse_edge_list(text)
    assert str(info.value) == message
    assert outcome(parse_edge_list, text) == outcome(parse_edge_list_oracle, text)


def test_crlf_header_comment_blank_and_no_final_newline(work_dir):
    text = "nodes 4\r\n# ring\r\n\r\n0 1\r\n1 2\r\n2 3\r\n3 0"
    path = work_dir / "crlf.txt"
    path.write_bytes(text.encode("utf-8"))
    g = load_edge_list(path)
    assert (g.n, g.edges) == (4, {(0, 1), (1, 2), (2, 3), (3, 0)})
    assert outcome(parse_edge_list, text) == (g.n, g.edges, g.m)


@pytest.mark.parametrize(
    "read, head, line, error, message",
    [
        (load_edge_list, b"0 1\n1 1\n", b"0 2\n", GraphFormatError,
         r"^line 2: self-loop on node 1$"),
        (lambda path: _read_vector_file(path, 5002, "weights"), b"1\nx\n", b"1\n", ValueError,
         r"^weights file line 2: not a number: 'x'$"),
    ],
    ids=["graph", "weights"],
)
def test_a_fault_ahead_of_undecodable_bytes_is_reported(read, head, line, error, message, work_dir):
    # a file read line by line decodes one chunk at a time, so the fault on
    # line 2 is met before the bad byte past the first 8 KiB
    path = work_dir / "late-bad-byte.txt"
    path.write_bytes(head + line * 5000 + b"\xff\n")
    with pytest.raises(error, match=message):
        read(path)
    path.write_bytes(line + b"\xff\n")
    with pytest.raises(UnicodeDecodeError):
        read(path)


def test_bulk_read_matches_the_loop_on_a_larger_graph():
    rng = np.random.default_rng(3)
    n = 300
    pairs = {(int(i), int(j)) for i, j in rng.integers(0, n, size=(2000, 2)) if i != j}
    text = f"nodes {n}\n" + "".join(f"{i} {j}\n" for i, j in pairs)
    g = parse_edge_list(text)
    assert (g.n, g.edges, g.m) == outcome(parse_edge_list_oracle, text)
    assert g == Digraph(n, pairs)


NUMBER_LINES = [
    "1", "0", "-0.0", "1.", ".5", "1e5", "1E+05", "+1", "-1.5e-3", "2.5e-308",
    "1e-320", "1.7976931348623157e308", "1e309", "0.1", "0123",
]
ODD_NUMBER_LINES = [
    "inf", "-inf", "nan", "Infinity", "1_0", "\u0661", "1 2", "", " ", "# c", "  1.5  ",
    "\t2", "0x10", "1e", "e5", ".", "+-1", "1.2.3", "--1", "1\xa0", "\x0c3", "1e5\x85",
]


@st.composite
def vector_texts(draw):
    odd = draw(st.booleans())
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        pick = draw(st.integers(0, 3))
        if pick == 0:
            lines.append(repr(draw(st.floats(allow_nan=False, allow_infinity=False))))
        elif pick == 1 or not odd:
            lines.append(draw(st.sampled_from(NUMBER_LINES)))
        else:
            lines.append(draw(st.sampled_from(ODD_NUMBER_LINES)))
    endings = [draw(st.sampled_from(LINE_ENDINGS)) if odd else "\n" for _ in lines]
    text = "".join(line + end for line, end in zip(lines, endings))
    if text and draw(st.booleans()):
        text = text[: -len(endings[-1])]
    return text, max(0, len(lines) + draw(st.sampled_from([0, 0, 0, -1, 1])))


def vector_outcome(read, *args):
    try:
        vec = read(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return vec.dtype, vec.tobytes()


@PARSE_SETTINGS
@given(case=vector_texts())
def test_vector_file_reads_as_the_original_loop(case, work_dir):
    text, n = case
    path = work_dir / "vector.txt"
    path.write_bytes(text.encode("utf-8"))
    assert vector_outcome(_read_vector_file, path, n, "x0") == vector_outcome(
        read_vector_file_oracle, path, n, "x0"
    )


@pytest.mark.parametrize(
    "text, n, message",
    [
        ("1 2\n\n3\n", 3, "x0 file line 1: not a number: '1 2'"),
        ("1\n2\n3\n", 2, "x0 file has 3 values, expected 2"),
        ("1\n\n2\n", 3, "x0 file has 2 values, expected 3"),
        ("1\n1e309\n", 2, "x0 file has non-finite entries"),
    ],
)
def test_vector_file_errors(text, n, message, work_dir):
    path = work_dir / "vector-error.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        _read_vector_file(path, n, "x0")
    assert str(info.value) == message
