"""Directed graphs, every input file format, and strong connectivity.

``_read_text_file`` reads the graph, weights and x0 files by the same rules,
and ``_meaningful_lines`` skips their blank lines and ``#`` lines.  Both
edge-list readers, the bulk decoder and the line loop, hand ``Digraph`` an
(m, 2) array of pairs they have checked, so no pair is checked twice.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import index
from typing import Callable, Iterable, Iterator

import numpy as np

_INTP_MAX = int(np.iinfo(np.intp).max)
# up to this node count the sort key i * n + j fits in intp
_KEY_MAX_NODES = math.isqrt(_INTP_MAX)
# a bulk-decoded index has at most this many digits, so it fits in intp
_MAX_DIGITS = len(str(_INTP_MAX)) - 1


class GraphFormatError(ValueError):
    """Raised when edge-list input violates the text format."""


def _checked_pairs(n: int, edges: Iterable) -> set[tuple[int, int]]:
    # one pair at a time in input order: the source of every Digraph error
    pairs: set[tuple[int, int]] = set()
    for i, j in (map(index, edge) for edge in edges):
        if i == j:
            raise ValueError(f"self-loop on node {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) out of range for {n} nodes")
        if (i, j) in pairs:
            raise ValueError(f"duplicate edge ({i}, {j})")
        pairs.add((i, j))
    return pairs


class Digraph:
    """Simple directed graph on nodes 0..n-1, held as one sorted edge array.

    An edge (i, j) means node i listens to node j: j's state enters i's
    update.  ``n >= 1`` and isolated nodes are allowed (they never change
    state).  ``n`` and the endpoints must be integers (numpy's included), else
    TypeError.  Self-loops, out-of-range endpoints and pairs given twice (equal
    after ``operator.index``, as a list can hold) raise ValueError.

    ``edges`` may be any iterable of pairs.  The graph stores them once, as
    a column-major (m, 2) intp array sorted by (listener, source), so each
    column is contiguous; build_system and is_strongly_connected take the
    columns as views.  An (m, 2) integer array is checked in bulk, any other
    iterable one pair at a time.  Either way the first faulty pair in input
    order raises, with its checks in the order above: a non-integer first,
    then a self-loop, an endpoint out of range, a repeat.  ``edges`` reads
    back as a frozenset of int pairs, built on each read.
    """

    __slots__ = ("_n", "_edge_array")

    def __init__(self, n, edges) -> None:
        n = index(n)
        if n < 1:
            raise ValueError("node count must be at least 1")
        if n > _INTP_MAX:
            # numpy's words for an array of more entries than intp can count
            raise ValueError("Maximum allowed dimension exceeded")
        if isinstance(edges, np.ndarray) and edges.dtype.kind in "iu" and edges.shape[1:] == (2,):
            # uint64 beyond intp wraps to a negative index, which the range check rejects
            arr = edges.astype(np.intp, copy=False)
        else:
            arr = np.array(list(_checked_pairs(n, edges)), dtype=np.intp).reshape(-1, 2)
        if arr.size:
            i, j = arr[:, 0], arr[:, 1]
            faulty = bool((i == j).any()) or int(arr.min()) < 0 or int(arr.max()) >= n
            if not faulty:
                # a stable sort runs through presorted stretches in linear time;
                # the sorted keys split straight into the columns of a column-major array
                if n <= _KEY_MAX_NODES:
                    key = i * n + j
                    key.sort(kind="stable")
                    arr = np.empty(arr.shape, dtype=np.intp, order="F")
                    np.divmod(key, n, out=(arr[:, 0], arr[:, 1]))
                    del key  # before the duplicate test's temporaries, or the parse peak rises
                else:
                    arr = np.asfortranarray(arr[np.lexsort((j, i))])
                faulty = bool((arr[1:] == arr[:-1]).all(axis=1).any())
            if faulty:
                _checked_pairs(n, edges)
        self._n = n
        self._edge_array = arr

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edges as a frozenset of (listener, source) int pairs."""
        return frozenset(zip(*self._edge_array.T.tolist()))

    @property
    def m(self) -> int:
        """Number of directed edges."""
        return len(self._edge_array)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self._edge_array, other._edge_array)

    def __hash__(self) -> int:
        return hash((self.n, self._edge_array.tobytes()))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n!r}, edges={self.edges!r})"


def _int_token(token: str, lineno: int) -> int:
    # only plain nonnegative decimals; rejects signs, underscores, unicode digits
    if not (token.isascii() and token.isdigit()):
        raise GraphFormatError(f"line {lineno}: not a nonnegative integer: {token!r}")
    return int(token)


def _meaningful_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    # (line number from 1, stripped line) for each line neither blank nor a # comment
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _read_text_file(path, bulk: Callable, loop: Callable):
    # bulk(whole text), or loop(lines) when bulk returns None or the file does not decode
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            # read line by line, a fault ahead of the undecodable chunk is reported first
            fh.seek(0)
            try:
                return loop(fh)
            except UnicodeDecodeError:
                # the line reader counts from its chunk; the whole-file read, from the file's start
                exc.reason += f" in {path}"
                raise exc from None
    result = bulk(text)
    return result if result is not None else loop(text.split("\n"))


def _parse_lines(lines: Iterable[str]) -> Digraph:
    # one line at a time: reads every accepted form, names every fault's line
    declared: int | None = None
    edges: set[tuple[int, int]] = set()
    max_index = -1
    header_slot_open = True
    for lineno, line in _meaningful_lines(lines):
        tokens = line.split()
        if header_slot_open:
            header_slot_open = False
            if tokens[0] == "nodes":
                if len(tokens) != 2:
                    raise GraphFormatError(f"line {lineno}: header must be 'nodes <n>'")
                declared = _int_token(tokens[1], lineno)
                if declared < 1:
                    raise GraphFormatError(f"line {lineno}: node count must be at least 1")
                continue
        if len(tokens) != 2:
            raise GraphFormatError(f"line {lineno}: expected '<from> <to>', got {line!r}")
        i = _int_token(tokens[0], lineno)
        j = _int_token(tokens[1], lineno)
        if i == j:
            raise GraphFormatError(f"line {lineno}: self-loop on node {i}")
        if declared is not None and (i >= declared or j >= declared):
            raise GraphFormatError(
                f"line {lineno}: edge ({i}, {j}) exceeds declared node count {declared}"
            )
        if (i, j) in edges:
            raise GraphFormatError(f"line {lineno}: duplicate edge ({i}, {j})")
        edges.add((i, j))
        max_index = max(max_index, i, j)
    n = declared if declared is not None else max_index + 1
    if n < 1:
        raise GraphFormatError("no edges and no 'nodes <n>' header; node count is undefined")
    if n > _INTP_MAX:
        # Digraph rejects n before numpy would meet an index past intp
        return Digraph(n, edges)
    pairs = np.fromiter(chain.from_iterable(edges), np.intp, 2 * len(edges))
    return Digraph(n, pairs.reshape(-1, 2))


def _bulk_graph(text: str) -> Digraph | None:
    # the common form, decoded without a Python object per edge: an optional
    # first line "nodes <n>", then lines of two ASCII-digit tokens one space
    # apart, each ending in a newline except perhaps the last.  None for any
    # other text or any fault; the line loop then reads it.
    declared = None
    body = text
    if text.startswith("nodes "):
        head, _, body = text.partition("\n")
        token = head[len("nodes ") :]
        if not (len(token) <= _MAX_DIGITS and token.isascii() and token.isdigit()):
            return None
        declared = int(token)
    if body and not body.endswith("\n"):
        body += "\n"
    if not body.isascii():
        return None
    b = np.frombuffer(body.encode("ascii"), dtype=np.uint8)
    # the bytes below "0" delimit the tokens: they must alternate space and
    # newline from a space, with 1 to _MAX_DIGITS digits before each
    delimiters = np.flatnonzero(b < ord("0"))
    gaps = np.diff(delimiters, prepend=-1)
    if b.size and not (
        b.max() <= ord("9")
        and delimiters.size % 2 == 0
        and (b[delimiters[0::2]] == ord(" ")).all()
        and (b[delimiters[1::2]] == ord("\n")).all()
        and 1 < gaps.min()
        and gaps.max() <= _MAX_DIGITS + 1
    ):
        return None
    del b, delimiters, gaps  # checked; kept through Digraph's sort they raise the peak
    pairs = np.fromstring(body, dtype=np.intp, sep=" ").reshape(-1, 2)
    n = declared if declared is not None else int(pairs.max(initial=-1)) + 1
    try:
        return Digraph(n, pairs)
    except ValueError:
        return None


def parse_edge_list(source: str | Iterable[str]) -> Digraph:
    """Parse the plain-text edge-list format into a :class:`Digraph`.

    The format is line oriented:

    * an optional header ``nodes <n>`` as the first meaningful line fixes the
      node count (otherwise it is the largest index seen plus one);
    * every other meaningful line is one directed edge, two whitespace
      separated integers ``<from> <to>``;
    * blank lines and lines starting with ``#`` are ignored.

    A str is split into lines by ``str.splitlines``; any other iterable
    yields one line per item.  A str in the common form (the optional
    header, then lines of two ASCII-digit tokens one space apart) is decoded
    in bulk; everything else is read one line at a time.  Raises
    :class:`GraphFormatError` on the first faulty line, naming it: malformed
    tokens, self-loops, duplicate edges, or indices outside a declared node
    count.
    """
    if isinstance(source, str):
        graph = _bulk_graph(source)
        if graph is not None:
            return graph
        source = source.splitlines()
    return _parse_lines(source)


def load_edge_list(path) -> Digraph:
    """Read and parse an edge-list file.

    Its lines are split at newlines alone, after universal-newline
    translation, as iterating over the file splits them.
    """
    return _read_text_file(path, _bulk_graph, _parse_lines)


def _vector_lines(lines, label: str) -> list[float]:
    values: list[float] = []
    for lineno, line in _meaningful_lines(lines):
        try:
            # float() also reads digit separators and non-ASCII digits,
            # which are no plain decimals; the edge-list parser rejects
            # them too
            if not line.isascii() or "_" in line:
                raise ValueError
            values.append(float(line))
        except ValueError:
            raise ValueError(f"{label} file line {lineno}: not a number: {line!r}") from None
    return values


def read_vector_file(path, n: int, label: str) -> np.ndarray:
    """The n finite numbers of a weights or x0 file, one per line, read line by line."""
    values = _read_text_file(path, lambda text: None, lambda lines: _vector_lines(lines, label))
    if len(values) != n:
        raise ValueError(f"{label} file has {len(values)} values, expected {n}")
    vec = np.array(values, dtype=np.float64)
    if not np.all(np.isfinite(vec)):
        raise ValueError(f"{label} file has non-finite entries")
    return vec


def _reaches_all(n: int, tails: np.ndarray, heads: np.ndarray) -> bool:
    # a search from node 0 along the edges tail -> head, over CSR rows: the
    # heads of u's edges are adjacent[start[u]:start[u + 1]]
    start = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(tails, minlength=n), out=start[1:])
    adjacent = heads[np.argsort(tails, kind="stable")].tolist()
    start = start.tolist()
    seen = bytearray(n)
    seen[0] = 1
    stack = [0]
    count = 1
    while stack:
        u = stack.pop()
        for v in adjacent[start[u] : start[u + 1]]:
            if not seen[v]:
                seen[v] = 1
                count += 1
                stack.append(v)
    return count == n


def is_strongly_connected(g: Digraph) -> bool:
    """True iff every node reaches every other along directed edges.

    Runs two graph searches from node 0, one along the edges and one along
    the reversed edges; both reaching all nodes is equivalent to the graph
    having a single strongly connected component.
    """
    listeners, sources = g._edge_array.T
    return _reaches_all(g.n, listeners, sources) and _reaches_all(g.n, sources, listeners)
