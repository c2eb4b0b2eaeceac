"""Directed graphs, edge-list parsing, and strong connectivity."""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import Iterable


class GraphFormatError(ValueError):
    """Raised when edge-list input violates the text format."""


@dataclass(frozen=True)
class Digraph:
    """Simple directed graph on nodes 0..n-1 with a set of edges.

    An edge (i, j) means node i listens to node j: j's state enters i's
    update.  ``n >= 1`` and isolated nodes are allowed (they never change
    state).  ``n`` and the endpoints must be integers (numpy's included), else
    TypeError.  Self-loops, out-of-range endpoints and pairs given twice (equal
    after ``operator.index``, as a list can hold) raise ValueError.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", index(self.n))
        if self.n < 1:
            raise ValueError("node count must be at least 1")
        edges: set[tuple[int, int]] = set()
        for i, j in (map(index, edge) for edge in self.edges):
            if i == j:
                raise ValueError(f"self-loop on node {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i}, {j}) out of range for {self.n} nodes")
            if (i, j) in edges:
                raise ValueError(f"duplicate edge ({i}, {j})")
            edges.add((i, j))
        object.__setattr__(self, "edges", frozenset(edges))

    @property
    def m(self) -> int:
        """Number of directed edges."""
        return len(self.edges)


def _int_token(token: str, lineno: int) -> int:
    # only plain nonnegative decimals; rejects signs, underscores, unicode digits
    if not (token.isascii() and token.isdigit()):
        raise GraphFormatError(f"line {lineno}: not a nonnegative integer: {token!r}")
    return int(token)


def parse_edge_list(source: str | Iterable[str]) -> Digraph:
    """Parse the plain-text edge-list format into a :class:`Digraph`.

    The format is line oriented:

    * an optional header ``nodes <n>`` as the first meaningful line fixes the
      node count (otherwise it is the largest index seen plus one);
    * every other meaningful line is one directed edge, two whitespace
      separated integers ``<from> <to>``;
    * blank lines and lines starting with ``#`` are ignored.

    Raises :class:`GraphFormatError` (with a line number) on malformed
    tokens, self-loops, duplicate edges, or indices outside a declared
    node count.
    """
    lines: Iterable[str] = source.splitlines() if isinstance(source, str) else source
    declared: int | None = None
    edges: set[tuple[int, int]] = set()
    max_index = -1
    header_slot_open = True
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
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
    return Digraph(n=n, edges=frozenset(edges))


def load_edge_list(path) -> Digraph:
    """Read and parse an edge-list file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh)


def is_strongly_connected(g: Digraph) -> bool:
    """True iff every node reaches every other along directed edges.

    Runs two graph searches (forward from node 0, and from node 0 in the
    reversed graph); both reaching all nodes is equivalent to the graph
    having a single strongly connected component.
    """
    if g.n == 1:
        return True
    fwd: list[list[int]] = [[] for _ in range(g.n)]
    rev: list[list[int]] = [[] for _ in range(g.n)]
    for i, j in g.edges:
        fwd[i].append(j)
        rev[j].append(i)

    def reaches_all(adj: list[list[int]]) -> bool:
        seen = bytearray(g.n)
        seen[0] = 1
        stack = [0]
        count = 1
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = 1
                    count += 1
                    stack.append(v)
        return count == g.n

    return reaches_all(fwd) and reaches_all(rev)
