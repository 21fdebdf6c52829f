"""Immutable simple undirected graphs and their structural operators.

Vertices are dense 0-based indices ``0..order-1``.  Edges are unordered
pairs stored canonically as ``(u, v)`` with ``u < v``, in lexicographic
order, the only adjacency a graph holds.  Graphs are values: hashable
and compared by labeled equality.

Each edge is checked once, where it enters: ``Graph(...)`` checks edges
from outside the program, and every graph the package derives itself is
built through ``Graph._from_canonical``.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator

from .errors import DomainError, EdgeListFormatError

Edge = tuple[int, int]


def _canonical_edges(order: int, edges: Iterable) -> tuple[Edge, ...]:
    seen: set[Edge] = set()
    for item in edges:
        try:
            u, v = item
        except (TypeError, ValueError):
            raise DomainError(f"edge {item!r} is not a pair of vertices") from None
        if type(u) is not int or type(v) is not int:  # bool is not a vertex
            raise DomainError(f"edge {item!r} has non-integer endpoints")
        if u == v:
            raise DomainError(f"self-loop at vertex {u} is not allowed")
        if u > v:
            u, v = v, u
        if u < 0 or v >= order:
            raise DomainError(f"edge ({u}, {v}) out of range for order {order}")
        seen.add((u, v))
    return tuple(sorted(seen))


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph on vertices ``0..order-1``.

    The constructor accepts any iterable of vertex pairs and normalizes
    them (orientation, duplicates, ordering); invalid edges raise
    :class:`DomainError`.
    """

    order: int
    edges: tuple[Edge, ...] = ()

    def __post_init__(self):
        if type(self.order) is not int or self.order < 0:
            raise DomainError(f"graph order must be a non-negative integer, got {self.order!r}")
        object.__setattr__(self, "edges", _canonical_edges(self.order, self.edges))

    @classmethod
    def _from_canonical(cls, order: int, edges: tuple[Edge, ...]) -> Graph:
        """A graph whose edges are trusted to be canonical already; no checks.

        Precondition: ``order`` is a non-negative int and ``edges`` is a
        ``tuple`` of int pairs ``(u, v)`` with ``0 <= u < v < order``,
        strictly increasing in lexicographic order.  This is the only
        trusted constructor, and every builder in the package goes through
        it, since its edges are canonical by construction or were checked
        already; ``Graph(...)`` is for edges from outside the program.
        """
        g = object.__new__(cls)
        object.__setattr__(g, "order", order)
        object.__setattr__(g, "edges", edges)
        return g

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        pair = (u, v) if u < v else (v, u)
        i = bisect_left(self.edges, pair)
        return i < len(self.edges) and self.edges[i] == pair

    @property
    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.order
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)


def complement(g: Graph) -> Graph:
    """Graph on the same vertices whose edges are exactly the non-edges of g."""
    n, higher = g.order, [0] * g.order  # bit v of higher[u] set iff (u, v) is an edge
    for u, v in g.edges:
        higher[u] |= 1 << v
    # pairs come out in lexicographic order, so they are canonical already
    return Graph._from_canonical(n, tuple([(u, v) for u in range(n) for v in range(u + 1, n)
                                           if not higher[u] >> v & 1]))


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint copies of g and h plus every edge between the two sides.

    Vertices of g keep their labels; vertices of h are shifted by ``g.order``.
    """
    shift = g.order
    edges = list(g.edges)
    edges += [(u + shift, v + shift) for u, v in h.edges]
    edges += [(u, v + shift) for u in range(g.order) for v in range(h.order)]
    edges.sort()
    return Graph._from_canonical(g.order + h.order, tuple(edges))


def disjoint_union(gs: Iterable[Graph]) -> Graph:
    """Vertex-relabeled union with no cross edges; empty input gives the order-0 graph."""
    edges: list[Edge] = []
    shift = 0
    for g in gs:
        # at shift 0 (the first graph) the tuples are reused: copies would hold it twice
        edges += [(u + shift, v + shift) for u, v in g.edges] if shift else g.edges
        shift += g.order
    # each graph's edges are canonical, and a later graph's vertices are all
    # higher, so the concatenation is canonical too
    return Graph._from_canonical(shift, tuple(edges))


def max_degree(g: Graph) -> int:
    """Maximum vertex degree; 0 for edgeless graphs (including order 0)."""
    return max(g.degrees, default=0)


def _two_coloring(g: Graph, roots: Iterable[int]) -> list[int] | None:
    """Side (0 or 1) of each vertex by breadth-first search over lists
    built from ``g.edges`` in O(n + m), or None at an edge inside a side.

    Each root not yet reached, in the order given, starts a component on
    side 0, and a vertex's side is the parity of its distance from that
    root.  Vertices that no root reaches keep side -1.
    """
    nbrs: list[list[int]] = [[] for _ in range(g.order)]
    for u, v in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    side = [-1] * g.order
    for root in roots:
        if side[root] >= 0:
            continue
        side[root] = 0
        queue = [root]
        for u in queue:  # the list grows while it is read: a FIFO queue
            for v in nbrs[u]:
                if side[v] < 0:
                    side[v] = side[u] ^ 1
                    queue.append(v)
                elif side[v] == side[u]:  # an odd cycle
                    return None
    return side


def bipartition(g: Graph) -> tuple[int, ...] | None:
    """Side (0 or 1) of each vertex in a two-coloring of g, or None on an odd cycle.

    A vertex's side is the parity of its distance from its component's
    lowest-index vertex, found by :func:`_two_coloring`.  The order-0 graph
    gives the falsy ``()``, so callers test ``is None``.
    """
    side = _two_coloring(g, range(g.order))
    return None if side is None else tuple(side)


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list interchange format.

    Line 1 is ``<order> <edge_count>``; each following line is ``u v``.
    Lines starting with ``#`` and blank lines are ignored.  Reversed pairs
    are normalized; self-loops, duplicates, out-of-range endpoints, an
    order past ``sys.maxsize`` and count mismatches raise
    :class:`EdgeListFormatError` with a line number.
    """
    order = -1
    expected = -1
    edges: list[Edge] = []
    seen: set[Edge] = set()
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        try:
            a, b = tokens
            a, b = int(a), int(b)
        except ValueError:
            raise EdgeListFormatError(lineno, f"expected two integers, got {raw.strip()!r}") from None
        if order < 0:
            if a < 0 or b < 0:
                raise EdgeListFormatError(lineno, "order and edge count must be non-negative")
            if a > sys.maxsize:
                raise EdgeListFormatError(lineno, f"order {a} exceeds the platform's index range")
            order, expected = a, b
            continue
        if len(edges) == expected:
            raise EdgeListFormatError(lineno, f"more edges than the header's {expected}")
        if a == b:
            raise EdgeListFormatError(lineno, f"self-loop at vertex {a}")
        u, v = edge = (a, b) if a < b else (b, a)  # one tuple for the test, the set and the list
        if u < 0 or v >= order:
            raise EdgeListFormatError(lineno, f"edge ({a}, {b}) out of range for order {order}")
        if edge in seen:
            raise EdgeListFormatError(lineno, f"duplicate edge ({u}, {v})")
        seen.add(edge)
        edges.append(edge)
    if order < 0:
        raise EdgeListFormatError(len(lines) or 1, "missing '<order> <edge_count>' header")
    if len(edges) != expected:
        raise EdgeListFormatError(len(lines) or 1,
                                  f"header promises {expected} edges, input ends after {len(edges)}")
    # every edge was checked above, so only the order is left to fix
    edges.sort()
    return Graph._from_canonical(order, tuple(edges))


def edge_list_lines(order: int, size: int, edges: Iterable[Edge]) -> Iterator[str]:
    """The edge-list interchange format, one ``"\n"``-terminated line at a
    time: the header ``order size``, then each edge as given.  The one line
    formatter of every edge-list writer; ``size`` is the number of edges,
    so the header can go out before any edge is made."""
    yield f"{order} {size}\n"
    for u, v in edges:
        yield f"{u} {v}\n"


def write_lines(fh, lines: Iterable[str]) -> None:
    """Write lines to the text file fh as they come, joined into chunks:
    one ``write`` call per line costs several times its formatting."""
    lines = iter(lines)
    while chunk := list(islice(lines, 4096)):
        fh.write("".join(chunk))


def format_edge_list(g: Graph) -> str:
    """Serialize g in the edge-list interchange format (bit-exact)."""
    return "".join(edge_list_lines(g.order, g.num_edges, g.edges))


def read_edge_list(path) -> Graph:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise EdgeListFormatError(data.count(b"\n", 0, exc.start) + 1,
                                  f"not UTF-8 text (byte 0x{data[exc.start]:02x})") from None
    return parse_edge_list(text)


def write_edge_list(g: Graph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_lines(fh, edge_list_lines(g.order, g.num_edges, g.edges))
