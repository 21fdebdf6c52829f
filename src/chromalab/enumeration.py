"""Exhaustive enumeration of small labeled graphs.

A graph of order n is encoded by a bitmask over the C(n, 2) vertex pairs
in lexicographic order; mask bit i corresponds to ``vertex_pairs(n)[i]``.
Enumeration order (ascending order, then ascending mask) is deterministic.
Connected bipartite graphs are filtered by one BFS per candidate.
"""

from __future__ import annotations

from typing import Iterator

from .errors import DomainError
from .graphs import Edge, Graph, _two_coloring


def vertex_pairs(n: int) -> tuple[Edge, ...]:
    if type(n) is not int or n < 0:
        raise DomainError(f"graph order must be a non-negative integer, got {n!r}")
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


def graph_from_mask(n: int, mask: int) -> Graph:
    # a subsequence of the lexicographic pairs is canonical already
    pairs = vertex_pairs(n)
    return Graph._from_canonical(n, tuple([pairs[i] for i in range(len(pairs)) if mask >> i & 1]))


def all_labeled_graphs(n: int) -> Iterator[Graph]:
    """Every labeled graph on n vertices, in ascending mask order."""
    pairs = vertex_pairs(n)
    for mask in range(1 << len(pairs)):
        yield Graph._from_canonical(n, tuple([pairs[i] for i in range(len(pairs))
                                              if mask >> i & 1]))


def connected_bipartite_graphs(max_order: int) -> Iterator[Graph]:
    """All connected bipartite labeled graphs with at least one edge, order <= max_order."""
    for n in range(2, max_order + 1):
        for g in all_labeled_graphs(n):
            side = _two_coloring(g, (0,))
            if side is not None and -1 not in side:  # vertex 0 reaches every vertex
                yield g
