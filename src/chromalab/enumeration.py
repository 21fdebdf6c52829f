"""Exhaustive enumeration of small labeled graphs.

A graph of order n is encoded by a bitmask over the C(n, 2) vertex pairs
in lexicographic order; mask bit i corresponds to ``vertex_pairs(n)[i]``.
Enumeration order (ascending order, then ascending mask) is deterministic.
Connected bipartite graphs are generated from their bipartition, with no
labeled graph drawn and filtered.
"""

from __future__ import annotations

from typing import Iterator

from .errors import DomainError
from .graphs import Edge, Graph


def vertex_pairs(n: int) -> tuple[Edge, ...]:
    if type(n) is not int or n < 0:
        raise DomainError(f"graph order must be a non-negative integer, got {n!r}")
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


def graph_from_mask(n: int, mask: int) -> Graph:
    return _graph(n, vertex_pairs(n), mask)


def _graph(n: int, pairs: tuple[Edge, ...], mask: int) -> Graph:
    # a subsequence of the lexicographic pairs is canonical already
    return Graph._from_canonical(n, tuple([pairs[i] for i in range(len(pairs)) if mask >> i & 1]))


def all_labeled_graphs(n: int) -> Iterator[Graph]:
    """Every labeled graph on n vertices, in ascending mask order."""
    pairs = vertex_pairs(n)
    for mask in range(1 << len(pairs)):
        yield _graph(n, pairs, mask)


def connected_bipartite_graphs(max_order: int) -> Iterator[Graph]:
    """All connected bipartite labeled graphs with at least one edge, order <= max_order,
    in ascending order, then ascending mask.

    A connected bipartite graph has one two-coloring with vertex 0 on side
    0, so each is generated once: from its side-1 set S, as a nonempty set
    of pairs crossing S that a breadth-first search from vertex 0 over
    vertex masks shows to be connected.
    """
    for n in range(2, max_order + 1):
        pairs = vertex_pairs(n)
        full = (1 << n) - 1
        masks = []
        for s in range(2, 1 << n, 2):  # vertex 0 is never in S
            cross = 0  # the pairs crossing S, as a pair mask
            nbrs: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # (pair bit, other end bit)
            for i, (u, v) in enumerate(pairs):
                if (s >> u ^ s >> v) & 1:
                    cross |= 1 << i
                    nbrs[u].append((1 << i, 1 << v))
                    nbrs[v].append((1 << i, 1 << u))
            sub = cross
            while sub:  # every nonempty submask of cross
                seen = frontier = 1
                while frontier:
                    reach = 0
                    while frontier:
                        low = frontier & -frontier
                        for pair, end in nbrs[low.bit_length() - 1]:
                            if sub & pair:
                                reach |= end
                        frontier ^= low
                    frontier = reach & (full ^ seen)  # not ~seen: masks stay non-negative
                    seen |= frontier
                if seen == full:
                    masks.append(sub)
                sub = (sub - 1) & cross
        masks.sort()
        for mask in masks:
            yield _graph(n, pairs, mask)
