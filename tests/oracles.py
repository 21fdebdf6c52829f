"""Independent brute-force oracles, written separately from the solvers.

These deliberately share nothing with the package's search code: the
vertex oracle enumerates all k^n assignments with itertools.product, the
edge oracle backtracks over edges in input order with no line graph,
no saturation ordering, no clique bound and no symmetry breaking, the
line-graph oracle tests every pair of edges, the clique oracle scans
neighbor sets by vertex index, with no rank order, and the bipartite and
component oracles try every side assignment and union the edge list.
The connected bipartite graphs are found by filtering every labeled graph
with one BFS each, where the package generates them from their bipartition.
"""

from itertools import product
from typing import Iterator

from chromalab.enumeration import all_labeled_graphs
from chromalab.graphs import Graph, _two_coloring


def brute_force_chromatic_number(g: Graph) -> int:
    n = g.order
    if n == 0:
        return 0
    edges = g.edges
    for k in range(1, n + 1):
        for assign in product(range(k), repeat=n):
            if all(assign[u] != assign[v] for u, v in edges):
                return k
    raise AssertionError("unreachable: n colors always suffice")


def brute_force_chromatic_index(g: Graph) -> int:
    edges = g.edges
    m = len(edges)
    if m == 0:
        raise ValueError("no edges")
    conflicts = [[j for j in range(i)
                  if set(edges[i]) & set(edges[j])] for i in range(m)]

    def colorable(k: int) -> bool:
        colors = [-1] * m

        def rec(i: int) -> bool:
            if i == m:
                return True
            for c in range(k):
                if all(colors[j] != c for j in conflicts[i]):
                    colors[i] = c
                    if rec(i + 1):
                        return True
                    colors[i] = -1
            return False

        return rec(0)

    k = 1
    while not colorable(k):
        k += 1
    return k


def brute_force_line_graph(g: Graph) -> Graph:
    """L(g) by its definition: scan all O(m^2) pairs of edges for a shared endpoint."""
    edges = g.edges
    m = len(edges)
    return Graph(m, [(i, j) for i in range(m) for j in range(i + 1, m)
                     if set(edges[i]) & set(edges[j])])


def greedy_clique(g: Graph) -> int:
    """The greedy clique by index scans: seed at a vertex of maximum degree,
    then add the common neighbor of maximum degree, ties to the lowest
    index each time, until no common neighbor is left."""
    nbrs: list[set[int]] = [set() for _ in range(g.order)]
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    size, common = 0, set(range(g.order))
    while common:
        best = -1
        for v in sorted(common):
            if best < 0 or len(nbrs[v]) > len(nbrs[best]):
                best = v
        common &= nbrs[best]
        size += 1
    return size


def bipartite_by_side_enumeration(g: Graph) -> bool:
    # independent check: try all 2^n side assignments
    for mask in range(1 << g.order):
        if all((mask >> u & 1) != (mask >> v & 1) for u, v in g.edges):
            return True
    return False


def component_starts(g: Graph) -> set[int]:
    # independent of the search: union-find over the edge list
    parent = list(range(g.order))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in g.edges:
        low, high = sorted((find(u), find(v)))
        parent[high] = low  # so each root is its component's lowest vertex
    return {find(v) for v in range(g.order)}


def connected_bipartite_by_filter(max_order: int) -> Iterator[Graph]:
    """Connected bipartite labeled graphs with an edge, order <= max_order,
    by filtering every labeled graph."""
    for n in range(2, max_order + 1):
        for g in all_labeled_graphs(n):
            side = _two_coloring(g, (0,))
            if side is not None and -1 not in side:  # vertex 0 reaches every vertex
                yield g
