"""Independent brute-force oracles, written separately from the solvers.

These deliberately share nothing with the package's search code: the
vertex oracle enumerates all k^n assignments with itertools.product, the
edge oracle backtracks over edges in input order with no line graph,
no saturation ordering, no clique bound and no symmetry breaking, and
the line-graph oracle tests every pair of edges.
"""

from itertools import product

from chromalab.graphs import Graph


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
