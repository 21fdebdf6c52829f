"""The line-graph operator with a traceable edge-to-vertex correspondence.

Vertex i of the line graph corresponds to the i-th edge of the source
graph in canonical (lexicographic) edge order, so vertex colorings of the
line graph map back to edge colorings deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graphs import Edge, Graph


@dataclass(frozen=True)
class LineGraphResult:
    graph: Graph
    edge_of_vertex: tuple[Edge, ...]


def _incidence_lists(g: Graph) -> list[list[int]]:
    """For each vertex, the ascending indices into ``g.edges`` of its edges.

    Line-graph vertices i and j are adjacent iff edges i and j share an
    endpoint, so these lists hold all of L(g)'s adjacency.
    """
    incident: list[list[int]] = [[] for _ in range(g.order)]
    for i, (a, b) in enumerate(g.edges):
        incident[a].append(i)
        incident[b].append(i)
    return incident


def line_graph(g: Graph) -> LineGraphResult:
    """Build L(g): one vertex per edge, adjacency = shared endpoint.

    Each pair of edge indices incident at one vertex is one line-graph
    edge, so the work is O(Σ deg²), not O(m²).  Two distinct edges share
    at most one endpoint, so no pair is emitted twice, and each pair is
    ``(i, j)`` with ``i < j``: once sorted, the edges are canonical and
    need no validation.  An edgeless source yields the order-0 line graph.
    """
    lg_edges = sorted(pair for ids in _incidence_lists(g) for pair in combinations(ids, 2))
    return LineGraphResult(Graph._from_canonical(g.num_edges, tuple(lg_edges)), g.edges)
