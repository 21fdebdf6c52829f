"""The line-graph operator with a traceable edge-to-vertex correspondence.

Vertex i of the line graph corresponds to the i-th edge of the source
graph in canonical (lexicographic) edge order, so vertex colorings of the
line graph map back to edge colorings deterministically.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, combinations

from .graphs import Edge, Graph


@dataclass(frozen=True)
class LineGraphResult:
    graph: Graph
    edge_of_vertex: tuple[Edge, ...]


def _line_pairs(g: Graph) -> Iterator[Edge]:
    """L(g)'s edges ``(i, j)``, ``i < j``: edges i and j of ``g.edges`` meet.

    Each pair of edge indices incident at one vertex of g is one pair, so
    the work is O(Σ deg²), not O(m²).  Two distinct edges share at most
    one endpoint, so no pair comes twice.  Only :func:`line_graph` reads
    them; χ′'s Δ-search builds its masks from g's incidence masks instead.
    """
    incident: defaultdict[int, list[int]] = defaultdict(list)  # edge endpoints only
    for i, (a, b) in enumerate(g.edges):
        incident[a].append(i)
        incident[b].append(i)
    # chained C iterators, not a generator: no Python frame resumes per pair
    return chain.from_iterable(combinations(ids, 2) for ids in incident.values())


def line_graph(g: Graph) -> LineGraphResult:
    """Build L(g): one vertex per edge, adjacency = shared endpoint.

    The edges are :func:`_line_pairs` sorted, so they are canonical and
    need no validation.  An edgeless source yields the order-0 line graph.
    """
    lg_edges = tuple(sorted(_line_pairs(g)))
    return LineGraphResult(Graph._from_canonical(g.num_edges, lg_edges), g.edges)
