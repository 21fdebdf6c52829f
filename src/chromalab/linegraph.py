"""The line-graph operator with a traceable edge-to-vertex correspondence.

Vertex i of the line graph corresponds to the i-th edge of the source
graph in canonical (lexicographic) edge order, so vertex colorings of the
line graph map back to edge colorings deterministically.  The line
graph's edges are generated in lexicographic order by construction, with
no sort, so they can be written out as they come.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, combinations, islice

from .graphs import Edge, Graph


@dataclass(frozen=True)
class LineGraphResult:
    graph: Graph
    edge_of_vertex: tuple[Edge, ...]


def _line_pairs(g: Graph) -> Iterator[Edge]:
    """L(g)'s edges ``(i, j)``, ``i < j``, in lexicographic order: edges i
    and j of ``g.edges`` meet.

    Each pair of edge indices incident at one vertex of g is one pair, so
    the work is O(Σ deg²), not O(m²), and no pair comes twice.  Row i is
    the edges after edge i = (a, b) at a, then those after it at b: each
    later edge at a is (a, y) with y > b, so it precedes each later edge
    at b.  ``combinations(incident[v], 2)`` yields v's rows in edge order,
    so each row is two runs read off two such iterators, with no sort.
    Read by :func:`line_graph` and the ``linegraph`` command; χ′'s
    Δ-search builds its masks from g's incidence masks instead.
    """
    incident: defaultdict[int, list[int]] = defaultdict(list)  # edge endpoints only
    for i, (a, b) in enumerate(g.edges):
        incident[a].append(i)
        incident[b].append(i)
    rows = {v: combinations(ids, 2) for v, ids in incident.items()}
    left = {v: len(ids) for v, ids in incident.items()}  # v's edges not yet passed
    runs: list[Iterator[Edge]] = []
    lengths: list[int] = []
    for a, b in g.edges:
        left[a] -= 1
        left[b] -= 1
        runs += (rows[a], rows[b])
        lengths += (left[a], left[b])
    # chained C iterators, not a generator: no Python frame resumes per pair
    return chain.from_iterable(map(islice, runs, lengths))


def line_graph(g: Graph) -> LineGraphResult:
    """Build L(g): one vertex per edge, adjacency = shared endpoint.

    The edges are :func:`_line_pairs`, canonical as generated, so they
    need no sort and no validation.  An edgeless source yields the
    order-0 line graph.
    """
    # through a list: tuple() of an iterator without a length hint regrows the tuple
    lg_edges = tuple(list(_line_pairs(g)))
    return LineGraphResult(Graph._from_canonical(g.num_edges, lg_edges), g.edges)
