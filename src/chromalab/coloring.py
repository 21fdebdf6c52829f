"""Exact ground-truth solvers for chromatic number and chromatic index.

The vertex solver is a backtracking search in dynamic DSATUR order
(maximum saturation, ties by maximum degree, then lowest index), trying
colors in ascending order with symmetry breaking: a vertex may use at
most one color index beyond the maximum used so far.  Its stack is
explicit, so depth is bounded only by the node budget.  It runs on
bitmasks ordered by rank (degree descending, then index), built once
per solve: each color has a blocked-color mask of the uncolored
vertices with a neighbor of that color, and saturation is a binary
counter sliced into one mask per bit, so coloring a vertex costs a few
whole-mask operations.  One search decides one k; the chromatic number
climbs k from the greedy clique bound.  Structure comes first: on a
graph with an edge, the BFS two-coloring of :mod:`graphs`, rooted in rank
order, looks for the 2-coloring the search would find without branching,
the same witness charged the same one node per vertex, before any mask
is built.  So bipartite input takes O(n + m) memory, and only input with
an odd cycle builds masks and is searched.  All tie-breaking is fixed, so
returned witnesses are byte-stable across runs.

The chromatic index is certified before it is searched.  Vizing's
theorem puts it at the maximum degree Δ or at Δ+1, so the certificates
are tried in this order:

1. bipartite input: König's theorem makes Δ exact (König witness);
2. Δ ≤ 2 on non-bipartite input: the graph is a union of paths and
   cycles, one of them odd, so Δ+1 is exact (Misra-Gries witness);
3. overfull input (m > Δ·⌊n/2⌋): every color class is a matching, so
   Δ+1 is exact (Misra-Gries witness).

Certified answers spend no search nodes and build no line graph.
Otherwise one search for a Δ-coloring runs on the line graph's rank
masks, read straight from G with no line graph built: each edge's mask
is the OR of its endpoints' incidence masks, so building them costs O(m)
whole-mask operations, not one step per line-graph edge.  Its witness
maps back through G's edge order; when that search is exhausted, Δ+1 is
exact.  Cases 2 and 3 and the exhausted search share one Misra-Gries
return.

Searches are bounded by a node budget and raise
:class:`BudgetExceededError` rather than running unbounded.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Sequence
from dataclasses import dataclass

from .constructions import EdgeColoring, _konig_insertion, edge_color_misra_gries
from .errors import BudgetExceededError, DomainError
from .graphs import Graph, _two_coloring, bipartition

#: Default node limit, sized so every instance in the test suite finishes
#: with a wide margin while still cutting off runaway inputs.
DEFAULT_NODE_BUDGET = 10_000_000


class SearchBudget:
    """Mutable node counter shared by the solver calls of one operation."""

    __slots__ = ("limit", "nodes")

    def __init__(self, limit: int = DEFAULT_NODE_BUDGET):
        if type(limit) is not int:  # bool is not a node count
            raise DomainError(f"node budget must be an integer, got {limit!r}")
        if limit <= 0:
            raise DomainError(f"node budget must be positive, got {limit}")
        self.limit = limit
        self.nodes = 0

    def spend(self, nodes: int = 1) -> None:
        """Charge ``nodes`` search nodes; past the limit, raise with the count
        at which charging them one at a time would have raised."""
        self.nodes += nodes
        if self.nodes > self.limit:
            self.nodes = max(self.nodes - nodes, self.limit) + 1
            raise BudgetExceededError(
                f"solver budget exceeded: more than {self.limit} search nodes")


def _as_budget(budget: int | SearchBudget | None) -> SearchBudget:
    if budget is None:
        return SearchBudget()
    if isinstance(budget, SearchBudget):
        return budget
    return SearchBudget(budget)


@dataclass(frozen=True)
class VertexColoring:
    """A proper vertex coloring using contiguous color indices 0..num_colors-1."""

    color_of: tuple[int, ...]
    num_colors: int


def greedy_clique_lower_bound(g: Graph) -> int:
    """Size of a greedily grown clique; a sound lower bound for chromatic_number.

    Seeded at the maximum-degree vertex, extended by the highest-degree
    common neighbor, ties to the lowest index: on rank masks, the highest
    bit left each time.  Returns 0 only for the order-0 graph.
    """
    return _clique(_ranked(_rank(g.degrees), g.edges))


def is_k_colorable(g: Graph, k: int,
                   budget: int | SearchBudget | None = None) -> VertexColoring | None:
    """Return a proper coloring of g with at most k colors, or None.

    The witness may use fewer than k colors; its color indices are
    contiguous and all used.  Absence is a value, not an error.
    """
    if type(k) is not int:  # bool is not a color count
        raise DomainError(f"color count must be an integer, got {k!r}")
    if k < 0:
        raise DomainError(f"color count must be >= 0, got {k}")
    vertex = _rank(g.degrees)
    return _dsatur(vertex, _ranked(vertex, g.edges), k, _as_budget(budget))


def _rank(degree: Sequence[int]) -> list[int]:
    """``vertex[p]``, the vertex on bit p, with rank 0 (degree descending,
    then index) on the top bit: the one rank rule of both searches."""
    # degree ascending, ties by index descending: bit p holds rank n - 1 - p
    return sorted(reversed(range(len(degree))), key=degree.__getitem__)


def _ranked(vertex: Sequence[int], pairs: Iterable[tuple[int, int]]) -> list[int]:
    """``adj[p]``, the adjacency mask of ``vertex[p]`` over the pairs (in
    any order), on the bits of :func:`_rank`'s order ``vertex``."""
    bit = [0] * len(vertex)
    for p, v in enumerate(vertex):
        bit[v] = 1 << p
    mask = [0] * len(vertex)
    for u, v in pairs:
        mask[u] |= bit[v]
        mask[v] |= bit[u]
    return [mask[v] for v in vertex]


def _line_ranked(g: Graph) -> tuple[list[int], list[int]]:
    """:func:`_rank` and :func:`_ranked` for L(g), read from g: edge (a, b)
    has degree deg(a) + deg(b) − 2, and its mask is the incidence masks of
    a and b without its own bit.  Two distinct edges share at most one
    endpoint, so these are the masks of L(g)'s pairs, in 3m whole-mask
    operations."""
    deg = g.degrees
    vertex = _rank([deg[a] + deg[b] - 2 for a, b in g.edges])
    ends = [g.edges[e] for e in vertex]
    inc = [0] * g.order  # bits of the edges at each vertex of g
    for p, (a, b) in enumerate(ends):
        inc[a] |= 1 << p
        inc[b] |= 1 << p
    return vertex, [(inc[a] | inc[b]) ^ (1 << p) for p, (a, b) in enumerate(ends)]


def _clique(adj: Sequence[int]) -> int:
    """Size of the clique grown from all bits by taking the highest bit left."""
    size, common = 0, (1 << len(adj)) - 1
    while common:
        common &= adj[common.bit_length() - 1]
        size += 1
    return size


def _dsatur(vertex: Sequence[int], adj: Sequence[int], k: int,
            bud: SearchBudget) -> VertexColoring | None:
    """The first coloring found with at most k colors on the masks of
    :func:`_ranked` or :func:`_line_ranked`, or None.

    A pick takes a mask's highest bit.  ``blocked[c]`` holds the uncolored
    vertices with a neighbor colored c, and bit i of a vertex's saturation
    is its bit in ``sat[i]``.  A color blocks only the vertices it newly
    blocks and its undo unblocks exactly those.  Nodes are counted in a
    local, written back to ``bud`` on every exit, and the node past the
    limit is charged through :meth:`SearchBudget.spend`, which raises.
    Masks stay non-negative: CPython's bitwise operations copy and
    complement negative ints, which is several times slower on long masks.
    """
    n = len(vertex)
    blocked = [0] * min(k, n)  # only colors below n can be used
    sat = [0] * min(k, n - 1).bit_length()  # saturation <= min(k, degree)
    free = (1 << n) - 1  # uncolored vertices
    stack, used = [], 0  # frames (bit position, color, used-before, newly blocked)
    nodes, limit = bud.nodes, bud.limit
    try:
        while free:
            pick = free
            for level in reversed(sat):  # keep the highest saturation
                higher = pick & level
                if higher:
                    pick = higher
            p, c = pick.bit_length() - 1, 0
            low = 1 << p
            while True:
                top = used if used < k else k - 1  # symmetry breaking: at most one fresh color
                while c <= top and blocked[c] & low:
                    c += 1
                if c <= top:
                    break
                # p has no color left: undo its parent, which tries its next color
                if stack:
                    p, c, used, newly = stack.pop()
                    low = 1 << p
                    free |= low
                    blocked[c] ^= newly
                    for i, level in enumerate(sat):  # subtract one; borrow where the bit was 0
                        sat[i] = level = level ^ newly
                        newly &= level
                        if not newly:
                            break
                    c += 1
                else:
                    return None
            if nodes >= limit:
                break
            nodes += 1
            free ^= low
            newly = adj[p] & free
            newly ^= newly & blocked[c]
            blocked[c] |= newly
            stack.append((p, c, used, newly))
            for i, level in enumerate(sat):  # add one; carry where the bit was 1
                sat[i] = level ^ newly
                newly &= level
                if not newly:
                    break
            if c == used:
                used += 1
    finally:
        bud.nodes = nodes
    if free:  # the loop broke at a node past the limit
        bud.spend()
    color_of = [0] * n
    for p, c, _, _ in stack:
        color_of[vertex[p]] = c
    return VertexColoring(tuple(color_of), used)


def chromatic_number(g: Graph,
                     budget: int | SearchBudget | None = None) -> VertexColoring:
    """Exact minimum vertex coloring; ``num_colors`` is the chromatic number.

    Structure first: on a graph with an edge, :func:`graphs._two_coloring`
    rooted in rank order answers bipartite input before any mask is
    built.  At k = 2 DSATUR never branches, so its witness is the distance
    parity from each component's highest-ranked vertex and it spends one
    node per vertex, charged only on success; a bipartite graph with an
    edge has greedy clique bound 2, so the ladder would start there.  An
    odd cycle falls through to the masks on the same order and one search
    per k, from the greedy clique lower bound up, under one budget.  The
    order-0 graph needs 0 colors and any edgeless nonempty graph needs 1.
    """
    vertex, bud = _rank(g.degrees), _as_budget(budget)
    if g.edges:
        side = _two_coloring(g, reversed(vertex))
        if side is not None:
            bud.spend(g.order)
            return VertexColoring(tuple(side), 2)
    adj = _ranked(vertex, g.edges)
    k = _clique(adj)
    while (witness := _dsatur(vertex, adj, k, bud)) is None:
        k += 1
    return witness


def chromatic_index(g: Graph,
                    budget: int | SearchBudget | None = None) -> EdgeColoring:
    """Exact minimum edge coloring; ``num_colors`` is the chromatic index.

    König on bipartite input (Δ colors).  Otherwise, unless Δ ≤ 2 (an
    odd cycle) or g is overfull, one search for a Δ-coloring of the line
    graph on the masks of :func:`_line_ranked`, built from g's incidence
    masks.  Every other case is Δ+1, with Misra-Gries as the one witness.
    Certified answers spend no nodes of the budget.  Requires at least one
    edge (the chromatic index of an edgeless graph is undefined here).
    """
    if not g.edges:
        raise DomainError("chromatic index requires a graph with at least one edge")
    bud = _as_budget(budget)
    if bipartition(g) is not None:
        return _konig_insertion(g)
    delta = max(g.degrees)
    if delta > 2 and g.num_edges <= delta * (g.order // 2):
        witness = _dsatur(*_line_ranked(g), delta, bud)
        if witness is not None:
            return EdgeColoring(dict(zip(g.edges, witness.color_of)), witness.num_colors)
    return edge_color_misra_gries(g)


def _uses_colors(colors: Collection[object], k: object) -> bool:
    """True iff k is a non-negative int and the colors are ints that use
    exactly 0..k-1 (bool is neither a color count nor a color)."""
    if type(k) is not int or any(type(c) is not int for c in colors):
        return False
    used = set(colors)
    # the count first: it rejects a negative k, and builds no range past the colors
    return len(used) == k and used == set(range(k))


def validate_vertex_coloring(g: Graph, c: VertexColoring) -> bool:
    """True iff c is proper on g and its color indices are contiguous and all used."""
    colors = c.color_of
    return (len(colors) == g.order and _uses_colors(colors, c.num_colors)
            and all(colors[u] != colors[v] for u, v in g.edges))


def validate_edge_coloring(g: Graph, c: EdgeColoring) -> bool:
    """True iff c colors exactly g's edges, properly at shared endpoints, contiguously."""
    if set(c.color_of) != set(g.edges) or not _uses_colors(c.color_of.values(), c.num_colors):
        return False
    seen_at: list[set[int]] = [set() for _ in range(g.order)]
    for (u, v), col in c.color_of.items():
        if col in seen_at[u] or col in seen_at[v]:
            return False
        seen_at[u].add(col)
        seen_at[v].add(col)
    return True
