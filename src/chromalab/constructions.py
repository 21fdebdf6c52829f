"""Constructive edge colorings with certified color counts.

Each construction returns an :class:`EdgeColoring` for the corresponding
canonical graph (see :mod:`chromalab.families` for labeling; the wheel,
helm and fan rules check n with the family check, ``families._check``):

* complete graphs by the circle method (n-1 colors for even n, n for odd);
* bipartite graphs by iterative insertion with alternating-path flips,
  using exactly the maximum degree;
* wheels, helms and fans by one offset rule on the spoke colors;
* arbitrary graphs by Misra-Gries fan rotation, at most max degree + 1.

The two insertion schemes share one core: a partner table, one dict per
vertex from each color used there to the neighbor it reaches, the only
store of the colors and one entry per colored edge end, with set, unset,
the smallest color free at two vertices (or at one, given twice), found
from each vertex's lowest-free-color floor rather than from color 0, and
a flip that swaps two colors along an alternating path in place.  Each
insertion bounds its own palette: König inserts an edge with a common
free color below the max degree, or else flips the path from v so the
color free at u is free at v too.  Misra-Gries flips the cd-path through
u before its fan rotation.

The hub rule colors spoke j with color j, the rim or path edge leaving
position j with color j+2, and the helm pendant at position j with color
j+3 (all modulo the spoke count).  The three offsets at one rim position
are pairwise distinct exactly on the stated domains, which is why
helm(3) and fan(2) are rejected: there the rule cannot work and the true
optimum differs from the n-color pattern, so those calls raise
:class:`ConstructionInfeasibleError` carrying a Misra-Gries coloring,
which is exact on both graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import families
from .errors import ConstructionInfeasibleError, DomainError
from .graphs import Edge, Graph, bipartition, max_degree


@dataclass
class EdgeColoring:
    """A proper edge coloring; keys are canonical (u, v) edges with u < v."""

    color_of: dict[Edge, int]
    num_colors: int

    def assignment(self) -> list[tuple[int, int, int]]:
        """(u, v, color) triples in canonical edge order."""
        return [(u, v, self.color_of[(u, v)]) for u, v in sorted(self.color_of)]


def edge_color_complete(n: int) -> EdgeColoring:
    """Color K_n with n-1 colors (n even) or n colors (n odd); requires n >= 2.

    Even case: fix vertex n-1; the edge (i, j) of the rotating part gets
    the round r with i + j = 2r (mod n-1), and (i, n-1) gets round i.
    Odd case: edge (i, j) gets color (i + j) mod n.
    """
    if type(n) is not int or n < 2:
        raise DomainError(f"edge_color_complete requires n >= 2 (got n={n})")
    color_of = {}
    if n % 2 == 0:
        mod = n - 1
        inv2 = n // 2  # 2 * (n/2) = n = mod + 1, so this inverts 2 mod (n-1)
        for i in range(n - 1):
            color_of[(i, n - 1)] = i
            for j in range(i + 1, n - 1):
                color_of[(i, j)] = (i + j) * inv2 % mod
        return EdgeColoring(color_of, mod)
    for i in range(n):
        for j in range(i + 1, n):
            color_of[(i, j)] = (i + j) % n
    return EdgeColoring(color_of, n)


class _PartialEdgeColoring:
    """A proper partial edge coloring of an order-n graph.

    ``partner[x]`` maps each color used at x to the neighbor that color
    joins x to; a color missing from it is free at x.  It is the only
    store, one entry per colored edge end: an edge's color is its key in
    either endpoint's row.  ``low[x]`` is a floor on the colors free at x:
    every color below it is in use at x.  ``set`` keeps that true, and a
    call that frees a color lowers the floor to it.
    """

    __slots__ = ("partner", "low")

    def __init__(self, order: int):
        self.partner = [{} for _ in range(order)]
        self.low = [0] * order

    def set(self, x: int, y: int, c: int) -> None:
        self.partner[x][c] = y
        self.partner[y][c] = x

    def unset(self, x: int, y: int) -> int:
        c = next(c for c, z in self.partner[x].items() if z == y)
        del self.partner[x][c], self.partner[y][c]
        low = self.low
        low[x], low[y] = min(low[x], c), min(low[y], c)
        return c

    def common_free(self, x: int, y: int) -> int:
        """Smallest color free at both x and y; ``common_free(x, x)`` is
        the smallest color free at x.  Each floor first moves past the
        colors in use, and no common free color lies below the larger."""
        px, py, low = self.partner[x], self.partner[y], self.low
        a, b = low[x], low[y]
        while a in px:
            a += 1
        while b in py:
            b += 1
        low[x], low[y] = a, b
        c = max(a, b)
        while c in px or c in py:
            c += 1
        return c

    def flip(self, x: int, a: int, b: int) -> None:
        """Swap a and b on the maximal a/b alternating path that leaves x by
        color a; b must be free at x, so the path is not a cycle.  Each
        path vertex may lose a or b, so its floor drops to the smaller."""
        low, freed = self.low, min(a, b)
        while x is not None:
            row = self.partner[x]
            low[x] = min(low[x], freed)
            nxt, prev = row.pop(a, None), row.pop(b, None)
            row.update((c, y) for c, y in ((b, nxt), (a, prev)) if y is not None)
            x, a, b = nxt, b, a  # the popped a-neighbor is the path's next vertex

    def coloring(self) -> EdgeColoring:
        """The coloring in the table; its color count is the number of distinct colors."""
        color_of = {(x, y): c for x, row in enumerate(self.partner)
                    for c, y in row.items() if y > x}
        return EdgeColoring(color_of, len(set(color_of.values())))


def edge_color_bipartite_konig(g: Graph) -> EdgeColoring:
    """Color a nonempty bipartite graph with exactly max_degree(g) colors.

    Insert edges one by one: take the smallest color free at both ends if
    one exists; otherwise flip the alternating two-color path from v so
    the color free at u becomes free at v as well.
    """
    if not g.edges:
        raise DomainError("edge_color_bipartite_konig requires at least one edge")
    if bipartition(g) is None:
        raise DomainError("edge_color_bipartite_konig requires a bipartite graph")
    return _konig_insertion(g)


def _konig_insertion(g: Graph) -> EdgeColoring:
    """The insertion of :func:`edge_color_bipartite_konig` without its
    checks; g must be nonempty and bipartite."""
    delta = max_degree(g)
    pc = _PartialEdgeColoring(g.order)
    for u, v in g.edges:
        c = pc.common_free(u, v)
        if c >= delta:  # no common free color among the delta
            c = pc.common_free(u, u)
            pc.flip(v, c, pc.common_free(v, v))  # bipartiteness keeps the path off u
        pc.set(u, v, c)
    return pc.coloring()


def _hub_rule(k: int, closed: bool, pendants: bool) -> EdgeColoring:
    """The k-spoke rule: spoke j gets j, the rim or path edge leaving j gets
    j+2, the pendant at j gets j+3 (mod k).  The rim closes into a cycle
    when ``closed``; otherwise it is a path with no edge leaving position k-1.
    """
    color_of = {}
    for j in range(k):
        color_of[(0, j + 1)] = j
        if j < k - 1:
            color_of[(j + 1, j + 2)] = (j + 2) % k
        elif closed:
            color_of[(1, k)] = (j + 2) % k
        if pendants:
            color_of[(j + 1, k + j + 1)] = (j + 3) % k
    return EdgeColoring(color_of, k)


def _infeasible(family: str, n: int, reason: str) -> ConstructionInfeasibleError:
    """The error of the n-color hub rule at a family's one infeasible n,
    carrying the exact Misra-Gries coloring of its graph."""
    exact = edge_color_misra_gries(getattr(families, family)(n))
    return ConstructionInfeasibleError(
        f"the n-color {family} rule is infeasible at n={n}: {reason} and the "
        f"exact chromatic index is {exact.num_colors}, not {n}", exact)


def edge_color_wheel(n: int) -> EdgeColoring:
    """Color wheel(n) with n-1 colors by the hub rule."""
    families._check("wheel", n)
    return _hub_rule(n - 1, closed=True, pendants=False)


def edge_color_helm(n: int) -> EdgeColoring:
    """Color helm(n) with n colors by the hub rule.

    At n=3 the rule's three offsets collide and the true optimum is
    larger, so the call raises :class:`ConstructionInfeasibleError`
    carrying the exact coloring: Misra-Gries uses Δ = 4 colors there.
    """
    families._check("helm", n)
    if n == 3:
        raise _infeasible("helm", n, "max degree is 4")
    return _hub_rule(n, closed=True, pendants=True)


def edge_color_fan(n: int) -> EdgeColoring:
    """Color fan(n) with n colors by the hub rule.

    fan(2) is K_3 and needs 3 colors, not 2, so it raises
    :class:`ConstructionInfeasibleError` with the exact coloring attached.
    """
    families._check("fan", n)
    if n == 2:
        raise _infeasible("fan", n, "fan(2) is a triangle")
    return _hub_rule(n, closed=False, pendants=False)


def edge_color_misra_gries(g: Graph) -> EdgeColoring:
    """Color any nonempty graph with at most max_degree(g) + 1 colors.

    Classic fan/rotation scheme.  An edge whose endpoints share a free
    color takes the smallest such color directly; otherwise grow a
    maximal fan at u, make a color free at u by inverting the alternating
    cd-path through u, then rotate a fan prefix whose tip has that color
    free.  Deterministic given the canonical edge order (all scans are
    ascending).  The colors in use stay 0..k-1 with no renumbering: a
    color enters only as the smallest (common) free one, the color a flip
    frees goes at once to the inserted edge, and a rotation adds d.
    """
    if not g.edges:
        raise DomainError("edge_color_misra_gries requires at least one edge")
    delta = max_degree(g)
    pc = _PartialEdgeColoring(g.order)
    partner = pc.partner
    for u, v in g.edges:
        common = pc.common_free(u, v)
        if common <= delta:  # a common free color among the delta + 1
            pc.set(u, v, common)
            continue
        # maximal fan of u starting at v: each next edge's color is free
        # at the previous fan vertex; extend by the smallest such color
        fan, in_fan = [v], {v}
        while True:
            last = partner[fan[-1]]
            _, ext = min(((c, x) for c, x in partner[u].items()
                          if c not in last and x not in in_fan), default=(None, None))
            if ext is None:
                break
            fan.append(ext)
            in_fan.add(ext)
        c = pc.common_free(u, u)
        d = pc.common_free(fan[-1], fan[-1])
        if c != d:
            pc.flip(u, d, c)  # u has no c edge, so the path starts with d
        # d is now free at u, and the first fan vertex w with d free tips a
        # fan.  The fan is maximal, so u's d-edge, if any, went to a fan
        # vertex F_{j+1}, d was free at F_j, and the inversion recolored only
        # that fan edge, to c.  If F_j is off the path, d is still free there.
        # Else F_j is the path's far end, entered by a c-edge that is now d,
        # so c is free at F_j: the whole fan stays one, d free at its tip.
        w = next(i for i, x in enumerate(fan) if d not in partner[x])
        for j in range(w):
            pc.set(u, fan[j], pc.unset(u, fan[j + 1]))
        pc.set(u, fan[w], d)
    return pc.coloring()
