"""Constructive edge colorings with certified color counts.

Each construction returns an :class:`EdgeColoring` for the corresponding
canonical graph (see :mod:`chromalab.families` for labeling; the wheel,
helm and fan rules check n with the family check, ``families._check``):

* complete graphs by the circle method (n-1 colors for even n, n for odd);
* bipartite graphs by iterative insertion with alternating-path flips,
  using exactly the maximum degree;
* wheels, helms and fans by one offset rule on the spoke colors;
* arbitrary graphs by Misra-Gries fan rotation, at most max degree + 1.

The two insertion schemes share one partial-coloring core: a partner
table (the neighbor reached from each vertex by each color) with set,
unset, smallest free color, smallest common free color, and the one
alternating-path flip.  König inserts an edge with a common free color,
or else flips the path from v so the color free at u is free at v too.
Misra-Gries flips the cd-path through u before its fan rotation.

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
    """A proper partial edge coloring of an order-n graph with a fixed palette.

    ``partner[x][c]`` is the neighbor joined to x by color c, or -1 when c
    is free at x; ``color_of`` maps canonical edges to their colors.
    """

    __slots__ = ("partner", "color_of")

    def __init__(self, order: int, palette: int):
        self.partner = [[-1] * palette for _ in range(order)]
        self.color_of: dict[tuple[int, int], int] = {}

    def set(self, x: int, y: int, c: int) -> None:
        self.color_of[(x, y) if x < y else (y, x)] = c
        self.partner[x][c] = y
        self.partner[y][c] = x

    def unset(self, x: int, y: int) -> int:
        c = self.color_of.pop((x, y) if x < y else (y, x))
        self.partner[x][c] = -1
        self.partner[y][c] = -1
        return c

    def free(self, x: int) -> int:
        """Smallest color free at x."""
        return self.partner[x].index(-1)

    def common_free(self, x: int, y: int) -> int | None:
        """Smallest color free at both x and y, or None."""
        px, py = self.partner[x], self.partner[y]
        return next((c for c in range(len(px)) if px[c] < 0 and py[c] < 0), None)

    def flip(self, x: int, a: int, b: int) -> None:
        """Swap a and b on the maximal a/b alternating path that leaves x by color a."""
        path = []  # (x, y, new color) along the path
        while self.partner[x][a] >= 0:
            y = self.partner[x][a]
            path.append((x, y, b))
            x, a, b = y, b, a
        for x, y, _ in path:
            self.unset(x, y)
        for x, y, c in path:
            self.set(x, y, c)


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
    pc = _PartialEdgeColoring(g.order, delta)
    for u, v in g.edges:
        c = pc.common_free(u, v)
        if c is None:
            c = pc.free(u)
            pc.flip(v, c, pc.free(v))  # bipartiteness keeps the path off u
        pc.set(u, v, c)
    return EdgeColoring(pc.color_of, delta)


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
    ascending).  Used colors are remapped to a contiguous range at the end.
    """
    if not g.edges:
        raise DomainError("edge_color_misra_gries requires at least one edge")
    pc = _PartialEdgeColoring(g.order, max_degree(g) + 1)
    partner, color_of = pc.partner, pc.color_of
    for u, v in g.edges:
        common = pc.common_free(u, v)
        if common is not None:
            pc.set(u, v, common)
            continue
        # maximal fan of u starting at v: each next edge's color is free
        # at the previous fan vertex; extend by the smallest such color
        fan = [v]
        in_fan = {v}
        while True:
            last = fan[-1]
            ext = -1
            for c, y in enumerate(partner[last]):
                if y < 0:
                    x = partner[u][c]
                    if x >= 0 and x not in in_fan:
                        ext = x
                        break
            if ext < 0:
                break
            fan.append(ext)
            in_fan.add(ext)
        c = pc.free(u)
        d = pc.free(fan[-1])
        if c != d:
            pc.flip(u, d, c)  # u has no c edge, so the path starts with d
        # d is now free at u; pick the first fan vertex with d free whose
        # prefix is still a fan under the current colors, then rotate
        w_index = -1
        for i, x in enumerate(fan):
            if i > 0:
                key = (u, x) if u < x else (x, u)
                if partner[fan[i - 1]][color_of[key]] >= 0:
                    break  # prefix fan property broken by the inversion
            if partner[x][d] < 0:
                w_index = i
                break
        assert w_index >= 0, "fan rotation invariant violated"
        for j in range(w_index):
            pc.set(u, fan[j], pc.unset(u, fan[j + 1]))
        pc.set(u, fan[w_index], d)

    used = sorted(set(color_of.values()))
    remap = {old: new for new, old in enumerate(used)}
    return EdgeColoring({e: remap[c] for e, c in color_of.items()}, len(used))
