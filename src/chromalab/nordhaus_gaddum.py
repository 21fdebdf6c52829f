"""Sum/product bounds on the chromatic numbers of a graph and its complement.

For a graph of order n the classical bounds are

    2*sqrt(n) <= chi(G) + chi(comp(G)) <= n + 1
    n <= chi(G) * chi(comp(G)) <= (n + 1)^2 / 4

and every pair (a, b) satisfying them is realized by some graph of order
n.  :meth:`NgReport.bounds` states the four bounds once, as integer
comparisons: the irrational bound is squared and the rational one scaled
by 4, so verdicts are bit-exact.

``ng_construct`` realizes a feasible pair (a, b) as a disjoint union of b
cliques with largest size a: the chromatic number of a clique union is
its largest clique, and the complement is a complete b-partite graph
with chromatic number b.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .coloring import SearchBudget, _as_budget, chromatic_number
from .errors import DomainError
from .families import complete
from .graphs import Graph, complement, disjoint_union


@dataclass(frozen=True)
class NgReport:
    """Exact chromatic data for a graph/complement pair; :meth:`bounds` judges it."""

    order: int
    chi: int
    chi_comp: int

    @property
    def chi_sum(self) -> int:
        return self.chi + self.chi_comp

    @property
    def chi_product(self) -> int:
        return self.chi * self.chi_comp

    def bounds(self) -> list[tuple[str, str, bool, int, str, int]]:
        """The four bounds in output order, one row each: JSON key, printed
        rule, verdict, and the two integer operands with their relation."""
        n, s, p = self.order, self.chi_sum, self.chi_product
        return [(key, rule, lhs >= rhs if rel == ">=" else lhs <= rhs, lhs, rel, rhs)
                for key, rule, lhs, rel, rhs in (
                    ("sum_lower_ok", "sum^2 >= 4n", s * s, ">=", 4 * n),
                    ("sum_upper_ok", "sum <= n+1", s, "<=", n + 1),
                    ("product_lower_ok", "product >= n", p, ">=", n),
                    ("product_upper_ok", "4*product <= (n+1)^2", 4 * p, "<=", (n + 1) ** 2))]

    @property
    def all_bounds_ok(self) -> bool:
        return all([ok for _, _, ok, _, _, _ in self.bounds()])


def ng_check(g: Graph, budget: int | SearchBudget | None = None) -> NgReport:
    """Compute chi(g) and chi(complement(g)) exactly; the report judges all four bounds.

    Both solves draw on one node budget.
    """
    n = g.order
    if n == 0:
        raise DomainError("ng_check requires a graph of order >= 1")
    bud = _as_budget(budget)  # one budget for both solves, however it was given
    chi = chromatic_number(g, bud).num_colors
    chi_comp = chromatic_number(complement(g), bud).num_colors
    return NgReport(order=n, chi=chi, chi_comp=chi_comp)


def _check_triple(caller: str, n: int, a: int, b: int) -> None:
    if not all(type(x) is int and x >= 1 for x in (n, a, b)):
        raise DomainError(f"{caller} requires n, a, b >= 1 (got n={n}, a={a}, b={b})")


def ng_feasible(n: int, a: int, b: int) -> bool:
    """True iff some graph of order n has chi(G) = a and chi(comp(G)) = b.

    That is, iff all four bounds hold at sum a + b and product a * b.
    ``a + b <= n + 1`` and ``a * b >= n`` suffice: the other two bounds
    follow from the AM-GM inequality (a+b)^2 >= 4ab >= 4n and
    4ab <= (a+b)^2 <= (n+1)^2.
    """
    _check_triple("ng_feasible", n, a, b)
    return NgReport(n, a, b).all_bounds_ok


def ng_construct(n: int, a: int, b: int) -> Graph:
    """Build a graph of order n with chi = a and chi of the complement = b.

    The graph is a disjoint union of b cliques with sizes filled greedily
    largest-first (the first clique has size exactly a).  Infeasible
    triples raise :class:`DomainError` naming the violated inequality.
    """
    _check_triple("ng_construct", n, a, b)
    if a + b > n + 1:
        raise DomainError(f"infeasible: a + b = {a + b} violates a + b <= n + 1 = {n + 1}")
    if a * b < n:
        raise DomainError(f"infeasible: a * b = {a * b} violates a * b >= n = {n}")
    if n > sys.maxsize:  # the same rule as an edge-list header's order
        raise DomainError(f"ng_construct order n={n} exceeds the platform's index range")
    sizes = []
    remaining = n
    for i in range(b):
        parts_left = b - i
        take = min(a, remaining - (parts_left - 1))
        sizes.append(take)
        remaining -= take
    return disjoint_union([complete(s) for s in sizes])
