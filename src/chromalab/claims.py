"""Registry of closed-form coloring claims, audited against exact computation.

Each :class:`Claim` records, as data, one asserted closed form for a
quantity of a graph family: the vertex chromatic number ``chi``, the
chromatic number of the line graph ``chi_line`` (equivalently the
chromatic index), their ``sum``, or their ``product``.  Formulas are
plain functions of the family parameters (in the order the family table
names them), evaluated only at the audited points: each family's range
starts at its :data:`AUDIT_FAMILIES` point, and ``families.make`` checks
the point as it builds the graph.  Every claim carries a citation string
restating the claimed identity so an audit report doubles as an errata
table.

Several registered claims are wrong on purpose: the audit's job is to
find out, by generating each graph and solving exactly, which formulas
hold and which do not.  The fan family carries two rival variants of its
sum/product claims (the stated ``n+4``/``3(n+1)`` and the derived
``n+3``/``3n``); both are registered rather than adjudicated.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import product
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable

from . import families
from .coloring import _as_budget, chromatic_index, chromatic_number
from .errors import BudgetExceededError, DomainError
from .enumeration import connected_bipartite_graphs
from .graphs import Graph, bipartition

MATCH = "MATCH"
MISMATCH = "MISMATCH"
BUDGET_EXCEEDED = "BUDGET_EXCEEDED"

QUANTITIES = ("chi", "chi_line", "sum", "product")


@dataclass(frozen=True)
class Claim:
    id: str
    family: str
    quantity: str
    value: Callable[..., int]   # the claimed value, from the family parameters in order
    citation: str


_REGISTRY: tuple[Claim, ...] = (
    Claim("complete.sum", "complete", "sum",
          lambda n: 2 * n - 1 if n % 2 == 0 else 2 * n,
          "chi(K_n) + chi(L(K_n)) = 2n-1 if n even, 2n if n odd (n >= 2)"),
    Claim("complete.product", "complete", "product",
          lambda n: n * (n - 1) if n % 2 == 0 else n * n,
          "chi(K_n) * chi(L(K_n)) = n(n-1) if n even, n^2 if n odd (n >= 2)"),
    Claim("complete_bipartite.sum", "complete_bipartite", "sum",
          lambda m, n: 2 + max(m, n),
          "chi(K_{m,n}) + chi(L(K_{m,n})) = 2 + max(m, n)"),
    Claim("complete_bipartite.product", "complete_bipartite", "product",
          lambda m, n: 2 * max(m, n),
          "chi(K_{m,n}) * chi(L(K_{m,n})) = 2 max(m, n)"),
    Claim("star.sum", "star", "sum",
          lambda n: n + 2,
          "chi(K_{1,n}) + chi(L(K_{1,n})) = n + 2"),
    Claim("star.product", "star", "product",
          lambda n: 2 * n,
          "chi(K_{1,n}) * chi(L(K_{1,n})) = 2n"),
    Claim("bistar.sum", "bistar", "sum",
          lambda m, n: 2 + max(m, n),
          "chi(B_{m,n}) + chi(L(B_{m,n})) = 2 + max(m, n)"),
    Claim("bistar.product", "bistar", "product",
          lambda m, n: 2 * max(m, n),
          "chi(B_{m,n}) * chi(L(B_{m,n})) = 2 max(m, n)"),
    Claim("wheel.chi", "wheel", "chi",
          lambda n: 4 if n % 2 == 0 else 3,
          "chi(W_n) = 4 if n even, 3 if n odd (n >= 4)"),
    Claim("wheel.chi_line", "wheel", "chi_line",
          lambda n: n - 1,
          "chi'(W_n) = n - 1 (n >= 4)"),
    Claim("wheel.sum", "wheel", "sum",
          lambda n: n + 3 if n % 2 == 0 else n + 2,
          "chi(W_n) + chi(L(W_n)) = n+3 if n even, n+2 if n odd (n >= 4)"),
    Claim("wheel.product", "wheel", "product",
          lambda n: 4 * (n - 1) if n % 2 == 0 else 3 * (n - 1),
          "chi(W_n) * chi(L(W_n)) = 4(n-1) if n even, 3(n-1) if n odd (n >= 4)"),
    Claim("helm.chi", "helm", "chi",
          lambda n: 4 if n % 2 == 0 else 3,
          "chi(H_n) = 4 if n even, 3 if n odd (n >= 3)"),
    Claim("helm.chi_line", "helm", "chi_line",
          lambda n: n,
          "chi'(H_n) = n (n >= 3)"),
    Claim("helm.sum", "helm", "sum",
          lambda n: n + 4 if n % 2 == 0 else n + 3,
          "chi(H_n) + chi(L(H_n)) = n+4 if n even, n+3 if n odd (n >= 3)"),
    Claim("helm.product", "helm", "product",
          lambda n: 4 * n if n % 2 == 0 else 3 * n,
          "chi(H_n) * chi(L(H_n)) = 4n if n even, 3n if n odd (n >= 3)"),
    Claim("fan.chi_line", "fan", "chi_line",
          lambda n: n,
          "chi'(F_{1,n}) = n (n >= 2)"),
    Claim("fan.sum.statement", "fan", "sum",
          lambda n: n + 4,
          "chi(F_{1,n}) + chi(L(F_{1,n})) = n + 4 (statement variant)"),
    Claim("fan.product.statement", "fan", "product",
          lambda n: 3 * (n + 1),
          "chi(F_{1,n}) * chi(L(F_{1,n})) = 3(n + 1) (statement variant)"),
    Claim("fan.sum.proof", "fan", "sum",
          lambda n: n + 3,
          "chi(F_{1,n}) + chi(L(F_{1,n})) = n + 3 (derivation variant)"),
    Claim("fan.product.proof", "fan", "product",
          lambda n: 3 * n,
          "chi(F_{1,n}) * chi(L(F_{1,n})) = 3n (derivation variant)"),
)


def registry() -> tuple[Claim, ...]:
    """The fixed claim registry, one claim per asserted closed form."""
    return _REGISTRY


#: Each family's claims in registry order, looked up once per audit point.
_FAMILY_CLAIMS: dict[str, tuple[Claim, ...]] = {
    family: tuple(c for c in _REGISTRY if c.family == family)
    for family in dict.fromkeys(c.family for c in _REGISTRY)}


#: Families that have registered claims, in family-table order, with the
#: smallest parameter point audited, from which every claim of the family
#: holds: the family-table minimums, except that chi_line needs at least
#: one edge, so complete graphs start at n = 2.
AUDIT_FAMILIES: dict[str, tuple[int, ...]] = {
    name: {"complete": (2,)}.get(name, family.mins)
    for name, family in families.FAMILY_TABLE.items() if name in _FAMILY_CLAIMS}


@dataclass(frozen=True)
class AuditRow:
    """One audited (claim, parameter point): exact value vs claimed value."""

    claim_id: str
    params: tuple[tuple[str, int | str], ...]
    exact: int | None
    claimed: int | str | None
    verdict: str
    witness: str
    citation: str

    @property
    def params_str(self) -> str:
        return ",".join(f"{k}={v}" for k, v in self.params)

    @property
    def key(self) -> str:
        return f"{self.claim_id}[{self.params_str}]"


#: The exact quantities of a point whose solves ran out of budget.
_NO_VALUES: dict[str, None] = dict.fromkeys(QUANTITIES)


def _exact_quantities(g: Graph, budget_limit: int | None) -> tuple[dict, str]:
    """chi, chi_line, sum and product of g with their witness string, or
    ``(_NO_VALUES, "")`` when the two solves exceed one shared budget."""
    bud = _as_budget(budget_limit)
    try:
        chi_w = chromatic_number(g, bud)
        chi_line_w = chromatic_index(g, bud)
    except BudgetExceededError:
        return _NO_VALUES, ""
    chi, chi_line = chi_w.num_colors, chi_line_w.num_colors
    values = {"chi": chi, "chi_line": chi_line,
              "sum": chi + chi_line, "product": chi * chi_line}
    witness = (f"chi={','.join(map(str, chi_w.color_of))};"
               f"chiL={','.join(map(str, map(chi_line_w.color_of.__getitem__, g.edges)))}")
    return values, witness


def _verdict(exact: int | None, lo: int, hi: int) -> str:
    """BUDGET_EXCEEDED without an exact value, else whether ``lo <= exact <= hi``."""
    if exact is None:
        return BUDGET_EXCEEDED
    return MATCH if lo <= exact <= hi else MISMATCH


def _param_points(family: str, max_param: int) -> Iterable[tuple[int, ...]]:
    return product(*(range(lo, max_param + 1) for lo in AUDIT_FAMILIES[family]))


def _audit_point(family: str, point: tuple[int, ...],
                 budget_limit: int | None = None) -> list[AuditRow]:
    params = tuple(zip(families.FAMILY_TABLE[family].params, point))
    values, witness = _exact_quantities(families.make(family, *point), budget_limit)
    rows = []
    for c in _FAMILY_CLAIMS[family]:
        exact, claimed = values[c.quantity], c.value(*point)
        rows.append(AuditRow(c.id, params, exact, claimed,
                             _verdict(exact, claimed, claimed), witness, c.citation))
    return rows


def audit_family(family: str, max_param: int,
                 budget_limit: int | None = None) -> list[AuditRow]:
    """Audit every registered claim of a family over its parameter range.

    One-parameter families sweep from their smallest audited value up to
    ``max_param``; two-parameter families sweep the full grid.  Rows come
    back in deterministic order (ascending parameter point, then registry
    order).
    """
    if family not in AUDIT_FAMILIES:
        raise DomainError(f"no registered claims for family {family!r}; "
                          f"choose from {', '.join(AUDIT_FAMILIES)}")
    if max_param > sys.maxsize:  # the same rule as an edge-list header's order
        raise DomainError(f"largest parameter {max_param} exceeds the platform's index range")
    return [row for point in _param_points(family, max_param)
            for row in _audit_point(family, point, budget_limit)]


def audit_bipartite_bounds(max_order: int,
                           budget_limit: int | None = None) -> list[AuditRow]:
    """Check 4 <= chi + chi' <= 2 + max(m, n) (and the product analogue)
    on every connected bipartite labeled graph with >= 1 edge up to
    ``max_order``, where (m, n) are the computed bipartition side sizes.

    The single-edge graph K_2 violates both lower bounds (sum 3, product
    2); everything else satisfies them.
    """
    if max_order > 7:
        raise DomainError("exhaustive bipartite audit is capped at order 7")
    rows = []
    for g in connected_bipartite_graphs(max_order):
        ones = sum(bipartition(g))
        big = max(ones, g.order - ones)
        edges_str = ";".join(f"{u}-{v}" for u, v in g.edges)
        params = (("order", g.order), ("edges", edges_str))
        values, witness = _exact_quantities(g, budget_limit)
        for quantity, hi in (("sum", 2 + big), ("product", 2 * big)):
            exact = values[quantity]
            claimed = "" if exact is None else f"4 <= {quantity} <= {hi}"
            rows.append(AuditRow(f"bipartite.{quantity}_bounds", params, exact, claimed,
                                 _verdict(exact, 4, hi), witness, _BIPARTITE_CITATION))
    return rows


_BIPARTITE_CITATION = ("4 <= chi(G) + chi(L(G)) <= 2 + max(m, n) and "
                       "4 <= chi(G) * chi(L(G)) <= 2 max(m, n) "
                       "for connected bipartite G with sides (m, n)")


def mismatch_keys(rows: Iterable[AuditRow]) -> list[str]:
    return [r.key for r in rows if r.verdict == MISMATCH]


_COLUMNS = ("claim", "params", "exact", "claimed", "verdict", "citation")


def _cells(r: AuditRow) -> list[str]:
    """A row's markdown and CSV cells in ``_COLUMNS`` order; None is empty."""
    return ["" if v is None else str(v)
            for v in (r.claim_id, r.params_str, r.exact, r.claimed, r.verdict, r.citation)]


def render_report(rows: list[AuditRow], format: str = "markdown") -> str:
    """Render rows as a markdown pipe table, CSV, or JSON array.

    Column order is fixed: claim id, params, exact, claimed, verdict,
    citation.  JSON additionally carries the witness strings.
    """
    if format == "markdown":
        out = ["| " + " | ".join(_COLUMNS) + " |",
               "|" + "|".join(" --- " for _ in _COLUMNS) + "|"]
        out += ["| " + " | ".join(_cells(r)) + " |" for r in rows]
        return "\n".join(out) + "\n"
    if format == "csv":
        import csv
        import io
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_COLUMNS)
        writer.writerows(map(_cells, rows))
        return buf.getvalue()
    if format == "json":
        # the layout of json.dumps(payload, indent=2), filled in here: with
        # indent set, json runs its pure-Python encoder on every dict
        if not rows:
            return "[]\n"
        esc = encode_basestring_ascii  # json's own escaper
        params = {p: _json_params(p) for p in {r.params for r in rows}}  # shared by a point's rows
        return "[\n" + ",\n".join([
            f'  {{\n    "claim": {esc(r.claim_id)},\n    "params": {params[r.params]},\n'
            f'    "exact": {_json(r.exact)},\n    "claimed": {_json(r.claimed)},\n'
            f'    "verdict": {esc(r.verdict)},\n    "witness": {esc(r.witness)},\n'
            f'    "citation": {esc(r.citation)}\n  }}' for r in rows]) + "\n]\n"
    raise DomainError(f"unknown report format {format!r}; "
                      f"choose markdown, csv, or json")


def _json(value: int | str | None) -> str:
    """A JSON value as ``json.dumps`` writes it (ASCII-escaped strings)."""
    if value is None:
        return "null"
    return encode_basestring_ascii(value) if isinstance(value, str) else str(value)


def _json_params(params: tuple[tuple[str, int | str], ...]) -> str:
    if not params:
        return "{}"
    return "{\n" + ",\n".join(f"      {_json(k)}: {_json(v)}" for k, v in params) + "\n    }"
