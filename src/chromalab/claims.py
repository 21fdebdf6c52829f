"""Registry of closed-form coloring claims, audited against exact computation.

Each :class:`Claim` records, as data, one asserted closed form for a
quantity of a graph family: the vertex chromatic number ``chi``, the
chromatic number of the line graph ``chi_line`` (equivalently the
chromatic index), their ``sum``, or their ``product``.  Formulas are
plain functions of the family parameters (in the order the family table
names them), split by parity where the claim is parity-cased, and every
claim carries a citation string restating the claimed identity so an
audit report doubles as an errata table.

Several registered claims are wrong on purpose: the audit's job is to
find out, by generating each graph and solving exactly, which formulas
hold and which do not.  The fan family carries two rival variants of its
sum/product claims (the stated ``n+4``/``3(n+1)`` and the derived
``n+3``/``3n``); both are registered rather than adjudicated.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterable

from . import families
from .coloring import SearchBudget, chromatic_index, chromatic_number
from .errors import BudgetExceededError, DomainError
from .enumeration import connected_bipartite_graphs
from .graphs import Graph, bipartition

MATCH = "MATCH"
MISMATCH = "MISMATCH"
CLAIM_UNDEFINED = "CLAIM_UNDEFINED"
BUDGET_EXCEEDED = "BUDGET_EXCEEDED"

QUANTITIES = ("chi", "chi_line", "sum", "product")


@dataclass(frozen=True)
class ClaimCase:
    when: str                   # "even" | "odd" | "any" (parity of the last parameter)
    value: Callable[..., int]   # the claimed value, from the family parameters in order


@dataclass(frozen=True)
class Claim:
    id: str
    family: str
    quantity: str
    param_mins: tuple[int, ...]
    cases: tuple[ClaimCase, ...]
    citation: str


def _claim(id: str, family: str, quantity: str, mins: tuple[int, ...],
           cases: list[tuple[str, Callable[..., int]]], citation: str) -> Claim:
    return Claim(id, family, quantity, mins,
                 tuple(ClaimCase(w, f) for w, f in cases), citation)


_REGISTRY: tuple[Claim, ...] = (
    _claim("complete.sum", "complete", "sum", (2,),
           [("even", lambda n: 2 * n - 1), ("odd", lambda n: 2 * n)],
           "chi(K_n) + chi(L(K_n)) = 2n-1 if n even, 2n if n odd (n >= 2)"),
    _claim("complete.product", "complete", "product", (2,),
           [("even", lambda n: n * (n - 1)), ("odd", lambda n: n * n)],
           "chi(K_n) * chi(L(K_n)) = n(n-1) if n even, n^2 if n odd (n >= 2)"),
    _claim("complete_bipartite.sum", "complete_bipartite", "sum", (1, 1),
           [("any", lambda m, n: 2 + max(m, n))],
           "chi(K_{m,n}) + chi(L(K_{m,n})) = 2 + max(m, n)"),
    _claim("complete_bipartite.product", "complete_bipartite", "product", (1, 1),
           [("any", lambda m, n: 2 * max(m, n))],
           "chi(K_{m,n}) * chi(L(K_{m,n})) = 2 max(m, n)"),
    _claim("star.sum", "star", "sum", (1,),
           [("any", lambda n: n + 2)],
           "chi(K_{1,n}) + chi(L(K_{1,n})) = n + 2"),
    _claim("star.product", "star", "product", (1,),
           [("any", lambda n: 2 * n)],
           "chi(K_{1,n}) * chi(L(K_{1,n})) = 2n"),
    _claim("bistar.sum", "bistar", "sum", (1, 1),
           [("any", lambda m, n: 2 + max(m, n))],
           "chi(B_{m,n}) + chi(L(B_{m,n})) = 2 + max(m, n)"),
    _claim("bistar.product", "bistar", "product", (1, 1),
           [("any", lambda m, n: 2 * max(m, n))],
           "chi(B_{m,n}) * chi(L(B_{m,n})) = 2 max(m, n)"),
    _claim("wheel.chi", "wheel", "chi", (4,),
           [("even", lambda n: 4), ("odd", lambda n: 3)],
           "chi(W_n) = 4 if n even, 3 if n odd (n >= 4)"),
    _claim("wheel.chi_line", "wheel", "chi_line", (4,),
           [("any", lambda n: n - 1)],
           "chi'(W_n) = n - 1 (n >= 4)"),
    _claim("wheel.sum", "wheel", "sum", (4,),
           [("even", lambda n: n + 3), ("odd", lambda n: n + 2)],
           "chi(W_n) + chi(L(W_n)) = n+3 if n even, n+2 if n odd (n >= 4)"),
    _claim("wheel.product", "wheel", "product", (4,),
           [("even", lambda n: 4 * (n - 1)), ("odd", lambda n: 3 * (n - 1))],
           "chi(W_n) * chi(L(W_n)) = 4(n-1) if n even, 3(n-1) if n odd (n >= 4)"),
    _claim("helm.chi", "helm", "chi", (3,),
           [("even", lambda n: 4), ("odd", lambda n: 3)],
           "chi(H_n) = 4 if n even, 3 if n odd (n >= 3)"),
    _claim("helm.chi_line", "helm", "chi_line", (3,),
           [("any", lambda n: n)],
           "chi'(H_n) = n (n >= 3)"),
    _claim("helm.sum", "helm", "sum", (3,),
           [("even", lambda n: n + 4), ("odd", lambda n: n + 3)],
           "chi(H_n) + chi(L(H_n)) = n+4 if n even, n+3 if n odd (n >= 3)"),
    _claim("helm.product", "helm", "product", (3,),
           [("even", lambda n: 4 * n), ("odd", lambda n: 3 * n)],
           "chi(H_n) * chi(L(H_n)) = 4n if n even, 3n if n odd (n >= 3)"),
    _claim("fan.chi_line", "fan", "chi_line", (2,),
           [("any", lambda n: n)],
           "chi'(F_{1,n}) = n (n >= 2)"),
    _claim("fan.sum.statement", "fan", "sum", (2,),
           [("any", lambda n: n + 4)],
           "chi(F_{1,n}) + chi(L(F_{1,n})) = n + 4 (statement variant)"),
    _claim("fan.product.statement", "fan", "product", (2,),
           [("any", lambda n: 3 * (n + 1))],
           "chi(F_{1,n}) * chi(L(F_{1,n})) = 3(n + 1) (statement variant)"),
    _claim("fan.sum.proof", "fan", "sum", (2,),
           [("any", lambda n: n + 3)],
           "chi(F_{1,n}) + chi(L(F_{1,n})) = n + 3 (derivation variant)"),
    _claim("fan.product.proof", "fan", "product", (2,),
           [("any", lambda n: 3 * n)],
           "chi(F_{1,n}) * chi(L(F_{1,n})) = 3n (derivation variant)"),
)


def registry() -> tuple[Claim, ...]:
    """The fixed claim registry, one claim per asserted closed form."""
    return _REGISTRY


def claims_for(family: str) -> tuple[Claim, ...]:
    return tuple(c for c in _REGISTRY if c.family == family)


#: Families that have registered claims, in family-table order, with the
#: smallest parameter point audited: the lowest minimum of each parameter
#: over the family's claims (chi_line needs at least one edge, so complete
#: graphs start at n = 2).
AUDIT_FAMILIES: dict[str, tuple[int, ...]] = {
    family: tuple(map(min, *(c.param_mins for c in claims_for(family))))
    for family in families.FAMILIES if claims_for(family)}


def claimed_value(claim: Claim, params: tuple[int, ...]) -> int | None:
    """The claim's value at params, or None outside its domain."""
    if len(params) != len(claim.param_mins):
        raise DomainError(f"{claim.id} takes {len(claim.param_mins)} parameter(s), "
                          f"got {len(params)}")
    if any(p < lo for p, lo in zip(params, claim.param_mins)):
        return None
    parity = "even" if params[-1] % 2 == 0 else "odd"
    for case in claim.cases:
        if case.when == "any" or case.when == parity:
            return case.value(*params)
    return None


@dataclass(frozen=True)
class AuditRow:
    """One audited (claim, parameter point): exact value vs claimed value."""

    claim_id: str
    params: tuple[tuple[str, object], ...]
    exact: int | None
    claimed: object
    verdict: str
    witness: str
    citation: str

    @property
    def params_str(self) -> str:
        return ",".join(f"{k}={v}" for k, v in self.params)

    @property
    def key(self) -> str:
        return f"{self.claim_id}[{self.params_str}]"


def _exact_quantities(g: Graph, budget_limit: int | None):
    bud = SearchBudget(budget_limit) if budget_limit else SearchBudget()
    chi_w = chromatic_number(g, bud)
    chi_line_w = chromatic_index(g, bud)
    chi, chi_line = chi_w.num_colors, chi_line_w.num_colors
    values = {"chi": chi, "chi_line": chi_line,
              "sum": chi + chi_line, "product": chi * chi_line}
    witness = (f"chi={','.join(map(str, chi_w.color_of))};"
               f"chiL={','.join(str(c) for _, _, c in chi_line_w.assignment())}")
    return values, witness


def _param_points(family: str, max_param: int) -> list[tuple[int, ...]]:
    mins = AUDIT_FAMILIES[family]
    if len(mins) == 1:
        return [(p,) for p in range(mins[0], max_param + 1)]
    return [(m, n) for m in range(mins[0], max_param + 1)
            for n in range(mins[1], max_param + 1)]


def _audit_point(family: str, point: tuple[int, ...],
                 budget_limit: int | None = None) -> list[AuditRow]:
    params = tuple(zip(families.FAMILY_TABLE[family].params, point))
    g = families.make(family, *point)
    claims = claims_for(family)
    try:
        values, witness = _exact_quantities(g, budget_limit)
    except BudgetExceededError:
        return [AuditRow(c.id, params, None, claimed_value(c, point),
                         BUDGET_EXCEEDED, "", c.citation) for c in claims]
    rows = []
    for c in claims:
        claimed = claimed_value(c, point)
        if claimed is None:
            verdict = CLAIM_UNDEFINED
        else:
            verdict = MATCH if values[c.quantity] == claimed else MISMATCH
        rows.append(AuditRow(c.id, params, values[c.quantity], claimed,
                             verdict, witness, c.citation))
    return rows


def audit_family(family: str, max_param: int, budget_limit: int | None = None,
                 executor=None) -> list[AuditRow]:
    """Audit every registered claim of a family over its parameter range.

    One-parameter families sweep from their smallest audited value up to
    ``max_param``; two-parameter families sweep the full grid.  Rows come
    back in deterministic order (ascending parameter point, then registry
    order).  An optional executor (e.g. ProcessPoolExecutor) fans the
    parameter points out across workers without changing the order.
    """
    if family not in AUDIT_FAMILIES:
        raise DomainError(f"no registered claims for family {family!r}; "
                          f"choose from {', '.join(AUDIT_FAMILIES)}")
    mapper = map if executor is None else executor.map
    results = mapper(_audit_point, repeat(family), _param_points(family, max_param),
                     repeat(budget_limit))
    return [row for rows in results for row in rows]


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
        sides = bipartition(g)
        m, n_side = sides.sizes
        hi_sum = 2 + max(m, n_side)
        hi_prod = 2 * max(m, n_side)
        edges_str = ";".join(f"{u}-{v}" for u, v in g.edges)
        params = (("order", g.order), ("edges", edges_str))
        try:
            values, witness = _exact_quantities(g, budget_limit)
        except BudgetExceededError:
            for cid in ("bipartite.sum_bounds", "bipartite.product_bounds"):
                rows.append(AuditRow(cid, params, None, "", BUDGET_EXCEEDED, "",
                                     _BIPARTITE_CITATION))
            continue
        s, p = values["sum"], values["product"]
        rows.append(AuditRow(
            "bipartite.sum_bounds", params, s, f"4 <= sum <= {hi_sum}",
            MATCH if 4 <= s <= hi_sum else MISMATCH, witness, _BIPARTITE_CITATION))
        rows.append(AuditRow(
            "bipartite.product_bounds", params, p, f"4 <= product <= {hi_prod}",
            MATCH if 4 <= p <= hi_prod else MISMATCH, witness, _BIPARTITE_CITATION))
    return rows


_BIPARTITE_CITATION = ("4 <= chi(G) + chi(L(G)) <= 2 + max(m, n) and "
                       "4 <= chi(G) * chi(L(G)) <= 2 max(m, n) "
                       "for connected bipartite G with sides (m, n)")


def mismatch_keys(rows: Iterable[AuditRow]) -> list[str]:
    return [r.key for r in rows if r.verdict == MISMATCH]


_COLUMNS = ("claim", "params", "exact", "claimed", "verdict", "citation")


def _cell(value) -> str:
    return "" if value is None else str(value)


def render_report(rows: list[AuditRow], format: str = "markdown") -> str:
    """Render rows as a markdown pipe table, CSV, or JSON array.

    Column order is fixed: claim id, params, exact, claimed, verdict,
    citation.  JSON additionally carries the witness strings.
    """
    if format == "markdown":
        out = ["| " + " | ".join(_COLUMNS) + " |",
               "|" + "|".join(" --- " for _ in _COLUMNS) + "|"]
        for r in rows:
            cells = (r.claim_id, r.params_str, _cell(r.exact), _cell(r.claimed),
                     r.verdict, r.citation)
            out.append("| " + " | ".join(cells) + " |")
        return "\n".join(out) + "\n"
    if format == "csv":
        import csv
        import io
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_COLUMNS)
        for r in rows:
            writer.writerow([r.claim_id, r.params_str, _cell(r.exact),
                             _cell(r.claimed), r.verdict, r.citation])
        return buf.getvalue()
    if format == "json":
        import json
        payload = [{"claim": r.claim_id, "params": dict(r.params),
                    "exact": r.exact, "claimed": r.claimed, "verdict": r.verdict,
                    "witness": r.witness, "citation": r.citation} for r in rows]
        return json.dumps(payload, indent=2) + "\n"
    raise DomainError(f"unknown report format {format!r}; "
                      f"choose markdown, csv, or json")
