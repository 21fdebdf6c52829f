import json

import pytest

from chromalab import claims, families
from chromalab.claims import (AuditRow, audit_bipartite_bounds, audit_family,
                              mismatch_keys, registry, render_report)
from chromalab.errors import DomainError

EXPECTED_CLAIM_IDS = {
    "complete.sum", "complete.product",
    "complete_bipartite.sum", "complete_bipartite.product",
    "star.sum", "star.product",
    "bistar.sum", "bistar.product",
    "wheel.chi", "wheel.chi_line", "wheel.sum", "wheel.product",
    "helm.chi", "helm.chi_line", "helm.sum", "helm.product",
    "fan.chi_line",
    "fan.sum.statement", "fan.product.statement",
    "fan.sum.proof", "fan.product.proof",
}


def _claim(cid):
    return next(c for c in registry() if c.id == cid)


def test_registry_checklist():
    reg = registry()
    assert {c.id for c in reg} == EXPECTED_CLAIM_IDS
    assert len(reg) == len(EXPECTED_CLAIM_IDS) == 21
    assert all(c.citation for c in reg)
    assert all(c.quantity in claims.QUANTITIES for c in reg)
    # the fan sum/product conflict is carried as two rival claims each
    assert len([c for c in reg if c.family == "fan" and c.quantity == "sum"]) == 2
    assert len([c for c in reg if c.family == "fan" and c.quantity == "product"]) == 2


def test_family_claims_share_one_domain():
    # the audit starts each family at this point, so every claim is read
    # only inside its domain
    assert claims.AUDIT_FAMILIES == {
        "complete": (2,), "complete_bipartite": (1, 1), "star": (1,),
        "bistar": (1, 1), "wheel": (4,), "helm": (3,), "fan": (2,)}
    # every family with a claim is audited, in family-table order
    assert list(claims.AUDIT_FAMILIES) == [
        f for f in families.FAMILIES if any(c.family == f for c in registry())]


#: (claim id, parameter point, claimed value), covering every claim at an
#: even and at an odd last parameter.
CLAIMED_VALUES = [
    ("complete.sum", (6,), 11), ("complete.sum", (7,), 14),
    ("complete.product", (6,), 30), ("complete.product", (7,), 49),
    ("complete_bipartite.sum", (2, 5), 7), ("complete_bipartite.sum", (6, 3), 8),
    ("complete_bipartite.sum", (3, 4), 6),
    ("complete_bipartite.product", (2, 5), 10), ("complete_bipartite.product", (6, 3), 12),
    ("complete_bipartite.product", (3, 4), 8),
    ("star.sum", (4,), 6), ("star.sum", (5,), 7),
    ("star.product", (4,), 8), ("star.product", (5,), 10),
    ("bistar.sum", (2, 3), 5), ("bistar.sum", (6, 1), 8), ("bistar.sum", (5, 2), 7),
    ("bistar.product", (2, 3), 6), ("bistar.product", (6, 1), 12),
    ("bistar.product", (5, 2), 10),
    ("wheel.chi", (6,), 4), ("wheel.chi", (7,), 3),
    ("wheel.chi_line", (4,), 3), ("wheel.chi_line", (7,), 6),
    ("wheel.sum", (6,), 9), ("wheel.sum", (7,), 9),
    ("wheel.product", (6,), 20), ("wheel.product", (7,), 18),
    ("helm.chi", (4,), 4), ("helm.chi", (5,), 3),
    ("helm.chi_line", (4,), 4), ("helm.chi_line", (5,), 5),
    ("helm.sum", (4,), 8), ("helm.sum", (5,), 8),
    ("helm.product", (4,), 16), ("helm.product", (5,), 15),
    ("fan.chi_line", (4,), 4), ("fan.chi_line", (5,), 5),
    ("fan.sum.statement", (4,), 8), ("fan.sum.statement", (7,), 11),
    ("fan.product.statement", (4,), 15), ("fan.product.statement", (7,), 24),
    ("fan.sum.proof", (4,), 7), ("fan.sum.proof", (7,), 10),
    ("fan.product.proof", (4,), 12), ("fan.product.proof", (7,), 21),
]


def test_claimed_value_examples():
    for cid, params, value in CLAIMED_VALUES:
        assert _claim(cid).value(*params) == value, (cid, params)
    # every claim is covered above at an even and at an odd last parameter,
    # each point inside the claim's domain
    covered = set()
    for cid, params, _ in CLAIMED_VALUES:
        mins = claims.AUDIT_FAMILIES[_claim(cid).family]
        assert all(p >= lo for p, lo in zip(params, mins)), (cid, params)
        covered.add((cid, params[-1] % 2))
    assert covered == {(c.id, parity) for c in registry() for parity in (0, 1)}


def test_audit_wheel_all_match():
    rows = audit_family("wheel", 8)
    assert rows and all(r.verdict == claims.MATCH for r in rows)


def test_audit_bistar_mismatches_with_corrected_value():
    rows = audit_family("bistar", 4)
    by_quantity = {}
    for r in rows:
        by_quantity.setdefault(r.claim_id, []).append(r)
    for r in by_quantity["bistar.sum"]:
        params = dict(r.params)
        assert r.verdict == claims.MISMATCH
        assert r.exact == 3 + max(params["m"], params["n"])
    for r in by_quantity["bistar.product"]:
        assert r.verdict == claims.MISMATCH


def test_audit_complete_matches():
    rows = audit_family("complete", 6)
    assert all(r.verdict == claims.MATCH for r in rows)
    assert len(rows) == 2 * 5  # two claims, n = 2..6


def test_audit_rows_are_deterministic_and_keyed():
    a = audit_family("fan", 4)
    b = audit_family("fan", 4)
    assert a == b
    assert a[0].key.startswith("fan.")
    assert all("n=" in r.key for r in a)


def test_audit_unknown_family():
    with pytest.raises(DomainError):
        audit_family("gear", 5)


def test_audit_budget_marks_rows():
    rows = audit_family("wheel", 5, budget_limit=1)
    assert rows and all(r.verdict == claims.BUDGET_EXCEEDED for r in rows)
    assert mismatch_keys(rows) == []
    # a family row keeps its claimed value but has no exact value or witness
    for r in rows:
        point = tuple(v for _, v in r.params)
        assert r.exact is None and r.witness == ""
        assert r.claimed == _claim(r.claim_id).value(*point)
    # a bipartite row has no claimed range either
    rows = audit_bipartite_bounds(3, budget_limit=1)
    assert rows and all(r.verdict == claims.BUDGET_EXCEEDED for r in rows)
    assert all(r.exact is None and r.claimed == "" and r.witness == "" for r in rows)
    assert {r.claim_id for r in rows} == {"bipartite.sum_bounds", "bipartite.product_bounds"}


def test_audit_budget_must_be_positive():
    # same rule as SearchBudget(0) and chromatic_number(g, 0)
    with pytest.raises(DomainError, match="node budget must be positive"):
        audit_family("wheel", 5, budget_limit=0)
    with pytest.raises(DomainError, match="node budget must be positive"):
        audit_bipartite_bounds(3, budget_limit=0)


def test_bipartite_bounds_flags_only_k2():
    rows = audit_bipartite_bounds(5)
    bad = [r for r in rows if r.verdict == claims.MISMATCH]
    assert {r.key for r in bad} == {
        "bipartite.sum_bounds[order=2,edges=0-1]",
        "bipartite.product_bounds[order=2,edges=0-1]",
    }
    k2_sum = next(r for r in bad if r.claim_id == "bipartite.sum_bounds")
    assert k2_sum.exact == 3  # chi = 2, chi' = 1
    # P_4 appears and matches: sum 4 within [4, 2 + max(2, 2)]
    p4 = next(r for r in rows if r.claim_id == "bipartite.sum_bounds"
              and dict(r.params)["edges"] == "0-1;1-2;2-3")
    assert p4.verdict == claims.MATCH and p4.exact == 4
    # K_{2,3}: sum 5 within [4, 2 + 3]
    k23 = next(r for r in rows if r.claim_id == "bipartite.sum_bounds"
               and dict(r.params)["edges"] == "0-2;0-3;0-4;1-2;1-3;1-4")
    assert k23.verdict == claims.MATCH and k23.exact == 5


def test_bipartite_bounds_order_cap():
    with pytest.raises(DomainError):
        audit_bipartite_bounds(8)


def test_render_report_formats():
    assert render_report([], "csv") == "claim,params,exact,claimed,verdict,citation\n"
    assert render_report([], "json") == "[]\n"
    row = AuditRow("wheel.chi", (("n", 4),), 4, 4, claims.MATCH, "chi=0", "c")
    md = render_report([row], "markdown")
    assert md.splitlines()[0] == "| claim | params | exact | claimed | verdict | citation |"
    assert "| MATCH |" in md
    payload = json.loads(render_report([row, row], "json"))
    assert len(payload) == 2
    assert payload[0]["params"] == {"n": 4}
    with pytest.raises(DomainError):
        render_report([], "xml")
