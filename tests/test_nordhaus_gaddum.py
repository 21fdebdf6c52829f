import pytest

from chromalab import families
from chromalab.coloring import SearchBudget, chromatic_number
from chromalab.errors import BudgetExceededError, DomainError
from chromalab.graphs import Graph, complement, disjoint_union
from chromalab.nordhaus_gaddum import ng_check, ng_construct, ng_feasible


def test_ng_check_c5_is_tight_both_ways():
    r = ng_check(families.cycle(5))
    assert (r.chi, r.chi_comp) == (3, 3)
    assert r.chi_sum == 6 == r.order + 1          # upper sum tight
    assert 4 * r.chi_product == (r.order + 1) ** 2  # upper product tight
    assert r.all_bounds_ok


def test_ng_check_budget_covers_both_solves():
    # chi(C_7) and chi of its complement take 13 search nodes each
    g = families.cycle(7)
    for make in (int, SearchBudget):
        with pytest.raises(BudgetExceededError):
            ng_check(g, make(13))
        assert ng_check(g, make(26)).chi_sum == 7


def test_ng_check_k6():
    r = ng_check(families.complete(6))
    assert (r.chi, r.chi_comp, r.chi_sum) == (6, 1, 7)
    assert r.chi_sum == r.order + 1
    assert r.all_bounds_ok


def test_ng_check_p4_lower_sum_tight():
    r = ng_check(families.path(4))
    assert (r.chi, r.chi_comp) == (2, 2)
    assert r.chi_sum * r.chi_sum == 4 * r.order  # sum = 2*sqrt(n) exactly
    assert r.all_bounds_ok


def test_ng_check_rejects_order_zero():
    with pytest.raises(DomainError):
        ng_check(Graph(0))


def test_ng_feasible_examples():
    assert ng_feasible(5, 3, 3)
    assert not ng_feasible(5, 2, 2)
    assert ng_feasible(4, 2, 2)
    with pytest.raises(DomainError):
        ng_feasible(0, 1, 1)
    with pytest.raises(DomainError):
        ng_feasible(4, 1, 0)


def test_ng_rejects_non_int_parameters():
    # bools and floats are not counts: each used to pass the >= 1 test
    for n, a, b in ((True, 1, 1), (4, 2.0, 2), (5, 2, 2.5), (5.0, 3, 2)):
        with pytest.raises(DomainError, match=r"^ng_feasible requires n, a, b >= 1"):
            ng_feasible(n, a, b)
        with pytest.raises(DomainError, match=r"^ng_construct requires n, a, b >= 1"):
            ng_construct(n, a, b)


def test_feasibility_implies_all_four_inequalities():
    # ng_feasible is all four bounds, which by AM-GM are these two; check
    # both equivalences rather than assume either
    for n in range(1, 13):
        for a in range(1, n + 2):
            for b in range(1, n + 2):
                s, p = a + b, a * b
                feasible = ng_feasible(n, a, b)
                assert feasible == (s <= n + 1 and p >= n), (n, a, b)
                assert feasible == (s * s >= 4 * n and s <= n + 1
                                    and p >= n and 4 * p <= (n + 1) ** 2), (n, a, b)


def test_ng_construct_examples():
    g = ng_construct(5, 3, 3)
    assert g == disjoint_union([families.complete(3), Graph(1), Graph(1)])
    assert chromatic_number(g).num_colors == 3
    assert chromatic_number(complement(g)).num_colors == 3

    g = ng_construct(4, 2, 2)
    assert g == disjoint_union([families.complete(2), families.complete(2)])
    co = complement(g)
    assert co.num_edges == 4 and all(d == 2 for d in co.degrees)  # a 4-cycle
    assert chromatic_number(g).num_colors == 2
    assert chromatic_number(co).num_colors == 2

    g = ng_construct(6, 6, 1)
    assert g == families.complete(6)
    assert chromatic_number(complement(g)).num_colors == 1


def test_ng_construct_greedy_sizes_are_canonical():
    g = ng_construct(10, 4, 3)
    expected = disjoint_union([families.complete(4), families.complete(4),
                               families.complete(2)])
    assert g == expected


def test_ng_construct_errors_cite_the_violated_inequality():
    with pytest.raises(DomainError, match=r"a \+ b"):
        ng_construct(4, 3, 3)
    with pytest.raises(DomainError, match=r"a \* b"):
        ng_construct(5, 2, 2)
    with pytest.raises(DomainError, match=">= 1"):
        ng_construct(5, 0, 2)
