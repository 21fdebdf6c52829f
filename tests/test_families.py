import pytest

from chromalab.errors import DomainError
from chromalab.families import (FAMILIES, FAMILY_TABLE, bistar, complete,
                                complete_bipartite, cycle, fan, generate, helm,
                                make, path, star, wheel)
from chromalab.graphs import Graph


def test_generate_examples():
    assert (wheel(5).order, wheel(5).num_edges) == (5, 8)
    assert (helm(3).order, helm(3).num_edges) == (7, 9)
    assert (bistar(2, 3).order, bistar(2, 3).num_edges) == (7, 6)
    with pytest.raises(DomainError):
        make("cycle", 2)


def test_counts_match_closed_forms():
    for n in range(4, 11):
        assert (wheel(n).order, wheel(n).num_edges) == (n, 2 * (n - 1))
    for n in range(3, 11):
        assert (helm(n).order, helm(n).num_edges) == (2 * n + 1, 3 * n)
    for n in range(2, 11):
        assert (fan(n).order, fan(n).num_edges) == (n + 1, 2 * n - 1)
    for m in range(1, 11):
        for n in range(1, 11):
            g = bistar(m, n)
            assert (g.order, g.num_edges) == (m + n + 2, m + n + 1)
    for n in range(1, 11):
        assert complete(n).num_edges == n * (n - 1) // 2
        assert path(n).num_edges == n - 1
    for n in range(3, 11):
        assert cycle(n).num_edges == n


def test_order_and_size_name_the_edge_colorable_family_graph():
    for name in ("complete", "wheel", "helm", "fan"):
        family = FAMILY_TABLE[name]
        for n in range(family.mins[0], family.mins[0] + 8):
            g = make(name, n)
            assert family.param_of_order(g.order) == n
            assert family.size_of_param(n) == g.num_edges


def test_star_equals_complete_bipartite_1n():
    for n in range(1, 41):
        assert star(n) == complete_bipartite(1, n)


def test_helm_contains_wheel_labeling():
    for n in range(3, 9):
        h = helm(n)
        inner = Graph(n + 1, [e for e in h.edges if max(e) <= n])
        assert inner == wheel(n + 1)


def test_helm_pendant_labels():
    h = helm(4)
    for i in range(1, 5):
        assert h.has_edge(i, 4 + i)


def test_fan_is_hub_plus_path():
    f = fan(4)
    assert f.edges == ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4))
    assert fan(2) == complete(3)


def test_wheel_4_is_k4():
    assert wheel(4) == complete(4)


def test_domain_errors_name_the_bound():
    with pytest.raises(DomainError, match="wheel requires n >= 4"):
        wheel(3)
    with pytest.raises(DomainError, match="helm requires n >= 3"):
        helm(2)
    with pytest.raises(DomainError, match="fan requires n >= 2"):
        fan(1)
    with pytest.raises(DomainError, match="bistar requires m >= 1"):
        bistar(0, 3)
    with pytest.raises(DomainError, match="unknown family"):
        make("gear", 4)
    with pytest.raises(DomainError, match="takes 2 parameter"):
        make("complete_bipartite", 3)
    # bool subclasses int; complete(True) would be Graph(True)
    with pytest.raises(DomainError, match="complete requires n >= 1"):
        make("complete", True)
    with pytest.raises(DomainError, match="bistar requires n >= 1"):
        make("bistar", 2, True)


def test_generate_dispatches_every_family():
    for family in FAMILIES:
        params = (4, 4) if family in ("complete_bipartite", "bistar") else (4,)
        g = generate(family, params)
        assert g.order > 0 and g.num_edges > 0
