import ast
import hashlib
import random
from pathlib import Path

import pytest

from chromalab import constructions, families
from chromalab.coloring import chromatic_index, validate_edge_coloring
from chromalab.constructions import (edge_color_bipartite_konig,
                                     edge_color_complete, edge_color_fan,
                                     edge_color_helm, edge_color_misra_gries,
                                     edge_color_wheel)
from chromalab.enumeration import all_labeled_graphs
from chromalab.errors import ConstructionInfeasibleError, DomainError
from chromalab.graphs import Graph, bipartition, max_degree

PETERSEN = Graph(10, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
                      (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
                      (5, 7), (7, 9), (6, 9), (6, 8), (5, 8)])

#: Digest of ``_witness_digest`` for the witnesses the constructions give today.
WITNESS_DIGEST = "2e6b10def36b9fa91612f1c68dcb531cf718ac05549c3f8f9f935e8eda1ec181"

#: Digest of ``_order6_digest``: every insertion witness at order 6.
ORDER6_DIGEST = "4a5a5c9d4d128e8770ddd2178d870ed3e12440b168cbc48ab176d84951cf8fba"


def _random_bipartite(rng, max_order=20):
    while True:
        n = rng.randint(2, max_order)
        sides = [rng.randint(0, 1) for _ in range(n)]
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if sides[i] != sides[j] and rng.random() < 0.5]
        if edges:
            return Graph(n, edges)


def _random_graph(rng, max_order=20):
    while True:
        n = rng.randint(2, max_order)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.4]
        if edges:
            return Graph(n, edges)


def test_complete_even_gives_perfect_matchings():
    c = edge_color_complete(4)
    assert c.num_colors == 3
    assert validate_edge_coloring(families.complete(4), c)
    for color in range(3):
        cls = [e for e, col in c.color_of.items() if col == color]
        assert len(cls) == 2
        assert sorted(v for e in cls for v in e) == [0, 1, 2, 3]


def test_complete_odd_and_tiny():
    c3 = edge_color_complete(3)
    assert c3.num_colors == 3
    assert sorted(c3.color_of.values()) == [0, 1, 2]  # one edge per color
    assert edge_color_complete(2).num_colors == 1
    with pytest.raises(DomainError):
        edge_color_complete(1)


def test_complete_sweep():
    for n in range(2, 13):
        c = edge_color_complete(n)
        assert validate_edge_coloring(families.complete(n), c)
        assert c.num_colors == (n - 1 if n % 2 == 0 else n)


def test_konig_examples():
    assert edge_color_bipartite_konig(families.complete_bipartite(2, 3)).num_colors == 3
    assert edge_color_bipartite_konig(families.path(4)).num_colors == 2
    b = families.bistar(2, 3)
    c = edge_color_bipartite_konig(b)
    assert c.num_colors == 4 and validate_edge_coloring(b, c)


def test_konig_rejects_bad_inputs():
    with pytest.raises(DomainError):
        edge_color_bipartite_konig(families.cycle(5))
    with pytest.raises(DomainError):
        edge_color_bipartite_konig(Graph(4))


def test_konig_exact_on_random_bipartite():
    rng = random.Random(11)
    for _ in range(60):
        g = _random_bipartite(rng)
        c = edge_color_bipartite_konig(g)
        assert validate_edge_coloring(g, c)
        assert c.num_colors == max_degree(g)


def test_wheel_rule():
    c = edge_color_wheel(4)
    assert c.num_colors == 3
    assert c.color_of[(1, 2)] == 2  # rim edge between the first two rim vertices
    assert validate_edge_coloring(families.wheel(4), c)
    c7 = edge_color_wheel(7)
    assert c7.num_colors == 6 and validate_edge_coloring(families.wheel(7), c7)
    with pytest.raises(DomainError):
        edge_color_wheel(3)


def test_helm_rule_and_infeasible_case():
    for n in (4, 5):
        c = edge_color_helm(n)
        assert c.num_colors == n and validate_edge_coloring(families.helm(n), c)
    with pytest.raises(ConstructionInfeasibleError) as err:
        edge_color_helm(3)
    assert err.value.exact_colors == 4
    assert validate_edge_coloring(families.helm(3), err.value.exact_coloring)
    with pytest.raises(DomainError):
        edge_color_helm(2)


def test_fan_rule_and_infeasible_case():
    for n in (3, 4):
        c = edge_color_fan(n)
        assert c.num_colors == n and validate_edge_coloring(families.fan(n), c)
    with pytest.raises(ConstructionInfeasibleError) as err:
        edge_color_fan(2)
    assert err.value.exact_colors == 3
    with pytest.raises(DomainError):
        edge_color_fan(1)


def test_rules_check_their_domain():
    # a float n is outside every rule's domain, not a range() TypeError
    for rule, n in ((edge_color_complete, 4.0), (edge_color_wheel, 4.0),
                    (edge_color_helm, 4.0), (edge_color_fan, 3.0)):
        with pytest.raises(DomainError):
            rule(n)
    # below the minimum, the family rules use the family's own message
    with pytest.raises(DomainError, match=r"edge_color_complete requires n >= 2 \(got n=1\)"):
        edge_color_complete(1)
    with pytest.raises(DomainError, match=r"^wheel requires n >= 4 \(got n=3\)$"):
        edge_color_wheel(3)
    with pytest.raises(DomainError, match=r"^helm requires n >= 3 \(got n=2\)$"):
        edge_color_helm(2)
    with pytest.raises(DomainError, match=r"^fan requires n >= 2 \(got n=1\)$"):
        edge_color_fan(1)
    # the infeasible points carry their exact coloring
    for rule, n, graph, exact in ((edge_color_helm, 3, families.helm(3), 4),
                                  (edge_color_fan, 2, families.fan(2), 3)):
        with pytest.raises(ConstructionInfeasibleError) as err:
            rule(n)
        assert err.value.exact_colors == exact
        assert validate_edge_coloring(graph, err.value.exact_coloring)


def test_family_rules_sweep_to_12():
    for n in range(4, 13):
        assert edge_color_wheel(n).num_colors == n - 1
        assert validate_edge_coloring(families.wheel(n), edge_color_wheel(n))
        assert edge_color_helm(n).num_colors == n
        assert validate_edge_coloring(families.helm(n), edge_color_helm(n))
    for n in range(3, 13):
        assert edge_color_fan(n).num_colors == n
        assert validate_edge_coloring(families.fan(n), edge_color_fan(n))


def test_constructions_agree_with_exact_solver():
    for n in range(4, 10):
        assert edge_color_wheel(n).num_colors == chromatic_index(families.wheel(n)).num_colors
    for n in range(4, 9):
        assert edge_color_helm(n).num_colors == chromatic_index(families.helm(n)).num_colors
    for n in range(3, 10):
        assert edge_color_fan(n).num_colors == chromatic_index(families.fan(n)).num_colors


def test_misra_gries_examples():
    c = edge_color_misra_gries(PETERSEN)
    assert validate_edge_coloring(PETERSEN, c) and c.num_colors <= 4
    assert edge_color_misra_gries(families.cycle(4)).num_colors == 2
    assert edge_color_misra_gries(families.complete(2)).num_colors == 1
    with pytest.raises(DomainError):
        edge_color_misra_gries(Graph(2))


def test_misra_gries_random_within_vizing_bound():
    rng = random.Random(12)
    for _ in range(60):
        g = _random_graph(rng)
        c = edge_color_misra_gries(g)
        assert validate_edge_coloring(g, c)
        assert c.num_colors <= max_degree(g) + 1


def test_misra_gries_deterministic():
    g = _random_graph(random.Random(99))
    assert edge_color_misra_gries(g).assignment() == edge_color_misra_gries(g).assignment()


def _witness_digest() -> str:
    """SHA-256 over the (method, num_colors, assignment) of a fixed witness set.

    Misra-Gries on every labeled graph with edges up to order 5 and on 100
    seeded random graphs of order 6-30 (every other one drawn bipartite),
    Konig on the bipartite ones among them, and the complete, wheel, helm
    and fan rules for n <= 40.
    """
    h = hashlib.sha256()

    def feed(tag, w):
        h.update(repr((tag, w.num_colors, w.assignment())).encode())

    graphs = [g for n in range(2, 6) for g in all_labeled_graphs(n) if g.edges]
    rng = random.Random(2014)
    for i in range(100):
        n = rng.randint(6, 30)
        side = [rng.randint(0, 1) for _ in range(n)] if i % 2 else None
        p = rng.choice((0.15, 0.3, 0.5))
        edges = [(a, b) for a in range(n) for b in range(a + 1, n)
                 if (side is None or side[a] != side[b]) and rng.random() < p]
        graphs.append(Graph(n, edges or [(0, 1)]))
    for g in graphs:
        feed("misra-gries", edge_color_misra_gries(g))
        if bipartition(g) is not None:
            feed("konig", edge_color_bipartite_konig(g))
    for n in range(2, 41):
        feed("complete", edge_color_complete(n))
    for n in range(4, 41):
        feed("wheel", edge_color_wheel(n))
        feed("helm", edge_color_helm(n))
    for n in range(3, 41):
        feed("fan", edge_color_fan(n))
    return h.hexdigest()


def test_construction_witnesses_byte_stable():
    assert _witness_digest() == WITNESS_DIGEST


def _order6_digest() -> str:
    """SHA-256 over the (method, num_colors, assignment) of Misra-Gries on
    each of the 32,767 labeled graphs of order 6 with an edge, and of Konig
    on the bipartite ones among them, so every flip and rotation at order 6
    is pinned."""
    h = hashlib.sha256()
    for g in all_labeled_graphs(6):
        if not g.edges:
            continue
        w = edge_color_misra_gries(g)
        h.update(repr(("misra-gries", w.num_colors, w.assignment())).encode())
        if bipartition(g) is not None:
            w = edge_color_bipartite_konig(g)
            h.update(repr(("konig", w.num_colors, w.assignment())).encode())
    return h.hexdigest()


def test_order6_insertion_witnesses_byte_stable():
    assert _order6_digest() == ORDER6_DIGEST


def test_constructions_import_nothing_from_coloring():
    # coloring imports constructions, so an import back would be a cycle
    tree = ast.parse(Path(constructions.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        assert not any(name.split(".")[-1] == "coloring" for name in names), ast.dump(node)
