import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import brute_force_chromatic_index, brute_force_chromatic_number, greedy_clique
from test_constructions import PETERSEN

import chromalab
from chromalab import families
from chromalab.coloring import (EdgeColoring, SearchBudget, VertexColoring, _clique, _dsatur,
                                _line_ranked, _rank, _ranked, chromatic_index, chromatic_number,
                                greedy_clique_lower_bound, is_k_colorable, validate_edge_coloring,
                                validate_vertex_coloring)
from chromalab.constructions import edge_color_complete
from chromalab.enumeration import all_labeled_graphs, graph_from_mask, vertex_pairs
from chromalab.errors import BudgetExceededError, DomainError
from chromalab.graphs import Graph, bipartition, disjoint_union, max_degree
from chromalab.linegraph import _line_pairs

#: Digest of ``_search_witness_digest`` for the DSATUR witnesses of the Δ-search.
SEARCH_WITNESS_DIGEST = "f0798b1eed6f953ffd55b9e7d4379977373811177925932da3e6b75c6d2d987d"
#: Digest of ``_chromatic_number_digest``: DSATUR witnesses and node counts.
CHROMATIC_NUMBER_DIGEST = "57722e5ddce0fe7613628bba19aff018f4784493de8c77a9f32d1f84b729561a"
#: Digest of ``_large_search_digest``: Δ-search witnesses and node counts.
LARGE_SEARCH_DIGEST = "b2c8ed72f733d70be92bfa61e28ae42e05b1aec7d1a50008759fd9d07e1334c5"
#: Digest of ``_chromatic_number_large_digest``: χ witnesses and node counts.
CHROMATIC_NUMBER_LARGE_DIGEST = "b58ed3e9d748e1a675bafa70e5720845f907a20fa178d6e08a18b7742a8532c3"


def odd_prism(n: int = 333) -> Graph:
    """C_n □ K_2: vertex i of one n-cycle is joined to vertex n + i of the other."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(n + i, n + (i + 1) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    return Graph(2 * n, edges)


def mycielski(k: int) -> Graph:
    """Mycielski graph M_k (M_2 = K_2): triangle-free, with χ = k."""
    n, edges = 2, [(0, 1)]
    for _ in range(k - 2):
        edges += ([(u, n + v) for u, v in edges] + [(v, n + u) for u, v in edges]
                  + [(n + i, 2 * n) for i in range(n)])
        n = 2 * n + 1
    return Graph(n, edges)


def queen(k: int) -> Graph:
    """The k×k queen graph: cells joined when they share a row, column or diagonal."""
    cells = [divmod(a, k) for a in range(k * k)]
    return Graph(k * k, [(a, b) for a in range(k * k) for b in range(a + 1, k * k)
                         if cells[a][0] == cells[b][0] or cells[a][1] == cells[b][1]
                         or abs(cells[a][0] - cells[b][0]) == abs(cells[a][1] - cells[b][1])])


def test_clique_lower_bound_examples():
    assert greedy_clique_lower_bound(families.complete(6)) == 6
    assert greedy_clique_lower_bound(families.cycle(5)) == 2
    assert greedy_clique_lower_bound(Graph(3)) == 1
    assert greedy_clique_lower_bound(Graph(0)) == 0


def test_clique_lower_bound_is_sound_exhaustive_leq5():
    for n in range(1, 6):
        for g in all_labeled_graphs(n):
            assert greedy_clique_lower_bound(g) <= chromatic_number(g).num_colors


def test_clique_lower_bound_matches_index_scan():
    """The clique grown on rank masks is the oracle's index-space greedy
    clique: same seed, same tie-break, on every labeled graph of order <= 5
    and on seeded G(n, p) up to n = 60."""
    for n in range(6):
        for g in all_labeled_graphs(n):
            assert greedy_clique_lower_bound(g) == greedy_clique(g)
    rng = random.Random(29)
    for n in range(1, 61):
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])
            assert greedy_clique_lower_bound(g) == greedy_clique(g)


def test_is_k_colorable_cycle5():
    assert is_k_colorable(families.cycle(5), 2) is None
    w = is_k_colorable(families.cycle(5), 3)
    assert w is not None and validate_vertex_coloring(families.cycle(5), w)


def test_is_k_colorable_zero_colors():
    assert is_k_colorable(Graph(0), 0) == VertexColoring((), 0)
    assert is_k_colorable(Graph(3), 0) is None
    with pytest.raises(DomainError):
        is_k_colorable(Graph(3), -1)
    for k in (1.5, 2.0, True):  # bool is not a color count
        with pytest.raises(DomainError, match="color count"):
            is_k_colorable(Graph(3), k)


def test_is_k_colorable_huge_k():
    # the saturation classes are sized by the order, not by k
    assert is_k_colorable(families.cycle(5), 10**12) == VertexColoring((0, 1, 0, 1, 2), 3)


def test_is_k_colorable_monotone():
    for g in (families.cycle(5), families.wheel(6), families.complete(4)):
        present = [is_k_colorable(g, k) is not None for k in range(g.order + 1)]
        assert present == sorted(present)  # once colorable, stays colorable


def test_chromatic_number_examples():
    assert chromatic_number(families.complete(5)).num_colors == 5
    assert chromatic_number(families.complete_bipartite(3, 3)).num_colors == 2
    assert chromatic_number(families.wheel(6)).num_colors == 4
    assert chromatic_number(families.cycle(6)).num_colors == 2
    assert chromatic_number(Graph(0)).num_colors == 0
    assert chromatic_number(Graph(4)).num_colors == 1


def test_chromatic_index_examples():
    assert chromatic_index(families.complete(4)).num_colors == 3
    assert chromatic_index(families.complete(5)).num_colors == 5
    assert chromatic_index(families.complete_bipartite(2, 3)).num_colors == 3
    b23 = families.bistar(2, 3)
    assert chromatic_index(b23).num_colors == brute_force_chromatic_index(b23) == 4
    with pytest.raises(DomainError):
        chromatic_index(Graph(3))


def test_validate_vertex_coloring():
    k3 = families.complete(3)
    assert validate_vertex_coloring(k3, VertexColoring((0, 1, 2), 3))
    assert not validate_vertex_coloring(k3, VertexColoring((0, 1, 1), 2))
    c4 = families.cycle(4)
    assert validate_vertex_coloring(c4, VertexColoring((0, 1, 0, 1), 2))
    # gap in the color indices
    assert not validate_vertex_coloring(c4, VertexColoring((0, 2, 0, 2), 3))
    # num_colors must match the used set
    assert not validate_vertex_coloring(c4, VertexColoring((0, 1, 0, 1), 3))
    # bool is not a color index
    assert not validate_vertex_coloring(families.complete(2), VertexColoring((False, True), 2))
    # bool is not a color count
    assert not validate_vertex_coloring(Graph(1), VertexColoring((0,), True))
    assert not validate_vertex_coloring(Graph(0), VertexColoring((), False))
    # a color count is never negative, even with no colors to use
    assert not validate_vertex_coloring(Graph(0), VertexColoring((), -1))
    # a negative color and a float color are not color indices
    assert not validate_vertex_coloring(families.complete(2), VertexColoring((-1, 0), 1))
    assert not validate_vertex_coloring(families.complete(2), VertexColoring((0, 1.0), 2))


def test_validate_edge_coloring():
    p3 = families.path(3)
    assert not validate_edge_coloring(p3, EdgeColoring({(0, 1): 0, (1, 2): 0}, 1))
    assert validate_edge_coloring(p3, EdgeColoring({(0, 1): 0, (1, 2): 1}, 2))
    # a 3-class perfect-matching partition of K_4
    k4 = families.complete(4)
    assert validate_edge_coloring(k4, edge_color_complete(4))
    # wrong edge set
    assert not validate_edge_coloring(p3, EdgeColoring({(0, 1): 0}, 1))
    assert not validate_edge_coloring(p3, EdgeColoring({(0, 1): False, (1, 2): True}, 2))
    assert not validate_edge_coloring(families.path(2), EdgeColoring({(0, 1): 0}, True))
    assert not validate_edge_coloring(Graph(3), EdgeColoring({}, -1))
    assert not validate_edge_coloring(p3, EdgeColoring({(0, 1): -1, (1, 2): 0}, 1))
    assert not validate_edge_coloring(p3, EdgeColoring({(0, 1): 0, (1, 2): 1.0}, 2))


def test_validators_reject_branches():
    """The oracles' reject branches: a vertex witness of the wrong length,
    an edgeless graph with a nonzero color count, and a color gap."""
    k3 = families.complete(3)
    assert not validate_vertex_coloring(k3, VertexColoring((0, 1), 2))
    assert not validate_vertex_coloring(k3, VertexColoring((0, 1, 2, 0), 3))
    edgeless = Graph(3)
    assert validate_edge_coloring(edgeless, EdgeColoring({}, 0))
    assert not validate_edge_coloring(edgeless, EdgeColoring({}, 1))
    p3 = families.path(3)
    assert not validate_edge_coloring(p3, EdgeColoring({(0, 1): 0, (1, 2): 2}, 3))


def test_witnesses_validate_and_use_stated_colors():
    rng = random.Random(5)
    graphs = [families.wheel(7), families.helm(5), families.bistar(3, 2)]
    for _ in range(30):
        n = rng.randint(1, 9)
        graphs.append(graph_from_mask(n, rng.randrange(1 << len(vertex_pairs(n)))))
    for g in graphs:
        w = chromatic_number(g)
        assert validate_vertex_coloring(g, w)
        if g.edges:
            ew = chromatic_index(g)
            assert validate_edge_coloring(g, ew)
            assert len(set(ew.color_of.values())) == ew.num_colors


def test_determinism():
    g = families.helm(5)
    assert chromatic_number(g) == chromatic_number(g)
    assert chromatic_index(g).assignment() == chromatic_index(g).assignment()


def test_oracle_equivalence_quick_leq4():
    for n in range(0, 5):
        for g in all_labeled_graphs(n):
            assert chromatic_number(g).num_colors == brute_force_chromatic_number(g)


def test_budget_exceeded():
    g = families.wheel(8)
    with pytest.raises(BudgetExceededError):
        chromatic_number(g, budget=1)
    with pytest.raises(BudgetExceededError):
        chromatic_index(g, budget=3)
    with pytest.raises(DomainError):
        SearchBudget(0)
    with pytest.raises(DomainError):
        SearchBudget(True)
    # a shared budget accumulates across calls
    bud = SearchBudget(10_000)
    chromatic_number(families.cycle(5), bud)
    assert 0 < bud.nodes <= 10_000


def _certified(g, budget=None):
    """chromatic_index(g) under a fresh budget; also returns the nodes it spent."""
    bud = SearchBudget(budget) if budget else SearchBudget()
    w = chromatic_index(g, bud)
    assert validate_edge_coloring(g, w)
    return w.num_colors, bud.nodes


def test_chromatic_index_bipartite_certificate():
    assert _certified(families.complete_bipartite(7, 6), budget=1) == (7, 0)
    b = families.bistar(2, 3)
    assert _certified(b, budget=1) == (brute_force_chromatic_index(b), 0)


def test_chromatic_index_overfull_certificate():
    assert _certified(families.complete(7), budget=1) == (7, 0)
    assert _certified(families.complete(9), budget=1) == (9, 0)
    k5 = families.complete(5)
    assert _certified(k5, budget=1) == (brute_force_chromatic_index(k5), 0)


def test_chromatic_index_max_degree_two_certificate():
    # Δ = 2 and not bipartite: paths and cycles, one of them odd, so Δ+1 is
    # exact.  None of these is overfull (m <= 2 * (n // 2))
    for k in (3, 5):
        g = disjoint_union([families.cycle(k), families.path(3)])
        assert _certified(g, budget=1) == (brute_force_chromatic_index(g), 0) == (3, 0)
    # long enough that a DSATUR search of its line graph would recurse too deep
    g = disjoint_union([families.cycle(1501), families.path(3)])
    assert _certified(g, budget=1) == (3, 0)


def test_chromatic_index_search_at_delta_backtracks():
    # class 1, but a DSATUR descent allowed Δ+1 colors ends with Δ+1 of
    # them, so only the search at k = Δ shows that Δ colors suffice
    g = Graph(6, [(0, 1), (0, 2), (0, 3), (0, 5), (1, 2), (1, 3), (1, 4), (2, 4), (3, 4)])
    colors, nodes = _certified(g)
    assert colors == brute_force_chromatic_index(g) == max_degree(g) == 4
    assert nodes > 0


def test_chromatic_index_exhausted_search_falls_back_to_misra_gries():
    k5_star4 = disjoint_union([families.complete(5), families.star(4)])
    for g, expected in ((PETERSEN, 4), (k5_star4, 5)):
        colors, nodes = _certified(g)
        assert colors == brute_force_chromatic_index(g) == expected
        assert nodes > 0  # the Δ-search ran and was exhausted


def _search_witness_digest() -> tuple[str, int]:
    """SHA-256 over chromatic_index(g).assignment() where the Δ-search answers.

    Every non-bipartite, non-overfull class-1 labeled graph of order <= 5,
    and wheel(n) for 4 <= n <= 12.  Returns the digest and the graph count.
    """
    h = hashlib.sha256()
    graphs = [g for n in range(2, 6) for g in all_labeled_graphs(n)
              if g.edges and bipartition(g) is None
              and g.num_edges <= max_degree(g) * (g.order // 2)]
    graphs += [families.wheel(n) for n in range(4, 13)]
    count = 0
    for g in graphs:
        w = chromatic_index(g)
        if w.num_colors == max_degree(g):
            h.update(repr(w.assignment()).encode())
            count += 1
    return h.hexdigest(), count


def test_search_witnesses_byte_stable():
    assert _search_witness_digest() == (SEARCH_WITNESS_DIGEST, 603)


def _large_search_digest() -> tuple[str, int, int]:
    """SHA-256 over chromatic_index's (assignment, nodes) on one seeded
    G(n, 1/2) for each 12 <= n <= 30, every one of which reaches the Δ-search.

    Pins the search on line graphs of up to 223 vertices, where the order
    of the line-graph pairs would show if it changed a pick or an undo.
    Returns the digest, the graph count and the total nodes.
    """
    rng = random.Random(4)
    h = hashlib.sha256()
    count = total = 0
    for n in range(12, 31):
        g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5])
        assert bipartition(g) is None and g.num_edges <= max_degree(g) * (n // 2)
        bud = SearchBudget()
        w = chromatic_index(g, bud)
        h.update(repr((w.assignment(), bud.nodes)).encode())
        count += 1
        total += bud.nodes
    return h.hexdigest(), count, total


def test_large_search_witnesses_and_nodes_byte_stable():
    # 2139 nodes over 2137 edges: one search backtracks
    assert _large_search_digest() == (LARGE_SEARCH_DIGEST, 19, 2139)


def _chromatic_number_digest() -> tuple[str, int]:
    """SHA-256 over chromatic_number's (color_of, nodes) and the nodes of the
    exhausted search at χ − 1, for every labeled graph of order 1 to 5.

    Pins DSATUR's pick order (saturation, then degree, then lowest index),
    its color order and its symmetry breaking.  Returns the digest and the
    graph count.
    """
    h = hashlib.sha256()
    count = 0
    for n in range(1, 6):
        for g in all_labeled_graphs(n):
            bud = SearchBudget()
            w = chromatic_number(g, bud)
            spent = bud.nodes
            bud = SearchBudget()
            assert is_k_colorable(g, w.num_colors - 1, bud) is None
            h.update(repr((w.color_of, spent, bud.nodes)).encode())
            count += 1
    return h.hexdigest(), count


def test_chromatic_number_witnesses_and_nodes_byte_stable():
    assert _chromatic_number_digest() == (CHROMATIC_NUMBER_DIGEST, 1099)


def _chromatic_number_large_digest() -> tuple[str, int, int]:
    """SHA-256 over chromatic_number's (color_of, nodes) and the nodes of the
    exhausted search at χ − 1, on two seeded G(n, 1/2) for each 12 <= n <= 40.

    These reach χ = 9, so the refutations at χ − 1 carry saturation counts
    up to 8, across four counter slices.  Returns the digest, the graph
    count and the total nodes.
    """
    rng = random.Random(2)
    h = hashlib.sha256()
    count = total = 0
    for n in range(12, 41):
        for _ in range(2):
            g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                          if rng.random() < 0.5])
            bud = SearchBudget()
            w = chromatic_number(g, bud)
            spent = bud.nodes
            bud = SearchBudget()
            assert is_k_colorable(g, w.num_colors - 1, bud) is None
            h.update(repr((w.color_of, spent, bud.nodes)).encode())
            count += 1
            total += spent + bud.nodes
    return h.hexdigest(), count, total


def test_chromatic_number_large_witnesses_and_nodes_byte_stable():
    assert _chromatic_number_large_digest() == (CHROMATIC_NUMBER_LARGE_DIGEST, 58, 8040)


def test_refutation_node_counts():
    for g, k, nodes in ((mycielski(5), 4, 895), (queen(6), 6, 330)):
        bud = SearchBudget()
        assert is_k_colorable(g, k, bud) is None
        assert bud.nodes == nodes


def test_chromatic_number_climbs_k_like_fresh_searches():
    """chromatic_number, climbing k from the clique bound, spends exactly the
    nodes of fresh is_k_colorable calls at each k up to χ, and returns the
    witness of the call at χ: on seeded G(n, 1/2), three for each n = 6..30,
    and on Mycielski-5 (clique 2, χ 5)."""
    rng = random.Random(41)
    graphs = [Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5])
              for n in range(6, 31) for _ in range(3)] + [mycielski(5)]
    refuted = 0
    for g in graphs:
        bud = SearchBudget()
        w = chromatic_number(g, bud)
        fresh = 0
        for k in range(greedy_clique_lower_bound(g), w.num_colors + 1):
            rung = SearchBudget()
            witness = is_k_colorable(g, k, rung)
            fresh += rung.nodes
            refuted += witness is None
        assert (w, bud.nodes) == (witness, fresh)
    assert refuted == 59  # 56 rungs on G(n, 1/2), and k = 2, 3, 4 on Mycielski-5


def _dsatur_run(degree, pairs, k):
    bud, vertex = SearchBudget(), _rank(degree)
    return _dsatur(vertex, _ranked(vertex, pairs), k, bud), bud.nodes


def test_dsatur_ignores_pair_order():
    """Shuffled pairs, some with swapped endpoints, give the same witness
    and node count: on G(n, 1/2) at k = χ − 1 and k = χ, and on L(G)'s
    pairs at k = Δ."""
    rng = random.Random(13)
    cases = []
    for n in range(8, 17):
        g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5])
        chi, deg = chromatic_number(g).num_colors, g.degrees
        cases += [(deg, g.edges, chi - 1), (deg, g.edges, chi),
                  ([deg[a] + deg[b] - 2 for a, b in g.edges], tuple(_line_pairs(g)), max(deg))]
    for degree, pairs, k in cases:
        expected = _dsatur_run(degree, pairs, k)
        for _ in range(3):
            shuffled = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]
            rng.shuffle(shuffled)
            assert _dsatur_run(degree, shuffled, k) == expected
    # both outcomes occur, so the check covers refutations and witnesses
    outcomes = {_dsatur_run(degree, pairs, k)[0] is None for degree, pairs, k in cases}
    assert outcomes == {True, False}


def test_line_masks_from_incidence_match_line_pairs():
    """The Δ-search's masks, ORed from g's incidence masks, are exactly the
    masks of L(g)'s pairs from ``_line_pairs``: on every labeled graph of
    order <= 6, and on seeded G(n, p) with n <= 60 and p across (0, 1), where
    isolated vertices and pieces with Δ <= 2 occur."""
    def from_pairs(g):
        deg = g.degrees
        vertex = _rank([deg[a] + deg[b] - 2 for a, b in g.edges])
        return vertex, _ranked(vertex, _line_pairs(g))

    graphs = [g for n in range(7) for g in all_labeled_graphs(n)]
    rng = random.Random(53)
    for _ in range(300):
        n, p = rng.randint(1, 60), rng.random()
        graphs.append(Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                if rng.random() < p]))
    for g in graphs:
        assert _line_ranked(g) == from_pairs(g)
    assert any(0 in g.degrees and max(g.degrees) > 2 for g in graphs[-300:])
    assert any(0 < max(g.degrees) <= 2 for g in graphs[-300:])


def _bipartite_sample(rng: random.Random, n: int) -> Graph:
    """Random sides, about a fifth of the vertices isolated, sparse cross
    edges (often several components), and in three of ten draws one edge
    inside a side, which may close an odd cycle."""
    side = [rng.choice((0, 1, 1, 0, None)) for _ in range(n)]
    p = rng.uniform(0.5, 3) / n
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
             if side[u] is not None and side[v] is not None]
    edges = [(u, v) for u, v in pairs if side[u] != side[v] and rng.random() < p]
    inside = [(u, v) for u, v in pairs if side[u] == side[v]]
    if inside and rng.random() < 0.3:
        edges.append(rng.choice(inside))
    return Graph(n, edges)


def test_two_colored_is_dsatur_at_two_colors():
    """chromatic_number returns the bare ladder's witness and node count,
    the ladder climbing k from the greedy clique bound: the BFS
    two-coloring, tried first on every graph with an edge, answers
    bipartite input with DSATUR's k = 2 witness, and on an odd cycle it
    charges no node before the search runs.  Checked on every labeled
    graph of order <= 6, on seeded bipartite graphs with n <= 80, and on a
    path and a cycle of 5000 vertices with shuffled labels, so the
    rank-order roots are checked on long inputs."""
    rng = random.Random(61)
    graphs = [g for n in range(7) for g in all_labeled_graphs(n)]
    graphs += [_bipartite_sample(rng, rng.randint(7, 80)) for _ in range(400)]
    for g in (families.path(5000), families.cycle(5000)):
        # vertex 0 stays at one end of the path, where index order would
        # root it but rank order roots at a vertex of degree 2
        label = list(range(1, g.order))
        rng.shuffle(label)
        label.insert(0, 0)
        graphs.append(Graph(g.order, [(label[u], label[v]) for u, v in g.edges]))
    outcomes, seeded = set(), set()
    for g in graphs:
        vertex = _rank(g.degrees)
        adj = _ranked(vertex, g.edges)
        layered, searched = SearchBudget(), SearchBudget()
        w = chromatic_number(g, layered)
        k = _clique(adj)
        while (witness := _dsatur(vertex, adj, k, searched)) is None:
            k += 1
        assert w == witness
        assert layered.nodes == searched.nodes
        refuted = w.num_colors > 2
        outcomes.add(refuted)
        if g.order > 6:
            # fewer edges than a spanning tree of the non-isolated vertices
            touched = sum(d > 0 for d in g.degrees)
            seeded.add((refuted, touched < g.order, g.num_edges < touched - 1))
    assert outcomes == {True, False}
    # the seeded draws include odd cycles, and 2-colorings with isolated
    # vertices next to several components with edges
    assert any(refuted for refuted, _, _ in seeded)
    assert (False, True, True) in seeded


def test_two_colored_charges_one_node_per_vertex():
    """A bipartite answer costs n nodes: n fit, n - 1 raise at node n,
    on a fresh budget and on one shared by two calls."""
    for g in (families.path(50), families.cycle(50)):
        bud = SearchBudget(49)
        with pytest.raises(BudgetExceededError):
            chromatic_number(g, bud)
        assert bud.nodes == 50
        bud = SearchBudget(50)
        assert chromatic_number(g, bud).num_colors == 2
        assert bud.nodes == 50
    shared = SearchBudget(99)
    chromatic_number(families.path(50), shared)
    with pytest.raises(BudgetExceededError):
        chromatic_number(families.cycle(50), shared)
    assert shared.nodes == 100
    shared = SearchBudget(100)
    for g in (families.path(50), families.cycle(50)):
        assert chromatic_number(g, shared).num_colors == 2
    assert shared.nodes == 100


def test_search_on_exhausted_budget_raises_at_its_next_node():
    """The search counts nodes locally; past the limit it leaves the count
    SearchBudget.spend leaves, also on a budget that has raised before."""
    bud = SearchBudget(2)
    for nodes in (3, 4):
        with pytest.raises(BudgetExceededError, match="more than 2 search nodes"):
            is_k_colorable(families.complete(4), 4, bud)
        assert bud.nodes == nodes


def _raises_budget(charge) -> bool:
    try:
        charge()
    except BudgetExceededError:
        return True
    return False


def test_spend_many_counts_like_single_spends():
    """spend(n) raises, and leaves ``nodes``, as n calls of spend() do, also
    on a budget that has raised before."""
    for limit in (1, 3, 5):
        for before in range(limit + 3):
            for n in range(1, 7):
                one, many = SearchBudget(limit), SearchBudget(limit)
                one.nodes = many.nodes = before
                raised = _raises_budget(lambda: [one.spend() for _ in range(n)])
                assert _raises_budget(lambda: many.spend(n)) == raised, (limit, before, n)
                assert many.nodes == one.nodes, (limit, before, n)


def test_deep_searches_need_no_recursion():
    # each search is as deep as the graph's order, past the recursion limit
    for g, colors, nodes in ((families.cycle(5000), 2, 5000),
                             (families.cycle(5001), 3, 10001),
                             (families.path(5000), 2, 5000)):
        assert g.order > sys.getrecursionlimit()
        bud = SearchBudget()
        w = chromatic_number(g, bud)
        assert (w.num_colors, bud.nodes) == (colors, nodes)
        assert validate_vertex_coloring(g, w)
    # odd prism: not bipartite, Δ = 3, not overfull, so χ′ runs the Δ-search
    # on its 999-vertex line graph
    g = odd_prism()
    assert (g.order, g.num_edges) == (666, 999)
    assert _certified(g) == (3, 999)


@pytest.mark.parametrize("module", ["chromalab.coloring", "chromalab.constructions",
                                    "chromalab.claims"])
def test_module_imports_first_in_fresh_interpreter(module):
    src = str(Path(chromalab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", f"import {module}"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
