import random
from collections import Counter

import pytest

from oracles import (bipartite_by_side_enumeration, component_starts,
                     connected_bipartite_by_filter)

from chromalab import families
from chromalab.coloring import chromatic_index, chromatic_number
from chromalab.enumeration import (all_labeled_graphs, connected_bipartite_graphs,
                                   graph_from_mask, vertex_pairs)
from chromalab.errors import DomainError, EdgeListFormatError
from chromalab.graphs import (Graph, bipartition, complement, disjoint_union,
                              format_edge_list, join, max_degree, parse_edge_list)
from chromalab.linegraph import line_graph


def assert_validated_form(h: Graph) -> None:
    """h, built without edge validation, equals the graph validation gives."""
    checked = Graph(h.order, h.edges)
    assert h == checked and hash(h) == hash(checked)
    assert type(h.edges) is tuple


def test_graph_canonicalization():
    g = Graph(4, [(2, 0), (0, 2), (1, 3)])
    assert g.edges == ((0, 2), (1, 3))
    assert g.has_edge(2, 0) and not g.has_edge(0, 1)
    # out-of-range vertices are absent: -1 must not wrap around to vertex 2
    h = Graph(3, [(0, 2), (1, 2)])
    for u, v in ((-1, 2), (0, 5), (-1, 0), (0, -1), (5, 0)):
        assert not h.has_edge(u, v), (u, v)


def test_graph_rejects_bad_edges():
    with pytest.raises(DomainError):
        Graph(3, [(0, 0)])
    with pytest.raises(DomainError):
        Graph(3, [(0, 3)])
    with pytest.raises(DomainError):
        Graph(-1, [])
    # bool subclasses int, but format_edge_list would write "True", which
    # parse_edge_list rejects, so the round trip would break
    with pytest.raises(DomainError, match="graph order"):
        Graph(True)
    with pytest.raises(DomainError, match="non-integer endpoints"):
        Graph(3, [(True, 2)])
    with pytest.raises(DomainError, match="non-integer endpoints"):
        Graph(3, [(1, False)])
    # the enumerators build graphs without validation, so they check the order
    with pytest.raises(DomainError, match="graph order"):
        graph_from_mask(-1, 0)
    with pytest.raises(DomainError, match="graph order"):
        next(all_labeled_graphs(True))


def test_graph_rejects_edges_that_are_not_pairs():
    for item in ((0,), (0, 1, 2), 5):
        with pytest.raises(DomainError, match="is not a pair of vertices"):
            Graph(3, [item])


def test_complement_complete_is_empty():
    assert complement(families.complete(4)) == Graph(4)


def test_complement_c5():
    c5 = families.cycle(5)
    assert complement(c5).edges == ((0, 2), (0, 3), (1, 3), (1, 4), (2, 4))


def test_complement_involution_path():
    p6 = families.path(6)
    assert complement(complement(p6)) == p6


def test_complement_involution_and_edge_count_exhaustive():
    for n in range(0, 6):
        total = n * (n - 1) // 2
        for g in all_labeled_graphs(n):
            co = complement(g)
            assert complement(co) == g
            assert g.num_edges + co.num_edges == total


def test_trusted_graphs_equal_validated_form_exhaustive_leq6():
    for n in range(0, 7):
        for mask, g in enumerate(all_labeled_graphs(n)):
            # the edge list again, last edge first and each pair reversed
            backwards = f"{n} {g.num_edges}\n" + "".join(f"{v} {u}\n" for u, v in g.edges[::-1])
            for h in (g, graph_from_mask(n, mask), complement(g), line_graph(g).graph,
                      parse_edge_list(format_edge_list(g)), parse_edge_list(backwards)):
                assert_validated_form(h)
            assert graph_from_mask(n, mask) == parse_edge_list(backwards) == g


def test_generated_graphs_equal_validated_form():
    """Family generators, join and disjoint_union build without edge
    validation, so each must write its edges canonically itself."""
    for name, fam in families.FAMILY_TABLE.items():
        if len(fam.mins) == 1:
            points = [(n,) for n in range(fam.mins[0], 31)]
        else:
            points = [(m, n) for m in range(fam.mins[0], 11) for n in range(fam.mins[1], 11)]
        for params in points:
            assert_validated_form(families.generate(name, params))
    small = [g for n in range(4) for g in all_labeled_graphs(n)]
    for g in small:
        for h in small:
            assert_validated_form(join(g, h))
            assert_validated_form(disjoint_union([g, h, g]))


def test_graph_holds_only_its_order_and_edges():
    """A Graph caches nothing: after the solvers and complement read its
    degrees and edges, it still holds exactly its order and edges."""
    g = families.wheel(7)
    chromatic_number(g), chromatic_index(g), complement(g)
    assert vars(g) == {"order": 7, "edges": g.edges}


def test_join_wheel_and_fan_counts():
    w = join(Graph(1), families.cycle(4))
    assert (w.order, w.num_edges) == (5, 8)
    f = join(Graph(1), families.path(4))
    assert (f.order, f.num_edges) == (5, 7)
    assert join(Graph(1), Graph(1)) == families.complete(2)


def test_join_hub_cycle_counts_sweep():
    for n in range(4, 41):
        g = join(Graph(1), families.cycle(n - 1))
        assert (g.order, g.num_edges) == (n, 2 * (n - 1))
        assert g == families.wheel(n)
        assert join(Graph(1), families.path(n - 1)) == families.fan(n - 1)


def test_disjoint_union():
    k2 = families.complete(2)
    g = disjoint_union([k2, k2])
    assert (g.order, g.num_edges) == (4, 2)
    assert g.edges == ((0, 1), (2, 3))
    g = disjoint_union([families.complete(3), Graph(1), Graph(1)])
    assert (g.order, g.num_edges) == (5, 3)
    assert disjoint_union([]) == Graph(0)


def test_max_degree():
    assert max_degree(families.complete(5)) == 4
    assert max_degree(families.helm(5)) == 5
    assert max_degree(families.bistar(2, 3)) == 4
    assert max_degree(Graph(3)) == 0
    assert max_degree(Graph(0)) == 0


def test_bipartition_examples():
    sides = bipartition(families.complete_bipartite(2, 3))
    assert sorted((sides.count(0), sides.count(1))) == [2, 3]
    assert bipartition(families.cycle(5)) is None
    assert bipartition(families.path(4)) == (0, 1, 0, 1)
    assert bipartition(Graph(0)) == ()


def _check_bipartition(g, sides):
    assert (sides is not None) == bipartite_by_side_enumeration(g)
    if sides is not None:
        assert len(sides) == g.order and all(sides[u] != sides[v] for u, v in g.edges)
        # the lowest-index vertex of every component lands on side 0; with
        # validity this fixes the whole tuple
        assert all(sides[v] == 0 for v in component_starts(g))


def test_bipartition_matches_enumeration_exhaustive_leq6():
    for n in range(1, 7):
        for g in all_labeled_graphs(n):
            _check_bipartition(g, bipartition(g))


def test_bipartition_matches_enumeration_sampled_order7():
    rng = random.Random(77)
    top = 1 << len(vertex_pairs(7))
    for _ in range(20000):
        g = graph_from_mask(7, rng.randrange(top))
        _check_bipartition(g, bipartition(g))


def _relabeled(g, label):
    return Graph(g.order, [(label[u], label[v]) for u, v in g.edges])


def test_bipartition_long_inputs():
    # root picks and top-down bit reads over 20000-bit masks, checked by
    # polynomial oracles instead of 2^n side assignments
    n, rng = 20000, random.Random(18)
    label = list(range(n))
    rng.shuffle(label)
    mid = label.index(0)
    label[mid], label[n // 2] = label[n // 2], 0  # the lowest index sits mid-path
    paths = disjoint_union([families.path(7001), families.path(6999), families.path(6000)])
    spread = list(range(n))
    rng.shuffle(spread)  # interleave the three components' labels
    for g in (families.path(n), families.cycle(n), _relabeled(families.path(n), label),
              paths, _relabeled(paths, spread)):
        sides = bipartition(g)
        assert len(sides) == g.order and all(sides[u] != sides[v] for u, v in g.edges)
        assert all(sides[v] == 0 for v in component_starts(g))
    assert bipartition(families.cycle(n + 1)) is None


def test_connected_bipartite_graphs_match_oracle_filter_leq5():
    assert list(connected_bipartite_graphs(5)) == [
        g for n in range(2, 6) for g in all_labeled_graphs(n)
        if len(component_starts(g)) == 1 and bipartite_by_side_enumeration(g)]


def test_connected_bipartite_graphs_match_labeled_filter_leq6():
    """Generated from their bipartition, the graphs come out as filtering
    every labeled graph gives them: the same graphs in the same order."""
    for max_order, count in enumerate((0, 1, 4, 23, 218, 3249), start=1):
        generated = list(connected_bipartite_graphs(max_order))
        assert generated == list(connected_bipartite_by_filter(max_order))
        assert len(generated) == count


def test_connected_bipartite_graphs_counts_a001832():
    counts = Counter(g.order for g in connected_bipartite_graphs(6))
    assert [counts[n] for n in range(2, 7)] == [1, 3, 19, 195, 3031]


def test_edge_list_rejects_negative_header():
    for text in ("-1 0\n", "3 -1\n"):
        with pytest.raises(EdgeListFormatError, match="must be non-negative") as err:
            parse_edge_list(text)
        assert err.value.line == 1


def test_edge_list_round_trip():
    for g in (families.wheel(6), Graph(3), families.bistar(2, 3), Graph(0)):
        assert parse_edge_list(format_edge_list(g)) == g


def test_edge_list_format_golden():
    assert format_edge_list(families.complete(3)) == "3 3\n0 1\n0 2\n1 2\n"
    assert format_edge_list(Graph(2)) == "2 0\n"


def test_edge_list_comments_and_reversed_pairs():
    g = parse_edge_list("# a triangle\n3 3\n1 0\n\n2 0\n# middle comment\n1 2\n")
    assert g == families.complete(3)


@pytest.mark.parametrize("text,bad_line", [
    ("", 1),
    ("3 2\n0 1\n", 2),            # input ends before the promised edges
    ("3 1\n0 1\n1 2\n", 3),       # excess edge line
    ("3 1\n0 1\nextra 1 2\n", 3),  # three tokens
    ("3 1\n0 1 2\n", 2),         # three integers
    ("3 1\n5\n", 2),             # one token
    ("3 1\n0 0\n", 2),            # self-loop
    ("3 1\n0 7\n", 2),            # out of range
    ("3 2\n0 1\n1 0\n", 3),       # duplicate after normalization
    ("x y\n", 1),                 # non-integer header
    ("99999999999999999999 0\n", 1),  # order past the platform's index range
])
def test_edge_list_errors_carry_line_numbers(text, bad_line):
    with pytest.raises(EdgeListFormatError) as err:
        parse_edge_list(text)
    assert err.value.line == bad_line
