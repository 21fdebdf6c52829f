import random
from math import comb

from oracles import brute_force_line_graph, component_starts, sorted_line_pairs
from test_graphs import assert_validated_form

from chromalab import families
from chromalab.cli import run
from chromalab.coloring import chromatic_number
from chromalab.enumeration import all_labeled_graphs
from chromalab.graphs import Graph, complement, format_edge_list, max_degree, parse_edge_list
from chromalab.linegraph import _line_pairs, line_graph


def test_star_line_graph_is_complete():
    lg = line_graph(families.star(3))
    assert lg.graph == families.complete(3)
    assert lg.edge_of_vertex == ((0, 1), (0, 2), (0, 3))


def test_path_line_graph_shifts_down():
    assert line_graph(families.path(4)).graph == families.path(3)


def test_edgeless_source():
    lg = line_graph(Graph(5))
    assert lg.graph == Graph(0)
    assert lg.edge_of_vertex == ()


def test_bistar_line_graph_two_cliques_sharing_center():
    # B_{2,3} edges in canonical order: (0,1) central, then (0,2),(0,3)
    # at one center and (1,4),(1,5),(1,6) at the other
    g = families.bistar(2, 3)
    lg = line_graph(g)
    assert lg.edge_of_vertex == ((0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (1, 6))
    clique_a = {0, 1, 2}       # edges through vertex 0 -> K_3
    clique_b = {0, 3, 4, 5}    # edges through vertex 1 -> K_4
    expected = set()
    for block in (clique_a, clique_b):
        expected |= {(i, j) for i in block for j in block if i < j}
    assert set(lg.graph.edges) == expected
    assert clique_a & clique_b == {0}


def test_edge_count_formula_exhaustive_leq6():
    for n in range(0, 7):
        for g in all_labeled_graphs(n):
            lg = line_graph(g)
            assert lg.graph.order == g.num_edges
            assert lg.graph.num_edges == sum(comb(d, 2) for d in g.degrees)
            assert sorted(lg.edge_of_vertex) == list(g.edges)


def test_cycle_line_graph_is_cycle():
    for n in range(3, 9):
        lg = line_graph(families.cycle(n)).graph
        assert lg.order == n and lg.num_edges == n
        assert all(d == 2 for d in lg.degrees)
        assert len(component_starts(lg)) == 1


def test_line_graph_chromatic_number_within_vizing_band_leq5():
    for n in range(2, 6):
        for g in all_labeled_graphs(n):
            if not g.edges:
                continue
            chi_l = chromatic_number(line_graph(g).graph).num_colors
            assert max_degree(g) <= chi_l <= max_degree(g) + 1


def test_line_graph_matches_pairwise_definition():
    rng = random.Random(31)
    graphs = [Graph(0), Graph(1), Graph(7)]
    for _ in range(150):
        n = rng.randint(0, 16)
        p = rng.choice((0.0, 0.2, 0.5, 0.9))
        graphs.append(Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                if rng.random() < p]))
    for g in graphs:
        lg = line_graph(g)
        assert lg.graph == brute_force_line_graph(g)
        assert lg.edge_of_vertex == g.edges
        for h in (lg.graph, complement(g), parse_edge_list(format_edge_list(g))):
            assert_validated_form(h)


def test_line_pairs_are_the_line_graph_edges_once_each():
    rng = random.Random(37)
    for _ in range(150):
        n = rng.randint(0, 14)
        p = rng.choice((0.0, 0.3, 0.6, 0.9))
        g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])
        pairs = list(_line_pairs(g))
        assert len(pairs) == len(set(pairs))
        assert all(i < j for i, j in pairs)
        assert sorted(pairs) == list(brute_force_line_graph(g).edges)
        # L(G)'s vertex (a, b) has degree deg(a) + deg(b) - 2, which the Δ-search ranks by
        lg_degree = [0] * g.num_edges
        for i, j in pairs:
            lg_degree[i] += 1
            lg_degree[j] += 1
        assert lg_degree == [g.degrees[a] + g.degrees[b] - 2 for a, b in g.edges]


def test_line_pairs_come_in_sorted_order():
    """The pairs are generated in lexicographic order, the order that sorting
    every pair gives, so L(G) needs no sort."""
    rng = random.Random(41)
    graphs = [g for n in range(6) for g in all_labeled_graphs(n)]
    for _ in range(300):
        n = rng.randrange(60)
        p = rng.random()
        graphs.append(Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                if rng.random() < p]))
    graphs += [families.star(k) for k in (1, 2, 3, 50)]
    graphs.append(Graph(10**12, [(0, 10**12 - 1)]))
    for g in graphs:
        assert list(_line_pairs(g)) == sorted_line_pairs(g)


def test_linegraph_command_writes_format_of_line_graph(tmp_path, capsys):
    """The command writes L(G) as its pairs come, never building it; the
    bytes are those of the built line graph, on files with comments, blank
    lines, reversed pairs and edges in any order."""
    rng = random.Random(43)
    path = tmp_path / "g.txt"
    for _ in range(40):
        n = rng.randint(0, 30)
        p = rng.choice((0.0, 0.1, 0.4, 0.9))
        edges = [(j, i) if rng.random() < 0.5 else (i, j)
                 for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        rng.shuffle(edges)
        lines = [f"{u} {v}" for u, v in edges] + ["# a comment", "", "  "]
        rng.shuffle(lines)
        path.write_text(f"# random G({n}, {p})\n{n} {len(edges)}\n" + "\n".join(lines) + "\n")
        assert run(["linegraph", str(path)]) == 0
        expected = format_edge_list(line_graph(parse_edge_list(path.read_text())).graph)
        assert capsys.readouterr().out == expected


def test_linegraph_of_one_edge_at_order_10_to_12(tmp_path, capsys):
    """Incidence lists are kept for edge endpoints only, so one edge between
    vertices 10^12 apart gives L(G) = K_1 at once."""
    path = tmp_path / "wide.txt"
    path.write_text("1000000000000 1\n999999999999 0\n")
    assert run(["linegraph", str(path)]) == 0
    assert capsys.readouterr().out == "1 0\n"
