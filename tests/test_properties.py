"""Property tests of the exact solvers on small random graphs.

The solvers are checked against the independent oracles in ``oracles.py``
and against three identities: χ and χ′ do not depend on vertex labels,
χ(G ∪ H) = max(χ(G), χ(H)) and χ(G + H) = χ(G) + χ(H).  Examples are
derandomized, so every run draws the same graphs.
"""

from itertools import combinations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from oracles import brute_force_chromatic_index, brute_force_chromatic_number

from chromalab.coloring import (chromatic_index, chromatic_number, is_k_colorable,
                                validate_edge_coloring, validate_vertex_coloring)
from chromalab.graphs import Graph, disjoint_union, join

FIXED = settings(derandomize=True, deadline=None, database=None, max_examples=200)


@st.composite
def graphs(draw, max_order: int = 6) -> Graph:
    n = draw(st.integers(0, max_order))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [p for p, k in zip(pairs, keep) if k])


@st.composite
def bipartite_graphs(draw, max_order: int = 10) -> Graph:
    """Random sides and random cross edges, so pieces may be disconnected
    and vertices isolated: input that ``graphs()`` rarely draws past order 4."""
    n = draw(st.integers(0, max_order))
    side = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    pairs = [(u, v) for u, v in combinations(range(n), 2) if side[u] != side[v]]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [p for p, k in zip(pairs, keep) if k])


@FIXED
@given(graphs(), bipartite_graphs())
def test_chromatic_number_matches_oracle(g, b):
    for h in (g, b):
        w = chromatic_number(h)
        assert validate_vertex_coloring(h, w)
        assert w.num_colors == brute_force_chromatic_number(h)


@FIXED
@given(graphs())
def test_is_k_colorable_at_every_k(g):
    # None exactly below χ; at and above it, a valid witness within k colors
    chi = brute_force_chromatic_number(g)
    for k in range(g.order + 2):
        w = is_k_colorable(g, k)
        if k < chi:
            assert w is None
        else:
            assert w is not None and validate_vertex_coloring(g, w)
            assert w.num_colors <= k


@FIXED
@given(graphs())
def test_chromatic_index_matches_oracle(g):
    if g.edges:
        w = chromatic_index(g)
        assert validate_edge_coloring(g, w)
        assert w.num_colors == brute_force_chromatic_index(g)


@FIXED
@given(graphs().flatmap(lambda g: st.tuples(st.just(g), st.permutations(range(g.order)))))
def test_relabeling_keeps_chi_and_chi_index(case):
    g, perm = case
    h = Graph(g.order, [(perm[u], perm[v]) for u, v in g.edges])
    assert chromatic_number(h).num_colors == chromatic_number(g).num_colors
    if g.edges:
        assert chromatic_index(h).num_colors == chromatic_index(g).num_colors


@FIXED
@given(graphs(), graphs())
def test_chi_of_disjoint_union_is_max(g, h):
    union = disjoint_union([g, h])
    w = chromatic_number(union)
    assert validate_vertex_coloring(union, w)
    assert w.num_colors == max(chromatic_number(g).num_colors, chromatic_number(h).num_colors)


@FIXED
@given(graphs(), graphs())
def test_chi_of_join_is_sum(g, h):
    both = join(g, h)
    w = chromatic_number(both)
    assert validate_vertex_coloring(both, w)
    assert w.num_colors == chromatic_number(g).num_colors + chromatic_number(h).num_colors
