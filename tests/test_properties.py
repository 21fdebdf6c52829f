"""Property tests of the exact solvers on small random graphs, and of the
audit's JSON writer on random rows.

The solvers are checked against the independent oracles in ``oracles.py``
and against three identities: χ and χ′ do not depend on vertex labels,
χ(G ∪ H) = max(χ(G), χ(H)) and χ(G + H) = χ(G) + χ(H).  The JSON report
is checked byte for byte against ``json.dumps``, and the edge-list parser
against the line-by-line parser of ``oracles.py`` on malformed files too.
Examples are derandomized, so every run draws the same inputs.
"""

import json
from itertools import combinations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from oracles import (brute_force_chromatic_index, brute_force_chromatic_number,
                     parse_edge_list_by_line)

from chromalab.claims import AuditRow, render_report
from chromalab.coloring import (chromatic_index, chromatic_number, is_k_colorable,
                                validate_edge_coloring, validate_vertex_coloring)
from chromalab.errors import EdgeListFormatError
from chromalab.graphs import Graph, disjoint_union, join, parse_edge_list

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


# quotes, backslashes, control characters, non-ASCII text and lone
# surrogates, which a draw from all of Unicode rarely hits
TEXT = st.text(st.one_of(st.characters(exclude_categories=()),
                         st.sampled_from('"\\\x00\x1f\x7f\u00e9\u2028\ud800\udfff\U0001f600')))
INTS = st.one_of(st.integers(), st.integers(min_value=2**64))


@st.composite
def audit_rows(draw) -> AuditRow:
    params = draw(st.lists(st.tuples(TEXT, st.one_of(INTS, TEXT)), max_size=3,
                           unique_by=lambda kv: kv[0]))
    return AuditRow(draw(TEXT), tuple(params), draw(st.one_of(st.none(), INTS)),
                    draw(st.one_of(st.none(), INTS, TEXT)), draw(TEXT), draw(TEXT), draw(TEXT))


@FIXED
@given(st.lists(audit_rows(), max_size=4))
def test_json_report_is_json_dumps(rows):
    payload = [{"claim": r.claim_id, "params": dict(r.params),
                "exact": r.exact, "claimed": r.claimed, "verdict": r.verdict,
                "witness": r.witness, "citation": r.citation} for r in rows]
    assert render_report(rows, "json") == json.dumps(payload, indent=2) + "\n"


# Unicode whitespace that str.split() and str.strip() both take as blank;
# line breaks such as "\x0b" or "\u2028" would split the line instead
BLANKS = st.sampled_from([" ", "\t", "\u00a0", "\u2003", "\u3000", "\x1f"])
BAD_INTS = st.sampled_from(["x", "1.5", "--1", "+1", "1_0", "\u0663", "0x1", "#", "99999999999999999999"])


@st.composite
def edge_list_files(draw) -> str:
    """A graph's edge list, pairs reversed at random, with comment, blank
    and whitespace-only lines, Unicode whitespace around and between the
    tokens, and up to two bad lines: a duplicate, reversed, out-of-range or
    self-loop pair, extra tokens, a bad integer or a lone token.  The
    header counts the two-token lines, mostly, and mostly comes first."""
    n = draw(st.integers(0, 6))
    vertex = st.integers(0, max(n - 1, 0))
    least = min(draw(st.sampled_from([0, 2, 4])), n * (n - 1) // 2)
    edges = draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]),
                          min_size=least, max_size=8, unique_by=lambda e: frozenset(e)))
    lines = [[str(u), str(v)] for u, v in edges]

    def insert(tokens):
        lines.insert(draw(st.integers(0, len(lines))), tokens)

    for _ in range(draw(st.integers(0, 3))):
        insert(draw(st.sampled_from([[], ["#"], ["#", "3", "1"], ["#note"]])))
    bad = st.one_of(
        st.sampled_from(lines or [["0", "1"]]).map(lambda t: t[::-1]),  # duplicate
        vertex.map(lambda v: [str(v), str(v)]),  # self-loop
        st.tuples(vertex, st.sampled_from([-1, n])).map(lambda e: [str(e[0]), str(e[1])]),
        st.lists(st.one_of(vertex.map(str), BAD_INTS), min_size=1, max_size=3))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        insert(draw(bad))
    pairs = sum(len(t) == 2 and t[0] != "#" for t in lines)
    count = draw(st.sampled_from([pairs] * 6 + [pairs + 1, max(pairs - 1, 0), -1]))
    lines.insert(0 if draw(st.booleans()) else draw(st.integers(0, len(lines))),
                 [str(n), str(count)])
    text = ""
    for tokens in lines:
        sep = draw(st.text(BLANKS, min_size=1, max_size=2))
        text += (draw(st.text(BLANKS, max_size=2)) + sep.join(tokens)
                 + draw(st.text(BLANKS, max_size=2)) + draw(st.sampled_from(["\n", "\r\n", "\r"])))
    return text if draw(st.booleans()) else text[:-1]


def _parsed(parse, text):
    try:
        return parse(text)
    except EdgeListFormatError as exc:
        return exc.line, str(exc)


@FIXED
@given(edge_list_files())
def test_parse_edge_list_matches_line_by_line_parser(text):
    # the same graph, or the same line number and message
    assert _parsed(parse_edge_list, text) == _parsed(parse_edge_list_by_line, text)
