"""Seeded inputs, operation lists and output checks for the four workloads.

A workload is built once per run by :func:`build` (the set-up that
``setup_s`` times) and then yields a fresh operation list for every pass
through :meth:`Workload.ops`.  Each :class:`Op` holds the timed call into
chromalab and an untimed check of its output.  The graphs handed to
chromalab are generated here from plain edge lists; chromalab only ever
receives those graphs and CLI argument lists.

Every check compares values, never witness bytes: witnesses are
validated with chromalab's ``validate_*`` functions on graphs the
benchmark built itself, and values are compared with closed forms or,
for the default seed, with ``golden.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter
from typing import Callable, Iterator

from chromalab import coloring, constructions, enumeration, graphs, linegraph

DEFAULT_SEED = 1
#: Node budget of the budgeted K_{m,n} audit and of the budgeted chi'(K_9).
#: K_{8,5} needs 241,412 nodes, so any budget from 241,413 up leaves exactly
#: K_{7,6}, K_{8,6} and K_{8,7} over budget at the seed commit.
SMALL_BUDGET = 300_000
KNOWN_BUDGET_POINTS = {("complete_bipartite", (7, 6)), ("complete_bipartite", (8, 6)),
                       ("complete_bipartite", (8, 7))}

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)

KNOWN = "known-defect"


class CheckFailed(Exception):
    """An operation's output is wrong or its exit code unexpected."""


@dataclass
class Op:
    """One timed call.

    ``call`` receives a fresh SearchBudget (or None when ``limit`` is None)
    and returns the output.  ``check`` raises :class:`CheckFailed` for a
    wrong output, returns :data:`KNOWN` for an output that is one of the
    documented defects, and anything else for a correct one.  ``defect``
    names the exception class the seed commit is known to end this call with.
    """

    name: str
    call: Callable[[object], object]
    check: Callable[[object], object]
    limit: int | None = None
    defect: str | None = None


@dataclass
class Workload:
    name: str
    seed: int
    ops: Callable[[], Iterator[Op]]
    workdir: str | None = None
    values: dict = field(default_factory=dict)  # op name -> chi / chi' value seen
    closed_forms: dict = field(default_factory=dict)  # op name -> known chi / chi'


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- graph generators (plain edge lists, documented chromalab labelings) -------

def complete_edges(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def path_edges(n):
    return [(i, i + 1) for i in range(n - 1)]


def cycle_edges(n):
    return path_edges(n) + [(0, n - 1)]


def family_edges(family: str, params: tuple[int, ...]) -> tuple[int, list]:
    """(order, edges) of a chromalab family graph in its documented labeling."""
    if family == "complete":
        (n,) = params
        return n, complete_edges(n)
    if family in ("complete_bipartite", "star"):
        m, n = params if family == "complete_bipartite" else (1, params[0])
        return m + n, [(i, m + j) for i in range(m) for j in range(n)]
    if family == "bistar":
        m, n = params
        return m + n + 2, ([(0, 1)] + [(0, k) for k in range(2, m + 2)]
                           + [(1, k) for k in range(m + 2, m + n + 2)])
    if family in ("wheel", "fan"):
        (n,) = params
        rim = n - 1 if family == "wheel" else n
        inner = cycle_edges(rim) if family == "wheel" else path_edges(rim)
        return rim + 1, [(0, v) for v in range(1, rim + 1)] + [(u + 1, v + 1) for u, v in inner]
    if family == "helm":
        (n,) = params
        return 2 * n + 1, ([(0, i) for i in range(1, n + 1)]
                           + [(i, i % n + 1) for i in range(1, n + 1)]
                           + [(i, n + i) for i in range(1, n + 1)])
    raise ValueError(family)


def family_truth(family: str, params: tuple[int, ...]) -> tuple[int, int]:
    """Known (chi, chi') of a family graph, from closed forms."""
    if family == "complete":
        (n,) = params
        return n, n - 1 if n % 2 == 0 else n
    if family == "complete_bipartite":
        return 2, max(params)
    if family == "star":
        return 2, params[0]
    if family == "bistar":
        return 2, max(params) + 1
    (n,) = params
    if family == "wheel":
        return (3 if n % 2 else 4), n - 1
    if family == "helm":
        return (3 if n % 2 == 0 else 4), max(n, 4)
    if family == "fan":
        return 3, max(n, 3)
    raise ValueError(family)


def mycielski(k):
    """Mycielski graph M_k (M_2 = K_2); chi(M_k) = k, triangle-free."""
    n, edges = 2, [(0, 1)]
    for _ in range(k - 2):
        nxt = list(edges)
        for u, v in edges:
            nxt += [(u, n + v), (v, n + u)]
        nxt += [(n + i, 2 * n) for i in range(n)]
        n, edges = 2 * n + 1, nxt
    return n, edges


def queen(k):
    cells = [divmod(a, k) for a in range(k * k)]
    return k * k, [(a, b) for a in range(k * k) for b in range(a + 1, k * k)
                   if cells[a][0] == cells[b][0] or cells[a][1] == cells[b][1]
                   or abs(cells[a][0] - cells[b][0]) == abs(cells[a][1] - cells[b][1])]


def petersen():
    return 10, ([(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def flower_snark(n):
    """Flower snark J_n (odd n): cubic, chromatic index 4."""
    edges = []
    for i in range(n):
        a, b, c, d = 4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3
        j = 4 * ((i + 1) % n)
        edges += [(a, b), (a, c), (a, d), (b, j + 1)]
        if i < n - 1:
            edges += [(c, j + 2), (d, j + 3)]
        else:
            edges += [(c, 3), (d, 2)]
    return 4 * n, edges


def cycle_complement(n):
    return n, [(i, j) for i in range(n) for j in range(i + 1, n)
               if j - i not in (1, n - 1)]


def gnp(rng, n, p):
    return n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]


def bipartite_gnp(rng, a, b, p):
    return a + b, [(i, a + j) for i in range(a) for j in range(b) if rng.random() < p]


def make_graph(spec):
    return graphs.Graph(spec[0], spec[1])


def degrees(spec) -> list[int]:
    deg = [0] * spec[0]
    for u, v in spec[1]:
        deg[u] += 1
        deg[v] += 1
    return deg


def max_deg(spec) -> int:
    return max(degrees(spec), default=0)


def _bfs_bipartite(order: int, edges) -> bool:
    nbrs = [[] for _ in range(order)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    side = [-1] * order
    for root in range(order):
        if side[root] < 0:
            side[root], stack = 0, [root]
            while stack:
                v = stack.pop()
                for u in nbrs[v]:
                    if side[u] < 0:
                        side[u] = 1 - side[v]
                        stack.append(u)
                    elif side[u] == side[v]:
                        return False
    return True


# -- shared checks --------------------------------------------------------------

def check_vertex_coloring(g, w, expected: int | None = None) -> int:
    _require(coloring.validate_vertex_coloring(g, w), "invalid vertex coloring witness")
    _require(w.num_colors >= coloring.greedy_clique_lower_bound(g),
             f"{w.num_colors} colors is below the clique lower bound")
    if expected is not None:
        _require(w.num_colors == expected, f"chi {w.num_colors} != expected {expected}")
    return w.num_colors


def check_edge_coloring(g, w, expected: int | None = None,
                        bipartite: bool = False) -> int:
    """Validate an edge coloring: Delta <= colors <= Delta+1 (Vizing), and
    exactly Delta when the graph is known to be bipartite (Konig)."""
    _require(coloring.validate_edge_coloring(g, w), "invalid edge coloring witness")
    delta = max_deg((g.order, g.edges))
    _require(delta <= w.num_colors <= delta + 1,
             f"{w.num_colors} colors outside the Vizing band [{delta}, {delta + 1}]")
    if bipartite:
        _require(w.num_colors == delta, f"bipartite chi' {w.num_colors} != Delta {delta}")
    if expected is not None:
        _require(w.num_colors == expected, f"chi' {w.num_colors} != expected {expected}")
    return w.num_colors


def _golden_check(wl: Workload, op_name: str, value: int) -> None:
    wl.values[op_name] = value
    table = GOLDEN["values"].get(wl.name)
    if wl.seed == DEFAULT_SEED and table is not None:
        _require(op_name in table, f"no golden value for {op_name}")
        _require(value == table[op_name], f"{op_name}: {value} != golden {table[op_name]}")


# -- audit rows -------------------------------------------------------------------

def _parse_witness(text: str):
    chi_part, line_part = text.split(";")
    chi = [int(c) for c in chi_part[len("chi="):].split(",") if c != ""]
    line = [int(c) for c in line_part[len("chiL="):].split(",") if c != ""]
    return chi, line


def _check_witness(order: int, edges: list, witness: str, chi: int, chi_line: int) -> None:
    g = graphs.Graph(order, edges)
    vcolors, ecolors = _parse_witness(witness)
    vw = coloring.VertexColoring(tuple(vcolors), max(vcolors, default=-1) + 1)
    check_vertex_coloring(g, vw, chi)
    _require(len(ecolors) == len(g.edges), "edge witness length != edge count")
    ew = coloring.EdgeColoring(dict(zip(g.edges, ecolors)), max(ecolors, default=-1) + 1)
    check_edge_coloring(g, ew, chi_line)


def check_audit_rows(rows: list[dict]) -> tuple[set, set]:
    """Check every row's exact value, verdict and witness against closed forms.

    Returns (mismatch keys, points that ended BUDGET_EXCEEDED).
    """
    mismatches, budget_points, seen = set(), set(), set()
    for r in rows:
        claim, params, verdict = r["claim"], r["params"], r["verdict"]
        family, quantity = claim.split(".")[:2]
        key = f"{claim}[{','.join(f'{k}={v}' for k, v in params.items())}]"
        if verdict == "MISMATCH":
            mismatches.add(key)
        if family == "bipartite":
            edges = [tuple(map(int, e.split("-"))) for e in params["edges"].split(";")]
            order = params["order"]
            delta = max_deg((order, edges))
            chi, chi_line = 2, delta
            hi = int(r["claimed"].rsplit("<=", 1)[1])
            value = chi + chi_line if quantity == "sum_bounds" else chi * chi_line
            _require(r["exact"] == value, f"{key}: exact {r['exact']} != {value}")
            _require(verdict == ("MATCH" if 4 <= value <= hi else "MISMATCH"),
                     f"{key}: verdict {verdict} inconsistent")
            point = (family, order, params["edges"])
        else:
            point_params = tuple(params.values())
            point = (family, point_params)
            if verdict == "BUDGET_EXCEEDED":
                budget_points.add((family, point_params))
                continue
            chi, chi_line = family_truth(family, point_params)
            value = {"chi": chi, "chi_line": chi_line, "sum": chi + chi_line,
                     "product": chi * chi_line}[quantity]
            _require(r["exact"] == value, f"{key}: exact {r['exact']} != {value}")
            claimed = r["claimed"]
            expect = ("CLAIM_UNDEFINED" if claimed is None
                      else "MATCH" if claimed == value else "MISMATCH")
            _require(verdict == expect, f"{key}: verdict {verdict} != {expect}")
            order, edges = family_edges(family, point_params)
        if point not in seen:
            seen.add(point)
            _check_witness(order, edges, r["witness"], chi, chi_line)
    return mismatches, budget_points


def _row_dicts(rows) -> list[dict]:
    return [{"claim": r.claim_id, "params": dict(r.params), "exact": r.exact,
             "claimed": r.claimed, "verdict": r.verdict, "witness": r.witness}
            for r in rows]


# -- audit workload ------------------------------------------------------------------

#: Deepest single-family sweeps, run as a ladder of ``--max`` values.
AUDIT_LADDER = {"wheel": (4, 20), "fan": (2, 20), "star": (1, 26), "helm": (3, 14),
                "bistar": (1, 8), "complete": (2, 8), "complete_bipartite": (1, 5),
                "bipartite": (2, 5)}


def _run_cli(argv):
    from chromalab import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _audit_check(expected_codes, fingerprint=None):
    def check(result):
        code, out, err = result
        rows = json.loads(out)
        mismatches, budget_points = check_audit_rows(rows)
        if fingerprint is not None:
            _require(mismatches == fingerprint,
                     f"fingerprint differs: +{sorted(mismatches - fingerprint)[:3]} "
                     f"-{sorted(fingerprint - mismatches)[:3]}")
        if budget_points:
            _require(budget_points <= KNOWN_BUDGET_POINTS,
                     f"unexpected BUDGET_EXCEEDED at {sorted(budget_points - KNOWN_BUDGET_POINTS)}")
            _require(code == 3, f"exit {code} with budget-exceeded rows, expected 3")
            return KNOWN
        want = expected_codes(mismatches)
        _require(code == want, f"exit {code}, expected {want}: {err.strip()[:200]}")
        return None
    return check


def build_audit(seed: int, workdir: str) -> Workload:
    from chromalab import cli  # noqa: F401  (import in set-up, not in the first call)
    fingerprint = set(GOLDEN["fingerprint"])
    expected_path = os.path.join(workdir, "expected.json")
    with open(expected_path, "w", encoding="utf-8") as fh:
        json.dump(sorted(fingerprint), fh)
    specs = [("audit.default", ["audit", "--expected", expected_path, "--format", "json"],
              lambda mm: 0, fingerprint),
             ("audit.complete_bipartite.budget",
              ["audit", "--family", "complete_bipartite", "--max", "8",
               "--budget", str(SMALL_BUDGET), "--format", "json"],
              lambda mm: 1 if mm else 0, None)]
    for family, (lo, hi) in AUDIT_LADDER.items():
        for k in range(lo, hi + 1):
            specs.append((f"audit.{family}.max{k}",
                          ["audit", "--family", family, "--max", str(k), "--format", "json"],
                          lambda mm: 1 if mm else 0, None))
    random.Random(f"audit:{seed}").shuffle(specs)

    def ops():
        for name, argv, codes, fp in specs:
            yield Op(name, lambda b, argv=argv: _run_cli(argv), _audit_check(codes, fp))

    return Workload("audit", seed, ops, workdir)


def workers2_over_serial(wl: Workload, rounds: int = 3) -> float:
    """Median time of the default audit with ``--workers 2`` over the serial run.

    Returns 0.0 (not measured) when the CLI no longer accepts ``--workers``.
    """
    argv = ["audit", "--expected", os.path.join(wl.workdir, "expected.json")]
    times = {1: [], 2: []}
    for _ in range(rounds):
        for workers in (1, 2):
            t = perf_counter()
            code, _, err = _run_cli(argv + ["--workers", str(workers)])
            times[workers].append(perf_counter() - t)
            if code == 2 and workers == 2:
                return 0.0
            _require(code == 0, f"default audit with --workers {workers} exited {code}: {err[:200]}")
    return median(times[2]) / median(times[1])


# -- sweep workload ---------------------------------------------------------------------

SWEEP_MAX_ORDER = 6


def build_sweep(seed: int) -> Workload:
    from chromalab import claims, nordhaus_gaddum
    blocks = ["ng", "vizing", "bipartite"]
    random.Random(f"sweep:{seed}").shuffle(blocks)

    def ops():
        totals = {"chi": 0, "chi_comp": 0, "chi_index": 0, "class2": 0}
        for block in blocks:
            if block == "bipartite":
                yield Op("sweep.bipartite_bounds",
                         lambda b: claims.audit_bipartite_bounds(SWEEP_MAX_ORDER),
                         _check_bipartite_bounds)
                continue
            first = 1 if block == "ng" else 2
            for n in range(first, SWEEP_MAX_ORDER + 1):
                count = 1 << (n * (n - 1) // 2)
                it = enumeration.all_labeled_graphs(n)
                call, check = ((_ng_call, _ng_check) if block == "ng"
                               else (_vizing_call, _vizing_check))
                last = n == SWEEP_MAX_ORDER
                for i in range(first - 1, count):
                    final = last and i == count - 1
                    yield Op(f"{block}.{n}.{i}", lambda b, it=it, call=call: call(it, b),
                             lambda r, check=check, final=final: check(r, totals, final),
                             limit=coloring.DEFAULT_NODE_BUDGET)

    def _ng_call(it, budget):
        g = next(it)
        return g, nordhaus_gaddum.ng_check(g, budget)

    def _vizing_call(it, budget):
        g = next(it)
        while not g.edges:
            g = next(it)
        return g, coloring.chromatic_index(g, budget), graphs.bipartition(g)

    return Workload("sweep", seed, ops)


def _ng_check(result, totals, final) -> None:
    g, report = result
    _require(report.order == g.order, "report order differs from graph order")
    _require(report.all_bounds_ok, f"Nordhaus-Gaddum bound violated on {g.edges}")
    totals["chi"] += report.chi
    totals["chi_comp"] += report.chi_comp
    if final:
        _totals_check(totals, ("chi", "chi_comp"))


def _vizing_check(result, totals, final) -> None:
    g, w, sides = result
    bipartite = _bfs_bipartite(g.order, g.edges)
    _require((sides is not None) == bipartite, "bipartition disagrees with an independent BFS")
    chi_line = check_edge_coloring(g, w, bipartite=bipartite)
    totals["chi_index"] += chi_line
    totals["class2"] += chi_line == max_deg((g.order, g.edges)) + 1
    if final:
        _totals_check(totals, ("chi_index", "class2"))


def _totals_check(totals, keys) -> None:
    golden = GOLDEN["sweep"]
    for k in keys:
        _require(totals[k] == golden[k], f"sweep total {k} {totals[k]} != golden {golden[k]}")


def _check_bipartite_bounds(rows) -> None:
    dict_rows = _row_dicts(rows)
    mismatches, budget_points = check_audit_rows(dict_rows)
    _require(not budget_points, "bipartite bounds audit hit the node budget")
    _require(len(dict_rows) == 2 * GOLDEN["sweep"]["bipartite_points"],
             f"{len(dict_rows)} rows, expected {2 * GOLDEN['sweep']['bipartite_points']}")
    single_edge = {"bipartite.sum_bounds[order=2,edges=0-1]",
                   "bipartite.product_bounds[order=2,edges=0-1]"}
    _require(mismatches == single_edge, f"bipartite mismatches {sorted(mismatches)[:4]}")


# -- search workload ------------------------------------------------------------------------

#: Structured instances: (name, kind, graph spec, known value).
def _structured():
    return [
        ("mycielski6.chi", "chi", mycielski(6), 6),
        ("mycielski5.chi", "chi", mycielski(5), 5),
        ("queen6.chi", "chi", queen(6), 7),
        ("queen7.chi", "chi", queen(7), 7),
        ("petersen.index", "index", petersen(), 4),
        ("flower5.index", "index", flower_snark(5), 4),
        ("flower7.index", "index", flower_snark(7), 4),
        ("cycle9_complement.index", "index", cycle_complement(9), 7),
        ("complete7.index", "index", (7, complete_edges(7)), 7),
    ]


#: Random instances: G(n, 0.5) for chi and G(n, p) for chi'.  chi' of
#: G(n, p) costs nearly the same for every draw of one (n, p) cell, while
#: chi of G(n, 0.5) is heavy-tailed; the cell counts put the run's median
#: operation inside the (30, 0.5) cell and its 90th percentile inside the
#: (40, 0.5) cell, so the percentiles do not hinge on a few random draws.
CHI_ORDERS = tuple(range(36, 44)) * 6
INDEX_SHAPES = (((20, 0.5),) * 12 + ((30, 0.3),) * 12 + ((30, 0.5),) * 60
                + ((40, 0.3),) * 12 + ((40, 0.5),) * 30)


def build_search(seed: int) -> Workload:
    rng = random.Random(f"search:{seed}")
    instances = [(name, kind, spec, value, None) for name, kind, spec, value in _structured()]
    for i, n in enumerate(CHI_ORDERS):
        instances.append((f"gnp{i}.n{n}.chi", "chi", gnp(rng, n, 0.5), None, None))
    for i, (n, p) in enumerate(INDEX_SHAPES):
        instances.append((f"gnp{i}.n{n}.p{p}.index", "index", gnp(rng, n, p), None, None))
    instances.append(("complete9.index.budget", "index", (9, complete_edges(9)), 9,
                      "BudgetExceededError"))
    rng.shuffle(instances)

    def ops():
        for name, kind, spec, value, defect in instances:
            g = make_graph(spec)
            limit = SMALL_BUDGET if defect else coloring.DEFAULT_NODE_BUDGET
            yield Op(name, lambda b, g=g, kind=kind: (coloring.chromatic_number(g, b)
                                                      if kind == "chi"
                                                      else coloring.chromatic_index(g, b)),
                     _search_check(wl, name, kind, g, value), limit=limit, defect=defect)

    wl = Workload("search", seed, ops)
    wl.closed_forms = {name: value for name, _, _, value, _ in instances if value is not None}
    return wl


def _search_check(wl, name, kind, g, value):
    def check(w):
        if kind == "chi":
            got = check_vertex_coloring(g, w, value)
        else:
            got = check_edge_coloring(g, w, value, _bfs_bipartite(g.order, g.edges))
        _golden_check(wl, name, got)
    return check


# -- build workload ----------------------------------------------------------------------

GNP_ORDERS = (100, 140, 200, 240)
BIPARTITE_SHAPES = ((45, 55, 0.4), (80, 90, 0.3), (110, 120, 0.3))
CLOSED_FORM_SIZES = {"complete": (100, 130, 160, 190, 220, 250),
                     "wheel": (500, 800, 1100, 1400, 1700, 2000),
                     "helm": (500, 800, 1100, 1400, 1700, 2000),
                     "fan": (500, 800, 1100, 1400, 1700, 2000)}
PATH_ORDERS = tuple(range(300, 801, 10))
CYCLE_ORDERS = (1500, 1800, 2100, 2400, 2700, 3000)


def build_build(seed: int) -> Workload:
    rng = random.Random(f"build:{seed}")
    specs = [(f"gnp.n{n}", gnp(rng, n, 0.2), False) for n in GNP_ORDERS]
    specs += [(f"bip.{a}x{b}", bipartite_gnp(rng, a, b, p), True) for a, b, p in BIPARTITE_SHAPES]
    plain = [(f"path{n}", (n, path_edges(n)), 2, None) for n in PATH_ORDERS]
    plain += [(f"cycle{n}", (n, cycle_edges(n)), 2 if n % 2 == 0 else 3, "RecursionError")
              for n in CYCLE_ORDERS]
    closed = [(family, n) for family, sizes in CLOSED_FORM_SIZES.items() for n in sizes]
    rng.shuffle(specs)
    rng.shuffle(plain)
    rng.shuffle(closed)

    def ops():
        items = []
        for name, spec, bip in specs:
            g = make_graph(spec)
            items.append(Op(f"{name}.line_graph", lambda b, g=g: linegraph.line_graph(g),
                            lambda r, g=g: _check_line_graph(g, r)))
            items.append(Op(f"{name}.complement", lambda b, g=g: graphs.complement(g),
                            lambda r, g=g: _check_complement(g, r)))
            items.append(Op(f"{name}.edge_list_round_trip",
                            lambda b, g=g: graphs.parse_edge_list(graphs.format_edge_list(g)),
                            lambda r, g=g: _require(r == g, "edge-list round trip changed the graph")))
            items.append(Op(f"{name}.misra_gries",
                            lambda b, g=g: constructions.edge_color_misra_gries(g),
                            lambda r, g=g: check_edge_coloring(g, r)))
            if bip:
                items.append(Op(f"{name}.konig",
                                lambda b, g=g: constructions.edge_color_bipartite_konig(g),
                                lambda r, g=g: check_edge_coloring(g, r, bipartite=True)))
        for family, n in closed:
            items.append(Op(f"{family}{n}.closed_form",
                            lambda b, f=f"edge_color_{family}", n=n: getattr(constructions, f)(n),
                            lambda w, family=family, n=n: _check_closed_form(family, n, w)))
        for name, spec, chi, defect in plain:
            g = make_graph(spec)
            items.append(Op(f"{name}.chi", lambda b, g=g: coloring.chromatic_number(g, b),
                            lambda r, g=g, chi=chi: check_vertex_coloring(g, r, chi),
                            limit=coloring.DEFAULT_NODE_BUDGET, defect=defect))
        return iter(items)

    return Workload("build", seed, ops)


def _check_line_graph(g, result) -> None:
    deg = degrees((g.order, g.edges))
    _require(result.edge_of_vertex == g.edges, "line-graph vertex map is not the edge order")
    _require(result.graph.order == len(g.edges), "line-graph order != edge count")
    expected = sum(d * (d - 1) // 2 for d in deg)
    _require(result.graph.num_edges == expected,
             f"line graph has {result.graph.num_edges} edges, expected {expected}")
    for i, j in result.graph.edges[::997]:
        _require(set(g.edges[i]) & set(g.edges[j]), f"line-graph edge {i}-{j} shares no endpoint")


def _check_complement(g, result) -> None:
    n = g.order
    _require(result.order == n, "complement changed the order")
    _require(result.num_edges == n * (n - 1) // 2 - g.num_edges, "complement edge count")
    _require(not set(result.edges) & set(g.edges), "complement shares an edge with the graph")


def _check_closed_form(family, n, w) -> None:
    order, edges = family_edges(family, (n,))
    check_edge_coloring(graphs.Graph(order, edges), w, family_truth(family, (n,))[1])


def build(name: str, seed: int, workdir: str) -> Workload:
    """The workload's inputs and operation lists; audit writes its files to workdir."""
    if name == "audit":
        return build_audit(seed, workdir)
    return {"sweep": build_sweep, "search": build_search, "build": build_build}[name](seed)

