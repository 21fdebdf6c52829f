"""Outside-in span tracer for chromalab's public functions.

The tracer wraps the public functions of each chromalab module wherever
the package's modules bind them (the defining module and every module
that imported the name), plus the ``Graph`` constructor, so nothing
under ``src/`` changes.  Each wrapped call records one span (layer,
function, parent span, start, end) in flat arrays kept in memory;
:meth:`Tracer.layer_metrics` turns them into per-layer counts and self
times after a pass, and search nodes are attributed to the operation
that spent them.  A layer's self time is its spans' time minus the
time of their child spans.

Hooks that derive counters (clique lower bounds, line-graph sizes,
coloring degrees) run inside a span of the pseudo-layer ``trace`` so
their cost is not charged to the caller's self time.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

LAYERS = ("trace", "cli", "claims", "families", "enumeration", "graphs",
          "linegraph", "coloring", "constructions", "nordhaus_gaddum")
_ID = {name: i for i, name in enumerate(LAYERS)}

#: Public functions wrapped per layer, as (module, attribute).
_TARGETS = {
    "cli": [("cli", "run")],
    "claims": [("claims", "audit_family"), ("claims", "audit_bipartite_bounds"),
               ("claims", "render_report"), ("claims", "mismatch_keys")],
    "families": [("families", name) for name in (
        "complete", "complete_bipartite", "star", "bistar", "path", "cycle",
        "wheel", "helm", "fan", "generate", "make")],
    "graphs": [("graphs", name) for name in (
        "bipartition", "complement", "parse_edge_list", "format_edge_list",
        "read_edge_list", "write_edge_list")],
    "linegraph": [("linegraph", "line_graph")],
    "coloring": [("coloring", "chromatic_number"), ("coloring", "chromatic_index")],
    "constructions": [("constructions", name) for name in (
        "edge_color_complete", "edge_color_bipartite_konig", "edge_color_wheel",
        "edge_color_helm", "edge_color_fan", "edge_color_misra_gries")],
    "nordhaus_gaddum": [("nordhaus_gaddum", name) for name in (
        "ng_check", "ng_feasible", "ng_construct")],
}
_GENERATORS = [("enumeration", "all_labeled_graphs"),
               ("enumeration", "connected_bipartite_graphs")]
_IO = {"parse_edge_list", "format_edge_list", "read_edge_list", "write_edge_list"}


class Tracer:
    """Installs span wrappers into the imported chromalab package."""

    def __init__(self):
        import chromalab.coloring as coloring
        self._coloring = coloring
        self.active = False
        self.op_index = -1
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans and counters before a traced pass."""
        self.layer = array("b")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.fn = []  # function name per span (interned strings)
        self._stack: list[int] = []
        self.op_nodes = array("q")  # search nodes per operation of the pass
        self.counts = dict.fromkeys((
            "claims.points", "claims.budget_exceeded_points",
            "enumeration.labeled_in_filter", "enumeration.filter_survivors",
            "enumeration.graphs_yielded",
            "linegraph.pairs_scanned", "linegraph.lg_edges",
            "coloring.nodes", "coloring.ok_solves", "coloring.k_tried",
            "coloring.lb_tight", "coloring.budget_exceeded",
            "constructions.colorings", "constructions.delta_plus_one"), 0)

    def begin_op(self) -> None:
        """Start attributing spans and search nodes to the next operation."""
        self.op_index = len(self.op_nodes)
        self.op_nodes.append(0)

    # -- spans -------------------------------------------------------------

    def _open(self, layer: int, fn: str) -> int:
        idx = len(self.start)
        self.layer.append(layer)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.fn.append(fn)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _caller_layer(self) -> int:
        return self.layer[self._stack[-1]] if self._stack else -1

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, layer_name: str, fn, hook=None):
        layer = _ID[layer_name]
        name = fn.__name__
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                h = tracer._open(0, "hook")
                try:
                    hook(result, args)
                finally:
                    tracer._close(h)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_solver(self, fn):
        """Coloring wrapper: substitutes a SearchBudget with the same limit and
        records its node count, plus k_tried against the benchmark's own bound."""
        layer = _ID["coloring"]
        name = fn.__name__
        tracer = self
        coloring = self._coloring
        index = name == "chromatic_index"

        def traced(g, budget=None):
            if not tracer.active:
                return fn(g, budget)
            if budget is None or (type(budget) is int and budget > 0):
                budget = (coloring.SearchBudget() if budget is None
                          else coloring.SearchBudget(budget))
            before = budget.nodes if isinstance(budget, coloring.SearchBudget) else 0
            idx = tracer._open(layer, name)
            try:
                result = fn(g, budget)
            except coloring.BudgetExceededError:
                tracer._close(idx)
                tracer._add_nodes(budget.nodes - before)
                tracer.counts["coloring.budget_exceeded"] += 1
                raise
            except BaseException:
                tracer._close(idx)
                if isinstance(budget, coloring.SearchBudget):
                    tracer._add_nodes(budget.nodes - before)
                raise
            tracer._close(idx)
            h = tracer._open(0, "hook")
            try:
                tracer._add_nodes(budget.nodes - before)
                if g.order:
                    lower = max(g.degrees) if index else coloring.greedy_clique_lower_bound(g)
                    counts = tracer.counts
                    counts["coloring.ok_solves"] += 1
                    counts["coloring.k_tried"] += result.num_colors - lower + 1
                    counts["coloring.lb_tight"] += result.num_colors == lower
            finally:
                tracer._close(h)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, fn):
        layer = _ID["enumeration"]
        name = fn.__name__
        tracer = self
        filtering = name == "connected_bipartite_graphs"

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            if not tracer.active:
                yield from inner
                return
            counts = tracer.counts
            while True:
                caller = tracer._caller_layer()
                idx = tracer._open(layer, name)
                try:
                    item = next(inner)
                except StopIteration:
                    tracer._close(idx)
                    return
                except BaseException:
                    tracer._close(idx)
                    raise
                tracer._close(idx)
                if caller != layer:
                    counts["enumeration.graphs_yielded"] += 1
                if filtering:
                    counts["enumeration.filter_survivors"] += 1
                elif caller == layer:
                    counts["enumeration.labeled_in_filter"] += 1
                yield item

        traced.__wrapped__ = fn
        return traced

    def _wrap_init(self, init):
        layer = _ID["graphs"]
        tracer = self

        def traced(obj, *args, **kwargs):
            if not tracer.active:
                return init(obj, *args, **kwargs)
            idx = tracer._open(layer, "Graph")
            try:
                init(obj, *args, **kwargs)
            finally:
                tracer._close(idx)

        traced.__wrapped__ = init
        return traced

    def _add_nodes(self, nodes: int) -> None:
        self.counts["coloring.nodes"] += nodes
        if self.op_index >= 0:
            self.op_nodes[self.op_index] += nodes

    # -- hooks -------------------------------------------------------------

    def _claims_rows(self, rows, args) -> None:
        points = {r.params for r in rows}
        self.counts["claims.points"] += len(points)
        self.counts["claims.budget_exceeded_points"] += len(
            {r.params for r in rows if r.verdict == "BUDGET_EXCEEDED"})

    def _line_graph(self, result, args) -> None:
        m = len(args[0].edges)
        self.counts["linegraph.pairs_scanned"] += m * (m - 1) // 2
        self.counts["linegraph.lg_edges"] += len(result.graph.edges)

    def _edge_coloring(self, coloring, args) -> None:
        deg: dict[int, int] = {}
        for u, v in coloring.color_of:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        self.counts["constructions.colorings"] += 1
        self.counts["constructions.delta_plus_one"] += (
            coloring.num_colors == max(deg.values(), default=0) + 1)

    # -- install -----------------------------------------------------------

    def install(self) -> None:
        """Bind wrappers in every loaded chromalab module that holds a target."""
        import chromalab  # noqa: F401  (loads the package before scanning)
        import chromalab.claims  # noqa: F401
        import chromalab.cli  # noqa: F401
        import chromalab.enumeration  # noqa: F401
        import chromalab.nordhaus_gaddum  # noqa: F401
        hooks = {"audit_family": self._claims_rows,
                 "audit_bipartite_bounds": self._claims_rows,
                 "line_graph": self._line_graph}
        replace = {}  # id(original) -> (original, wrapper)
        for layer, targets in _TARGETS.items():
            for mod, attr in targets:
                fn = getattr(sys.modules["chromalab." + mod], attr)
                if layer == "coloring":
                    replace[id(fn)] = (fn, self._wrap_solver(fn))
                elif layer == "constructions":
                    replace[id(fn)] = (fn, self._wrap(layer, fn, self._edge_coloring))
                else:
                    replace[id(fn)] = (fn, self._wrap(layer, fn, hooks.get(attr)))
        for mod, attr in _GENERATORS:
            fn = getattr(sys.modules["chromalab." + mod], attr)
            replace[id(fn)] = (fn, self._wrap_generator(fn))
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "chromalab" or name.startswith("chromalab.")):
                continue
            for attr, value in list(vars(module).items()):
                original, wrapper = replace.get(id(value), (None, None))
                if original is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
        graph_cls = sys.modules["chromalab.graphs"].Graph
        self._patches.append((graph_cls, "__init__", graph_cls.__init__))
        graph_cls.__init__ = self._wrap_init(graph_cls.__init__)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation ---------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        n = len(self.start)
        child = [0.0] * n
        span_time = [0.0] * n
        layer, parent, start, end = self.layer, self.parent, self.start, self.end
        for i in range(n):
            d = end[i] - start[i]
            span_time[i] = d
            p = parent[i]
            if p >= 0:
                child[p] += d
        self_s = [0.0] * len(LAYERS)
        calls = [0] * len(LAYERS)
        fn_time: dict[str, float] = {}
        fn_count: dict[str, int] = {}
        fn = self.fn
        for i in range(n):
            lid, p, name = layer[i], parent[i], fn[i]
            self_s[lid] += span_time[i] - child[i]
            if p < 0 or layer[p] != lid:
                calls[lid] += 1
            fn_count[name] = fn_count.get(name, 0) + 1
            fn_time[name] = fn_time.get(name, 0.0) + span_time[i]
        c = self.counts
        lid = _ID
        coloring_self = self_s[lid["coloring"]]
        return {
            "cli.calls": calls[lid["cli"]],
            "cli.self_s": self_s[lid["cli"]],
            "claims.points": c["claims.points"],
            "claims.self_s": self_s[lid["claims"]],
            "claims.render_s": fn_time.get("render_report", 0.0),
            "claims.budget_exceeded_points": c["claims.budget_exceeded_points"],
            "families.calls": calls[lid["families"]],
            "families.self_s": self_s[lid["families"]],
            "enumeration.graphs_yielded": c["enumeration.graphs_yielded"],
            "enumeration.self_s": self_s[lid["enumeration"]],
            "enumeration.bip_survivor_ratio": _ratio(c["enumeration.filter_survivors"],
                                                     c["enumeration.labeled_in_filter"]),
            "graphs.constructs": fn_count.get("Graph", 0),
            "graphs.construct_s": fn_time.get("Graph", 0.0),
            "graphs.bipartition_calls": fn_count.get("bipartition", 0),
            "graphs.bipartition_s": fn_time.get("bipartition", 0.0),
            "graphs.complement_s": fn_time.get("complement", 0.0),
            "graphs.io_s": sum(fn_time.get(f, 0.0) for f in _IO),
            "linegraph.calls": calls[lid["linegraph"]],
            "linegraph.self_s": self_s[lid["linegraph"]],
            "linegraph.pairs_scanned": c["linegraph.pairs_scanned"],
            "linegraph.adjacent_ratio": _ratio(c["linegraph.lg_edges"],
                                               c["linegraph.pairs_scanned"]),
            "coloring.solves": calls[lid["coloring"]],
            "coloring.self_s": coloring_self,
            "coloring.nodes": c["coloring.nodes"],
            "coloring.nodes_per_s": _ratio(c["coloring.nodes"], coloring_self),
            "coloring.k_tried": c["coloring.k_tried"],
            "coloring.lb_tight_ratio": _ratio(c["coloring.lb_tight"], c["coloring.ok_solves"]),
            "coloring.budget_exceeded": c["coloring.budget_exceeded"],
            "constructions.calls": calls[lid["constructions"]],
            "constructions.self_s": self_s[lid["constructions"]],
            "constructions.delta_plus_one_ratio": _ratio(c["constructions.delta_plus_one"],
                                                         c["constructions.colorings"]),
            "nordhaus_gaddum.checks": fn_count.get("ng_check", 0),
            "nordhaus_gaddum.self_s": self_s[lid["nordhaus_gaddum"]],
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
