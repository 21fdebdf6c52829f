"""Command-line interface tying generators, solvers, constructions and the audit together.

Exit codes: 0 success (and, for audit, no mismatches beyond the expected
fingerprint); 1 audit found unexplained mismatches or a bound check
failed; 2 usage or domain error (malformed files, out-of-domain
parameters); 3 a resource ran out before an answer: the solver node
budget was exceeded, or memory ran out (``error: out of memory``).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import claims, constructions, families
from .coloring import (DEFAULT_NODE_BUDGET, EdgeColoring, VertexColoring,
                       chromatic_index, chromatic_number)
from .errors import BudgetExceededError, DomainError, EdgeListFormatError
from .graphs import Graph, bipartition, format_edge_list, read_edge_list
from .linegraph import line_graph
from .nordhaus_gaddum import NgReport, ng_check, ng_construct, ng_feasible

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _parse_params(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise DomainError(f"cannot parse parameters {text!r}; "
                          "expected an integer or two comma-separated integers") from None


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _print_witness(w: VertexColoring | EdgeColoring, fmt: str) -> None:
    """Print the color count, or with ``--format json`` the witness JSON."""
    if fmt != "json":
        print(w.num_colors)
        return
    assignment = (list(w.color_of) if isinstance(w, VertexColoring)
                  else [[u, v, c] for u, v, c in w.assignment()])
    sys.stdout.write(json.dumps({"colors": w.num_colors, "assignment": assignment}) + "\n")


def cmd_family(args) -> int:
    g = families.make(args.name, *_parse_params(args.params))
    _emit(format_edge_list(g), args.out)
    return EXIT_OK


def cmd_linegraph(args) -> int:
    g = read_edge_list(args.file)
    _emit(format_edge_list(line_graph(g).graph), args.out)
    return EXIT_OK


def cmd_chi(args) -> int:
    _print_witness(chromatic_number(read_edge_list(args.file), args.budget), args.format)
    return EXIT_OK


def cmd_chi_index(args) -> int:
    _print_witness(chromatic_index(read_edge_list(args.file), args.budget), args.format)
    return EXIT_OK


def _resolve_edge_color_input(args) -> Graph:
    if args.params is not None and not args.family:
        raise DomainError("--params requires --family")
    if bool(args.file) == bool(args.family):
        raise DomainError("edge-color needs exactly one input: a FILE or --family/--params")
    if args.file:
        return read_edge_list(args.file)
    if not args.params:
        raise DomainError("--family requires --params")
    return families.make(args.family, *_parse_params(args.params))


def cmd_edge_color(args) -> int:
    g = _resolve_edge_color_input(args)
    method = args.method
    if method == "auto":
        method = "konig" if bipartition(g) is not None and g.edges else "misra-gries"
    if method == "konig":
        w = constructions.edge_color_bipartite_konig(g)
    elif method == "misra-gries":
        w = constructions.edge_color_misra_gries(g)
    elif method == "exact":
        w = chromatic_index(g, args.budget)
    else:
        family = families.FAMILY_TABLE[method]
        n = family.param_of_order(g.order)
        # compare edge counts before building, so the build costs no more than reading g
        if (n < family.mins[0] or g.num_edges != family.size_of_param(n)
                or g != families.make(method, n)):
            raise DomainError(f"method {method!r} requires the canonical {method} graph "
                              f"in its documented labeling")
        w = getattr(constructions, "edge_color_" + method)(n)
    _print_witness(w, args.format)
    return EXIT_OK


def _ng_fields(r: NgReport) -> list[tuple[str, int | bool, str]]:
    """The nine ``ng check`` fields in output order: JSON key, value, text line."""
    fields = [(key, value, f"{key}: {value}") for key, value in (
        ("order", r.order), ("chi", r.chi), ("chi_complement", r.chi_comp),
        ("sum", r.chi_sum), ("product", r.chi_product))]
    return fields + [(key, ok, f"bound {rule}: {'ok' if ok else 'VIOLATED'} ({lhs} {rel} {rhs})")
                     for key, rule, ok, lhs, rel, rhs in r.bounds()]


def cmd_ng_check(args) -> int:
    report = ng_check(read_edge_list(args.file), args.budget)
    fields = _ng_fields(report)
    if args.format == "json":
        sys.stdout.write(json.dumps({key: value for key, value, _ in fields}) + "\n")
    else:
        sys.stdout.write("".join(line + "\n" for _, _, line in fields))
    return EXIT_OK if report.all_bounds_ok else EXIT_MISMATCH


def cmd_ng_feasible(args) -> int:
    print("true" if ng_feasible(args.n, args.a, args.b) else "false")
    return EXIT_OK


def cmd_ng_construct(args) -> int:
    _emit(format_edge_list(ng_construct(args.n, args.a, args.b)), args.out)
    return EXIT_OK


#: Order in which ``audit --family all`` runs; bipartite bounds are
#: audited over connected graphs up to order min(max, 5) to keep the
#: default sweep quick (use --family bipartite for larger orders).
_AUDIT_ALL = tuple(claims.AUDIT_FAMILIES) + ("bipartite",)


def _read_expected(path: str) -> set[str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            keys = json.load(fh)
    except ValueError as exc:
        raise DomainError(f"--expected file {path} is not UTF-8 JSON: {exc}") from None
    if not isinstance(keys, list) or not all(isinstance(k, str) for k in keys):
        raise DomainError(f"--expected file {path} must hold a JSON list of row-key strings")
    return set(keys)


def cmd_audit(args) -> int:
    expected = _read_expected(args.expected) if args.expected else set()
    targets = _AUDIT_ALL if args.family == "all" else (args.family,)
    rows = []
    for family in targets:
        if family == "bipartite":
            cap = min(args.max, 5) if args.family == "all" else args.max
            rows += claims.audit_bipartite_bounds(cap, args.budget)
        else:
            rows += claims.audit_family(family, args.max, args.budget)
    fmt = "markdown" if args.format in ("text", "markdown") else args.format
    _emit(claims.render_report(rows, fmt), args.out)
    if args.emit_expected:
        with open(args.emit_expected, "w", encoding="utf-8") as fh:
            json.dump(claims.mismatch_keys(rows), fh, indent=2)
            fh.write("\n")
    if any(r.verdict == claims.BUDGET_EXCEEDED for r in rows):
        return EXIT_BUDGET
    mismatches = set(claims.mismatch_keys(rows)) - expected
    return EXIT_MISMATCH if mismatches else EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``chromalab`` argument parser, built once per process: parsing
    reads it and leaves no state on it."""
    parser = argparse.ArgumentParser(
        prog="chromalab",
        description="Exact graph-coloring toolkit and closed-form claims audit.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    # --format and --budget of chi, chi-index, ng check and edge-color
    solve_opts = argparse.ArgumentParser(add_help=False)
    solve_opts.add_argument("--format", choices=("text", "json"), default="text")
    solve_opts.add_argument("--budget", type=_positive_int, default=DEFAULT_NODE_BUDGET)
    # FILE of the exact solvers chi, chi-index and ng check
    solve = argparse.ArgumentParser(add_help=False, parents=[solve_opts])
    solve.add_argument("file")
    # n a b of ng feasible and ng construct
    ng_pair = argparse.ArgumentParser(add_help=False)
    for name in ("n", "a", "b"):
        ng_pair.add_argument(name, type=int)

    p = sub.add_parser("family", help="emit a named family graph as an edge list")
    p.add_argument("--name", required=True, choices=families.FAMILIES)
    p.add_argument("--params", required=True,
                   help="family parameters, e.g. '6' or '2,3'")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(handler=cmd_family)

    p = sub.add_parser("linegraph", help="emit the line graph of an edge-list file")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_linegraph)

    p = sub.add_parser("chi", parents=[solve],
                       help="exact chromatic number of an edge-list file")
    p.set_defaults(handler=cmd_chi)

    p = sub.add_parser("chi-index", parents=[solve],
                       help="exact chromatic index of an edge-list file")
    p.set_defaults(handler=cmd_chi_index)

    p = sub.add_parser("edge-color", parents=[solve_opts],
                       help="edge-color a graph by a chosen method")
    p.add_argument("file", nargs="?")
    p.add_argument("--family", choices=families.FAMILIES)
    p.add_argument("--params")
    # the closed-form rules: the FAMILY_TABLE rows that map an order to a parameter
    rules = tuple(name for name, fam in families.FAMILY_TABLE.items() if fam.param_of_order)
    p.add_argument("--method", default="auto",
                   choices=("auto", "konig") + rules + ("misra-gries", "exact"))
    p.set_defaults(handler=cmd_edge_color)

    p = sub.add_parser("ng", help="Nordhaus-Gaddum checks and constructions")
    ng_sub = p.add_subparsers(dest="ng_command", required=True)
    q = ng_sub.add_parser("check", parents=[solve],
                          help="exact bound report for a graph and its complement")
    q.set_defaults(handler=cmd_ng_check)
    q = ng_sub.add_parser("feasible", parents=[ng_pair],
                          help="is (chi, chi_complement) = (a, b) realizable at order n?")
    q.set_defaults(handler=cmd_ng_feasible)
    q = ng_sub.add_parser("construct", parents=[ng_pair],
                          help="build a graph of order n with chi=a, chi_complement=b")
    q.add_argument("--out")
    q.set_defaults(handler=cmd_ng_construct)

    p = sub.add_parser("audit", help="audit registered closed-form claims against exact values")
    p.add_argument("--family", default="all", choices=("all",) + _AUDIT_ALL)
    p.add_argument("--max", type=_positive_int, default=6,
                   help="largest parameter (or bipartite order) to audit")
    p.add_argument("--format", choices=("text", "markdown", "csv", "json"),
                   default="text")
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_NODE_BUDGET)
    p.add_argument("--workers", type=int, choices=(1,), default=1,
                   help="kept for old invocations; the audit runs in one process, "
                   "so only 1 is accepted")
    p.add_argument("--expected",
                   help="JSON file with the list of row keys expected to MISMATCH")
    p.add_argument("--emit-expected", dest="emit_expected",
                   help="write the observed MISMATCH row keys as JSON to this file")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_audit)

    return parser


def run(argv=None) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return EXIT_OK if code in (0, None) else EXIT_USAGE
    try:
        return args.handler(args)
    except (DomainError, EdgeListFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_BUDGET


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
