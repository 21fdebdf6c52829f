import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from test_coloring import odd_prism

from chromalab import cli, families
from chromalab.cli import build_parser, run
from chromalab.coloring import chromatic_number
from chromalab.graphs import disjoint_union, parse_edge_list, write_edge_list
from chromalab.nordhaus_gaddum import NgReport

K5_TEXT = "5 10\n0 1\n0 2\n0 3\n0 4\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"
C5_TEXT = "5 5\n0 1\n0 4\n1 2\n2 3\n3 4\n"
DATA = Path(__file__).parent / "data"


@pytest.fixture
def k5_file(tmp_path):
    p = tmp_path / "k5.txt"
    p.write_text(K5_TEXT)
    return str(p)


@pytest.fixture
def c5_file(tmp_path):
    p = tmp_path / "c5.txt"
    p.write_text(C5_TEXT)
    return str(p)


def test_family_golden(capsys):
    assert run(["family", "--name", "wheel", "--params", "5"]) == 0
    assert capsys.readouterr().out == \
        "5 8\n0 1\n0 2\n0 3\n0 4\n1 2\n1 4\n2 3\n3 4\n"


def test_family_two_params_and_out(tmp_path, capsys):
    out = tmp_path / "b.txt"
    assert run(["family", "--name", "bistar", "--params", "2,3",
                "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert parse_edge_list(out.read_text()) == families.bistar(2, 3)


def test_linegraph_golden(tmp_path, capsys):
    p = tmp_path / "p4.txt"
    p.write_text("4 3\n0 1\n1 2\n2 3\n")
    assert run(["linegraph", str(p)]) == 0
    assert capsys.readouterr().out == "3 2\n0 1\n1 2\n"


def test_chi_text_and_json(k5_file, capsys):
    assert run(["chi", k5_file]) == 0
    assert capsys.readouterr().out == "5\n"
    assert run(["chi", k5_file, "--format", "json"]) == 0
    assert capsys.readouterr().out == \
        '{"colors": 5, "assignment": [0, 1, 2, 3, 4]}\n'


def test_chi_index(k5_file, capsys):
    assert run(["chi-index", k5_file]) == 0
    assert capsys.readouterr().out == "5\n"


def test_chi_index_certified_within_budget_one(tmp_path, capsys):
    for name, g, expected in (("k9.txt", families.complete(9), "9\n"),
                              ("k76.txt", families.complete_bipartite(7, 6), "7\n")):
        path = tmp_path / name
        write_edge_list(g, path)
        assert run(["chi-index", str(path), "--budget", "1"]) == 0
        assert capsys.readouterr().out == expected


def test_edge_color_methods(c5_file, capsys):
    assert run(["edge-color", "--family", "wheel", "--params", "5",
                "--method", "wheel", "--format", "json"]) == 0
    assert capsys.readouterr().out == ('{"colors": 4, "assignment": '
        '[[0, 1, 0], [0, 2, 1], [0, 3, 2], [0, 4, 3], [1, 2, 2], [1, 4, 1], '
        '[2, 3, 3], [3, 4, 0]]}\n')
    assert run(["edge-color", "--family", "fan", "--params", "4",
                "--method", "fan"]) == 0
    assert capsys.readouterr().out == "4\n"
    # auto picks Konig on bipartite input, Misra-Gries otherwise
    assert run(["edge-color", "--family", "complete_bipartite", "--params", "3,3",
                "--method", "auto"]) == 0
    assert capsys.readouterr().out == "3\n"
    assert run(["edge-color", c5_file, "--method", "auto", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    coloring = {(u, v): c for u, v, c in payload["assignment"]}
    g = parse_edge_list(C5_TEXT)
    assert payload["colors"] <= 3
    assert set(coloring) == set(g.edges)
    # the closed-form rule methods sit between konig and misra-gries
    assert run(["edge-color", "--help"]) == 0
    assert "{auto,konig,complete,wheel,helm,fan,misra-gries,exact}" in capsys.readouterr().out


def test_edge_color_exact_method(c5_file, capsys):
    assert run(["edge-color", c5_file, "--method", "exact"]) == 0
    assert capsys.readouterr().out == "3\n"


def test_edge_color_input_validation(k5_file, capsys):
    # canonical-labeling methods reject a non-matching graph
    assert run(["edge-color", k5_file, "--method", "fan"]) == 2
    # file and --family together is a usage error
    assert run(["edge-color", k5_file, "--family", "wheel", "--params", "5"]) == 2
    # neither input is a usage error
    assert run(["edge-color", "--method", "exact"]) == 2
    # --params without --family is a usage error, with or without a FILE
    assert run(["edge-color", k5_file, "--params", "5"]) == 2
    assert run(["edge-color", "--params", "5"]) == 2
    capsys.readouterr()
    # wheel(5) has the order of helm(2), below the helm minimum; order 6 is even
    for params in ("5", "6"):
        assert run(["edge-color", "--family", "wheel", "--params", params,
                    "--method", "helm"]) == 2
        assert capsys.readouterr().err == ("error: method 'helm' requires the canonical "
                                           "helm graph in its documented labeling\n")


def test_edge_color_family_without_params(capsys):
    assert run(["edge-color", "--family", "wheel"]) == 2
    assert capsys.readouterr().err == "error: --family requires --params\n"


def test_edge_color_complete_method_on_file(k5_file, capsys):
    assert run(["edge-color", k5_file, "--method", "complete"]) == 0
    assert capsys.readouterr().out == "5\n"


def test_edge_color_family_method_rejects_by_edge_count(tmp_path, monkeypatch, capsys):
    # a header-only file has the order of a family graph but none of its
    # edges: it is rejected before K_1501 (or the wheel, helm or fan) is built
    built = []
    monkeypatch.setattr(families, "make", lambda *a: built.append(a))
    p = tmp_path / "header.txt"
    p.write_text("1501 0\n")
    for method in ("complete", "wheel", "helm", "fan"):
        assert run(["edge-color", str(p), "--method", method]) == 2
        assert capsys.readouterr().err == (f"error: method {method!r} requires the canonical "
                                           f"{method} graph in its documented labeling\n")
    assert built == []


def test_ng_check_golden(c5_file, capsys):
    assert run(["ng", "check", c5_file]) == 0
    assert capsys.readouterr().out == (
        "order: 5\n"
        "chi: 3\n"
        "chi_complement: 3\n"
        "sum: 6\n"
        "product: 9\n"
        "bound sum^2 >= 4n: ok (36 >= 20)\n"
        "bound sum <= n+1: ok (6 <= 6)\n"
        "bound product >= n: ok (9 >= 5)\n"
        "bound 4*product <= (n+1)^2: ok (36 <= 36)\n")
    assert run(["ng", "check", c5_file, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sum"] == 6 and payload["product_upper_ok"] is True


@pytest.mark.parametrize("n, a, b, bounds", [
    (5, 2, 2, ["bound sum^2 >= 4n: VIOLATED (16 >= 20)",
               "bound sum <= n+1: ok (4 <= 6)",
               "bound product >= n: VIOLATED (4 >= 5)",
               "bound 4*product <= (n+1)^2: ok (16 <= 36)"]),
    (3, 3, 3, ["bound sum^2 >= 4n: ok (36 >= 12)",
               "bound sum <= n+1: VIOLATED (6 <= 4)",
               "bound product >= n: ok (9 >= 3)",
               "bound 4*product <= (n+1)^2: VIOLATED (36 <= 16)"]),
])
def test_ng_check_prints_violated_bounds(c5_file, monkeypatch, capsys, n, a, b, bounds):
    """No graph breaks a bound, so ng check renders reports whose numbers
    do: between them the two break each bound, and ng check exits 1."""
    report = NgReport(order=n, chi=a, chi_comp=b)
    monkeypatch.setattr(cli, "ng_check", lambda g, budget: report)
    assert run(["ng", "check", c5_file]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"order: {n}", f"chi: {a}", f"chi_complement: {b}",
        f"sum: {a + b}", f"product: {a * b}"] + bounds
    assert run(["ng", "check", c5_file, "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    keys = ["sum_lower_ok", "sum_upper_ok", "product_lower_ok", "product_upper_ok"]
    assert list(payload)[5:] == keys
    assert [payload[key] for key in keys] == [": ok " in line for line in bounds]


def test_ng_feasible(capsys):
    assert run(["ng", "feasible", "5", "2", "2"]) == 0
    assert capsys.readouterr().out == "false\n"
    assert run(["ng", "feasible", "5", "3", "3"]) == 0
    assert capsys.readouterr().out == "true\n"


def test_ng_construct(capsys):
    assert run(["ng", "construct", "5", "3", "3"]) == 0
    assert capsys.readouterr().out == "5 3\n0 1\n0 2\n1 2\n"
    assert run(["ng", "construct", "5", "2", "2"]) == 2
    capsys.readouterr()


def test_audit_csv_golden(capsys):
    assert run(["audit", "--family", "bistar", "--max", "1",
                "--format", "csv"]) == 1
    assert capsys.readouterr().out == (
        "claim,params,exact,claimed,verdict,citation\n"
        'bistar.sum,"m=1,n=1",4,3,MISMATCH,"chi(B_{m,n}) + chi(L(B_{m,n})) '
        '= 2 + max(m, n)"\n'
        'bistar.product,"m=1,n=1",4,2,MISMATCH,"chi(B_{m,n}) * chi(L(B_{m,n})) '
        '= 2 max(m, n)"\n')


def test_audit_match_exits_zero(capsys):
    assert run(["audit", "--family", "wheel", "--max", "5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("| claim | params | exact | claimed | verdict | citation |")
    assert "MISMATCH" not in out


def test_audit_expected_fingerprint_round_trip(tmp_path, capsys):
    fp = tmp_path / "expected.json"
    assert run(["audit", "--family", "fan", "--max", "4",
                "--emit-expected", str(fp)]) == 1
    keys = json.loads(fp.read_text())
    assert "fan.chi_line[n=2]" in keys
    assert run(["audit", "--family", "fan", "--max", "4",
                "--expected", str(fp)]) == 0
    # a regression beyond the fingerprint still exits 1
    fp.write_text(json.dumps(keys[:1]))
    assert run(["audit", "--family", "fan", "--max", "4",
                "--expected", str(fp)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("content", [b"not json", b"5", b'{"a": 1}', b"[1, 2]",
                                     b'["fan.chi_line[n=2]", 3]', b'["\xff"]'])
def test_audit_malformed_expected_is_usage_error(tmp_path, capsys, content):
    fp = tmp_path / "expected.json"
    fp.write_bytes(content)
    assert run(["audit", "--family", "fan", "--max", "4", "--expected", str(fp)]) == 2
    out, err = capsys.readouterr()
    assert out == ""  # rejected before the sweep runs
    assert err.startswith(f"error: --expected file {fp}")


def test_audit_budget_exit(capsys):
    assert run(["audit", "--family", "wheel", "--max", "4", "--budget", "1"]) == 3
    capsys.readouterr()


def test_audit_complete_bipartite_to_8_within_default_budget(capsys):
    assert run(["audit", "--family", "complete_bipartite", "--max", "8",
                "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1 + 2 * 64  # header, then sum and product per point
    assert "BUDGET_EXCEEDED" not in out


def test_audit_workers_one_is_plain_audit(capsys):
    # --workers is kept for old invocations and accepts only 1
    assert run(["audit", "--format", "csv"]) == 1
    plain = capsys.readouterr().out
    assert run(["audit", "--workers", "1", "--format", "csv"]) == 1
    assert capsys.readouterr().out == plain


def test_audit_default_matches_pinned_fingerprint(tmp_path, capsys):
    pinned = DATA / "expected_default.json"
    emitted = tmp_path / "emitted.json"
    assert run(["audit", "--expected", str(pinned), "--emit-expected", str(emitted)]) == 0
    capsys.readouterr()
    assert len(json.loads(pinned.read_text())) == 98
    assert emitted.read_bytes() == pinned.read_bytes()


@pytest.mark.parametrize("argv, digest", [
    (["audit", "--format", "json"],
     "85025f249cc920117231e17978c8669e3ac73ac3f85654e9803708d1762114c5"),
    (["audit", "--family", "bipartite", "--max", "6", "--format", "json"],
     "235a88816a76f726c6a0190cbef9f3a1b2d4cc56a420c30025a7593a4f1b8d1f"),
])
def test_audit_report_bytes_pinned(argv, digest, capsys):
    # whole reports, witnesses included; both contain mismatches, so exit 1
    assert run(argv) == 1
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def _audit_workload_argvs(monkeypatch) -> list[list[str]]:
    """The audit benchmark workload's argv lists, read from perfbench."""
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    argvs = [["audit", "--format", "json"],
             ["audit", "--family", "complete_bipartite", "--max", "8",
              "--budget", str(workloads.SMALL_BUDGET), "--format", "json"]]
    for family, (lo, hi) in workloads.AUDIT_LADDER.items():
        argvs += [["audit", "--family", family, "--max", str(k), "--format", "json"]
                  for k in range(lo, hi + 1)]
    return argvs


def test_audit_json_reports_are_json_dumps(capsys, monkeypatch):
    """Every JSON report of the audit workload is the bytes json.dumps
    writes for the rows it holds."""
    argvs = _audit_workload_argvs(monkeypatch)
    assert len(argvs) == 100
    for argv in argvs:
        run(argv)
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv


def test_cli_determinism(capsys):
    run(["audit", "--family", "complete", "--max", "5", "--format", "json"])
    first = capsys.readouterr().out
    run(["audit", "--family", "complete", "--max", "5", "--format", "json"])
    assert capsys.readouterr().out == first


def test_round_trip_family_chi(tmp_path, capsys):
    cases = []
    for family in families.FAMILIES:
        mins = families.FAMILY_TABLE[family].mins
        if len(mins) == 1:
            cases += [(family, (p,)) for p in range(mins[0], 9)]
        else:
            cases += [(family, (m, n)) for m in range(1, 9) for n in range(1, 9)]
    for family, params in cases:
        g = families.make(family, *params)
        path = tmp_path / "g.txt"
        assert run(["family", "--name", family,
                    "--params", ",".join(map(str, params)),
                    "--out", str(path)]) == 0
        assert run(["chi", str(path)]) == 0
        printed = int(capsys.readouterr().out)
        assert printed == chromatic_number(g).num_colors


def test_exit_code_matrix(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 1\n0 0\n")
    missing = str(tmp_path / "nope.txt")
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b"2 1\n0 1 \xe9\n")
    wheel5 = tmp_path / "w5.txt"
    write_edge_list(families.wheel(5), wheel5)
    cycle7 = tmp_path / "c7.txt"
    write_edge_list(families.cycle(7), cycle7)
    long_cycle = tmp_path / "c1501_p3.txt"
    write_edge_list(disjoint_union([families.cycle(1501), families.path(3)]), long_cycle)
    cycle1501 = tmp_path / "c1501.txt"
    write_edge_list(families.cycle(1501), cycle1501)
    prism = tmp_path / "prism.txt"
    write_edge_list(odd_prism(), prism)
    matrix = [
        (["chi", str(wheel5)], 0),
        (["chi", missing], 2),
        (["chi", str(bad)], 2),
        (["chi", str(latin1)], 2),
        (["family", "--name", "cycle", "--params", "2"], 2),
        (["family", "--name", "wheel", "--params", "x"], 2),
        (["edge-color", "--family", "helm", "--params", "3", "--method", "helm"], 2),
        (["chi", str(wheel5), "--budget", "1"], 3),
        (["ng", "check", str(cycle7), "--budget", "13"], 3),  # 13 + 13 nodes
        (["ng", "check", str(cycle7), "--budget", "26"], 0),
        (["chi-index", str(long_cycle)], 0),  # Δ = 2: certified, no deep search
        (["chi", str(cycle1501)], 0),  # 1501 vertices deep, past the recursion limit
        (["chi-index", str(prism)], 0),  # Δ-search 999 vertices deep in L(C_333 □ K_2)
        (["nonsense"], 2),
        ([], 2),
        (["--help"], 0),
        (["ng", "feasible", "0", "1", "1"], 2),
        (["audit", "--workers", "2"], 2),
        (["audit", "--workers", "0"], 2),
    ]
    for argv, expected in matrix:
        assert run(argv) == expected, argv
        capsys.readouterr()


def test_shared_parser_keeps_no_state_between_calls(tmp_path, capsys):
    """One parser serves every call in a process; no call's options,
    errors or help leak into the next."""
    wheel5 = tmp_path / "w5.txt"
    write_edge_list(families.wheel(5), wheel5)
    assert run(["chi", str(wheel5), "--budget", "1"]) == 3
    capsys.readouterr()
    assert run(["chi", str(wheel5)]) == 0  # the default budget again
    assert capsys.readouterr().out == "3\n"
    assert run(["chi", "--budget", "0", str(wheel5)]) == 2
    capsys.readouterr()
    test_audit_csv_golden(capsys)  # byte-equal to its golden after the usage error
    assert run(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: chromalab")
    assert build_parser() is build_parser()


def test_edge_list_error_reports_line_number(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 2\n0 1\n0 1\n")
    assert run(["chi", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err
    bad.write_bytes(b"3 2\n0 1\n1 2 \xff\n")
    assert run(["chi", str(bad)]) == 2
    assert capsys.readouterr().err == "error: line 3: not UTF-8 text (byte 0xff)\n"


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "chromalab.cli",
                           "ng", "feasible", "4", "2", "2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "true\n"


def _run_capped(argv):
    """Run the CLI in a subprocess under a 400 MB address-space cap."""
    resource = pytest.importorskip("resource")
    cap = 400_000 * 1024

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    return subprocess.run([sys.executable, "-m", "chromalab.cli", *argv],
                          capture_output=True, text=True, preexec_fn=limit, timeout=60)


def test_out_of_memory_exits_3_without_traceback(tmp_path):
    """Running out of memory is a resource limit, like the node budget: exit
    3 and one error line.  ng check on the edgeless graph of order 3000
    builds its complement K_3000, about 4.5M edge tuples, more than a
    400 MB address space holds."""
    header = tmp_path / "header.txt"
    header.write_text("3000 0\n")
    proc = _run_capped(["ng", "check", str(header)])
    assert proc.returncode == 3
    assert proc.stderr == "error: out of memory\n"  # no traceback


def test_order_past_index_range_is_a_format_error(tmp_path):
    """An order too large to index is a malformed header: exit 2 with one
    error line, not the audit-mismatch exit 1 of an OverflowError."""
    header = tmp_path / "huge.txt"
    header.write_text("99999999999999999999 0\n")
    proc = _run_capped(["chi", str(header)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: line 1:") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_audit_max_past_index_range_is_a_domain_error():
    """A largest parameter too large to index is out of domain, by the same
    rule as an edge-list header's order: exit 2 with one error line, not
    the audit-mismatch exit 1 of an OverflowError."""
    proc = _run_capped(["audit", "--family", "star", "--max", "99999999999999999999"])
    assert proc.returncode == 2
    assert proc.stderr == ("error: largest parameter 99999999999999999999 "
                           "exceeds the platform's index range\n")


@pytest.mark.parametrize("family, argv", [
    ("path", ["family", "--name", "path", "--params", "99999999999999999999"]),
    ("complete_bipartite",
     ["family", "--name", "complete_bipartite", "--params", "1,99999999999999999999"]),
    ("fan", ["edge-color", "--family", "fan", "--params", "99999999999999999999",
             "--method", "fan"]),
])
def test_family_parameter_past_index_range_is_a_domain_error(family, argv):
    """A family parameter too large to index is out of domain, by the same
    rule as an edge-list header's order: exit 2 with one error line before
    anything is allocated, not exit 3 out of memory."""
    proc = _run_capped(argv)
    assert proc.returncode == 2
    assert proc.stderr == (f"error: {family} parameter n=99999999999999999999 "
                           "exceeds the platform's index range\n")


def test_ng_construct_past_index_range_is_a_domain_error():
    """A feasible order too large to index is out of domain for ng
    construct, by the same rule as an edge-list header's order: exit 2 with
    one error line before any clique size is listed, not exit 3 out of
    memory."""
    huge = "99999999999999999999"
    proc = _run_capped(["ng", "construct", huge, "1", huge])
    assert proc.returncode == 2
    assert proc.stderr == (f"error: ng_construct order n={huge} "
                           "exceeds the platform's index range\n")


@pytest.mark.parametrize("graph, argv, expected", [
    (("path", 100000), ["chi"], "2"),
    (("path", 100000), ["chi-index"], "2"),
    (("path", 100000), ["edge-color"], "2"),
    (("star", 10000), ["chi-index"], "10000"),
    (("bistar", 5000, 5000), ["edge-color", "--method", "misra-gries"], "5001"),
], ids=["chi-path", "chi-index-path", "edge-color-path", "chi-index-star", "misra-gries-bistar"])
def test_a_large_sparse_graph_fits_in_memory(tmp_path, graph, argv, expected):
    """chi, chi-index and edge-color answer on large sparse graphs inside a
    400 MB address space.  The BFS that two-colors P_100000 reads adjacency
    lists built from the 99,999 edges, not n-bit masks (669 MB on this
    path); chi runs it before it builds any rank mask, so bipartite input
    never pays for masks only the search reads.  The partial edge coloring
    behind König and Misra-Gries keeps one entry per colored edge end, not
    an order × palette table (10^8 entries on K_{1,10000})."""
    name, *params = graph
    path = tmp_path / "graph.txt"
    write_edge_list(getattr(families, name)(*params), path)
    proc = _run_capped([argv[0], str(path), *argv[1:]])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{expected}\n"


def test_ng_construct_of_a_large_clique_fits_in_memory(tmp_path):
    """ng construct 1600 1600 1 writes K_1600, 1,279,200 edges, inside a
    400 MB address space: the clique generator and disjoint_union build
    through the trusted constructor, so no derived edge is checked, put in
    a set and sorted a second time."""
    out = tmp_path / "k1600.txt"
    proc = _run_capped(["ng", "construct", "1600", "1600", "1", "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    with open(out, encoding="utf-8") as fh:
        assert fh.readline() == "1600 1279200\n"


def _last_line(path) -> str:
    with open(path, "rb") as fh:
        fh.seek(-64, 2)
        return fh.read().decode().splitlines()[-1]


@pytest.mark.parametrize("argv, first, last", [
    (["linegraph", "STAR"], "3000 4498500", "2998 2999"),
    (["family", "--name", "complete", "--params", "2000"], "2000 1999000", "1998 1999"),
    (["ng", "construct", "1800", "1800", "1"], "1800 1619100", "1798 1799"),
], ids=["linegraph-star", "family-complete", "ng-construct"])
def test_edge_list_writers_stream_inside_memory(tmp_path, argv, first, last):
    """linegraph, family and ng construct write each line as it is made, not
    a list of lines or their joined text, so each answers inside a 400 MB
    address space: L(K_{1,3000}) = K_3000 is never held, K_2000 is held
    once, and disjoint_union keeps the tuples of K_1800, its only graph."""
    star = tmp_path / "star.txt"
    write_edge_list(families.star(3000), star)
    out = tmp_path / "out.txt"
    proc = _run_capped([str(star) if a == "STAR" else a for a in argv] + ["--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    with open(out, encoding="utf-8") as fh:
        assert fh.readline() == first + "\n"
    assert _last_line(out) == last
    out.unlink()  # tens of MB


@pytest.mark.parametrize("argv", [
    ["linegraph", "STAR"],
    ["family", "--name", "complete", "--params", "400"],
    ["ng", "construct", "400", "400", "1"],
], ids=["linegraph", "family", "ng-construct"])
def test_reader_closing_stdout_early_ends_quietly(tmp_path, argv):
    """A reader that stops after the first line, as ``| head -n 1`` does,
    ends the command with exit 0 and nothing on stderr: the 79,800 lines
    overflow the pipe, so the write that finds it closed is a streamed one."""
    star = tmp_path / "star.txt"
    write_edge_list(families.star(400), star)
    proc = subprocess.Popen([sys.executable, "-m", "chromalab.cli",
                             *[str(star) if a == "STAR" else a for a in argv]],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline() == "400 79800\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == ""
    proc.stderr.close()


def test_linegraph_of_huge_edgeless_header_allocates_nothing_per_vertex(tmp_path):
    """L(G) of an edgeless graph is the empty graph whatever G's order, so
    linegraph answers at once inside a 400 MB address space."""
    header = tmp_path / "wide.txt"
    header.write_text("1000000000000 0\n")
    proc = _run_capped(["linegraph", str(header)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 0\n"
