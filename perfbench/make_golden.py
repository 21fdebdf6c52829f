"""Regenerate ``golden.json`` from the chromalab sources of this checkout.

    python3 perfbench/make_golden.py

The golden file holds the audit's expected-mismatch fingerprint, totals of
the exhaustive sweep, and the chi / chi' value of every search instance
at the default seed.  Regenerate it only when a workload's definition
changes, never to make a changed program pass, and review the diff: every
value must still be certified by the witness checks the benchmark runs.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
GOLDEN_PATH = os.path.join(HERE, "golden.json")


def main() -> None:
    if not os.path.exists(GOLDEN_PATH):
        with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
            json.dump({"fingerprint": [], "sweep": {}, "values": {}}, fh)
    import run
    import workloads
    from chromalab import claims, coloring, enumeration, graphs, nordhaus_gaddum

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "expected.json")
        code, _, _ = workloads._run_cli(["audit", "--emit-expected", path])
        assert code == 1, f"default audit exited {code}"
        with open(path, encoding="utf-8") as fh:
            fingerprint = json.load(fh)

    totals = {"chi": 0, "chi_comp": 0, "chi_index": 0, "class2": 0}
    for n in range(1, workloads.SWEEP_MAX_ORDER + 1):
        for g in enumeration.all_labeled_graphs(n):
            report = nordhaus_gaddum.ng_check(g)
            totals["chi"] += report.chi
            totals["chi_comp"] += report.chi_comp
            if g.edges:
                k = coloring.chromatic_index(g).num_colors
                totals["chi_index"] += k
                totals["class2"] += k == graphs.max_degree(g) + 1
    totals["bipartite_points"] = len(
        claims.audit_bipartite_bounds(workloads.SWEEP_MAX_ORDER)) // 2

    workloads.GOLDEN["values"] = {}
    wl = workloads.build("search", workloads.DEFAULT_SEED, None)
    result = run.run_pass(wl, workloads)
    assert not result.failures, result.failures
    # Operations that end over budget still get their closed-form value, so a
    # change that answers them is checked against it.
    assert all(wl.values.get(k, v) == v for k, v in wl.closed_forms.items())
    values = {**wl.closed_forms, **wl.values}
    golden = {"fingerprint": sorted(fingerprint), "sweep": totals,
              "values": {"search": dict(sorted(values.items()))}}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}: {len(fingerprint)} fingerprint keys, "
          f"{len(values)} search values, sweep totals {totals}")


if __name__ == "__main__":
    main()
