"""Write BENCH_<pr>.json: every BENCHMARK.json end-to-end metric of this checkout.

Usage (from the root of a checkout):

    python3 bench/emit.py --pr N

For each workload of ``BENCHMARK.json`` and each seed 1-3, runs the
unchanged ``perfbench/run.py --workload W --seed S --seconds T --trace 0``
in a subprocess, with T the file's ``run_seconds``.  From each run it reads
the last stdout line (the JSON verdict and metrics) and the ``perfbench:
search nodes total=... digest=...`` line.  The output records the commit,
the Python version and the platform, and per workload: ``correct`` (every
seed read ``correct: true``), the median and quartiles over the seeds of
every end-to-end metric, and the search-node total and digest per seed.
Node counts do not depend on the machine; times compare only within one
machine.  Exits 1, and writes nothing, if a run fails or reads
``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
SEEDS = (1, 2, 3)
_NODES = re.compile(r"^perfbench: search nodes total=(\d+) digest=(\w+)", re.MULTILINE)


class BenchError(Exception):
    """A perfbench run failed or read ``correct: false``."""


def _run(workload: str, seed: int, seconds: float) -> tuple[dict, int, str]:
    """One perfbench run: its final JSON object, node total and node digest."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    where = f"{workload} seed {seed}"
    nodes = _NODES.search(proc.stdout)
    if proc.returncode != 0 or nodes is None:
        raise BenchError(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if result.get("correct") is not True:
        raise BenchError(f"{where}: correct is not true:\n{proc.stdout}")
    return result, int(nodes.group(1)), nodes.group(2)


def _summary(values: list[float]) -> dict:
    """Median and quartiles; a single value is its own quartiles."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def collect(workloads: list[str] | None = None, seeds=SEEDS,
            seconds: float | None = None) -> dict:
    """Run the workloads (default: every one in BENCHMARK.json) at every seed
    for ``seconds`` (default: ``run_seconds``); raise BenchError on the
    first bad run."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if workloads is None:
        workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"] if seconds is None else seconds
    commit = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    out = {}
    for workload in workloads:
        runs = [_run(workload, seed, seconds) for seed in seeds]
        out[workload] = {
            "correct": True,
            "metrics": {m["name"]: {"unit": m["unit"], "better": m["better"],
                                    **_summary([r["metrics"][m["name"]]["value"]
                                                for r, _, _ in runs])}
                        for m in spec["end_to_end"]},
            "nodes": {str(seed): {"total": total, "digest": digest}
                      for seed, (_, total, digest) in zip(seeds, runs)},
        }
    return {"commit": commit, "python": platform.python_version(),
            "platform": platform.platform(), "cpus": os.cpu_count(),
            "seconds": seconds, "seeds": list(seeds), "workloads": out}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--pr", type=int, required=True, help="number in the output name")
    args = p.parse_args(argv)
    try:
        report = collect()
    except BenchError as exc:
        print(f"emit: error: {exc}", file=sys.stderr)
        return 1
    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"pr": args.pr, **report}, fh, indent=2)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
