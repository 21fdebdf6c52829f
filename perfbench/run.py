"""chromalab benchmark: one workload, one seed, one process, one thread.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload audit|sweep|search|build \
        --seed N --seconds S --trace 0|1

A single client runs the workload's operation list in a closed loop, one
call after another, and repeats the list ("a pass") while the next pass
still fits in ``--seconds``.  Every call into chromalab is timed from
outside; every output is checked after its timer stops.  With
``--trace 0`` the last line of stdout is a JSON object carrying every
end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` untraced and
traced passes alternate and it carries every per-layer metric.  Earlier
lines are a human-readable summary; per-operation search-node counts and
the layer metrics are also written to ``.perfbench_out/`` in the checkout.

chromalab is imported from ``src/`` of the checkout, never from the
environment; without it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from array import array
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Fresh interpreters whose set-up is timed in a --trace 0 run, in addition
#: to the run's own: this many after each pass, and at least SETUP_PROBES.
SETUP_PROBES, SETUP_PROBES_PER_PASS = 6, 2


def _fail(message: str) -> int:
    print(f"perfbench: error: {message}", file=sys.stderr)
    return 2


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("audit", "sweep", "search", "build"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true",
                   help="internal: time import and input generation, print it, exit")
    return p.parse_args(argv)


def _setup(workload: str, seed: int, workdir: str):
    """Import chromalab from the checkout and build the workload's inputs."""
    t = perf_counter()
    sys.path.insert(0, SRC)
    import chromalab
    if not os.path.abspath(chromalab.__file__).startswith(SRC + os.sep):
        raise ImportError(f"chromalab imported from {chromalab.__file__}, not {SRC}")
    import workloads
    wl = workloads.build(workload, seed, workdir)
    return wl, perf_counter() - t


def _probe_setups(workload: str, seed: int, count: int) -> list[float]:
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
        times.append(float(proc.stdout.split()[-1]))
    return times


class PassResult:
    def __init__(self):
        self.latencies = array("d")
        self.nodes = array("q")  # -1 where the benchmark passed no budget
        self.recursion_errors: list[int] = []  # indices of ops that raised RecursionError
        self.ok = self.known = self.failed = 0
        self.names: list[str] = []
        self.failures: list[tuple[str, str]] = []
        self.known_ops: list[tuple[str, str]] = []
        self.wall = 0.0


def run_pass(wl, workloads, tracer=None, keep_names=False) -> PassResult:
    """Run one pass; operation names are kept only when asked, so the
    benchmark's own memory does not grow with the number of passes."""
    from chromalab.coloring import SearchBudget
    res = PassResult()
    for op in wl.ops():
        budget = SearchBudget(op.limit) if op.limit else None
        if tracer is not None:
            tracer.begin_op()
            tracer.active = True
        t = perf_counter()
        try:
            out, err = op.call(budget), None
        except Exception as exc:  # a failed operation never aborts the run
            out, err = None, exc
        dt = perf_counter() - t
        if tracer is not None:
            tracer.active = False
        res.latencies.append(dt)
        res.nodes.append(budget.nodes if budget is not None else -1)
        if isinstance(err, RecursionError):
            res.recursion_errors.append(len(res.nodes) - 1)
        if keep_names:
            res.names.append(op.name)
        if err is None:
            try:
                status = op.check(out)
            except workloads.CheckFailed as exc:
                res.failed += 1
                res.failures.append((op.name, str(exc)))
                continue
            except Exception as exc:
                res.failed += 1
                res.failures.append((op.name, f"check raised {type(exc).__name__}: {exc}"))
                continue
            if status == workloads.KNOWN:
                res.known += 1
                res.known_ops.append((op.name, "known-defect output"))
            else:
                res.ok += 1
        elif type(err).__name__ == op.defect:
            res.known += 1
            res.known_ops.append((op.name, type(err).__name__))
        else:
            res.failed += 1
            res.failures.append((op.name, f"{type(err).__name__}: {str(err)[:200]}"))
    res.wall = sum(res.latencies)
    return res


def _median(values):
    return statistics.median(values) if values else 0.0


def _digest(nodes) -> str:
    return hashlib.sha256(nodes.tobytes()).hexdigest()[:16]


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "chromalab", "__init__.py")):
        return _fail(f"no chromalab sources under {SRC}")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        return _fail(f"missing {spec_path}")
    workdir = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        return _run(args, spec_path, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass


def _run(args, spec_path: str, workdir: str) -> int:
    try:
        wl, setup_s = _setup(args.workload, args.seed, workdir)
    except ImportError as exc:
        return _fail(f"cannot import chromalab from {SRC}: {exc}")
    if args.probe_setup:
        print(f"{setup_s:.9f}")
        return 0
    import workloads
    from tracer import Tracer
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    setups = [setup_s]
    workers_ratio = 0.0  # 0 means not measured
    if args.trace and args.workload == "audit":
        workers_ratio = workloads.workers2_over_serial(wl)
    tracer = Tracer() if args.trace else None
    untraced: list[PassResult] = []
    traced: list[PassResult] = []
    layer_runs: list[dict] = []
    traced_nodes: list[array] = []

    # Alternate untraced and traced passes in the traced run, at least one of
    # each; stop when the next pass would end after --seconds.
    modes = (False,) if tracer is None else (False, True)
    last = {}
    start = perf_counter()
    i = 0
    while True:
        use_trace = modes[i % len(modes)]
        t = perf_counter()
        if use_trace:
            tracer.reset()
            tracer.install()  # only for this pass, so untraced passes run unwrapped code
            traced.append(run_pass(wl, workloads, tracer))
            tracer.uninstall()
            layer_runs.append(tracer.layer_metrics())
            traced_nodes.append(tracer.op_nodes)
        else:
            untraced.append(run_pass(wl, workloads, keep_names=not untraced))
            if tracer is None:  # spread set-up samples over the run, like the passes
                setups += _probe_setups(args.workload, args.seed, SETUP_PROBES_PER_PASS)
        last[use_trace] = perf_counter() - t
        i += 1
        if i >= len(modes) and (perf_counter() - start
                                + last[modes[i % len(modes)]] > args.seconds):
            break
    # Read before the run's own summaries allocate anything.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is None:
        setups += _probe_setups(args.workload, args.seed, max(0, SETUP_PROBES + 1 - len(setups)))

    passes = untraced + traced
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    known = sum(p.known for p in passes)
    ok = sum(p.ok for p in passes)

    # Search-node counts must repeat exactly from pass to pass.
    unsteady = []
    reference = untraced[0].nodes
    deep = set(untraced[0].recursion_errors)
    for p in untraced[1:]:
        if p.nodes != reference:
            unsteady.append("untraced passes disagree")
    for nodes in traced_nodes:
        if nodes != traced_nodes[0]:
            unsteady.append("traced passes disagree")
        # The tracer's wrapper frames move the depth at which RecursionError
        # strikes, so those operations are compared between like passes only.
        if any(a >= 0 and a != b for i, (a, b) in enumerate(zip(reference, nodes))
               if i not in deep):
            unsteady.append("traced and untraced node counts disagree")
    node_counts = traced_nodes[0] if traced_nodes else reference

    if args.trace == 0:
        latencies = array("d")
        for p in untraced:
            latencies.extend(p.latencies)
        deciles = statistics.quantiles(latencies, n=10, method="inclusive")
        values = {
            "wall_s": _median([p.wall for p in untraced]),
            "op_p50_ms": deciles[4] * 1e3,
            "op_p90_ms": deciles[8] * 1e3,
            "answered_share": ok / attempted,
            "setup_s": _median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
        wanted = spec["end_to_end"]
    else:
        values = {name: _median([run[name] for run in layer_runs]) for name in layer_runs[0]}
        values["trace.overhead_s"] = (_median([p.wall for p in traced])
                                      - _median([p.wall for p in untraced]))
        values["cli.workers2_over_serial"] = workers_ratio
        wanted = spec["per_layer"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return _fail(f"benchmark produced no value for {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    first = passes[0]
    print(f"perfbench: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(untraced)} untraced + {len(traced)} traced, "
          f"ops/pass={len(first.latencies)}")
    print(f"perfbench: attempted={attempted} answered={ok} known_defects={known} "
          f"failed={failed} failed_share(incl. known defects)={(known + failed) / attempted:.6f}")
    for name, why in dict(first.known_ops).items():
        print(f"perfbench: known defect: {name}: {why}")
    for name, why in dict(p for r in passes for p in r.failures).items():
        print(f"perfbench: FAILED: {name}: {why}")
    print(f"perfbench: search nodes total={sum(n for n in node_counts if n > 0)} "
          f"digest={_digest(node_counts)}" + (f" UNSTEADY: {sorted(set(unsteady))}"
                                              if unsteady else ""))
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "untraced_walls": [p.wall for p in untraced],
                   "traced_walls": [p.wall for p in traced],
                   "values": values, "known_defects": first.known_ops,
                   "failures": [f for r in passes for f in r.failures],
                   "op_names": first.names, "op_nodes": list(node_counts),
                   "op_ms": [round(t * 1e3, 4) for t in first.latencies]}, fh)
    print(json.dumps({"correct": failed == 0 and not unsteady, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
