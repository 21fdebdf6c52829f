import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _emit():
    spec = importlib.util.spec_from_file_location("emit", ROOT / "bench" / "emit.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_emit_collects_search_metrics_and_node_pin():
    """One short search run: every end-to-end metric is summarized, and the
    node total is the machine-independent pin."""
    emit = _emit()
    report = emit.collect(["search"], seeds=[1], seconds=0.2)
    assert set(report) == {"commit", "python", "platform", "cpus", "seconds", "seeds",
                           "workloads"}
    assert report["seeds"] == [1] and report["seconds"] == 0.2
    search = report["workloads"]["search"]
    assert search["correct"] is True
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert set(search["metrics"]) == {m["name"] for m in metrics}
    for m in metrics:
        row = search["metrics"][m["name"]]
        assert (row["unit"], row["better"]) == (m["unit"], m["better"])
        assert row["q1"] <= row["median"] <= row["q3"]
    assert search["nodes"] == {"1": {"total": 548047, "digest": "67de07418dfec153"}}


def test_emit_raises_on_a_failed_run():
    emit = _emit()
    with pytest.raises(emit.BenchError, match="nope seed 1: exit 2"):
        emit.collect(["nope"], seeds=[1], seconds=0.2)
