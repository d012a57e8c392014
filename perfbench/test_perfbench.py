"""Self-test of the benchmark at a tiny graph size.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
TINY = 600


@pytest.fixture(autouse=True)
def tiny_graph(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "TRACE_DIR", tmp_path)
    monkeypatch.setattr(workloads, "NUM_VERTICES", TINY)
    monkeypatch.setattr(workloads, "DISTANCES", (1, 2, 3))
    monkeypatch.setattr(workloads, "QUERIES_PER_DISTANCE", 8)


def _run(capsys, name: str, seed: int, trace: int) -> dict:
    assert run.main(["--workload", name, "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_workloads_match_spec():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_metrics_emitted_and_repeatable(capsys, name):
    a = _run(capsys, name, seed=3, trace=0)
    assert a["correct"] and a["failed"] == 0 and a["attempted"] >= 1
    assert set(a) == {"correct", "attempted", "failed", "metrics"}
    for m in SPEC["end_to_end"]:
        got = a["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0, m["name"]
    assert set(a["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    b = _run(capsys, name, seed=3, trace=0)
    for key in ("virtual_s", "query_p50_vs", "query_p90_vs", "space_bytes_per_edge"):
        assert a["metrics"][key] == b["metrics"][key], key


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_emits_layers_and_holds_invariants(capsys, name):
    # failed counts traced results that differ from the untraced ones and
    # back-end ranks whose virtual-time split misses their clock delta.
    out = _run(capsys, name, seed=3, trace=1)
    assert out["correct"] and out["failed"] == 0
    assert (run.TRACE_DIR / f"trace-{name}-seed3.json.gz").stat().st_size > 0
    assert set(out["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"], m["name"]


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_answers_other_seed_other_inputs(name):
    wl = workloads.WORKLOADS[name]()
    a, b = run.iteration(wl, 5), run.iteration(wl, 5)
    assert a["out"].fingerprint == b["out"].fingerprint
    c = run.iteration(wl, 6)
    assert c["out"].fingerprint != a["out"].fingerprint
    first, other = wl.inputs(5), wl.inputs(6)
    key = "edges" if "edges" in first else "base"
    assert first[key].shape != other[key].shape or (first[key] != other[key]).any()


def test_missing_sources_fail_without_result(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", NAMES[0], "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
