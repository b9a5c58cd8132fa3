"""Repository tools run against the current package."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

import ostlab.flow as flow


def load_tool(name):
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_bench_measures_one_configuration(monkeypatch, capsys):
    bench = load_tool("layer_bench")
    monkeypatch.setattr(bench, "MODES", (8,))
    monkeypatch.setattr(bench, "BATCHES", (20,))
    monkeypatch.setattr(bench, "REPEATS", 3)
    monkeypatch.setattr(bench, "STACK", (64, 8))
    # _measure switches the product kernel through this module constant; restored after the test
    monkeypatch.setattr(flow, "_GEMM_MAX_MODES", flow._GEMM_MAX_MODES)
    bench._measure("pinned")
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(r["kernel"], r["layer"], r.get("threads")) for r in records] == [
        ("table", "product", None), ("table", "etdrk4_step", None), ("fft", "product", None),
        ("fft", "etdrk4_step", None), ("table", "stack_flow", 1), ("table", "stack_flow", 2),
    ]
    for r in records:
        batch, calls = (64, 1) if r["layer"] == "stack_flow" else (20, 200)
        assert (r["blas"], r["m"], r["batch"], r["repeats"], r["calls_per_repeat"]) == ("pinned", 8, batch, 3, calls)
        assert r["us"] > 0.0 and r["q1_us"] <= r["us"] <= r["q3_us"]
        assert r["nvcsw"] >= 0.0


def test_artifact_digests_of_one_tiny_run(capsys):
    tool = load_tool("artifact_digests")
    lines = tool.digests([("tiny", ["simulate", "--modes", "2", "--t", "0.002", "--dt", "0.001"])])
    # one line per data file, sorted; the run's simulate.meta.json sidecar has none
    assert [line.split()[0] for line in lines] == ["tiny/final_state.csv", "tiny/simulate.csv"]
    for line in lines:
        whole, data = re.fullmatch(r"tiny/\S+ ([0-9a-f]{64}) data=([0-9a-f]{64})", line).groups()
        assert whole != data  # the CSV's "# " configuration lines are left out of the second
    with pytest.raises(SystemExit) as exc:
        tool.digests([("bad", ["simulate", "--dt", "0"])])
    assert exc.value.code == 1
    assert "bad: exit 1" in capsys.readouterr().err
