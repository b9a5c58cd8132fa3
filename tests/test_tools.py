"""Repository tools run against the current package."""

import importlib.util
import json
from pathlib import Path

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
    # _measure switches the product kernel through this module constant; restored after the test
    monkeypatch.setattr(flow, "_GEMM_MAX_MODES", flow._GEMM_MAX_MODES)
    bench._measure("pinned")
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(r["kernel"], r["layer"]) for r in records] == [
        ("table", "product"), ("table", "etdrk4_step"), ("fft", "product"), ("fft", "etdrk4_step"),
    ]
    for r in records:
        assert (r["blas"], r["m"], r["batch"], r["repeats"], r["calls_per_repeat"]) == ("pinned", 8, 20, 3, 200)
        assert r["us"] > 0.0 and r["q1_us"] <= r["us"] <= r["q3_us"]
