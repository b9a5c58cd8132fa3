"""Repository tools run against the current package."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

import ostlab.flow as flow
from ostlab.gibbs import default_cutoff
from ostlab.spectral import make_grid


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
    monkeypatch.setattr(bench, "PCN_MODES", (3,))
    monkeypatch.setattr(bench, "PCN_STEPS", 50)
    monkeypatch.setattr(bench, "KERNEL_K_RANGE", 2000)
    # _measure switches the product kernel through this module constant; restored after the test
    monkeypatch.setattr(flow, "_GEMM_MAX_MODES", flow._GEMM_MAX_MODES)
    bench._measure("pinned")
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(r["kernel"], r["layer"], r.get("threads")) for r in records] == [
        ("table", "product", None), ("table", "etdrk4_step", None), ("fft", "product", None),
        ("fft", "etdrk4_step", None), ("table", "stack_flow", 1), ("table", "stack_flow", 2),
        (None, "pcn_step", None), (None, "pcn_step", None), (None, "kernel_sums", 1), (None, "kernel_sums", 2),
    ]
    assert [r.get("cutoff", "absent") for r in records[-5:-2]] == ["absent", None, default_cutoff(make_grid(3))]
    assert [r.get("k_range") for r in records[-3:]] == [None, 2000, 2000]
    for r in records:
        m, batch, calls = {"stack_flow": (8, 64, 1), "pcn_step": (3, 1, 50), "kernel_sums": (None, 16, 1)}.get(
            r["layer"], (8, 20, 200))
        assert (r["blas"], r["m"], r["batch"], r["repeats"], r["calls_per_repeat"]) == ("pinned", m, batch, 3, calls)
        assert r["us"] > 0.0 and r["q1_us"] <= r["us"] <= r["q3_us"]
        assert r["nvcsw"] >= 0.0 and r["minflt"] >= 0.0
        # the step and the stack flow also report the traced peak of one call
        assert ("peak_kib" in r) == (r["layer"] in ("etdrk4_step", "stack_flow"))
        assert r.get("peak_kib", 1.0) > 0.0


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


def test_artifact_digests_config_run_matches_flag_run():
    tool = load_tool("artifact_digests")
    lines = tool.digests([run for run in tool.RUNS if run[0] in ("simulate", "simulate-config")])
    data = {}
    for line in lines:
        label, name, digest = re.fullmatch(r"([^/]+)/(\S+) [0-9a-f]{64} data=([0-9a-f]{64})", line).groups()
        data.setdefault(label, {})[name] = digest
    # the file sets what the flags set (its grid.modes replaced by --modes), so the data digests agree
    assert data["simulate-config"] == data["simulate"] and len(data["simulate"]) == 2
