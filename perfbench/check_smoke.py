"""Smoke test of the benchmark harness at small sizes.

Not collected by a plain ``pytest`` run (the file name does not match
``test_*.py``), so the Tier-1 suite stays as it is.  Run it explicitly,
from the root of a checkout:

    python3 -m pytest perfbench/check_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402


def _bench(*args):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_run_reports_every_metric(workload):
    for trace, expected in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        proc = _bench("--smoke", "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0, proc.stdout
        assert result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert not list((ROOT / ".perfbench-work").glob("iter-*")), "iteration directories left behind"


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.NAMES
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_inputs_follow_the_seed():
    def argvs(name, seed):
        return [op.argv for op in workloads.build(name, seed)]

    for name in workloads.NAMES:
        assert argvs(name, 5) == argvs(name, 5)
    assert argvs("trajectories", 5) != argvs("trajectories", 6)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "trajectories", "--seed", "0", "--seconds", "1"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
