"""Benchmark of the ostlab CLI on four verdict workloads.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Each iteration runs the whole workload in a fresh interpreter
(perfbench/worker.py) with ``src`` on PYTHONPATH, one process, and the
program's own ``--threads 2`` as its only parallelism (BLAS and OpenMP
pools are pinned to one thread).  Iterations repeat the same seed's
inputs until the next one would overrun --seconds; medians are reported.
Every iteration writes into a fresh, empty directory; all of them are
removed after the last iteration, outside any timed interval.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With --trace 0 the
metrics are the end-to-end ones:

- ``setup_s``: interpreter start through ``import ostlab.cli`` (median of
  two probes and every iteration, after one untimed warm-up probe);
- ``wall_s``: first operation start to last verdict;
- ``cpu_s``: user+sys time of the process over the same interval;
- ``peak_rss_mb``: the worker's peak resident set;
- ``artifact_mb`` and ``artifact_files``: everything the operations wrote;
- ``ok_op_share``: operations that passed / operations attempted.  The
  failed share (``failed / attempted`` in the result line) reads 0 when
  all is well, so the metric is its complement.

With --trace 1 the iterations alternate untraced and traced; the metrics are
the per-layer numbers of perfbench/tracer.py (medians over the traced
iterations) and ``trace.overhead_ratio``, the traced wall_s over the
untraced wall_s, minus 1.  A layer the workload does not reach reads 0.
The spans of the last traced iteration are kept in
``.perfbench-work/spans-<workload>.jsonl``.

An operation fails when it raises, exits non-zero, its verdict check on the
artifacts fails, or the sha256 of its data artifacts differs from an earlier
run of the same seed with the same program source and python/numpy/scipy
(digests are kept in ``.perfbench-work/digests.json``).  Byte-identity is
promised only within one numpy build.

--smoke runs every workload at small sizes in a few seconds; it is what
perfbench/check_smoke.py exercises.
"""

from __future__ import annotations

import argparse
import array
import fcntl
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (imports ostlab only when an operation runs)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "artifact_mb": "MB",
    "artifact_files": "count",
    "ok_op_share": "ratio",
}

PER_LAYER = {
    "flow.busy_s": "s",
    "flow.row_steps": "count",
    "flow.row_steps_per_s": "1/s",
    "flow.product_s": "s",
    "flow.product_calls": "count",
    "flow.product_mb_computed": "MB",
    "gibbs.sample_s": "s",
    "gibbs.samples_per_s": "1/s",
    "gibbs.pcn_s": "s",
    "gibbs.pcn_steps": "count",
    "gibbs.pcn_acceptance": "ratio",
    "gibbs.estimate_s": "s",
    "gibbs.ess_ratio": "ratio",
    "gibbs.save_s": "s",
    "gibbs.load_s": "s",
    "gibbs.save_mb": "MB",
    "invariance.self_s": "s",
    "invariance.redundant_samples": "count",
    "bourgain.resonance_s": "s",
    "bourgain.resonance_pairs_per_s": "1/s",
    "bourgain.bilinear_s": "s",
    "bourgain.kernel_s": "s",
    "spectral.busy_s": "s",
    "spectral.calls": "count",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}

HARD_LIMIT_S = 170.0  # the whole run, set-up probes and clean-up included

FS_IOC_GETFLAGS, FS_IOC_SETFLAGS, FS_TOPDIR_FL = 0x80086601, 0x40086602, 0x00020000


def _spread_subdirectories(path: Path) -> None:
    """Ask the file system to place each new subdirectory of path in another region.

    ext4 without a journal skips, when it allocates an inode, every inode of
    the block group freed in the last 60 to 360 s.  An ensemble-roundtrip
    iteration writes 40 000 files, and the previous run removed as many, so
    without this hint the writes measure a scan past that debris (wall_s
    varied 2x between runs).  The Orlov "top directory" flag spreads new
    subdirectories over block groups.  Where the flag is not supported
    nothing changes.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            flags = array.array("i", [0])
            fcntl.ioctl(fd, FS_IOC_GETFLAGS, flags, True)
            flags[0] |= FS_TOPDIR_FL
            fcntl.ioctl(fd, FS_IOC_SETFLAGS, flags, True)
        finally:
            os.close(fd)
    except OSError:
        pass


class Harness:
    def __init__(self, root: Path, args):
        self.root = root
        self.args = args
        self.work = root / ".perfbench-work"
        self.env = dict(os.environ)
        self.env.pop("OSTLAB_OUTDIR", None)
        self.env["PYTHONPATH"] = str(root / "src")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self.started = time.monotonic()
        self.count = 0

    def left(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.started)

    def _worker(self, extra, **kwargs):
        cmd = [sys.executable, str(HERE / "worker.py"), *extra]
        return subprocess.run(cmd, cwd=self.root, env=self.env, timeout=max(1.0, self.left()), **kwargs)

    def probe(self) -> float:
        start = time.monotonic()
        proc = self._worker(["--probe"], capture_output=True, text=True, check=True)
        return float(proc.stdout.split()[-1]) - start

    def iteration(self, traced: bool) -> dict:
        a = self.args
        self.count += 1
        tag = f"{a.workload}-{os.getpid()}-{self.count}"
        out, result = self.work / f"iter-{tag}", self.work / f"iter-{tag}.json"
        out.mkdir(parents=True)
        extra = ["--workload", a.workload, "--seed", str(a.seed), "--trace", str(int(traced)),
                 "--out", str(out), "--result", str(result),
                 "--spans", str(self.work / f"spans-{a.workload}.jsonl")]
        if a.smoke:
            extra.append("--smoke")
        start = time.monotonic()
        try:
            self._worker(extra, stdout=subprocess.DEVNULL, check=True)
            data = json.loads(result.read_text())
        finally:
            result.unlink(missing_ok=True)
        data["setup_s"] = data["setup_end"] - start
        data["traced"] = traced
        return data

    def clear(self) -> None:
        """Remove every iteration's output.

        Called before the first and after the last iteration, never between
        two: on ext4 without a journal, files created soon after others were
        removed pay for skipping the freed inodes.
        """
        self.work.mkdir(exist_ok=True)
        _spread_subdirectories(self.work)
        for p in self.work.glob("iter-*"):
            shutil.rmtree(p, ignore_errors=True) if p.is_dir() else p.unlink()


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted((root / "src" / "ostlab").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def _check_digests(h: Harness, runs: list) -> None:
    """Fail every operation whose data digest differs from the first one seen
    for the same seed, program source and python/numpy/scipy build."""
    path = h.work / "digests.json"
    store = json.loads(path.read_text()) if path.exists() else {}
    env = runs[0]["environment"]
    prefix = "|".join([h.args.workload, "smoke" if h.args.smoke else "full", str(h.args.seed),
                       _source_digest(h.root), env["python"], env["numpy"], env["scipy"]])
    for run in runs:
        for label, value in run["digests"].items():
            reference = store.setdefault(f"{prefix}|{label}", value)
            if value != reference and not run["failures"][label]:
                run["failures"][label] = [f"artifact digest {value} differs from {reference}"]
    path.write_text(json.dumps(store, indent=1, sort_keys=True))


def measure(h: Harness) -> tuple:
    a = h.args
    h.clear()
    h.probe()  # untimed warm-up: compiles bytecode and fills the page cache
    setups = [h.probe(), h.probe()]
    runs = []
    begin = time.monotonic()
    while True:
        round_start = time.monotonic()
        for traced in ((False, True) if a.trace else (False,)):
            runs.append(h.iteration(traced))
        now = time.monotonic()
        round_s = now - round_start
        if now - begin + round_s > a.seconds or h.left() < 2.0 * round_s + 5.0:
            break
    setups += [r["setup_s"] for r in runs]
    _check_digests(h, runs)
    return setups, runs


def summarize(setups, runs, trace: bool) -> dict:
    untraced = [r for r in runs if not r["traced"]]
    attempted = sum(len(r["failures"]) for r in runs)
    failed = sum(1 for r in runs for msgs in r["failures"].values() if msgs)
    if trace:
        traced = [r for r in runs if r["traced"]]
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in PER_LAYER if name != "trace.overhead_ratio"}
        values["trace.overhead_ratio"] = (
            statistics.median(r["wall_s"] for r in traced) / statistics.median(r["wall_s"] for r in untraced) - 1.0
        )
        units = PER_LAYER
    else:
        values = {name: statistics.median(r[name] for r in untraced)
                  for name in END_TO_END if name not in ("setup_s", "ok_op_share")}
        values["setup_s"] = statistics.median(setups)
        values["ok_op_share"] = 1.0 - failed / attempted
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small sizes; checks the harness, not performance")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ostlab" / "cli.py").is_file():
        print(f"error: {root} holds no ostlab source tree (src/ostlab); run from a checkout root",
              file=sys.stderr)
        return 2
    # a terminated run still kills and reaps its worker (subprocess.run does
    # so for any exception, SystemExit included)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    h = Harness(root, args)
    try:
        setups, runs = measure(h)
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: benchmark iteration did not complete: {exc}", file=sys.stderr)
        return 1
    finally:
        h.clear()

    result = summarize(setups, runs, bool(args.trace))
    print("environment " + json.dumps(runs[0]["environment"], sort_keys=True))
    print(f"iterations {len(runs)} ({sum(r['traced'] for r in runs)} traced), set-up samples {len(setups)}")
    for r in runs:
        for label, msgs in r["failures"].items():
            for msg in msgs:
                print(f"FAILED {label}: {msg}")
    print("wall_s per iteration " + " ".join(f"{r['wall_s']:.4g}{'t' if r['traced'] else ''}" for r in runs))
    for label in runs[0]["op_s"]:
        print(f"op {label} {statistics.median(r['op_s'][label] for r in runs if not r['traced']):.4g} s (median)")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
