"""One iteration of one workload, in a fresh interpreter started by run.py.

Set-up ends when ``import ostlab.cli`` returns; the parent took the start
time just before it spawned this process, on the same monotonic clock.
The timed interval runs from the first operation's start to the last
verdict.  Everything after it (artifact sizes, digests, span export) is
untimed.  The result goes to the JSON file named by --result.
"""

import time

import ostlab.cli  # noqa: F401  (the set-up being measured)

SETUP_END = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
    }


def digest(op_dir: Path):
    """sha256 over the data artifacts (every file but *.meta.json), in path order."""
    files = sorted(p for p in op_dir.rglob("*") if p.is_file() and not p.name.endswith(".meta.json"))
    if not files:
        return None
    h = hashlib.sha256()
    for p in files:
        h.update(str(p.relative_to(op_dir)).encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def iterate(args) -> dict:
    out = Path(args.out).resolve()
    ops = workloads.build(args.workload, args.seed, args.smoke)
    trace = tracer.Tracer() if args.trace else None
    if trace is not None:
        trace.install()
    ctx = {}
    workloads.capture_saves(ctx)

    failures, op_s = {}, {}
    t0, c0 = time.perf_counter(), time.process_time()
    for i, op in enumerate(ops):
        start = time.perf_counter()
        op_dir = out / op.label
        os.environ["OSTLAB_OUTDIR"] = str(op_dir)
        if trace is not None:
            trace.begin_op(i)
        try:
            failures[op.label] = workloads.run_op(op, op_dir, ctx)
        except Exception:  # an operation that raises is a failed operation
            failures[op.label] = [traceback.format_exc(limit=3)]
        op_s[op.label] = time.perf_counter() - start
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    files = [p for p in out.rglob("*") if p.is_file()]
    result = {
        "setup_end": SETUP_END,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb,
        "artifact_mb": sum(p.stat().st_size for p in files) / 1e6,
        "artifact_files": len(files),
        "op_s": op_s,
        "failures": failures,
        "digests": {op.label: digest(out / op.label) for op in ops if op.argv is not None},
        "environment": environment(),
    }
    if trace is not None:
        layers = tracer.layer_metrics(trace.spans)
        layers["gibbs.save_mb"] = sum(
            p.stat().st_size for p in files if p.parent.name == "ensemble"
        ) / 1e6
        result["layers"] = layers
        trace.write(args.spans)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--probe", action="store_true", help="print the set-up end time and exit")
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="fresh, empty output directory")
    parser.add_argument("--result", help="JSON file for the iteration's measurements")
    parser.add_argument("--spans", help="JSON-lines file for the traced spans")
    args = parser.parse_args(argv)
    if args.probe:
        print(repr(SETUP_END))
        return 0
    result = iterate(args)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
