"""Time the flow's product kernel, one ETDRK4 step, a threaded stack flow, one pCN step and the kernel sums.

Usage, from the root of a source checkout:

    python3 tools/layer_bench.py > layers.jsonl

For m in 8, 16, 32, 64 and batch sizes 1, 20 and 20 000 it times
``flow._nonlinear`` (one product plus the -i xi factor) and one ETDRK4 step
(``flow._etdrk4_step`` on ``flow._etdrk4_tables``) through the same
right-hand side, once with the table-GEMM product and once with
the pocketfft product (``flow._GEMM_MAX_MODES`` set past or below m), so
the two kernels meet at every m.  The ``stack_flow`` layer then takes a
``STACK``-shaped stack to t = 0.1 at dt 1e-3 through
``flow._advance_times`` on 1 and 2 worker threads, where the workers'
contention for the interpreter lock shows as voluntary context switches.
The ``pcn_step`` layer times ``gibbs.pcn_chain`` (beta 0.5) per move, over
chains of ``PCN_STEPS`` moves, at each m of ``PCN_MODES``, without a cutoff
and with ``gibbs.default_cutoff``; the copy of each state into its output
row, and the chain's setup spread over its moves, are inside the timed
loop.  The ``kernel_sums`` layer runs ``bourgain.kernel_sum_scan`` on
``kernel-scan``'s default (tau, n) grid and sum rho at ``KERNEL_K_RANGE``
on 1 and 2 worker threads.  Each
configuration runs in a fresh interpreter twice: with OpenBLAS pinned to
one thread (``OPENBLAS_NUM_THREADS=1``, as perfbench/run.py runs) and
unpinned.

Output is JSON lines: first one ``environment`` record, then one record
per (blas, layer, kernel, m, batch), for ``stack_flow`` also threads, for
``pcn_step`` (kernel null, batch 1) also cutoff (the radius or null) and
for ``kernel_sums`` (kernel and m null, batch the grid's point count) also
threads and k_range, with
the median and quartiles of the per-call time in microseconds and the
median voluntary context switches and minor page faults per call
(``nvcsw`` and ``minflt``, from ``getrusage``) over ``repeats`` timed
runs; ``etdrk4_step`` and ``stack_flow`` records also give the
tracemalloc peak of one untimed call above the level before it
(``peak_kib``), the working set the step's buffers set.  Nothing here
is a pass/fail check; the numbers back the table/FFT cut at ``flow._GEMM_MAX_MODES``.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

MODES = (8, 16, 32, 64)
BATCHES = (1, 20, 20_000)
REPEATS = 7
# (rows, m) of the stack_flow layer: the invariance-batch stack
STACK = (20_000, 8)
PCN_MODES = (8, 16, 32)
PCN_STEPS = 4000
KERNEL_K_RANGE = 100_000


def _time_per_call(fn, number: int, per_fn: int = 1, traced: bool = False) -> dict:
    """Per-call statistics of number calls of fn, each of which makes per_fn calls of the timed layer.

    With traced, also the tracemalloc peak of one untimed call above the
    level before it (``peak_kib``).
    """
    fn()  # workspace and tables are built on the first call
    record = {}
    if traced:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            fn()
            record["peak_kib"] = (tracemalloc.get_traced_memory()[1] - before) / 1024
        finally:
            tracemalloc.stop()
    runs, switches, faults, calls = [], [], [], number * per_fn
    for _ in range(REPEATS):
        usage = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        for _ in range(number):
            fn()
        runs.append((time.perf_counter() - start) / calls * 1e6)
        after = resource.getrusage(resource.RUSAGE_SELF)
        switches.append((after.ru_nvcsw - usage.ru_nvcsw) / calls)
        faults.append((after.ru_minflt - usage.ru_minflt) / calls)
    q1, median, q3 = statistics.quantiles(runs, n=4)
    record.update({"us": median, "q1_us": q1, "q3_us": q3, "nvcsw": statistics.median(switches),
                   "minflt": statistics.median(faults), "repeats": REPEATS, "calls_per_repeat": calls})
    return record


def _measure(blas: str) -> None:
    """Print one record per (layer, kernel, m, batch), stack_flow and kernel_sums thread count, and pcn_step."""
    import numpy as np

    from ostlab import bourgain, cli, flow, gibbs

    rng = np.random.default_rng(0)
    gemm_max_modes = flow._GEMM_MAX_MODES
    for m in MODES:
        grid = flow.make_grid(m)
        lam = flow._linear_rates(grid)
        for batch in BATCHES:
            shape = (m,) if batch == 1 else (batch, m)
            c = 0.3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            for kernel, cut in (("table", max(MODES)), ("fft", 0)):
                flow._GEMM_MAX_MODES = cut
                rhs = flow._nonlinear(grid)
                tables = flow._etdrk4_tables(lam, 1e-3)
                for layer, fn in (("product", lambda: rhs(c)),
                                  ("etdrk4_step", lambda: flow._etdrk4_step(c, tables, rhs))):
                    record = {"blas": blas, "layer": layer, "kernel": kernel, "m": m, "batch": batch}
                    record.update(_time_per_call(fn, max(1, 4000 // batch), traced=layer == "etdrk4_step"))
                    print(json.dumps(record), flush=True)
    flow._GEMM_MAX_MODES = gemm_max_modes
    rows, m = STACK
    grid = flow.make_grid(m)
    c = 0.3 * (rng.standard_normal(STACK) + 1j * rng.standard_normal(STACK))
    kernel = "table" if m <= gemm_max_modes else "fft"
    for threads in (1, 2):
        record = {"blas": blas, "layer": "stack_flow", "kernel": kernel, "m": m, "batch": rows, "threads": threads}
        record.update(_time_per_call(lambda: flow._advance_times(c, grid, 1e-3, [0.1], threads=threads), 1,
                                     traced=True))
        print(json.dumps(record), flush=True)
    for m in PCN_MODES:
        grid = flow.make_grid(m)
        for cutoff in (None, gibbs.default_cutoff(grid)):
            spec = gibbs.GibbsSpec(grid=grid, cutoff_R=cutoff, seed=m)
            record = {"blas": blas, "layer": "pcn_step", "kernel": None, "m": m, "batch": 1, "cutoff": cutoff}
            record.update(_time_per_call(lambda: gibbs.pcn_chain(spec, PCN_STEPS, 0.5), 1, PCN_STEPS))
            print(json.dumps(record), flush=True)
    defaults = {key.name: key.default for key in cli._COMMANDS["kernel-scan"][1]}
    taus, ns, rho = (defaults[f"kernel.sum_{name}"] for name in ("tau_values", "n_values", "rho"))
    for threads in (1, 2):
        record = {"blas": blas, "layer": "kernel_sums", "kernel": None, "m": None, "batch": len(taus) * len(ns),
                  "threads": threads, "k_range": KERNEL_K_RANGE}
        record.update(_time_per_call(lambda: bourgain.kernel_sum_scan(taus, ns, rho, KERNEL_K_RANGE, threads), 1))
        print(json.dumps(record), flush=True)


def main() -> int:
    import numpy as np

    print(json.dumps({
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
        }
    }), flush=True)
    for blas in ("pinned", "unpinned"):
        env = dict(os.environ, PYTHONPATH=SRC)
        env.pop("OPENBLAS_NUM_THREADS", None)
        if blas == "pinned":
            env["OPENBLAS_NUM_THREADS"] = "1"
        run = subprocess.run([sys.executable, __file__, "--measure", blas], env=env)
        if run.returncode != 0:
            return run.returncode
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--measure":
        sys.path.insert(0, SRC)
        _measure(sys.argv[2])
        sys.exit(0)
    sys.exit(main())
