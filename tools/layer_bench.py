"""Time the flow's product kernel and one ETDRK4 step, layer by layer.

Usage, from the root of a source checkout:

    python3 tools/layer_bench.py > layers.jsonl

For m in 8, 16, 32, 64 and batch sizes 1, 20 and 20 000 it times
``flow._nonlinear`` (one product plus the -i xi factor) and one ETDRK4 step
through the same closure, once with the table-GEMM product and once with
the pocketfft product (``flow._GEMM_MAX_MODES`` set past or below m), so
the two kernels meet at every m.  Each configuration runs in a fresh
interpreter twice: with OpenBLAS pinned to one thread
(``OPENBLAS_NUM_THREADS=1``, as perfbench/run.py runs) and unpinned.

Output is JSON lines: first one ``environment`` record, then one record
per (blas, layer, kernel, m, batch) with the median and quartiles of the
per-call time in microseconds over ``repeats`` timed runs.  Nothing here
is a pass/fail check; the numbers back the table/FFT cut at
``flow._GEMM_MAX_MODES``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

MODES = (8, 16, 32, 64)
BATCHES = (1, 20, 20_000)
REPEATS = 7


def _time_per_call(fn, batch: int) -> dict:
    fn()  # workspace and tables are built on the first call
    number = max(1, 4000 // batch)
    runs = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        runs.append((time.perf_counter() - start) / number * 1e6)
    q1, median, q3 = statistics.quantiles(runs, n=4)
    return {"us": median, "q1_us": q1, "q3_us": q3, "repeats": REPEATS, "calls_per_repeat": number}


def _measure(blas: str) -> None:
    """Print one record per (layer, kernel, m, batch) in this interpreter."""
    import numpy as np

    from ostlab import flow

    rng = np.random.default_rng(0)
    for m in MODES:
        grid = flow.make_grid(m)
        lam = flow._linear_rates(grid)
        for batch in BATCHES:
            shape = (m,) if batch == 1 else (batch, m)
            c = 0.3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            for kernel, cut in (("table", max(MODES)), ("fft", 0)):
                flow._GEMM_MAX_MODES = cut
                rhs = flow._nonlinear(grid)
                step = flow._stepper(lam, rhs, 1e-3)
                for layer, fn in (("product", lambda: rhs(c)), ("etdrk4_step", lambda: step(c))):
                    record = {"blas": blas, "layer": layer, "kernel": kernel, "m": m, "batch": batch}
                    record.update(_time_per_call(fn, batch))
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
