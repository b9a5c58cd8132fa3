"""Span tracer that instruments ostlab from outside the package.

`from .x import y` copies the binding of y into the importing module, so a
call is traced by replacing the attribute in the namespace that *looks it
up*: ``ostlab.invariance.sample_gaussian`` and ``ostlab.cli.sample_gaussian``
are separate hooks, and ``ostlab.flow._product_coeff`` is a hook because the
right-hand-side closure reads it as a module global at every call.

Spans are kept in memory as ``[name, layer, start, end, parent, op, work]``
rows (``parent`` is a row index, ``op`` the operation id the harness set,
``work`` an optional count taken from the call's arguments or result) and
written out once, after the timed interval.  A span opened on a thread
with no open span of its own (a worker of the CLI's thread pool) gets the
operation's root span as parent.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

_SPECTRAL_HELPERS = ("_coords_to_coeff", "_cubic_g", "_l2", "_hamiltonian", "save_field", "load_field")


def _rows(c) -> int:
    return c.size // c.shape[-1]


def _product_bytes(args, kwargs, result) -> int:
    # bytes of every array _product_coeff reads or allocates: the input
    # stack, the padded spectrum, u, u*u, the rfft output and the result
    coeff, modes, npts = args
    half = npts // 2 + 1
    return _rows(coeff) * (16 * modes + 16 * half + 8 * npts + 8 * npts + 16 * half + 16 * modes)


def _pcn_work(args, kwargs, result):
    steps = len(result) + kwargs.get("burn_in", args[3] if len(args) > 3 else 0)
    return {"steps": steps, "accepted": result.acceptance_rate * steps}


# (namespace, attribute, work); the layer is the module that defines the function
HOOKS = [
    ("ostlab.cli", "main", None),
    ("ostlab.cli", "evolve", None),
    ("ostlab.cli", "flow_map", None),
    ("ostlab.cli", "convergence_in_m", None),
    ("ostlab.cli", "picard_solve", None),
    ("ostlab.invariance", "_flow_map_batch", lambda a, k, r: _rows(a[0])),
    ("ostlab.invariance", "_advance", None),
    ("ostlab.flow", "_etdrk4_step", lambda a, k, r: _rows(a[0])),
    ("ostlab.flow", "_strang_step", lambda a, k, r: _rows(a[0])),
    ("ostlab.flow", "_product_coeff", _product_bytes),
    ("ostlab.cli", "sample_gaussian", lambda a, k, r: len(r)),
    ("ostlab.invariance", "sample_gaussian", lambda a, k, r: len(r)),
    ("ostlab.cli", "pcn_chain", _pcn_work),
    ("ostlab.invariance", "gibbs_expectation", lambda a, k, r: r.ess / len(a[0])),
    ("ostlab.cli", "save_ensemble", None),
    ("ostlab.gibbs", "load_ensemble", None),
    ("ostlab.cli", "run_invariance", None),
    ("ostlab.cli", "resonance_scan", lambda a, k, r: 4 * r.n_max * r.n_max),  # (n, n1) cells scanned
    ("ostlab.cli", "bilinear_sweep", None),
    ("ostlab.cli", "kernel_integral_scan", None),
    ("ostlab.cli", "kernel_sum_scan", None),
] + [
    (ns, name, None)
    for ns in ("ostlab.cli", "ostlab.flow", "ostlab.gibbs", "ostlab.invariance", "ostlab.bourgain")
    for name in _SPECTRAL_HELPERS
]


class Tracer:
    """Collects spans from every hooked call; one instance per process."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._op = None
        self._root = None

    def begin_op(self, op: int) -> None:
        self._op, self._root = op, None

    def install(self) -> None:
        """Replace every hooked attribute that exists; a hook the program no longer has is skipped."""
        for namespace, attr, work in HOOKS:
            module = sys.modules[namespace]
            fn = getattr(module, attr, None)
            if not callable(fn) or not fn.__module__.startswith("ostlab."):
                continue
            layer = fn.__module__.rsplit(".", 1)[-1]
            setattr(module, attr, self._wrap(fn, f"{namespace}.{attr}", layer, work))

    def _wrap(self, fn, name, layer, work):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if work is not None:
                try:
                    span[6] = work(args, kwargs, result)
                except (TypeError, ValueError, AttributeError, IndexError, KeyError):
                    pass  # the call's shape changed; its count is left out, the call is not
            return result

        return traced

    def _open(self, name, layer):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            parent = stack[-1][0] if stack else self._root
            index = len(self.spans)
            span = [name, layer, time.perf_counter(), None, parent, self._op, None]
            self.spans.append(span)
            if parent is None:
                self._root = index
        stack.append((index, span))
        return span

    def _close(self, span):
        span[3] = time.perf_counter()
        self._local.stack.pop()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_time(spans, index, children) -> float:
    _, _, start, end, *_ = spans[index]
    kids = [(spans[c][2], spans[c][3]) for c in children.get(index, ())]
    return (end - start) - _covered(kids, start, end)


def layer_metrics(spans) -> dict:
    """Per-layer numbers derived from one iteration's spans."""
    children = {}
    for i, span in enumerate(spans):
        if span[4] is not None:
            children.setdefault(span[4], []).append(i)

    def dur(s):
        return s[3] - s[2]

    def named(suffix):
        return [s for s in spans if s[0].endswith(suffix)]

    def total(suffix):
        return sum(dur(s) for s in named(suffix))

    def outermost(layer):
        # time in a layer's spans not nested in another span of the same layer
        return sum(dur(s) for s in spans if s[1] == layer and (s[4] is None or spans[s[4]][1] != layer))

    def work(chosen, key=None):
        values = [s[6] if key is None else s[6][key] for s in chosen if s[6] is not None]
        return sum(values)

    flow_busy = outermost("flow")
    row_steps = work(named("._etdrk4_step") + named("._strang_step"))
    products = named("._product_coeff")
    samples = named(".sample_gaussian")
    sample_s = total(".sample_gaussian")
    pcn = named(".pcn_chain")
    pcn_steps = work(pcn, "steps")
    estimates = named(".gibbs_expectation")
    resonance = named(".resonance_scan")
    resonance_s = total(".resonance_scan")

    redundant = 0
    seen = set()
    for s in named("ostlab.invariance.sample_gaussian"):
        # one draw per (operation, count) is needed; every further one repeats it
        if s[6] is None:
            continue
        key = (s[5], s[6])
        redundant += s[6] if key in seen else 0
        seen.add(key)

    def share(num, den):
        return num / den if den else 0.0

    return {
        "flow.busy_s": flow_busy,
        "flow.row_steps": row_steps,
        "flow.row_steps_per_s": share(row_steps, flow_busy),
        "flow.product_s": total("._product_coeff"),
        "flow.product_calls": len(products),
        "flow.product_mb_computed": work(products) / 1e6,
        "gibbs.sample_s": sample_s,
        "gibbs.samples_per_s": share(work(samples), sample_s),
        "gibbs.pcn_s": total(".pcn_chain"),
        "gibbs.pcn_steps": pcn_steps,
        "gibbs.pcn_acceptance": share(work(pcn, "accepted"), pcn_steps),
        "gibbs.estimate_s": total(".gibbs_expectation"),
        "gibbs.ess_ratio": share(work(estimates), len(estimates)),
        "gibbs.save_s": total(".save_ensemble"),
        "gibbs.load_s": total(".load_ensemble"),
        "invariance.self_s": sum(
            self_time(spans, i, children) for i, s in enumerate(spans) if s[0] == "ostlab.cli.run_invariance"
        ),
        "invariance.redundant_samples": redundant,
        "bourgain.resonance_s": resonance_s,
        "bourgain.resonance_pairs_per_s": share(work(resonance), resonance_s),
        "bourgain.bilinear_s": total(".bilinear_sweep"),
        "bourgain.kernel_s": total(".kernel_integral_scan") + total(".kernel_sum_scan"),
        "spectral.busy_s": outermost("spectral"),
        "spectral.calls": sum(1 for s in spans if s[1] == "spectral"),
        "cli.self_s": sum(self_time(spans, i, children) for i, s in enumerate(spans) if s[0] == "ostlab.cli.main"),
    }
