"""The benchmark's workloads: CLI operations, their inputs and their verdicts.

Every operation is a call to ``ostlab.cli.main(argv)`` or a read-back
through ``ostlab.gibbs.load_ensemble``.  Inputs come only from the workload
seed.  A verdict is judged from the artifacts the operation wrote, never
from its exit code alone (``verify-invariance`` exits 0 when a z-gate
fails), and a failed check fails the operation.

Why these four (each name is referenced by later changes):

- ``invariance-batch``: the flow layer on a (20000, 8) stack, which is
  memory-bound, plus one ensemble draw per flow time.
- ``trajectories``: the same flow layer at batch 1, where per-step Python
  overhead dominates; catches a change that helps big stacks but slows
  single trajectories.
- ``ensemble-roundtrip``: sampling, the per-step pCN loop and the ensemble
  file format, written and read back; no flow code runs.
- ``frequency-probes``: only ``bourgain``; a flow or gibbs change should not
  move it.

Deliberately not workloads: the Tier-1 suite (144 s a run, about an hour
per commit at 22 repeats), and ETDRK4 at batch 20, which has no CLI
traffic until ``evolve`` is batched.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NAMES = ("invariance-batch", "trajectories", "ensemble-roundtrip", "frequency-probes")

THREADS = ["--threads", "2"]


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple | None  # CLI arguments, or None for an ensemble read-back
    check: object  # check(op_dir, ctx) -> list of failure messages
    reads: str | None = None  # label of the operation whose ensemble is read back


# ---------------------------------------------------------------------------
# artifact readers


def _csv_rows(path: Path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _meta(op_dir: Path, command: str) -> dict:
    return json.loads((op_dir / f"{command}.meta.json").read_text())["summary"]


# ---------------------------------------------------------------------------
# verdicts


def _check_invariance(t_count):
    def check(op_dir, ctx):
        reports = json.loads((op_dir / "invariance.json").read_text())["reports"]
        if len(reports) != t_count:
            return [f"{len(reports)} invariance reports, expected {t_count}"]
        return [
            f"z-gate failed: t={rep['meta']['t']} {row['name']} z={row['z']:.3f}"
            for rep in reports
            for row in rep["results"]
            if row["pass"] is not True
        ]

    return check


def _check_simulate(op_dir, ctx):
    l2 = np.array([float(r["l2"]) for r in _csv_rows(op_dir / "simulate.csv")])
    drift = float(np.max(np.abs(l2 - l2[0]))) / l2[0]
    return [] if drift <= 1e-8 else [f"L2 drift {drift:.3e} > 1e-8"]


def _check_convergence(op_dir, ctx):
    errors = [float(r["sup_l2_error"]) for r in _csv_rows(op_dir / "convergence_m.csv")]
    ok = len(errors) > 1 and all(b < a for a, b in zip(errors, errors[1:]))
    return [] if ok else [f"errors not strictly decreasing: {errors}"]


def _check_picard(op_dir, ctx):
    summary = _meta(op_dir, "picard")
    out = []
    if summary["diverged"] is not False:
        out.append("picard diverged")
    if not summary["endpoint_error"] <= 1e-6:
        out.append(f"endpoint error {summary['endpoint_error']:.3e} > 1e-6")
    return out


def _check_ladder(op_dir, ctx):
    ladder = [float(r["variance_times_v"]) for r in _csv_rows(op_dir / "gibbs_summary.csv")]
    bad = [v for v in ladder if not 0.95 <= v <= 1.05]
    return [f"variance*v outside [0.95, 1.05]: {bad}"] if bad or not ladder else []


def _check_summary_written(op_dir, ctx):
    # the pCN chain targets the reweighted measure, so the Gaussian ladder
    # gate does not apply; its verdict is the bit-exact read-back
    return [] if _csv_rows(op_dir / "gibbs_summary.csv") else ["empty gibbs_summary.csv"]


def _check_roundtrip(op_dir, ctx):
    saved, loaded = ctx["saved"], ctx["loaded"]
    same = (
        saved.spec == loaded.spec
        and saved.sampler == loaded.sampler
        and saved.master_seed == loaded.master_seed
        and saved.acceptance_rate == loaded.acceptance_rate
        and all(
            a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            for a, b in (
                (saved.coeffs, loaded.coeffs),
                (saved.log_weights, loaded.log_weights),
                (saved.in_support, loaded.in_support),
            )
        )
    )
    return [] if same else ["loaded ensemble differs from the saved one"]


def _check_resonance(op_dir, ctx):
    rows = {r["kind"]: r for r in _csv_rows(op_dir / "resonance_scan.csv")}
    ratio = float(rows["admissible-min"]["ratio"])
    return [] if ratio >= 1.0 else [f"resonance min ratio {ratio} < 1"]


def _check_bilinear(op_dir, ctx):
    table = {}
    for r in _csv_rows(op_dir / "bilinear_sweep.csv"):
        table.setdefault(float(r["s"]), {})[int(r["n_max"])] = float(r["max_ratio"])
    out = []
    for s in (0.0, -0.5):
        lo, hi = min(table[s]), max(table[s])
        growth = table[s][hi] / table[s][lo]
        if not growth < 2.0:
            out.append(f"s={s}: growth {growth:.3f} >= 2 from n_max {lo} to {hi}")
    seq = [table[-0.6][n] for n in sorted(table[-0.6])]
    if not all(a < b for a, b in zip(seq, seq[1:])):
        out.append(f"s=-0.6 ratios not increasing: {seq}")
    return out


def _check_kernel(op_dir, ctx):
    integrals = max(float(r["ratio"]) for r in _csv_rows(op_dir / "kernel_integrals.csv"))
    sums = max(float(r["value"]) + float(r["tail"]) for r in _csv_rows(op_dir / "kernel_sums.csv"))
    constant = max(integrals, sums)
    return [] if constant <= 10.0 else [f"kernel constant {constant:.3f} > 10"]


# ---------------------------------------------------------------------------
# workload definitions


def build(name: str, seed: int, smoke: bool = False) -> list:
    """Operations of one workload iteration; the same seed gives the same inputs.

    smoke shrinks every size so the whole harness runs in seconds.  The
    iid ensemble keeps 20000 samples because the 0.95..1.05 ladder gate is
    only sound at that count.
    """
    rng = random.Random(f"{name}:{seed}")

    def draw():
        return str(rng.randrange(2**31))

    if name == "invariance-batch":
        count, t_values = ("2000", "0.01,0.02") if smoke else ("20000", "0.05,0.1")
        argv = ["verify-invariance", "--modes", "8", "--count", count, "--t-values", t_values,
                "--dt", "1e-3", "--seed", draw(), *THREADS]
        return [Op("verify-invariance", tuple(argv), _check_invariance(len(t_values.split(","))))]

    if name == "trajectories":
        runs, t = (2, "0.1") if smoke else (20, "1")
        ops = [
            Op(f"simulate-{i:02d}",
               ("simulate", "--modes", "32", "--dt", "1e-3", "--record-every", "100", "--t", t,
                "--seed", draw(), *THREADS),
               _check_simulate)
            for i in range(runs)
        ]
        conv_t = ["--t", "0.1"] if smoke else []
        ops.append(Op("convergence-m", ("convergence-m", "--seed", draw(), *conv_t, *THREADS), _check_convergence))
        ops.append(Op("picard", ("picard", "--seed", draw(), *THREADS), _check_picard))
        return ops

    if name == "ensemble-roundtrip":
        pcn_count = "1000" if smoke else "20000"
        common = ("gibbs-sample", "--modes", "8", "--seed", draw(), *THREADS)
        return [
            Op("gibbs-iid", (*common, "--count", "20000"), _check_ladder),
            Op("load-iid", None, _check_roundtrip, reads="gibbs-iid"),
            Op("gibbs-pcn", (*common, "--count", pcn_count, "--sampler", "pcn-mcmc"), _check_summary_written),
            Op("load-pcn", None, _check_roundtrip, reads="gibbs-pcn"),
        ]

    if name == "frequency-probes":
        nmax = "64" if smoke else "2048"
        bilinear = ["--trials", "1"] if smoke else []
        kernel = ["--k-range", "1000"] if smoke else []
        return [
            Op("resonance-scan", ("resonance-scan", "--nmax", nmax, *THREADS), _check_resonance),
            Op("bilinear-sweep", ("bilinear-sweep", "--seed", draw(), *bilinear, *THREADS), _check_bilinear),
            Op("kernel-scan", ("kernel-scan", *kernel, *THREADS), _check_kernel),
        ]

    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def run_op(op: Op, op_dir: Path, ctx: dict) -> list:
    """Run one operation and judge it; returns failure messages (empty = passed).

    ctx["saves"] maps an operation directory to the ensemble the CLI handed
    to save_ensemble there (see `capture_saves`); a read-back puts that
    ensemble and the one it loads in ctx["saved"] and ctx["loaded"].
    """
    from ostlab import cli, gibbs

    if op.argv is None:
        source = op_dir.parent / op.reads
        ctx["loaded"] = gibbs.load_ensemble(source / "ensemble")
        ctx["saved"] = ctx["saves"].get(source)
        if ctx["saved"] is None:
            return [f"no ensemble was saved by {op.reads}"]
        return op.check(op_dir, ctx)
    rc = cli.main(list(op.argv))
    if rc != 0:
        return [f"exit code {rc}"]
    return op.check(op_dir, ctx)


def capture_saves(ctx: dict) -> None:
    """Keep a reference to each ensemble the CLI saves, keyed by output directory."""
    from ostlab import cli

    save = cli.save_ensemble
    saves = ctx.setdefault("saves", {})

    def capturing(ens, directory):
        saves[Path(directory).parent] = ens
        return save(ens, directory)

    cli.save_ensemble = capturing
