"""Command-line entry point: every experiment behind one reproducible front.

Configuration is a flat ``key = value`` text file (``#`` comments allowed)
plus command-line flags; flags override the file, the file overrides
defaults.  Each subcommand accepts only its own documented keys.  A key's
parser also checks its domain, so an unknown key or bad value is rejected
naming the flag or the file line that set it.  Outputs are CSV/JSON
artifacts that embed the fully resolved configuration and the package
version; the wall-clock timestamp lives only in the sidecar
``<command>.meta.json`` so repeated runs with the same configuration are
byte-identical.

Exit codes: 0 success, 1 configuration or precondition error, 2 numerical
failure (integrator blow-up, degenerate importance weights or a kernel
integral beyond the float range), 3 the run
finished but its verdict is FAIL (a ``verify-invariance`` z-gate, or a
``picard`` endpoint error above criterion 11's bound).

The default output directory is the environment variable OSTLAB_OUTDIR
(falling back to the working directory); ``--out`` overrides it.
Every command accepts ``--threads`` (0 = all cores); the row blocks of
``verify-invariance`` (which draws its ensemble once and integrates it once
per time sign) and the frequency sums of ``kernel-scan`` use it, and the
results of neither depend on the thread count.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import time
from dataclasses import astuple, dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .bourgain import (
    _KERNEL_EPS_MAX, _KERNEL_K_MAX, _RESONANCE_N_MAX, BilinearSweepRow, KernelIntegralRow, KernelSumRow,
    _check_sum_grid, bilinear_sweep, kernel_integral_scan, kernel_sum_scan, resonance_scan, sweep_spec,
)
from .flow import (
    _CONTOUR_POINTS, _MAX_NODES, _PICARD_ENDPOINT_TOL, _PICARD_T_MAX, BlowUpError, _default_nodes,
    _full_steps, _linear_rates, convergence_in_m, evolve, flow_map, picard_solve,
)
from .gibbs import (
    ESS_FLOOR,
    DegenerateWeightsError,
    GibbsSpec,
    pcn_chain,
    sample_gaussian,
    save_ensemble,
)
from .invariance import OBSERVABLE_NAMES, parse_observables, run_invariance
from .spectral import (
    _STACK_BYTES_MAX,
    FourierField,
    _coeff_to_coords,
    _coord_eigenvalues,
    _l2,
    _philox,
    make_grid,
    random_smooth_field,
)

__all__ = ["main"]


class ConfigError(Exception):
    """Configuration problem: bad file, unknown key, malformed value."""


# ---------------------------------------------------------------------------
# typed configuration keys


def _parser(kind, expected: str):
    def parse(text: str):
        try:
            return kind(text)
        except ValueError as exc:
            raise ConfigError(f"expected {expected}, got {text!r}") from exc

    return parse


_parse_int, _parse_float = _parser(int, "an integer"), _parser(float, "a number")


def _within(parse, expected: str, inside):
    # NaN fails every comparison, so a domain written as comparisons rejects it
    def parse_within(text: str):
        value = parse(text)
        if not inside(value):
            raise ConfigError(f"expected {expected}, got {value!r}")
        return value

    return parse_within


def _parse_list(parse, items: str):
    def parse_list(text: str) -> tuple:
        values = tuple(parse(t) for t in (p.strip() for p in text.split(",")) if t)
        if not values:
            raise ConfigError(f"expected a comma-separated list of {items}")
        return values

    return parse_list


_FINITE = _within(_parse_float, "a finite number", math.isfinite)
_FLOATS = _parse_list(_FINITE, "numbers")
_INTS = _parse_list(_parse_int, "integers")
_COUNT = _within(_parse_int, "an integer >= 1", lambda v: v >= 1)
_NATURAL = _within(_parse_int, "an integer >= 0", lambda v: v >= 0)
_POSITIVE = _within(_parse_float, "a positive finite number", lambda v: 0.0 < v < math.inf)
_NONNEGATIVE = _within(_parse_float, "a finite number >= 0", lambda v: 0.0 <= v < math.inf)
# GibbsSpec's seed domain, for every seed key
_SEED = _within(_parse_int, "an integer in [0, 2**63)", lambda v: 0 <= v < 2**63)


def _choice(*options: str):
    def parse(text: str) -> str:
        if text not in options:
            raise ConfigError(f"expected one of {', '.join(options)}; got {text!r}")
        return text

    return parse


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))  # shortest round-trip decimal
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    return str(value)


@dataclass(frozen=True)
class _Key:
    name: str  # dotted config-file key
    flag: str  # --flag name
    parse: object
    default: object
    help: str

    @property
    def dest(self) -> str:
        return self.name.replace(".", "__")


_COMMON = [
    _Key("output.dir", "out", str, "", "output directory ('' = $OSTLAB_OUTDIR or '.')"),
    _Key("run.threads", "threads", _NATURAL, 0, "max worker threads (0 = all cores)"),
]

_GRID = [
    _Key("grid.length", "length", _POSITIVE, 2.0 * math.pi, "circle length A"),
    _Key("grid.modes", "modes", _COUNT, 16, "retained positive Fourier modes m"),
]

_FLOW = [
    _Key("flow.dt", "dt", _POSITIVE, 1e-3, "ETDRK4 time step"),
    _Key("flow.record_every", "record-every", _COUNT, 1, "steps between records"),
]

_INIT = [
    _Key("init.kind", "init", _choice("gaussian-random", "cosine"), "gaussian-random", "initial data family"),
    _Key("init.seed", "seed", _SEED, 0, "random-state seed"),
    _Key("init.k0", "k0", _POSITIVE, 2.0, "spectral decay scale of random data"),
    _Key("init.norm", "norm", _POSITIVE, 1.0, "L2 norm (gaussian-random) or amplitude (cosine)"),
]

_GIBBS = [
    # an ensemble's effective sample size is at most its count, so a smaller count is certain to fail
    _Key("gibbs.count", "count", _within(_parse_int, f"an integer >= {ESS_FLOOR:g}", lambda v: v >= ESS_FLOOR), 1000,
         "number of samples"),
    _Key("gibbs.seed", "seed", _SEED, 0, "master seed for sample streams"),
    _Key("gibbs.cutoff_r", "cutoff", _NONNEGATIVE, 0.0, "L2 cutoff radius R (0 = no cutoff)"),
]


# ---------------------------------------------------------------------------
# config resolution


def _parse_config_file(path: str, keys: dict) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    out = {}
    for lineno, raw in enumerate(p.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        name, text = (part.strip() for part in line.split("=", 1))
        if name not in keys:
            raise ConfigError(f"{path}:{lineno}: unknown key '{name}'")
        try:
            out[name] = keys[name].parse(text)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: key '{name}': {exc}") from exc
    return out


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration: defaults, then file, then flags."""

    command: str
    values: dict

    def __getitem__(self, name):
        return self.values[name]

    def echo(self) -> dict:
        """Canonical string form of every key, as embedded in outputs."""
        return {name: _fmt(v) for name, v in sorted(self.values.items())}


def _resolve(command: str, args: argparse.Namespace) -> RunConfig:
    keys = {k.name: k for k in _COMMANDS[command][1]}
    values = {k.name: k.default for k in keys.values()}
    if args.config is not None:
        values.update(_parse_config_file(args.config, keys))
    for k in keys.values():
        text = getattr(args, k.dest, None)
        if text is not None:
            try:
                values[k.name] = k.parse(text)
            except ConfigError as exc:
                raise ConfigError(f"--{k.flag} ({k.name}): {exc}") from exc
    if "gibbs.count" in values:  # the ensemble and gibbs-sample's real coordinates of it
        count, modes = values["gibbs.count"], values["grid.modes"]
        _check_stack(f"gibbs.count = {count} at grid.modes = {modes} is a ({count}, {modes}) complex ensemble and "
                     f"its ({count}, {2 * modes}) float64 coordinates", count * 32 * modes)
    if command in _STEPPED:  # before any sample is drawn or Picard iterate taken
        t_key, dt_key = _STEPPED[command]
        for t in np.atleast_1d(values[t_key]):
            try:
                _full_steps(t, values[dt_key])
            except ValueError as exc:
                raise ConfigError(f"{t_key} ({dt_key}): {exc}") from exc
        if command == "convergence-m":  # the largest grid stepped is the reference, of twice the largest m
            modes = 2 * max(values["convergence.m_values"])
            grid = f"convergence.m_values = {_fmt(values['convergence.m_values'])} (a reference of {modes} modes)"
        else:
            modes = values["grid.modes"]
            grid = f"grid.modes = {modes}"
        _check_stack(f"{grid} needs a ({modes}, {_CONTOUR_POINTS}) complex ETDRK4 contour table",
                     16 * _CONTOUR_POINTS * modes)
    if command == "verify-invariance":  # the observables on the resolved grid, and run_invariance's value stack
        spec = _gibbs_spec(RunConfig(command, values), make_grid(values["grid.modes"], values["grid.length"]))
        try:
            obs = len(parse_observables(values["invariance.observables"], spec))
        except ValueError as exc:
            raise ConfigError(f"invariance.observables: {exc}") from exc
        walk = 1 + len(values["invariance.t_values"])
        _check_stack(f"invariance.t_values ({walk - 1} times, and t = 0) with gibbs.count = {count} and {obs} "
                     f"observables is a ({walk}, {obs}, {count}) float64 value stack", walk * obs * count * 8)
    if command == "picard":  # the (nodes, m) tables of picard_solve's grid
        nodes = _default_nodes(values["picard.t"])
        if nodes * values["grid.modes"] > _PICARD_CELLS_MAX:
            raise ConfigError(f"grid.modes = {values['grid.modes']} on {nodes} nodes (picard.t = {values['picard.t']}) "
                              f"is {nodes * values['grid.modes']} table cells, above the cap of {_PICARD_CELLS_MAX}")
    # every sweep lattice is built here, so a tau index past 2**52 never starts a run
    for n_max in values.get("bilinear.n_max_values", ()):
        try:
            sweep_spec(n_max, d_tau=values["bilinear.d_tau"], w_cells=values["bilinear.w_cells"])
        except ValueError as exc:
            raise ConfigError(f"bilinear.n_max_values entry {n_max}, d_tau {values['bilinear.d_tau']}: {exc}") from exc
    if "kernel.k_range" in values:
        try:
            _check_sum_grid(values["kernel.sum_tau_values"], values["kernel.sum_n_values"], values["kernel.k_range"])
        except ValueError as exc:
            raise ConfigError(f"kernel.k_range = {values['kernel.k_range']} (kernel.sum_tau_values, "
                              f"kernel.sum_n_values): {exc}") from exc
    return RunConfig(command=command, values=values)


def _check_stack(what: str, nbytes: int) -> None:
    if nbytes > _STACK_BYTES_MAX:
        raise ConfigError(f"{what} of {nbytes} bytes, above the cap of {_STACK_BYTES_MAX}")


def _out_dir(cfg: RunConfig) -> Path:
    configured = cfg["output.dir"]
    base = configured or os.environ.get("OSTLAB_OUTDIR", "") or "."
    path = Path(base)
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# artifact writers


def _write_csv(path: Path, cfg: RunConfig, header, rows) -> None:
    """The configuration as "# " lines, then header and rows; header may be a row dataclass, rows its instances."""
    if isinstance(header, type):
        header, rows = [f.name for f in fields(header)], map(astuple, rows)
    lines = [f"# version = {__version__}", f"# command = {cfg.command}"]
    lines += [f"# {name} = {value}" for name, value in cfg.echo().items()]
    lines.append(",".join(header))
    lines += [",".join(map(_fmt, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    print(f"wrote {path}")


def _finite_or_null(value):
    """value with every non-finite float inside it replaced by None, which strict JSON writes as null."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def _write_json(path: Path, cfg: RunConfig, payload: dict) -> None:
    doc = {"version": __version__, "command": cfg.command, "config": cfg.echo()}
    doc.update(payload)
    path.write_text(json.dumps(_finite_or_null(doc), indent=2, sort_keys=True, allow_nan=False) + "\n")
    print(f"wrote {path}")


def _write_meta(out: Path, cfg: RunConfig, summary: dict) -> None:
    # the only artifact carrying a timestamp, so data files stay reproducible
    stamp = datetime.now(timezone.utc).isoformat()
    _write_json(out / f"{cfg.command}.meta.json", cfg, {"timestamp": stamp, "summary": summary})


# ---------------------------------------------------------------------------
# shared construction helpers


def _max_phase_per_step(grid, dt: float) -> float:
    """Linear phase the fastest retained mode turns through in one step.

    dt resolves the dispersion only when this is well below 1 rad; the
    sidecar reports it because no check rejects a grid that misses that.
    """
    return float(dt * np.max(np.abs(_linear_rates(grid))))


def _initial_field(cfg: RunConfig, grid):
    if cfg.values.get("init.kind") == "cosine":
        coeff = np.zeros(grid.modes, dtype=np.complex128)
        coeff[0] = 0.5 * cfg["init.norm"]
        return FourierField(grid, coeff)
    rng = _philox(cfg["init.seed"], 0)
    return random_smooth_field(grid, rng, k0=cfg["init.k0"], norm=cfg["init.norm"])


def _gibbs_spec(cfg: RunConfig, grid) -> GibbsSpec:
    cutoff = cfg["gibbs.cutoff_r"]
    return GibbsSpec(grid, cutoff_R=(cutoff if cutoff > 0.0 else None), seed=cfg["gibbs.seed"])


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_simulate(cfg: RunConfig) -> int:
    """integrate one initial state and record conserved quantities"""
    grid = make_grid(cfg["grid.modes"], cfg["grid.length"])
    f0 = _initial_field(cfg, grid)
    rec = evolve(f0, cfg["flow.t"], cfg["flow.dt"], cfg["flow.record_every"])
    out = _out_dir(cfg)
    rows = [(t, l2, h) for t, l2, h in zip(rec.times, rec.l2, rec.hamiltonian)]
    _write_csv(out / "simulate.csv", cfg, ["t", "l2", "hamiltonian"], rows)
    final_rows = [
        (k, float(c.real), float(c.imag)) for k, c in enumerate(rec.final.coeff, start=1)
    ]
    _write_csv(out / "final_state.csv", cfg, ["k", "re", "im"], final_rows)
    l2_drift = float(np.max(np.abs(rec.l2 - rec.l2[0]))) / rec.l2[0]
    h_drift = float(np.max(np.abs(rec.hamiltonian - rec.hamiltonian[0])))
    phase = _max_phase_per_step(grid, cfg["flow.dt"])
    _write_meta(out, cfg, {"l2_relative_drift": l2_drift, "hamiltonian_drift": h_drift, "max_phase_per_step": phase})
    print(f"relative L2 drift {l2_drift:.3e} over T = {cfg['flow.t']}")
    return 0


def _cmd_gibbs_sample(cfg: RunConfig) -> int:
    """draw a Gibbs ensemble and save it with a moment summary"""
    grid = make_grid(cfg["grid.modes"], cfg["grid.length"])
    spec = _gibbs_spec(cfg, grid)
    counters = {}
    start = time.perf_counter()
    if cfg["gibbs.sampler"] == "pcn-mcmc":
        ens = pcn_chain(spec, cfg["gibbs.count"], cfg["gibbs.beta"], burn_in=cfg["gibbs.burn_in"], counters=counters)
    else:
        ens = sample_gaussian(spec, cfg["gibbs.count"])
    sampled = time.perf_counter()
    out = _out_dir(cfg)
    save_ensemble(ens, out / "ensemble")
    print(f"wrote {out / 'ensemble'}")
    # per-coordinate variance check against the 1/v_j ladder
    v = _coord_eigenvalues(grid)
    var = _coeff_to_coords(ens.coeffs, grid).var(axis=0)
    rows = [(j + 1, v[j], var[j], var[j] * v[j]) for j in range(2 * grid.modes)]
    _write_csv(out / "gibbs_summary.csv", cfg, ["coordinate", "v", "variance", "variance_times_v"], rows)
    summary = {
        "max_abs_variance_times_v_minus_1": float(np.max(np.abs(var * v - 1.0))),
        "sample_s": sampled - start,
        "write_s": time.perf_counter() - sampled,
        **counters,
    }
    if ens.acceptance_rate is not None:
        summary["acceptance_rate"] = ens.acceptance_rate
    _write_meta(out, cfg, summary)
    print(f"max |variance * v - 1| = {summary['max_abs_variance_times_v_minus_1']:.4f}")
    return 0


def _cmd_verify_invariance(cfg: RunConfig) -> int:
    """push a Gibbs ensemble through the flow and z-test observables"""
    grid = make_grid(cfg["grid.modes"], cfg["grid.length"])
    spec = _gibbs_spec(cfg, grid)
    obs = parse_observables(cfg["invariance.observables"], spec)
    reports = run_invariance(
        spec, cfg["flow.dt"], cfg["invariance.t_values"], obs, cfg["gibbs.count"],
        z_max=cfg["invariance.z_max"], threads=cfg["run.threads"],
    )
    out = _out_dir(cfg)
    _write_json(out / "invariance.json", cfg, {"reports": [r.to_json() for r in reports]})
    worst = 0.0
    ok = True
    for rep in reports:
        flag = "PASS" if rep.all_passed else "FAIL"
        zmax_seen = max((abs(row.z) for row in rep.rows), default=0.0)
        worst = max(worst, zmax_seen)
        ok = ok and rep.all_passed
        print(f"t = {rep.t}: max |z| = {zmax_seen:.3f} [{flag}]")
    phase = _max_phase_per_step(grid, cfg["flow.dt"])
    _write_meta(out, cfg, {"max_abs_z": worst, "all_passed": ok, "max_phase_per_step": phase})
    return 0 if ok else 3


def _cmd_resonance_scan(cfg: RunConfig) -> int:
    """exhaustive minimum of |R(n,n1)|/|n n1 (n-n1)|"""
    scan = resonance_scan(cfg["resonance.n_max"])
    out = _out_dir(cfg)
    rows = [
        ("admissible-min", scan.minimum.n, scan.minimum.n1, scan.minimum.R, scan.minimum.ratio),
        (
            "unit-slice-min",
            scan.slice_minimum.n,
            scan.slice_minimum.n1,
            scan.slice_minimum.R,
            scan.slice_minimum.ratio,
        ),
    ]
    _write_csv(out / "resonance_scan.csv", cfg, ["kind", "n", "n1", "R", "ratio"], rows)
    hist_rows = [
        (scan.hist_edges[i], scan.hist_edges[i + 1], int(scan.hist_counts[i]))
        for i in range(len(scan.hist_counts))
    ]
    _write_csv(out / "resonance_hist.csv", cfg, ["ratio_lo", "ratio_hi", "count"], hist_rows)
    _write_meta(out, cfg, {"min_ratio": scan.minimum.ratio})
    print(
        f"min ratio {scan.minimum.ratio:.9f} at (n, n1) = "
        f"({scan.minimum.n}, {scan.minimum.n1})"
    )
    return 0


def _cmd_bilinear_sweep(cfg: RunConfig) -> int:
    """adversarial bilinear-estimate ratios across lattice sizes"""
    s_values = cfg["bilinear.s_values"]
    rows = bilinear_sweep(s_values, cfg["bilinear.n_max_values"], cfg["bilinear.trials"], d_tau=cfg["bilinear.d_tau"],
                          w_cells=cfg["bilinear.w_cells"], seed=cfg["bilinear.seed"]).rows
    out = _out_dir(cfg)
    _write_csv(out / "bilinear_sweep.csv", cfg, BilinearSweepRow, rows)
    # least-squares d log(max_ratio) / d log(n_max) per s: about -1 at s = 0, 0 at s = -1/2
    slopes = {}
    for s in s_values:
        log_n, log_r = np.log([(r.n_max, r.max_ratio) for r in rows if r.s == s]).T
        slopes[_fmt(s)] = float(np.polyfit(log_n, log_r, 1)[0]) if len(set(log_n)) > 1 else None
    _write_meta(out, cfg, {"rows": len(rows), "log_log_slope": slopes})
    for s in s_values:
        ratios = [r.max_ratio for r in rows if r.s == s]
        print(f"s = {s}: max ratios {', '.join(f'{v:.6f}' for v in ratios)}")
    return 0


def _cmd_kernel_scan(cfg: RunConfig) -> int:
    """quadrature and frequency-sum checks of the kernel bounds"""
    integrals = kernel_integral_scan(
        cfg["kernel.alpha_values"], rho=cfg["kernel.rho"], eps=cfg["kernel.eps"]
    )
    sums = kernel_sum_scan(
        cfg["kernel.sum_tau_values"],
        cfg["kernel.sum_n_values"],
        rho=cfg["kernel.sum_rho"],
        k_range=cfg["kernel.k_range"],
        threads=cfg["run.threads"],
    )
    out = _out_dir(cfg)
    _write_csv(out / "kernel_integrals.csv", cfg, KernelIntegralRow, integrals.rows)
    _write_csv(out / "kernel_sums.csv", cfg, KernelSumRow, sums.rows)
    constant = max(integrals.max_ratio, sums.max_value)
    _write_meta(
        out,
        cfg,
        {
            "max_integral_ratio": integrals.max_ratio,
            "max_sum_value": sums.max_value,
            "single_constant": constant,
        },
    )
    print(f"single bounding constant {constant:.4f} (integrals {integrals.max_ratio:.4f}, sums {sums.max_value:.4f})")
    return 0


def _cmd_picard(cfg: RunConfig) -> int:
    """Picard iteration contraction against the time-stepper endpoint"""
    grid = make_grid(cfg["grid.modes"], cfg["grid.length"])
    phi = _initial_field(cfg, grid)
    end = flow_map(phi, cfg["picard.t"], cfg["picard.ref_dt"])
    # iterates that overflow are the divergence this run reports: no warnings, and no field built of them
    with np.errstate(over="ignore", invalid="ignore"):
        res = picard_solve(phi, cfg["picard.t"], cfg["picard.iters"])
        endpoint_error = float(_l2(res.states[-1] - end.coeff, grid.length))
    out = _out_dir(cfg)
    rows = [(i + 1, d) for i, d in enumerate(res.distances)]
    _write_csv(out / "picard.csv", cfg, ["iteration", "distance"], rows)
    _write_meta(out, cfg, {"diverged": res.diverged, "endpoint_error": endpoint_error, "nodes": len(res.times)})
    state = "diverged" if res.diverged else "contracting"
    print(f"{state}; endpoint error vs reference integrator {endpoint_error:.3e}")
    # NaN fails the comparison, so a non-finite endpoint is a FAIL too
    if endpoint_error <= _PICARD_ENDPOINT_TOL:
        return 0
    print(f"endpoint error above {_PICARD_ENDPOINT_TOL:g} [FAIL]")
    return 3


def _cmd_convergence_m(cfg: RunConfig) -> int:
    """truncation convergence against a finer reference"""
    m_values = cfg["convergence.m_values"]
    grid = make_grid(2 * max(m_values), cfg["grid.length"])
    f0 = _initial_field(cfg, grid)
    study = convergence_in_m(
        f0,
        cfg["convergence.t"],
        list(m_values),
        dt=cfg["flow.dt"],
        record_every=cfg["flow.record_every"],
    )
    out = _out_dir(cfg)
    rows = list(zip(study.m_values, study.errors))
    _write_csv(out / "convergence_m.csv", cfg, ["m", "sup_l2_error"], rows)
    decreasing = all(b < a for a, b in zip(study.errors, study.errors[1:]))
    _write_meta(
        out,
        cfg,
        {"reference_modes": study.reference_modes, "strictly_decreasing": decreasing},
    )
    for m, err in rows:
        print(f"m = {m:3d}: sup L2 error {err:.6e}")
    print(f"strictly decreasing: {'yes' if decreasing else 'no'}")
    return 0


# ---------------------------------------------------------------------------
# command table: name -> (handler, keys), in --help order; the handler's
# docstring is the command's help line

# the (nodes, m) tables may hold as many cells as the node cap's at the default m = 16
_PICARD_CELLS_MAX = 16 * _MAX_NODES

# (time key, step key) of each command that steps the flow, whose step count flow._full_steps caps
_STEPPED = {
    "simulate": ("flow.t", "flow.dt"),
    "verify-invariance": ("invariance.t_values", "flow.dt"),
    "picard": ("picard.t", "picard.ref_dt"),
    "convergence-m": ("convergence.t", "flow.dt"),
}

_COMMANDS = {
    "simulate": (_cmd_simulate, _COMMON + _GRID + _FLOW + _INIT + [
        _Key("flow.t", "t", _NONNEGATIVE, 1.0, "final time T"),
    ]),
    # one sample has no variance, so the ladder check of gibbs-sample needs two
    "gibbs-sample": (_cmd_gibbs_sample, _COMMON + _GRID + [
        _Key("gibbs.count", "count", _within(_parse_int, "an integer >= 2", lambda v: v >= 2), 1000,
             "number of samples"),
        *_GIBBS[1:],
        _Key(
            "gibbs.sampler",
            "sampler",
            _choice("iid-importance", "pcn-mcmc"),
            "iid-importance",
            "sampling scheme",
        ),
        _Key("gibbs.beta", "beta", _within(_parse_float, "a finite number in [0, 1]", lambda v: 0.0 <= v <= 1.0), 0.5,
             "pCN proposal step"),
        _Key("gibbs.burn_in", "burn-in", _NATURAL, 0, "pCN burn-in steps"),
    ]),
    "verify-invariance": (_cmd_verify_invariance, _COMMON + _GRID + _FLOW[:1] + _GIBBS + [
        _Key("invariance.t_values", "t-values", _FLOATS, (0.5,), "flow times to test"),
        _Key("invariance.z_max", "z-max", _within(_parse_float, "a number >= 0", lambda v: v >= 0.0), 3.0,
             "pass threshold on |z|"),
        _Key(
            "invariance.observables",
            "observables",
            str,
            "mode_power(1),mode_power(2),mode_power(3),mode_power(4),cubic_integral,hamiltonian,ball_indicator",
            f"comma list from: {OBSERVABLE_NAMES}",
        ),
    ]),
    "resonance-scan": (_cmd_resonance_scan, _COMMON + [
        _Key("resonance.n_max", "nmax", _within(_parse_int, f"an integer in [2, {_RESONANCE_N_MAX}]",
                                             lambda v: 2 <= v <= _RESONANCE_N_MAX), 64,
             "exhaustive scan box |n| <= n_max"),
    ]),
    "bilinear-sweep": (_cmd_bilinear_sweep, _COMMON + [
        _Key("bilinear.s_values", "s", _FLOATS, (0.0, -0.5, -0.6), "Sobolev indices"),
        # the candidates' second row sits at nu = 1 or 2, which must differ from n_max
        _Key("bilinear.n_max_values", "nmax", _parse_list(_within(_parse_int, "an integer >= 3", lambda v: v >= 3),
                                                          "integers"), (16, 32, 64), "lattice sizes"),
        _Key("bilinear.trials", "trials", _NATURAL, 4, "random candidates per structured pair"),
        _Key("bilinear.d_tau", "d-tau", _POSITIVE, 16.0, "modulation grid spacing (shared)"),
        _Key("bilinear.w_cells", "w-cells", _COUNT, 16, "candidate profile width in cells"),
        _Key("bilinear.seed", "seed", _SEED, 0, "seed for random profiles"),
    ]),
    "kernel-scan": (_cmd_kernel_scan, _COMMON + [
        _Key(
            "kernel.alpha_values",
            "alpha",
            _FLOATS,
            (0.0, 1.0, -1.0, 10.0, -10.0, 1e3, -1e3, 1e6, -1e6),
            "integral scan arguments",
        ),
        _Key("kernel.rho", "rho", _within(_parse_float, "a number in (0, 1)", lambda v: 0.0 < v < 1.0), 0.5,
             "form-2 exponent, in (0,1)"),
        _Key("kernel.eps", "eps", _within(_parse_float, f"a number in (0, {_KERNEL_EPS_MAX:g}]",
                                          lambda v: 0.0 < v <= _KERNEL_EPS_MAX), 0.5, "form-3 exponent offset"),
        _Key("kernel.sum_tau_values", "sum-tau", _FLOATS, (0.0, 5.0, -25.0, 300.0), "sum scan tau grid"),
        _Key("kernel.sum_n_values", "sum-n",
             _parse_list(_within(_parse_int, f"a nonzero integer with |n| <= {_KERNEL_K_MAX}",
                                 lambda v: 0 < abs(v) <= _KERNEL_K_MAX), "integers"),
             (1, 2, -3, 7), "sum scan frequency grid"),
        _Key("kernel.sum_rho", "sum-rho", _within(_parse_float, "a number > 2/3 and finite",
                                                  lambda v: 2.0 / 3.0 < v < math.inf), 0.7,
             "form-3 sum exponent, > 2/3"),
        _Key("kernel.k_range", "k-range", _within(_parse_int, f"an integer in [1, {_KERNEL_K_MAX}]",
                                                  lambda v: 1 <= v <= _KERNEL_K_MAX), 100000,
             "explicit summation range"),
    ]),
    "picard": (_cmd_picard, _COMMON + _GRID + _INIT[1:] + [
        _Key("picard.t", "t", _within(_parse_float, f"a number in (0, {_PICARD_T_MAX:g}]",
                                      lambda v: 0.0 < v <= _PICARD_T_MAX), 0.1, "contraction interval length T"),
        _Key("picard.iters", "iters", _COUNT, 8, "Picard iterations"),
        _Key("picard.ref_dt", "ref-dt", _POSITIVE, 1e-4, "time step of the reference endpoint"),
    ]),
    "convergence-m": (_cmd_convergence_m, _COMMON + _GRID[:1] + [
        _Key("convergence.m_values", "m", _within(_INTS, "strictly increasing integers >= 1",
                                                  lambda v: v[0] >= 1 and all(a < b for a, b in zip(v, v[1:]))),
             (8, 16, 32), "truncation sizes (increasing)"),
        _Key("convergence.t", "t", _FINITE, 1.0, "final time T"),
        _FLOW[0],
        _Key("flow.record_every", "record-every", _COUNT, 50, "steps between compared records"),
        _INIT[1],
        _Key("init.k0", "k0", _POSITIVE, 4.0, "spectral decay scale of random data"),
        _Key("init.norm", "norm", _POSITIVE, 1.0, "L2 norm of the initial state"),
    ]),
}


# ---------------------------------------------------------------------------
# parser and entry point


class _Parser(argparse.ArgumentParser):
    # precondition problems exit 1 (argparse's default usage-error code is 2,
    # which this tool reserves for numerical failures)
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


@functools.cache  # built once per process: about 90 flags, about 2 ms a build
def _build_parser() -> _Parser:
    parser = _Parser(prog="ostlab", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"ostlab {__version__}")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    for command, (handler, keys) in _COMMANDS.items():
        p = sub.add_parser(command, help=handler.__doc__, description=handler.__doc__)
        # every flag but -h has two dashes, so a token such as -0.05,0.1, -1e-1 or -inf
        # is the value of the flag before it (argparse's own pattern accepts only -1 and -.5)
        p._negative_number_matcher = re.compile(r"^-[^-]")
        p.add_argument("--config", default=None, metavar="FILE", help="key = value configuration file")
        for k in keys:
            p.add_argument(
                f"--{k.flag}",
                dest=k.dest,
                default=None,
                metavar="V",
                help=f"{k.help} [default: {_fmt(k.default)}; key: {k.name}]",
            )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("error: a subcommand is required", file=sys.stderr)
        return 1
    try:
        cfg = _resolve(args.command, args)
        return _COMMANDS[args.command][0](cfg)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (BlowUpError, DegenerateWeightsError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
