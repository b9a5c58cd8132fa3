"""Measure-invariance experiments: push an ensemble through the flow.

The central identity under test: for the Gibbs measure mu built in
`gibbs` and the flow of `flow`, E_mu[F] = E_mu[F o flow_map(., t)] for
every observable F and every time t.  The experiment draws a weighted
ensemble representing mu, evolves every sample field by t, and compares
the weighted estimate of each observable before and after — with the
ORIGINAL weights kept on the evolved samples.  That is the pushforward
reading of invariance: if the flow preserves mu, the pushed ensemble
with unchanged weights still represents mu.  Recomputing weights after
the flow would instead test a change-of-variables identity and would
pass vacuously.

The z-score per observable is (mean_after - mean_before) divided by the
combined standard error; |z| <= 3 is the (loose, per-observable) pass
gate.  For multi-observable runs the report carries a note that no
multiple-comparison correction is applied — raw z-scores are the data.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .flow import FlowParams, _advance_times, _full_steps, _steps
from .gibbs import (
    DegenerateWeightsError,
    ESS_FLOOR,
    GibbsSpec,
    default_cutoff,
    gibbs_expectation,
    sample_gaussian,
)
from .spectral import _cubic_g, _freeze, _hamiltonian, _l2

OBSERVABLE_NAMES = "mode_power(k), cubic_integral, hamiltonian, ball_indicator, l2_squared"

__all__ = [
    "OBSERVABLE_NAMES",
    "InvarianceReport",
    "InvarianceRow",
    "Observable",
    "RecurrenceStats",
    "ball_indicator",
    "cubic_integral",
    "hamiltonian_observable",
    "l2_squared",
    "mode_power",
    "parse_observables",
    "recurrence_probe",
    "run_invariance",
]


@dataclass(frozen=True, eq=False)
class Observable:
    """Named functional F of a field: batch(coeffs, grid) gives F of each row of a (..., m) stack."""

    name: str
    batch: callable


def l2_squared() -> Observable:
    def batch(c, grid):
        return 2.0 * grid.length * np.sum(np.abs(c) ** 2, axis=-1)

    return Observable("l2_squared", batch)


def mode_power(k: int) -> Observable:
    """Energy 2A|u_hat(k)|^2 carried by mode k (= a_{2k-1}^2 + a_{2k}^2)."""
    if int(k) != k or k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    k = int(k)

    def batch(c, grid):
        if k > grid.modes:
            raise ValueError(f"mode_power({k}) needs modes >= {k}, grid has {grid.modes}")
        return 2.0 * grid.length * np.abs(c[..., k - 1]) ** 2

    return Observable(f"mode_power({k})", batch)


def cubic_integral() -> Observable:
    def batch(c, grid):
        return 3.0 * _cubic_g(c, grid)

    return Observable("cubic_integral", batch)


def hamiltonian_observable() -> Observable:
    def batch(c, grid):
        return _hamiltonian(c, grid)

    return Observable("hamiltonian", batch)


def ball_indicator(R: float) -> Observable:
    if not (R > 0.0 and math.isfinite(R)):
        raise ValueError(f"R must be positive and finite, got {R}")

    def batch(c, grid):
        return (_l2(c, grid.length) <= R).astype(np.float64)

    return Observable(f"ball_indicator({R:g})", batch)


_MODE_POWER = re.compile(r"^mode_power\((\d+)\)$")


def parse_observables(text: str, spec: GibbsSpec) -> list:
    """The observables a comma list of OBSERVABLE_NAMES tokens names, in order.

    ball_indicator's radius is spec.cutoff_R, or default_cutoff without a
    cutoff.  An unknown token, a mode above the grid's or an empty list
    raises ValueError.
    """
    grid = spec.grid
    radius = spec.cutoff_R if spec.cutoff_R is not None else default_cutoff(grid)
    named = {
        "cubic_integral": cubic_integral,
        "hamiltonian": hamiltonian_observable,
        "ball_indicator": lambda: ball_indicator(radius),
        "l2_squared": l2_squared,
    }
    obs = []
    for token in filter(None, (t.strip() for t in text.split(","))):
        m = _MODE_POWER.match(token)
        if m:
            k = int(m.group(1))
            if k > grid.modes:
                raise ValueError(f"mode_power({k}) exceeds grid.modes = {grid.modes}")
            obs.append(mode_power(k))
        elif token in named:
            obs.append(named[token]())
        else:
            raise ValueError(f"unknown observable {token!r}; choose from {OBSERVABLE_NAMES}")
    if not obs:
        raise ValueError("need at least one observable")
    return obs


# ---------------------------------------------------------------------------
# the invariance experiment


@dataclass(frozen=True)
class InvarianceRow:
    name: str
    mean_before: float
    se_before: float
    mean_after: float
    se_after: float
    z: float
    passed: bool


@dataclass(frozen=True)
class InvarianceReport:
    m: int
    t: float
    count: int
    seed: int
    ess: float
    rows: tuple
    z_max: float
    note: str | None = None

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def to_json(self) -> dict:
        out = {
            "meta": {
                "m": self.m,
                "t": self.t,
                "count": self.count,
                "seed": self.seed,
                "ess": self.ess,
            },
            "results": [
                {
                    "name": r.name,
                    "mean_before": r.mean_before,
                    "se_before": r.se_before,
                    "mean_after": r.mean_after,
                    "se_after": r.se_after,
                    "z": r.z,
                    "pass": r.passed,
                }
                for r in self.rows
            ],
        }
        if self.note is not None:
            out["note"] = self.note
        return out


def _z_score(before, after) -> float:
    diff = after.mean - before.mean
    if diff == 0.0:
        return 0.0
    denom = math.hypot(before.std_error, after.std_error)
    return diff / denom if denom > 0.0 else math.inf


def run_invariance(
    spec: GibbsSpec,
    p: FlowParams,
    times,
    obs,
    count: int,
    z_max: float = 3.0,
    threads: int = 1,
) -> list[InvarianceReport]:
    """Compare E[F] over a mu-ensemble before and after flowing by each t in times.

    One report per time, in input order: the ensemble is drawn once and
    integrated once per time sign, its rows in blocks on `threads` workers
    (0 = all cores; results do not depend on it).  Weights are those of the
    initial ensemble throughout (pushforward semantics).  Raises
    DegenerateWeightsError when the effective sample size is below the
    floor, and propagates integrator blow-ups (with the offending samples).
    """
    times = [float(t) for t in times]
    obs = list(obs)
    if int(count) != count or count < 1:
        raise ValueError(f"count must be a positive integer, got {count}")
    if not obs:
        raise ValueError("need at least one observable")
    if not times or not all(map(math.isfinite, times)):
        raise ValueError(f"times must be a nonempty list of finite numbers, got {times}")
    grid = spec.grid
    ens = sample_gaussian(spec, int(count))
    before = [gibbs_expectation(ens, F.batch(ens.coeffs, grid)) for F in obs]
    ess = before[0].ess
    if ess < ESS_FLOOR:
        raise DegenerateWeightsError(
            f"effective sample size {ess:.2f} below {ESS_FLOOR}; "
            "increase count or tighten the cutoff"
        )
    note = (
        f"{len(obs)} observables tested at per-observable gate |z| <= {z_max:g}; "
        "no multiple-comparison correction applied"
        if len(obs) > 1
        else None
    )
    reports = []
    for t, coeffs in zip(times, _advance_times(ens.coeffs, grid, p, times, threads)):
        rows = []
        for F, b in zip(obs, before):
            a = gibbs_expectation(ens, F.batch(coeffs, grid))
            z = _z_score(b, a)
            rows.append(InvarianceRow(F.name, b.mean, b.std_error, a.mean, a.std_error, z, abs(z) <= z_max))
        reports.append(
            InvarianceReport(grid.modes, t, int(count), spec.seed, ess, tuple(rows), float(z_max), note)
        )
    return reports


# ---------------------------------------------------------------------------
# recurrence demonstration


@dataclass(frozen=True)
class RecurrenceStats:
    """First return times to an L2 ball around each initial state.

    return_times[i] is the first probed time t >= t_min with
    |u_i(t) - u_i(0)| < radius, or NaN if none occurred within the
    horizon.  Probes happen every record_every steps, so t_min =
    record_every * dt.
    """

    return_times: np.ndarray
    horizon: float
    radius: float
    t_min: float
    hist_counts: np.ndarray
    hist_edges: np.ndarray

    def __post_init__(self):
        _freeze(self, "return_times", "hist_counts", "hist_edges")

    @property
    def returned_fraction(self) -> float:
        return float(np.mean(np.isfinite(self.return_times)))


def recurrence_probe(
    spec: GibbsSpec,
    p: FlowParams,
    sample_count: int,
    horizon: float,
    radius: float,
) -> RecurrenceStats:
    """Measure-preserving flows revisit: probe return times per sample.

    A demonstration, not a theorem check — the summary histogram has no
    pass/fail attached.  radius = 0 trivially reports no returns.
    """
    if not radius >= 0.0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    if not (horizon > 0.0 and math.isfinite(horizon)):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    if int(sample_count) != sample_count or sample_count < 1:
        raise ValueError(f"sample_count must be a positive integer, got {sample_count}")
    grid = spec.grid
    t_min = p.record_every * p.dt
    ens = sample_gaussian(spec, int(sample_count))
    start = ens.coeffs.copy()
    return_steps = np.full(len(ens), -1, dtype=np.int64)

    if radius > 0.0:
        # the full steps within the horizon, the range first so zip pulls no
        # step past it; a fractional tail step would never be probed
        for i, c in zip(range(1, _full_steps(horizon, p.dt) + 1), _steps(start, grid, p, p.dt)):
            if i % p.record_every:
                continue
            fresh = (return_steps < 0) & (_l2(c - start, grid.length) < radius)
            return_steps[fresh] = i
            if np.all(return_steps >= 0):
                break

    times = np.where(return_steps > 0, return_steps * p.dt, math.nan)
    finite = times[np.isfinite(times)]
    counts, edges = np.histogram(finite, bins=10, range=(t_min, max(horizon, t_min * 1.0000001)))
    return RecurrenceStats(
        return_times=times,
        horizon=float(horizon),
        radius=float(radius),
        t_min=t_min,
        hist_counts=counts,
        hist_edges=edges,
    )
