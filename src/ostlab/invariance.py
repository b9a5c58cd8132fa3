"""Measure-invariance experiments: push an ensemble through the flow.

The central identity under test: for the Gibbs measure mu built in
`gibbs` and the flow of `flow`, E_mu[F] = E_mu[F o flow_map(., t)] for
every observable F and every time t.  The experiment draws a weighted
ensemble representing mu, evolves it by t in row blocks, evaluating each
observable per block as the walk yields it (t = 0 first, for the values
before), and compares the weighted estimates before and after — with the
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
from dataclasses import dataclass, fields

import numpy as np

from .flow import _advance_times, _full_steps
from .gibbs import (
    DegenerateWeightsError,
    ESS_FLOOR,
    GibbsSpec,
    default_cutoff,
    gibbs_expectation,
    sample_gaussian,
)
from .spectral import _cubic_g, _hamiltonian, _l2

OBSERVABLE_NAMES = "mode_power(k), cubic_integral, hamiltonian, ball_indicator, l2_squared"

__all__ = [
    "OBSERVABLE_NAMES",
    "InvarianceReport",
    "InvarianceRow",
    "Observable",
    "ball_indicator",
    "cubic_integral",
    "hamiltonian_observable",
    "l2_squared",
    "mode_power",
    "parse_observables",
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
    return Observable("hamiltonian", _hamiltonian)


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
            "meta": {"m": self.m, "t": self.t, "count": self.count, "seed": self.seed, "ess": self.ess},
            # a row's fields by name, with passed written as "pass"
            "results": [{"pass" if f.name == "passed" else f.name: getattr(r, f.name) for f in fields(r)}
                        for r in self.rows],
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
    dt: float,
    times,
    obs,
    count: int,
    z_max: float = 3.0,
    threads: int = 1,
) -> list[InvarianceReport]:
    """Compare E[F] over a mu-ensemble before and after flowing by each t in times at step dt.

    One report per time, in input order: the ensemble is drawn once and
    integrated once per time sign, its rows in blocks on `threads` workers
    (0 = all cores; results do not depend on it), which evaluate every
    observable on their block into one value stack, the values before the
    flow from a t = 0 entry of the walk.  Weights are those of the initial
    ensemble throughout (pushforward semantics).  Raises ValueError before
    the draw for a dt that is not positive and finite or a time that is not
    finite or takes more steps than the flow's cap, DegenerateWeightsError
    before any step when the effective sample size is below the floor, and
    propagates blow-ups (with the offending samples).
    """
    times = [float(t) for t in times]
    obs = list(obs)
    if not obs:
        raise ValueError("need at least one observable")
    if not times:
        raise ValueError(f"times must be a nonempty list of finite numbers, got {times}")
    for t in times:
        _full_steps(t, dt)
    grid = spec.grid
    ens = sample_gaussian(spec, count)
    ess = ens._weights[2]
    if ess < ESS_FLOOR:
        raise DegenerateWeightsError(f"effective sample size {ess:.2f} below {ESS_FLOOR}; "
                                     "increase count or tighten the cutoff")
    values = np.empty((1 + len(times), len(obs), int(count)))

    def take(j, rows, state):
        values[j, :, rows] = [F.batch(state, grid) for F in obs]

    _advance_times(ens.coeffs, grid, dt, [0.0, *times], threads, take)
    before = [gibbs_expectation(ens, v) for v in values[0]]
    note = (
        f"{len(obs)} observables tested at per-observable gate |z| <= {z_max:g}; "
        "no multiple-comparison correction applied"
        if len(obs) > 1
        else None
    )
    reports = []
    for t, after in zip(times, values[1:]):
        rows = []
        for F, b, v in zip(obs, before, after):
            a = gibbs_expectation(ens, v)
            z = _z_score(b, a)
            rows.append(InvarianceRow(F.name, b.mean, b.std_error, a.mean, a.std_error, z, abs(z) <= z_max))
        reports.append(InvarianceReport(grid.modes, t, int(count), spec.seed, ess, tuple(rows), float(z_max), note))
    return reports
