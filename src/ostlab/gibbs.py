"""Gaussian and Gibbs measures on the truncated field space.

The reference measure w is the centered Gaussian whose coordinate
variances are 1/v_j, where v interleaves the eigenvalues v_k = xi_k^2 +
xi_k^{-2} of the quadratic-energy operator S (`spectral.energy_eigenvalues`,
each appearing twice, for the sine and cosine directions).  Since sum_k 2/v_k < infinity (trace
class), w has almost-surely-L2 samples; `trace_check` verifies the
summability numerically.

The Gibbs measure reweights w by exp(-g(u)), g(u) = (1/3) int u^3 — the
cubic part of the conserved Hamiltonian.  Because int u^3 is unbounded
below on the support of w, expectations can be taken with a hard L2-ball
cutoff |u| <= R, none by default (`gibbs.cutoff_r = 0`); `default_cutoff`,
4x the Gaussian root-mean L2 norm, is only the radius used where a caller
asks for one.  The cutoff indicator is itself conserved by the flow, so it
does not disturb invariance experiments.

Two samplers are provided: iid importance sampling from w with weights
exp(-g), and a preconditioned Crank-Nicolson chain whose proposal
preserves w exactly so that acceptance involves only g.  Both are
deterministic given (spec, seed): sample i uses a counter-based stream
keyed by (seed, i), so ensembles are reproducible under any degree of
parallelism and estimates are invariant under sample permutation.
"""

from __future__ import annotations

import functools
import json
import math
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .spectral import (
    _SAMPLE_BLOCK_BYTES,
    FourierField,
    GridSpec,
    TWO_PI,
    _coord_eigenvalues,
    _coords_to_coeff,
    _cubic_g,
    _freeze,
    _l2,
    _philox,
    _philox_streams,
    energy_eigenvalues,
)

ENSEMBLE_FORMAT = "ostlab-ensemble-v2"

_ENSEMBLE_FILE = "ensemble.npz"

ESS_FLOOR = 10.0

_PCN_STREAM = 2**63 + 1  # chain stream index, disjoint from sample indices

__all__ = [
    "ENSEMBLE_FORMAT",
    "ESS_FLOOR",
    "DegenerateWeightsError",
    "Ensemble",
    "GibbsEstimate",
    "GibbsSpec",
    "cylinder_probability",
    "default_cutoff",
    "gaussian_rms_l2",
    "gibbs_expectation",
    "load_ensemble",
    "pcn_chain",
    "sample_gaussian",
    "save_ensemble",
    "trace_check",
]


class DegenerateWeightsError(RuntimeError):
    """Importance weights collapsed: effective sample size below the floor."""


def gaussian_rms_l2(grid: GridSpec) -> float:
    """sqrt(E_w |u|_{L2}^2) = sqrt(sum_k 2/v_k)."""
    return math.sqrt(float(np.sum(2.0 / energy_eigenvalues(grid))))


def default_cutoff(grid: GridSpec) -> float:
    """Ball radius 4x the Gaussian root-mean L2 norm: generous but finite."""
    return 4.0 * gaussian_rms_l2(grid)


def trace_check(grid: GridSpec, k_max: int) -> float:
    """Partial sum sum_{k=1}^{k_max} 2/v_k of the covariance trace.

    Extends the grid's eigenvalue ladder beyond mode m with the same
    length; summed in chunks with pairwise accuracy.  Monotone in k_max
    and Cauchy (tail bounded by sum 2/xi_k^2), which is the trace-class
    property making the Gaussian measure countably additive.
    """
    if int(k_max) != k_max or k_max < grid.modes:
        raise ValueError(f"k_max must be an integer >= modes = {grid.modes}")
    k_max = int(k_max)
    total = 0.0
    chunk = 1_000_000
    for start in range(1, k_max + 1, chunk):
        k = np.arange(start, min(start + chunk, k_max + 1), dtype=np.float64)
        xi = (TWO_PI / grid.length) * k
        total += float(np.sum(2.0 / (xi**2 + xi**-2)))
    return total


@dataclass(frozen=True)
class GibbsSpec:
    """Measure configuration: grid, optional L2 cutoff radius, master seed."""

    grid: GridSpec
    cutoff_R: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.cutoff_R is not None:
            r = float(self.cutoff_R)
            if not (math.isfinite(r) and r > 0.0):
                raise ValueError(f"cutoff_R must be positive, got {self.cutoff_R}")
            object.__setattr__(self, "cutoff_R", r)
        if int(self.seed) != self.seed or not (0 <= self.seed < 2**63):
            raise ValueError("seed must be an integer in [0, 2^63)")
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True)
class Ensemble:
    """Columnar sample store; identical (spec, sampler inputs) => identical bits.

    coeffs[i] holds sample i's Fourier coefficients; log_weights[i] = -g(u_i)
    for importance ensembles and 0 for MCMC ensembles (whose samples already
    target the reweighted measure); in_support marks the cutoff indicator.
    """

    spec: GibbsSpec
    sampler: str
    master_seed: int
    coeffs: np.ndarray
    log_weights: np.ndarray
    in_support: np.ndarray
    acceptance_rate: float | None = None

    def __post_init__(self):
        if self.sampler not in ("iid-importance", "pcn-mcmc"):
            raise ValueError(f"unknown sampler {self.sampler!r}")
        n = len(self.coeffs)
        shapes = (np.shape(self.coeffs), np.shape(self.log_weights), np.shape(self.in_support))
        if shapes != ((n, self.spec.grid.modes), (n,), (n,)):
            raise ValueError("inconsistent ensemble array shapes")
        if not np.isfinite(self.log_weights).all():
            raise ValueError("log weights must be finite")
        _freeze(self, "coeffs", dtype=np.complex128)
        _freeze(self, "log_weights", dtype=np.float64)
        _freeze(self, "in_support", dtype=bool)

    def __len__(self) -> int:
        return self.coeffs.shape[0]

    @functools.cached_property
    def _weights(self) -> tuple[np.ndarray, float, float]:
        """Importance weights chi_i exp(-g(u_i) - shift), their exact sum and effective sample size.

        Computed once per ensemble.  The shift is the largest log weight
        among in-support samples, so an excluded sample cannot push every
        kept weight into underflow.  With no sample in support all weights
        are 0 and so is the ESS.
        """
        w = np.zeros(len(self))
        chi = self.in_support
        if chi.any():
            lw = self.log_weights[chi]
            w[chi] = np.exp(lw - np.max(lw))
        w.setflags(write=False)
        # fsum takes Python floats from a memoryview faster than numpy scalars from the array, with no list held
        total = math.fsum(memoryview(w))
        return w, total, (total**2 / math.fsum(memoryview(w * w)) if total > 0.0 else 0.0)


def sample_gaussian(spec: GibbsSpec, count: int) -> Ensemble:
    """count iid draws from w with importance data for the Gibbs measure.

    Coordinates a_j ~ N(0, 1/v_j) independently; log_weight = -g(u);
    in_support = (|u| <= cutoff_R) when a cutoff is configured.  Row i is
    drawn from the stream keyed by (seed, i), taken from one re-keyed
    generator (`spectral._philox_streams`), so the first k rows of any
    larger draw are the draw of count k.  Rows are drawn and weighed in
    blocks of _SAMPLE_BLOCK_BYTES of g's samples, straight into the ensemble.
    """
    if int(count) != count or count < 1:
        raise ValueError(f"count must be a positive integer, got {count}")
    count = int(count)
    grid = spec.grid
    sigma = 1.0 / np.sqrt(_coord_eigenvalues(grid))
    coeffs, log_weights, in_support = np.empty((count, grid.modes), complex), np.empty(count), np.ones(count, bool)
    streams, size = _philox_streams(spec.seed, range(count)), max(1, _SAMPLE_BLOCK_BYTES // (8 * grid.points))
    for lo in range(0, count, size):
        coords = np.empty((min(size, count - lo), 2 * grid.modes))
        for row, rng in zip(coords, streams):  # coords first: zip stops before taking a stream too many
            rng.standard_normal(out=row)
        coords *= sigma
        block = slice(lo, lo + len(coords))
        c = coeffs[block] = _coords_to_coeff(coords, grid)
        log_weights[block] = -_cubic_g(c, grid)
        if spec.cutoff_R is not None:
            in_support[block] = _l2(c, grid.length) <= spec.cutoff_R
    return Ensemble(
        spec=spec,
        sampler="iid-importance",
        master_seed=spec.seed,
        coeffs=coeffs,
        log_weights=log_weights,
        in_support=in_support,
    )


def _pcn_moves(spec: GibbsSpec, beta: float, rng: np.random.Generator, u=None, g_fn=None):
    """Successive pCN moves from coefficients u (None: a draw of w, or 0 if that
    lies outside the cutoff), as (state, accepted, g evaluations so far)."""
    if not (0.0 <= beta <= 1.0):
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    grid, cutoff, keep = spec.grid, spec.cutoff_R, math.sqrt(1.0 - beta**2)
    root_v = np.sqrt(_coord_eigenvalues(grid))

    def draw():
        return _coords_to_coeff(rng.standard_normal(root_v.size) / root_v, grid)

    def g(coeff):
        if g_fn is not None:
            return g_fn(FourierField(grid, coeff))
        value = float(_cubic_g(coeff, grid))
        if not math.isfinite(value):
            FourierField(grid, coeff)  # raises if a coefficient, not only g, is non-finite
        return value

    if u is None:
        u = draw()
        if cutoff is not None and _l2(u, grid.length) > cutoff:
            u = np.zeros(grid.modes, dtype=np.complex128)
    g_u, evaluations = g(u), 1
    while True:
        # a non-finite proposal has a NaN L2 norm, so it reaches g, which raises
        proposal = keep * u + beta * draw()
        if cutoff is not None and _l2(proposal, grid.length) > cutoff:
            yield u, False, evaluations
            continue
        g_proposal, evaluations = g(proposal), evaluations + 1
        log_ratio = g_u - g_proposal
        accepted = bool(log_ratio >= 0.0 or rng.uniform() < math.exp(log_ratio))
        if accepted:
            u, g_u = proposal, g_proposal
        yield u, accepted, evaluations


def pcn_chain(
    spec: GibbsSpec,
    count: int,
    beta: float,
    burn_in: int = 0,
    g_fn=None,
    start: FourierField | None = None,
    counters: dict | None = None,
) -> Ensemble:
    """Length-count pCN chain targeting the (cutoff) Gibbs measure.

    Samples carry log_weight = 0: the chain's stationary law is already
    the reweighted measure, so downstream estimators treat them as
    unweighted and use batch means for the standard error.  The chain
    stream is keyed by (seed, 2^63+1), disjoint from the iid sample
    streams of the same seed.

    g(u) travels with the state, so g runs once on the start and once per
    proposal inside the cutoff (count + burn_in + 1 times with no cutoff).
    A counters dict, if given, receives chain_steps and g_evaluations.
    """
    if int(count) != count or count < 1:
        raise ValueError(f"count must be a positive integer, got {count}")
    if burn_in < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in}")
    count, burn_in = int(count), int(burn_in)
    moves = _pcn_moves(spec, beta, _philox(spec.seed, _PCN_STREAM), None if start is None else start.coeff, g_fn)
    accepted = evaluations = 0
    coeffs = np.empty((count, spec.grid.modes), dtype=np.complex128)
    for i, (u, ok, evaluations) in zip(range(-burn_in, count), moves):
        accepted += ok
        if i >= 0:
            coeffs[i] = u
    if counters is not None:
        counters.update(chain_steps=count + burn_in, g_evaluations=evaluations)
    return Ensemble(
        spec=spec,
        sampler="pcn-mcmc",
        master_seed=spec.seed,
        coeffs=coeffs,
        log_weights=np.zeros(count),
        in_support=np.ones(count, dtype=bool),
        acceptance_rate=accepted / (count + burn_in),
    )


def cylinder_probability(spec: GibbsSpec, box) -> float:
    """w-measure of the cylinder {a_j in [lo_j, hi_j], j = 1..r}.

    The Gaussian factorizes over coordinates, so the measure is a product
    of 1-D CDF differences with standard deviations 1/sqrt(v_j).  Bounds
    may be infinite; any empty interval (hi <= lo) gives 0.  This is the
    measure of the reference Gaussian w, not of the reweighted measure.
    """
    box = [(float(lo), float(hi)) for lo, hi in box]
    r = len(box)
    if r == 0:
        return 1.0
    if r > 2 * spec.grid.modes:
        raise ValueError(f"box has {r} coordinates but the space has {2 * spec.grid.modes}")
    sigma = 1.0 / np.sqrt(_coord_eigenvalues(spec.grid)[:r])
    prob = 1.0
    for (lo, hi), s in zip(box, sigma):
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("box bounds must not be NaN")
        if hi <= lo:
            return 0.0
        prob *= 0.5 * (math.erfc(-hi / s / math.sqrt(2.0)) - math.erfc(-lo / s / math.sqrt(2.0)))
    return prob


@dataclass(frozen=True)
class GibbsEstimate:
    """Self-normalized estimate with its uncertainty and weight diagnostics."""

    mean: float
    std_error: float
    ess: float
    degenerate: bool


def gibbs_expectation(ens: Ensemble, values) -> GibbsEstimate:
    """E_mu[F] from an ensemble, given values[i] = F(u_i) for each of its samples.

    values must have shape (len(ens),).  The weights depend only on the
    ensemble's log weights and support, so the values of F after a flow,
    F(Phi_t u_i), estimate E_mu[F o Phi_t] under the same weights.

    Importance ensembles: self-normalized estimate with weights
    chi_i exp(-g(u_i)), delta-method standard error, and effective sample
    size (sum w)^2 / sum w^2; ess < 10 flags degeneracy.  Sums use exact
    accumulation, so the estimate is invariant under sample permutation.

    MCMC ensembles: unweighted mean with batch-means standard error
    (sqrt(n) batches), since successive states are correlated.
    """
    if len(ens) == 0:
        raise ValueError("ensemble is empty")
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (len(ens),):
        raise ValueError(f"values must have shape ({len(ens)},), got {values.shape}")
    if ens.sampler == "pcn-mcmc":
        n = len(ens)
        mean = math.fsum(memoryview(values)) / n
        n_batches = max(2, int(math.isqrt(n)))
        size = n // n_batches
        if size >= 1:
            bm = values[: n_batches * size].reshape(n_batches, size).mean(axis=1)
            se = float(np.std(bm, ddof=1) / math.sqrt(n_batches))
        else:
            se = float(np.std(values, ddof=1) / math.sqrt(n))
        return GibbsEstimate(mean=mean, std_error=se, ess=float(n), degenerate=n < ESS_FLOOR)

    w, total, ess = ens._weights
    if total == 0.0:
        return GibbsEstimate(mean=math.nan, std_error=math.nan, ess=0.0, degenerate=True)
    mean = math.fsum(memoryview(w * values)) / total
    resid = values - mean
    se = math.sqrt(math.fsum(memoryview((w * resid) ** 2))) / total
    return GibbsEstimate(mean=mean, std_error=se, ess=ess, degenerate=ess < ESS_FLOOR)


# ---------------------------------------------------------------------------
# persistence: one ensemble.npz holding the three arrays and a JSON header


def save_ensemble(ens: Ensemble, directory) -> None:
    """Write ens to <directory>/ensemble.npz; equal ensembles give equal bytes."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    grid = ens.spec.grid
    header = {
        "format": ENSEMBLE_FORMAT,
        "spec": {
            "length": grid.length,
            "modes": grid.modes,
            "points": grid.points,
            "cutoff_R": ens.spec.cutoff_R,
            "seed": ens.spec.seed,
        },
        "sampler": ens.sampler,
        "master_seed": ens.master_seed,
        "acceptance_rate": ens.acceptance_rate,
    }
    np.savez(
        directory / _ENSEMBLE_FILE,
        header=np.array(json.dumps(header, sort_keys=True)),
        coeffs=ens.coeffs,
        log_weights=ens.log_weights,
        in_support=ens.in_support,
    )


def load_ensemble(directory) -> Ensemble:
    """Read an ensemble written by save_ensemble; anything else raises ValueError."""
    directory = Path(directory)
    try:
        with np.load(directory / _ENSEMBLE_FILE, allow_pickle=False) as data:
            header = json.loads(str(data["header"]))
            arrays = {name: data[name] for name in ("coeffs", "log_weights", "in_support")}
    except (OSError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise ValueError(f"{directory}: not an {ENSEMBLE_FORMAT} directory ({exc})") from exc
    if not isinstance(header, dict) or header.get("format") != ENSEMBLE_FORMAT:
        raise ValueError(f"{directory}: not an {ENSEMBLE_FORMAT} directory")
    raw = header["spec"]
    if raw["points"] != 4 * raw["modes"]:
        raise ValueError(f"{directory}: points = {raw['points']} is not 4 * modes = {4 * raw['modes']}")
    spec = GibbsSpec(
        grid=GridSpec(length=raw["length"], modes=raw["modes"]),
        cutoff_R=raw["cutoff_R"],
        seed=raw["seed"],
    )
    return Ensemble(
        spec=spec,
        sampler=header["sampler"],
        master_seed=header["master_seed"],
        acceptance_rate=header["acceptance_rate"],
        **arrays,
    )
