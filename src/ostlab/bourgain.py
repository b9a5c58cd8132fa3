"""Space-time lattice probes of the dispersive estimates behind well-posedness.

Everything here lives on a discrete (n, tau) lattice: integer spatial
frequencies 0 < |n| <= n_max (the circle has length 2*pi, so the
modulation symbol is m(n) = n^3 + 1/n, the flow's own `spectral.dispersion`)
and a uniform tau grid of spacing d_tau.  The weighted norms

    |u|_{X^{s,b}} = ( sum_n sum_tau (<n>^s <tau + m(n)>^b |u(n,tau)|)^2 d_tau )^{1/2}

with <x> = (1 + x^2)^{1/2} discretizes the space-time norm in which the
quadratic term of the flow is estimated.  The module provides:

  * the resonance function R(n, n1) = m(n) - m(n1) - m(n-n1), exact in
    rational arithmetic, and exhaustive scans of the lower bound
    |R| >= |n n1 (n-n1)| away from |n| = 1;
  * numerical verification of the convolution-kernel integral and sum
    bounds that drive the estimates;
  * the bilinear map (f, g) -> dx(fg) measured from X^{s,1/2} x X^{s,1/2}
    into X^{s,-1/2}, with adversarial sweeps showing boundedness at
    s >= -1/2 and growth below;
  * the time-localization gain |psi_T u|_{X^{s,b}} ~ T^{1/2-b} |psi_T
    u|_{X^{s,1/2}} measured by windowing with an analytic Hann transform.

Ratios are only comparable at a fixed d_tau (the Riemann-sum convention
does not cancel between numerator and denominator of the bilinear
ratios); every sweep therefore keeps d_tau constant across n_max.

A LatticeField holds only its nonzero row windows, never the dense
lattice, whose tau grid grows like n_max^3; norms and the bilinear
convolution work window by window, so `bilinear_sweep` reaches n_max 4096
(2**33 cells per row at d_tau 16) in a fraction of a second and a few
hundred kB, and any n_max within the tau index limit of 2**52 (about
4.2e5 at d_tau 16).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .spectral import _STACK_BYTES_MAX, _freeze, _parallel_map, _philox, dispersion

__all__ = [
    "BilinearSweepResult",
    "KernelIntegralResult",
    "KernelSumResult",
    "LatticeField",
    "LatticeSpec",
    "ResonanceRecord",
    "ResonanceScan",
    "TimeLocalizationResult",
    "bilinear_sweep",
    "concentrated_pair",
    "hann_ft",
    "kernel_integral_scan",
    "kernel_sum_scan",
    "localization_demo_field",
    "localization_ratio",
    "localize",
    "resonance",
    "resonance_scan",
    "sweep_spec",
    "time_localization_scan",
    "xsb_norm",
]


# ---------------------------------------------------------------------------
# lattice containers


@dataclass(frozen=True)
class LatticeSpec:
    """Frequency/modulation grid: n in {+-1..+-n_max}, tau in d_tau steps.

    The tau grid is symmetric, tau_j = (j - K) d_tau for j = 0 .. 2K, with
    K = floor(tau_max/d_tau) <= 2**52.
    """

    n_max: int
    tau_max: float
    d_tau: float

    def __post_init__(self):
        if int(self.n_max) != self.n_max or self.n_max < 1:
            raise ValueError(f"n_max must be a positive integer, got {self.n_max}")
        object.__setattr__(self, "n_max", int(self.n_max))
        if not (self.d_tau > 0.0 and math.isfinite(self.d_tau)):
            raise ValueError(f"d_tau must be positive, got {self.d_tau}")
        if not (self.tau_max >= self.d_tau and math.isfinite(self.tau_max)):
            raise ValueError(f"tau_max must be >= d_tau, got {self.tau_max}")
        if self.k_tau > 2**52:
            raise ValueError(f"tau index floor(tau_max/d_tau) = {self.k_tau} exceeds 2**52 (float64 resolution)")

    @property
    def n_values(self) -> np.ndarray:
        n = self.n_max
        return np.concatenate([np.arange(-n, 0), np.arange(1, n + 1)])

    @property
    def k_tau(self) -> int:
        """K = floor(tau_max/d_tau), the column of tau = 0."""
        return int(self.tau_max / self.d_tau)

    @property
    def shape(self) -> tuple:
        """(frequency rows, tau columns) of the dense lattice."""
        return (2 * self.n_max, 2 * self.k_tau + 1)

    @property
    def tau(self) -> np.ndarray:
        return (np.arange(2 * self.k_tau + 1) - self.k_tau) * self.d_tau

    def index(self, n: int) -> int:
        if int(n) != n or n == 0 or abs(n) > self.n_max:
            raise ValueError(f"n must be a nonzero integer with |n| <= {self.n_max}")
        n = int(n)
        return n + self.n_max if n < 0 else n + self.n_max - 1

    def nearest_column(self, tau: float) -> int:
        """The column nearest tau, the lower of two equidistant ones, without the dense grid.

        For tau on or near the grid this is np.argmin(np.abs(self.tau - tau)):
        rounding moves floor(tau/d_tau) by at most one column, so the four
        columns around it hold the argmin.
        """
        k = self.k_tau
        guess = math.floor(tau / self.d_tau) + k
        cols = np.arange(min(max(guess - 1, 0), 2 * k), min(max(guess + 2, 0), 2 * k) + 1)
        return int(cols[np.argmin(np.abs((cols - k) * self.d_tau - tau))])


@dataclass(frozen=True, eq=False, init=False)
class LatticeField:
    """Complex amplitudes f(n, tau) on a LatticeSpec grid, held as row windows.

    `windows` holds one read-only (row, column, window) per nonzero row,
    ascending: the row's amplitudes from tau column `column` on, trimmed to
    its first and last nonzero cell; all other cells are zero.
    """

    spec: LatticeSpec
    windows: tuple

    def __init__(self, spec: LatticeSpec, *, windows=()):
        kept = []
        for row, col, win in windows:
            win = np.asarray(win, dtype=np.complex128)
            fits = win.ndim == 1 and 0 <= row < spec.shape[0] and 0 <= col <= spec.shape[1] - len(win)
            if not (fits and np.isfinite(win).all()):
                raise ValueError(f"window at row {row}, column {col} must be finite and fit the lattice")
            nz = np.flatnonzero(win)
            if nz.size:
                win = win[nz[0] : nz[-1] + 1].copy()
                win.setflags(write=False)
                kept.append((int(row), int(col + nz[0]), win))
        kept.sort(key=lambda w: w[0])
        if any(a[0] == b[0] for a, b in zip(kept, kept[1:])):
            raise ValueError("a row may hold one window only")
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "windows", tuple(kept))


# ---------------------------------------------------------------------------
# resonance function


def resonance(n: int, n1: int) -> Fraction:
    """R(n, n1) = m(n) - m(n1) - m(n - n1) for m = `dispersion`, exactly.

    The cubic parts telescope to 3 n n1 (n - n1); the 1/n parts are kept
    as exact rationals, so the result is an exact Fraction.  Divided by
    n n1 (n - n1) it reads 3 - (n1^2 + n1 n2 + n2^2) / (n n1 n2)^2 with
    n2 = n - n1.
    """
    if int(n) != n or int(n1) != n1:
        raise ValueError("n and n1 must be integers")
    n, n1 = int(n), int(n1)
    n2 = n - n1
    if n == 0 or n1 == 0 or n2 == 0:
        raise ValueError(f"n, n1, n-n1 must all be nonzero, got ({n}, {n1})")
    return 3 * n * n1 * n2 + Fraction(1, n) - Fraction(1, n1) - Fraction(1, n2)


@dataclass(frozen=True)
class ResonanceRecord:
    n: int
    n1: int
    R: float
    ratio: float


@dataclass(frozen=True)
class ResonanceScan:
    """Exhaustive minimum of |R(n,n1)| / |n n1 (n-n1)| over the scan box.

    `minimum` covers the admissible range |n| >= 2; `slice_minimum`
    reports the excluded |n| = 1 slice separately.  hist_* summarize the
    distribution of admissible ratios.
    """

    n_max: int
    minimum: ResonanceRecord
    slice_minimum: ResonanceRecord
    hist_counts: np.ndarray
    hist_edges: np.ndarray

    def __post_init__(self):
        _freeze(self, "hist_counts", "hist_edges")


def _grid_buffers(rows: int, n_max: int) -> tuple:
    """(n2, R, scratch, valid, mask) arrays for blocks of up to `rows` rows, reused block after block."""
    return tuple(np.empty((rows, 2 * n_max), dtype) for dtype in (float, float, float, bool, bool))


def _n1_rows(n_max: int) -> tuple:
    """(n1_range, n1 as a float row, 1 / n1) over all nonzero |n1| <= n_max: the columns every row block shares."""
    n1_range = np.concatenate([np.arange(-n_max, 0), np.arange(1, n_max + 1)])
    n1 = n1_range[None, :].astype(np.float64)
    return n1_range, n1, 1.0 / n1


def _resonance_grid(n_range: np.ndarray, n1_rows: tuple, buffers: tuple):
    """(n1_range, n, n1, n - n1, R, valid) over n in n_range x the columns of n1_rows (see _n1_rows).

    R is `resonance` in floats, the same telescoped form of `dispersion`.
    n is a float column and n1 a float row; where n1 = n, n - n1 reads 1 and valid is False.
    The arrays are rows of `buffers` (see _grid_buffers).
    """
    n1_range, n1, inv_n1 = n1_rows
    n = n_range[:, None].astype(np.float64)
    n2, R, scratch, valid, mask = (b[: len(n_range)] for b in buffers)
    np.not_equal(np.subtract(n, n1, out=n2), 0.0, out=valid)
    np.copyto(n2, 1.0, where=np.logical_not(valid, out=mask))
    # R = 3 n n1 n2 + 1/n - 1/n1 - 1/n2, left to right
    R = np.multiply(3.0 * n, n1, out=R)
    R *= n2
    R += 1.0 / n
    R -= inv_n1
    R -= np.divide(1.0, n2, out=scratch)
    return n1_range, n, n1, n2, R, valid


# cells per row block of the resonance scan: each block array stays near
# 256 KiB, in cache, and the scan runs in O(n_max) memory
_BLOCK_CELLS = 1 << 15


# largest resonance-scan box: one pass over (n_max - 1) x 2 n_max cells, plus the few
# blocks below the histogram's last edge (one core of a 2-core host: n_max 2048 in
# 0.08-0.10 s, 2**14 in 9-11 s, where the blocks are single rows)
_RESONANCE_N_MAX = 2**14


def _admissible_blocks(n_max: int) -> list:
    """-n_max <= n <= -2, ascending, in blocks of about _BLOCK_CELLS (n, n1) cells."""
    n_range = np.arange(-n_max, -1)
    rows = max(1, _BLOCK_CELLS // (2 * n_max))
    return [n_range[i : i + rows] for i in range(0, len(n_range), rows)]


def _ratio_block(n_block: np.ndarray, n1_rows: tuple, buffers):
    """(n1_range, |R| / |n n1 (n-n1)| with inf where n1 = n, its finite mask) over one row block, in `buffers`.

    Off n1 = n every factor of n n1 (n - n1) is nonzero, so the ratio is
    finite exactly where `valid` is True, and `valid` is the finite mask.
    """
    n1_range, n, n1, n2, R, valid = _resonance_grid(n_block, n1_rows, buffers)
    den = np.multiply(n, n1, out=buffers[2][: len(n_block)])
    den *= n2
    ratio = np.divide(np.abs(R, out=R), np.abs(den, out=den), out=R)
    # buffers[4] still holds _resonance_grid's mask, the complement of valid
    np.copyto(ratio, np.inf, where=buffers[4][: len(n_block)])
    return n1_range, ratio, valid


def _block_minimum(n_block: np.ndarray, n1_rows: tuple, buffers):
    """(smallest ratio, its n, its n1, largest finite ratio, finite-cell count) over one row block.

    Every block has finite cells, so the smallest ratio is the smallest finite one.
    """
    n1_range, ratio, finite = _ratio_block(n_block, n1_rows, buffers)
    i, j = np.unravel_index(np.argmin(ratio), ratio.shape)
    hi = ratio.max(where=finite, initial=-np.inf)
    return float(ratio[i, j]), int(n_block[i]), int(n1_range[j]), hi, np.count_nonzero(finite)


def _record(ratio: float, n: int, n1: int) -> ResonanceRecord:
    return ResonanceRecord(n=n, n1=n1, R=float(resonance(n, n1)), ratio=ratio)


def resonance_scan(n_max: int) -> ResonanceScan:
    """Scan all (n, n1) with 2 <= |n| <= n_max, 1 <= |n1| <= n_max, n != n1.

    The minimum ratio is 9/4 at (n, n1) = (-2, -1) for every n_max: the
    ratio is 3 - (n1^2 + n1 n2 + n2^2) / (n n1 n2)^2 (see `resonance`), and
    the correction is largest, 3/4, where |n1| = |n2| = 1.
    Only the rows n = -n_max..-2 are computed.  Every term of R, and
    n n1 n2, changes sign exactly under (n, n1) -> (-n, -n1), and rounding
    to nearest is symmetric, so row n's ratios are row -n's mirrored in n1,
    bit for bit: each computed row stands for two, and its bin counts are
    doubled.  Of equal ratios the first pair in row-major order of the full
    grid wins, and that pair lies in a negative row, since those come first.
    The rows are streamed in blocks of about _BLOCK_CELLS cells through one
    reused buffer set, against one set of n1 columns built per scan.  The
    first pass keeps each block's minimum, largest finite ratio and
    finite-cell count; the histogram range is the extent of those.  Every
    finite ratio is at most the last edge, and np.histogram's last bin is
    closed, so a block whose minimum is at least the second-to-last edge
    puts all its cells in the last bin and is not computed again; only the
    other blocks (one of 256 at n_max 2048) are re-scanned for their bin
    counts.  Memory is O(n_max).  The scan runs serially: on 2 cores, two
    workers scanned n_max 2048 no faster than one.
    n_max above _RESONANCE_N_MAX is rejected.
    """
    if int(n_max) != n_max or not 2 <= n_max <= _RESONANCE_N_MAX:
        raise ValueError(f"n_max must be an integer in [2, {_RESONANCE_N_MAX}], got {n_max}")
    n_max = int(n_max)
    blocks, n1_rows = _admissible_blocks(n_max), _n1_rows(n_max)
    buffers = _grid_buffers(len(blocks[0]), n_max)
    minima = [_block_minimum(rows, n1_rows, buffers) for rows in blocks]
    # min() keeps the first of equal ratios, and the blocks run in row order
    ratio, a, b, _, _ = min(minima, key=lambda m: m[0])
    edges = np.histogram_bin_edges(np.empty(0), bins=40, range=(ratio, max(m[3] for m in minima)))

    def block_counts(rows):
        # np.histogram's bins (edges[k] <= ratio < edges[k+1], the last one
        # closed) as differences of #{ratio < edge}; block counts add up
        _, ratio, finite = _ratio_block(rows, n1_rows, buffers)
        below = buffers[4][: len(rows)]
        cumulative = [np.count_nonzero(np.less(ratio, e, out=below)) for e in edges[1:-1]]
        return np.diff([0, *cumulative, np.count_nonzero(finite)])

    counts = np.zeros(len(edges) - 1, dtype=np.intp)
    for rows, (lo, _, _, _, finite) in zip(blocks, minima):
        if lo >= edges[-2]:
            counts[-1] += finite
        else:
            counts += block_counts(rows)
    slice_ratio, c, d, _, _ = _block_minimum(np.array([-1, 1]), n1_rows, _grid_buffers(2, n_max))
    return ResonanceScan(
        n_max=n_max,
        minimum=_record(ratio, a, b),
        slice_minimum=_record(slice_ratio, c, d),
        # doubled for the mirror rows
        hist_counts=2 * counts,
        hist_edges=edges,
    )


# ---------------------------------------------------------------------------
# lattice norms


def _angle_weight(x: np.ndarray, power: float) -> np.ndarray:
    """<x>^power with <x> = sqrt(1 + x^2)."""
    return (1.0 + x * x) ** (0.5 * power)


def xsb_norm(f: LatticeField, s: float, b: float) -> float:
    """Discrete X^{s,b} norm (counting measure in n, d_tau Riemann in tau) over the windows."""
    spec = f.spec
    n_values = spec.n_values
    total = 0.0
    for i, col, win in f.windows:
        n = n_values[i]
        tau = (np.arange(col, col + len(win)) - spec.k_tau) * spec.d_tau
        w = _angle_weight(float(n), s) * _angle_weight(tau + dispersion(int(n)), b)
        total += float(np.sum((w * np.abs(win)) ** 2))
    return math.sqrt(total * spec.d_tau)


# ---------------------------------------------------------------------------
# bilinear convolution ratios


def _bilinear_convolution(f: LatticeField, g: LatticeField) -> dict:
    """Discrete convolution of f and g over (n, tau), window by window.

    Returns {n_out: (column, row)}: row holds consecutive output cells from
    `column` on, and output column j sits at tau = (j - 2K) d_tau, so a
    window pair at columns a and b lands at column a + b.  The tau_1
    integral is a Riemann sum, so each row carries a factor d_tau.  Output
    frequencies cover all achievable sums n1 + n2 except 0 (the zero mode is
    annihilated by the derivative weight anyway).
    """
    spec = f.spec
    if g.spec != spec:
        raise ValueError("fields must share a lattice")
    nv = spec.n_values
    parts: dict[int, list] = {}
    for i, a, u in f.windows:
        for j, b, v in g.windows:
            n_out = int(nv[i] + nv[j])
            if n_out != 0:
                parts.setdefault(n_out, []).append((a + b, np.convolve(u, v)))
    out = {}
    for n_out, pieces in parts.items():
        lo = min(col for col, _ in pieces)
        row = np.zeros(max(col + len(p) for col, p in pieces) - lo, dtype=np.complex128)
        for col, p in pieces:
            row[col - lo : col - lo + len(p)] += p
        out[n_out] = (lo, row * spec.d_tau)
    return out


def _bilinear_ratios(f: LatticeField, g: LatticeField, s_values) -> list:
    """|dx(fg)|_{X^{s,-1/2}} / (|f|_{X^{s,1/2}} |g|_{X^{s,1/2}}) for each s in s_values, from one convolution.

    The numerator weights the (n, tau) convolution by
    |n| <n>^s <tau + m(n)>^{-1/2}; no time cutoff is modeled, so this
    measures the bare constant of the estimate at the lattice's d_tau.
    Raises on zero input (zero denominator).
    """
    dens = [xsb_norm(f, s, 0.5) * xsb_norm(g, s, 0.5) for s in s_values]
    if 0.0 in dens:
        raise ValueError("bilinear ratio needs nonzero input fields")
    spec = f.spec
    totals = [0.0] * len(dens)
    for n_out, (col, row) in _bilinear_convolution(f, g).items():
        amplitude = np.abs(row)
        tau = (np.arange(col, col + len(row)) - 2 * spec.k_tau) * spec.d_tau
        modulation = _angle_weight(tau + dispersion(n_out), -0.5)
        for k, s in enumerate(s_values):
            w = abs(n_out) * _angle_weight(float(n_out), s) * modulation
            totals[k] += float(np.sum((w * amplitude) ** 2))
    return [math.sqrt(total * spec.d_tau) / den for total, den in zip(totals, dens)]


# ---------------------------------------------------------------------------
# adversarial candidates and the sweep


def sweep_spec(n_max: int, d_tau: float = 16.0, w_cells: int = 16) -> LatticeSpec:
    """Lattice sized to contain the dispersion curve up to |n| = n_max.

    tau_max = |m(n_max)| plus a margin of w_cells + 4 cells: enough for
    the curve-concentrated candidates' profiles, whose support lies
    inside the grid.
    """
    margin = (w_cells + 4) * d_tau
    return LatticeSpec(n_max=n_max, tau_max=abs(dispersion(n_max)) + margin, d_tau=d_tau)


def concentrated_pair(
    spec: LatticeSpec,
    nu: int = 1,
    profile: str = "box",
    rng: np.random.Generator | None = None,
    w_cells: int = 16,
):
    """Candidate pair concentrated on the dispersion curve.

    f sits on row n_max, g on row nu - n_max, each with a w_cells-wide
    tau profile centered on the curve cell tau = -m(n).  Their product
    drives the low output frequency nu with all modulations minimal —
    the high-high-to-low interaction that extremizes the bilinear weight
    at negative s.  profile: "box" (all ones) or "random" (complex
    normal on the same support, preserving the support's scaling).
    """
    if nu == 0 or abs(nu - spec.n_max) > spec.n_max or nu == spec.n_max:
        raise ValueError(f"nu must give a valid second row, got {nu}")
    if profile not in ("box", "random"):
        raise ValueError(f"unknown profile {profile!r}")
    if profile == "random" and rng is None:
        raise ValueError("random profile needs an rng")

    def build(n_row):
        lo = max(0, spec.nearest_column(-dispersion(n_row)) - w_cells // 2)
        width = min(spec.shape[1], lo + w_cells) - lo
        if profile == "box":
            window = np.ones(width)
        else:
            window = rng.standard_normal(width) + 1j * rng.standard_normal(width)
        return LatticeField(spec, windows=[(spec.index(n_row), lo, window)])

    return build(spec.n_max), build(nu - spec.n_max)


@dataclass(frozen=True)
class BilinearSweepRow:
    s: float
    n_max: int
    max_ratio: float
    candidate: str


@dataclass(frozen=True)
class BilinearSweepResult:
    rows: tuple

    def max_ratio(self, s: float, n_max: int) -> float:
        for row in self.rows:
            if row.s == s and row.n_max == n_max:
                return row.max_ratio
        raise KeyError((s, n_max))


def bilinear_sweep(
    s_list,
    n_max_list,
    trials: int,
    d_tau: float = 16.0,
    w_cells: int = 16,
    seed: int = 0,
) -> BilinearSweepResult:
    """Max bilinear ratio over curve-concentrated candidates per (s, n_max).

    For each n_max the candidate set holds, for output frequencies nu in
    {1, 2}, one box-profile pair plus `trials` random-profile pairs on
    the same support.  d_tau is shared across the whole sweep so ratios
    are comparable along n_max.  Expected behavior: bounded (within 2x)
    for s >= -1/2, strictly growing for s < -1/2.
    """
    s_list = [float(s) for s in s_list]
    n_max_list = [int(n) for n in n_max_list]
    if trials < 0:
        raise ValueError("trials must be >= 0")
    best: dict[tuple, tuple] = {}
    for n_max in n_max_list:
        spec = sweep_spec(n_max, d_tau=d_tau, w_cells=w_cells)
        for nu in (1, 2):
            for t in (None, *range(trials)):  # the box pair, then the random ones
                rng = None if t is None else _philox(seed, (n_max << 20) + (nu << 16) + t)
                f, g = concentrated_pair(spec, nu, "box" if t is None else "random", rng=rng, w_cells=w_cells)
                label = f"curve-box nu={nu}" if t is None else f"curve-random nu={nu} trial={t}"
                for s, r in zip(s_list, _bilinear_ratios(f, g, s_list)):
                    cur = best.get((s, n_max))
                    if cur is None or r > cur[0]:
                        best[(s, n_max)] = (r, label)
    rows = tuple(
        BilinearSweepRow(s=s, n_max=n, max_ratio=v[0], candidate=v[1]) for (s, n), v in sorted(best.items())
    )
    return BilinearSweepResult(rows=rows)


# ---------------------------------------------------------------------------
# kernel lemmas: integrals over beta and sums over integer frequencies


# tanh-sinh rule on [0, 1] at t = k/64, |t| <= 3.6: nodes 1/(1 + exp(-pi sinh t)), kept as
# logs, so log(1 - node) is the mirror entry and stays exact next to 1
_TS_T = np.arange(-230, 231) / 64.0
_TS_LOG_NODE = -np.logaddexp(0.0, -np.pi * np.sinh(_TS_T))
_TS_NODE, _TS_LOG_WEIGHT = np.exp(_TS_LOG_NODE), _TS_LOG_NODE + _TS_LOG_NODE[::-1] + np.log(np.pi / 64 * np.cosh(_TS_T))

# largest form-3 eps: up to here the rule resolves the integrand's 1/eps-wide end layers
# to about 1e-15 (against a 2F1 closed form); at eps = 1e8 it is off by 1e-12
_KERNEL_EPS_MAX = 1e6


def _log_quad(phi, length: float) -> float:
    """log int_0^length exp(phi(x)) dx, summed in log space (-inf at length 0)."""
    with np.errstate(divide="ignore"):  # log(0) at length 0 or at a node that rounds to 0
        v = phi(length * _TS_NODE) + _TS_LOG_WEIGHT
        return float(v.max() + np.log(np.exp(v - v.max()).sum() * length))


def _log_pair(n: float, f: float, x0: float) -> float:
    """log of (1+a)^f int_{beta <= a/2} (1+|beta|)^-n (1+a-beta)^-f dbeta, with x0 = log(1+a).

    Each piece has its features at the ends of its interval: the half-line by
    1 - beta = e^x for x in [0, x0], then x = x0 + y for y in [0, Y] plus the
    remainder e^(-sY)/s (exact to e^-40), and [0, a/2] by 1 + beta = e^y.
    """
    s, y_max = (max(n, f) - 1.0) + min(n, f), 40.0 + math.log1p(f)  # s = n + f - 1, exact if n or f is 1
    near = _log_quad(lambda x: (1.0 - n) * x - f * np.logaddexp(0.0, x + np.log(-np.expm1(-x)) - x0), x0)
    tail = np.logaddexp(_log_quad(lambda y: -s * y - f * np.log1p(-math.expm1(-x0) * np.exp(-y)), y_max),
                        -s * y_max - math.log(s))
    mid = _log_quad(lambda y: (1.0 - n) * y - f * np.log1p(-np.expm1(y) * math.exp(-x0)),
                    math.log1p(math.expm1(x0) / 2))
    return float(np.logaddexp.reduce([near, (1.0 - n) * x0 + tail, mid]))


def _kernel_integral(form: int, alpha: float, rho: float, eps: float) -> tuple:
    """(integral, bound, ratio) of one kernel form at one alpha.

    The integrand is (1+|beta|)^-p (1+|alpha-beta|)^-q and the bound b (1+|alpha|)^-k.
    The ratio is summed in log space with the powers (1+|alpha|)^(k-q) and ^(k-p)
    cancelled exactly, so it stays finite where the integral and the bound underflow.
    """
    a = abs(alpha)  # the integrand maps beta -> -beta under alpha -> -alpha
    x0 = math.log1p(a)
    p, q, k, b = {1: (1.0, 1.0, 1.0, math.log(2.0 + a)), 2: (rho, 1.0, rho, 1.0 + math.log(1.0 + a)),
                  3: (1.0 + eps, 1.0 + eps, 1.0 + eps, 1.0)}[form]
    bound = b / (1.0 + a) ** k if form < 3 else (1.0 + a) ** -k  # a power that underflows, never overflows
    # beta <= a/2 has near exponent p and far exponent q; beta >= a/2 the reverse
    low = (k - q) * x0 + _log_pair(p, q, x0)
    high = (k - p) * x0 + _log_pair(q, p, x0) if p != q else low
    with np.errstate(over="ignore"):
        ratio = float(np.exp(np.logaddexp(low, high) - math.log(b)))
    if not math.isfinite(ratio * bound):  # inf, or inf times an underflowed bound
        raise OverflowError(f"kernel integral form {form} at alpha={alpha} overflows a float")
    return ratio * bound, bound, ratio


@dataclass(frozen=True)
class KernelIntegralRow:
    form: int
    alpha: float
    integral: float
    bound: float
    ratio: float


@dataclass(frozen=True)
class KernelIntegralResult:
    rows: tuple

    @property
    def max_ratio(self) -> float:
        return max(row.ratio for row in self.rows)


def kernel_integral_scan(alpha_list, rho: float, eps: float = 0.5) -> KernelIntegralResult:
    """Quadrature check of the three convolution-kernel integral bounds.

    Form 1: int dbeta / ((1+|beta|)(1+|alpha-beta|))       <= C log(2+|alpha|)/(1+|alpha|)
    Form 2: same with (1+|beta|)^rho, rho in (0,1)         <= C (1+log(1+|alpha|))/(1+|alpha|)^rho
    Form 3: (1+|beta|)^{1+eps}(1+|alpha-beta|)^{1+eps}     <= C (1+|alpha|)^{-(1+eps)}

    Each row reports LHS (a fixed tanh-sinh rule, see `_kernel_integral`), the
    stated RHS shape, and their ratio; the scan's max ratio is the
    empirical constant C.  C depends on the exponents — it grows like
    1/eps and like 1/min(rho, 1-rho) — so the defaults (rho = 1/2 via
    callers, eps = 1/2) keep the whole documented scan under a single
    constant of order 10.
    """
    if not (0.0 < rho < 1.0):
        raise ValueError(f"rho must be in (0, 1), got {rho}")
    if not 0.0 < eps <= _KERNEL_EPS_MAX:
        raise ValueError(f"eps must be in (0, {_KERNEL_EPS_MAX:g}], got {eps}")
    rows = tuple(
        KernelIntegralRow(form, float(alpha), *_kernel_integral(form, float(alpha), rho, eps))
        for form in (1, 2, 3)
        for alpha in alpha_list
    )
    return KernelIntegralResult(rows=rows)


@dataclass(frozen=True)
class KernelSumRow:
    form: int
    tau: float
    n: int
    value: float
    tail: float


@dataclass(frozen=True)
class KernelSumResult:
    rows: tuple

    @property
    def max_value(self) -> float:
        return max(row.value + row.tail for row in self.rows)


# largest summation range and |n| of a frequency-sum scan: the default 4 x 4 (tau, n) grid takes
# 0.08 s and 35 MB at k_range 1e5 on one thread, 0.06 s and 37 MB on two; 0.9 s and 62 MB at 1e6 on
# one, 0.65 s and 78 MB on two (peak RSS of the process, 2-core host); the symbol table holds
# 2(k_range + max |n|) + 1 floats and each worker one summed array of 2 k_range + 1 and one block
_KERNEL_K_MAX = 10**6

# floats per block of the sums' elementwise passes, whose operands then stay in a core's cache
_SUM_BLOCK = 1 << 15


def _symbol_table(k_max: int):
    """m(c, k): m over c-k..c+k, ascending, as a view of one table of m over |i| <= k_max (nan at i = 0)."""
    # the indices, then m of each half in their place: one table and one half's temporaries
    table = np.arange(-k_max, k_max + 1.0)
    table[:k_max], table[k_max] = dispersion(table[:k_max]), np.nan
    table[k_max + 1 :] = dispersion(table[k_max + 1 :])
    return lambda c, k: table[k_max + c - k : k_max + c + k + 1]


def _drop(values: np.ndarray, k_range: int, *excluded: int) -> np.ndarray:
    """values over index -k_range..k_range without the excluded indices inside that range, shifted left in place."""
    cuts = sorted({k_range + i for i in excluded if abs(i) <= k_range}) + [len(values)]
    kept = cuts[0]
    for lo, hi in zip(cuts, cuts[1:]):
        values[kept : kept + hi - lo - 1] = values[lo + 1 : hi]
        kept += hi - lo - 1
    return values[:kept]


def _sum_terms(t: np.ndarray, block: np.ndarray, rho: float | None = None) -> float:
    """Sum over t of log(2+|t|)/(1+|t|), or of log(1+|t|)/(1+|t|)^rho, formed in t with the plain form's bits."""
    for lo in range(0, len(t), len(block)):
        t_b = t[lo : lo + len(block)]
        one_plus = np.add(1.0, np.abs(t_b, out=block[: len(t_b)]), out=block[: len(t_b)])
        if rho is None:
            np.log(np.add(2.0, np.abs(t_b, out=t_b), out=t_b), out=t_b)
        else:
            np.log(one_plus, out=t_b)
            # **=, not np.power: the same exponent fast paths as (1 + a) ** rho
            one_plus **= rho
        t_b /= one_plus
    return float(np.sum(t))


def _sum_form1(tau: float, n: int, k_range: int, m, work: tuple) -> tuple:
    """sum over n1 of log(2+|tau+m(n1)+m(n-n1)|)/(1+|same|); m is a _symbol_table, work (2 k_range + 1, block)."""
    # m(n - n1) over ascending n1 is m over n-k_range..n+k_range reversed
    arg = np.add(tau, m(0, k_range), out=work[0][: 2 * k_range + 1])
    arg += m(n, k_range)[::-1]
    value = _sum_terms(_drop(arg, k_range, 0, n), work[1])
    # past k_range, |m(n1)+m(n-n1)| >= (3/4)|n| n1^2 up to O(1) terms;
    # integrate the monotone envelope log(2+c k^2)/(c k^2)
    c = 0.75 * abs(n)
    c_eff = 0.5 * c
    tail = 2.0 * (math.log(2.0 + c_eff * k_range**2) + 2.0) / (c_eff * k_range)
    return value, tail


def _sum_forms23(tau1: float, n1: int, k_range: int, rho: float, m, work: tuple) -> tuple:
    """Forms 2 and 3 as ((value, tail), (value, tail)): given (tau1, n1), sum over output frequency n."""
    # j = n - n1 over -k_range..k_range; n = n1 + j must be nonzero; form 2's terms overwrite the argument, so
    # form 3 forms it anew
    base = tau1 + float(m(n1, 0)[0])
    value2, value3 = (
        _sum_terms(_drop(np.subtract(base, m(0, k_range), out=work[0][: 2 * k_range + 1]), k_range, 0, -n1), work[1], r)
        for r in (None, rho)
    )
    c = 0.5  # |arg| >= |j|^3/2 beyond the scan, after absorbing base
    tail2 = 2.0 * (math.log(2.0 + c * k_range**3) + 3.0) / (2.0 * c * k_range**2)
    p = 3.0 * rho - 1.0
    tail3 = 2.0 * c**-rho * k_range**-p * (math.log(1.0 + c * k_range**3) / p + 3.0 / p**2)
    return (value2, tail2), (value3, tail3)


def _check_sum_grid(tau_list, n_list, k_range: int) -> None:
    """Raise ValueError unless every (tau, n) grid point is nonzero in n and k_range reaches its tail bounds."""
    for tau in tau_list:
        for n in n_list:
            if n == 0:
                raise ValueError("n must be nonzero")
            # form 1's envelope past k_range needs (3/4)|n| k^2 / 2 above |tau| + 3;
            # forms 2 and 3 read (tau, n) as (tau1, n1) and need k^3 / 2 above |tau1 + m(n1)| + 3
            short1 = 0.5 * (0.75 * abs(n)) * k_range**2 <= abs(tau) + 3.0
            if short1 or 0.5 * k_range**3 <= abs(tau + dispersion(n)) + 3.0:
                raise ValueError(f"k_range too small for the tail bound at tau {tau:g}, n {n}")


def kernel_sum_scan(tau_list, n_list, rho: float, k_range: int = 10**5, threads: int = 1) -> KernelSumResult:
    """Frequency-sum analogues of the kernel bounds, uniform in tau.

    Form 1 sums log(2+|tau+m(n1)+m(n-n1)|)/(1+|.|) over n1 for each
    (tau, n); forms 2 and 3 read the grid point as (tau1, n1) and sum
    over the output frequency, form 3 with exponent rho > 2/3.  Values
    include an integral tail bound beyond |index| = k_range, so max_value
    upper-bounds the full sums.  k_range and every |n| are capped at
    _KERNEL_K_MAX.  Contiguous runs of grid points go to up to `threads`
    workers (0 = all cores), at most one per point and as many as fit their
    scratch in _STACK_BYTES_MAX; the rows, in grid order, have the same bits
    on any thread count.
    """
    if not 2.0 / 3.0 < rho < math.inf:
        raise ValueError(f"rho must be > 2/3 and finite, got {rho}")
    if k_range < 1:
        raise ValueError("k_range too small for the tail bound")
    if k_range > _KERNEL_K_MAX:
        raise ValueError(f"k_range must be at most {_KERNEL_K_MAX}, got {k_range}")
    n_far = abs(int(max(n_list, key=abs, default=0)))
    if n_far > _KERNEL_K_MAX:
        raise ValueError(f"|n| must be at most {_KERNEL_K_MAX}, got {n_far}")
    _check_sum_grid(tau_list, n_list, k_range)
    # every index below lies in 0 < |i| <= k_range + max |n|
    m = _symbol_table(int(k_range) + n_far)
    points = [(float(tau), int(n)) for tau in tau_list for n in n_list]
    fit = _STACK_BYTES_MAX // (8 * (2 * k_range + 1 + _SUM_BLOCK))
    workers = max(1, min(threads if threads > 0 else (os.cpu_count() or 1), len(points), fit))
    bounds = [len(points) * w // workers for w in range(workers + 1)]

    def run(run_points):
        work, rows = (np.empty(2 * k_range + 1), np.empty(_SUM_BLOCK)), []
        for tau, n in run_points:
            sums = (_sum_form1(tau, n, k_range, m, work), *_sum_forms23(tau, n, k_range, rho, m, work))
            rows += [KernelSumRow(form=form, tau=tau, n=n, value=v, tail=t) for form, (v, t) in enumerate(sums, 1)]
        return rows

    runs = _parallel_map(run, [points[lo:hi] for lo, hi in zip(bounds, bounds[1:])], workers)
    return KernelSumResult(rows=tuple(row for rows in runs for row in rows))


# ---------------------------------------------------------------------------
# time localization


def hann_ft(lam, T: float):
    """Fourier transform of the Hann window (1 + cos(pi t/T))/2 on [-T, T].

    psi_T_hat(lam) = -sin(lam T) a^2 / (lam (lam - a)(lam + a)), a = pi/T,
    with removable singularities psi(0) = T and psi(+-a) = T/2.  Decays
    like lam^{-3}, fast enough that sampled convolution converges.
    """
    if not (T > 0.0 and math.isfinite(T)):
        raise ValueError(f"T must be positive, got {T}")
    a = math.pi / T
    lam = np.asarray(lam, dtype=np.float64)
    scalar = lam.ndim == 0
    lam = np.atleast_1d(lam)
    tol = 1e-9 * a
    near_zero = np.abs(lam) < tol
    near_a = np.abs(np.abs(lam) - a) < tol
    safe = np.where(near_zero | near_a, 1.0, lam * (lam - a) * (lam + a))
    out = -np.sin(lam * T) * a * a / safe
    out[near_zero] = T
    out[near_a] = T / 2.0
    return float(out[0]) if scalar else out


def localize(u: LatticeField, T: float) -> LatticeField:
    """Window u in time: convolve each frequency row with the Hann transform (full-width windows)."""
    spec = u.spec
    kernel = hann_ft(spec.tau, T) * (spec.d_tau / (2.0 * math.pi))
    windows = []
    for i, col, win in u.windows:
        row = np.zeros(spec.shape[1], dtype=np.complex128)
        row[col : col + len(win)] = win
        windows.append((i, 0, np.convolve(row, kernel, mode="same")))
    return LatticeField(spec, windows=windows)


def _localization_ratios(u: LatticeField, b_list, T: float) -> list:
    """|psi_T u|_{X^{0,b}} / |psi_T u|_{X^{0,1/2}} for each b in b_list, from one windowed field."""
    w = localize(u, T)
    den = xsb_norm(w, 0.0, 0.5)
    if den == 0.0:
        raise ValueError("localized field is zero")
    return [xsb_norm(w, 0.0, b) / den for b in b_list]


def localization_ratio(u: LatticeField, b: float, T: float) -> float:
    """|psi_T u|_{X^{0,b}} / |psi_T u|_{X^{0,1/2}} for the windowed field."""
    return _localization_ratios(u, [b], T)[0]


def localization_demo_field(n_max: int = 4, margin: float = 1200.0) -> LatticeField:
    """Curve-supported test field: one unit cell at tau = -m(n) per row.

    Before windowing all modulation weight sits at <0> = 1; the window
    spreads each delta by ~1/T, which is what the b < 1/2 norms then
    integrate — the cleanest exhibit of the T^{1/2-b} gain.
    """
    spec = LatticeSpec(n_max=n_max, tau_max=abs(dispersion(n_max)) + margin, d_tau=1.0)
    return LatticeField(
        spec, windows=[(spec.index(int(n)), spec.nearest_column(-dispersion(int(n))), [1.0]) for n in spec.n_values]
    )


@dataclass(frozen=True)
class TimeLocalizationResult:
    ratios: np.ndarray  # shape (len(b_list), 6): row i at b_list[i], column j at T = 2^-(j+1)
    slopes: tuple  # fitted d log(ratio) / d log(T) per b

    def __post_init__(self):
        _freeze(self, "ratios")


def time_localization_scan(u: LatticeField, b_list) -> TimeLocalizationResult:
    """Measure the localization gain: log-log slope of ratio(T) per b.

    For a field windowed to [-T, T] the X^{0,b} norm loses T^{1/2-b}
    against X^{0,1/2}; the scan fits the slope over T = 2^-1..2^-6 by
    least squares.  b = 1/2 gives ratio identically 1 (slope 0).  The
    field is windowed once per T, and every b's ratio read from it.
    """
    b_list = [float(b) for b in b_list]
    if any(not (0.0 < b <= 0.5) for b in b_list):
        raise ValueError("each b must satisfy 0 < b <= 1/2")
    T_list = [2.0**-k for k in range(1, 7)]
    ratios = np.empty((len(b_list), len(T_list)))
    for j, T in enumerate(T_list):
        ratios[:, j] = _localization_ratios(u, b_list, T)
    log_t = np.log(T_list)
    slopes = tuple(float(np.polyfit(log_t, np.log(row), 1)[0]) for row in ratios)
    return TimeLocalizationResult(ratios=ratios, slopes=slopes)
