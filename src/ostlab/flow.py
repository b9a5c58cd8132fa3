"""Truncated Ostrovsky flow: exact linear phase, dealiased nonlinearity.

The dynamical system integrated here is the m-mode Galerkin truncation

    u_t = -dx( S u + P_m u^2 ),        S = -dx^2 - dx^{-2},

i.e. per coefficient

    d/dt u_hat(k) = -i (xi_k^3 + 1/xi_k) u_hat(k) - i xi_k (u^2)^(k).

This is the Hamiltonian form u_t = -dx(dH/du) for

    H(u) = (1/2)(Su, u) + (1/3) int u^3,

so the flow conserves H and the L2 norm exactly; the ETDRK4 integrator
below conserves them to scheme accuracy.  The linear phase exp(-i(xi^3+1/xi)t)
is applied exactly per mode (exponential integrator), which removes the
xi^3 stiffness entirely.

The divergence-free structure of the coordinate vector field (Liouville)
and the contraction of the Duhamel fixed-point map are checked by
`liouville_divergence` and `picard_solve`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import (
    TWO_PI,
    FourierField,
    GridSpec,
    _coeff_to_coords,
    _coord_eigenvalues,
    _coords_to_coeff,
    _freeze,
    _from_physical,
    _hamiltonian,
    _l2,
    _parallel_map,
    _to_physical,
    coordinates,
    cubic_g,
    dispersion,
    make_grid,
    regrid,
)

BLOW_UP_THRESHOLD = 1e12

_CONTOUR_POINTS = 32

__all__ = [
    "BLOW_UP_THRESHOLD",
    "BlowUpError",
    "ConvergenceStudy",
    "FlowParams",
    "LiouvilleCheck",
    "PicardResult",
    "TrajectoryRecord",
    "convergence_in_m",
    "evolve",
    "flow_map",
    "liouville_divergence",
    "nonlinear_term",
    "picard_solve",
]


class BlowUpError(RuntimeError):
    """State left the trusted range (non-finite or |coeff| > threshold).

    For batch runs, `samples` lists the offending row indices.
    """

    def __init__(self, time: float, modes, samples=()):
        self.time = float(time)
        self.modes = tuple(int(k) for k in np.atleast_1d(modes))
        self.samples = tuple(int(i) for i in np.atleast_1d(samples))
        where = f" in samples {self.samples}" if self.samples else ""
        super().__init__(
            f"blow-up at t={self.time:.6g}: modes {self.modes}{where} "
            f"non-finite or above {BLOW_UP_THRESHOLD:.0e}"
        )


@dataclass(frozen=True)
class FlowParams:
    """Integration controls of the ETDRK4 integrator.

    nonlinear=False integrates the linear phase only.
    """

    dt: float
    T: float = 0.0
    record_every: int = 1
    nonlinear: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not math.isfinite(self.T):
            raise ValueError(f"T must be finite, got {self.T}")
        if int(self.record_every) != self.record_every or self.record_every < 1:
            raise ValueError(f"record_every must be an integer >= 1, got {self.record_every}")
        object.__setattr__(self, "record_every", int(self.record_every))


@dataclass(frozen=True)
class TrajectoryRecord:
    """States and conserved quantities at the record times of one trajectory.

    states[i] holds the coefficients at times[i]; final is states[-1].
    """

    times: np.ndarray
    l2: np.ndarray
    hamiltonian: np.ndarray
    final: FourierField
    states: np.ndarray

    def __post_init__(self):
        _freeze(self, "times", "l2", "hamiltonian", dtype=np.float64)
        _freeze(self, "states", dtype=np.complex128)
        if not (len(self.times) == len(self.l2) == len(self.hamiltonian) == len(self.states)):
            raise ValueError("record arrays must have equal length")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("times must be strictly increasing")


# ---------------------------------------------------------------------------
# right-hand side


def _linear_rates(grid: GridSpec) -> np.ndarray:
    """Diagonal rates lambda_k = -i dispersion(xi_k) = -i xi_k s_k."""
    return -1j * dispersion(grid.xi)


# Up to this many modes the product is two real GEMMs against DFT tables;
# above it, pocketfft.  With one-thread OpenBLAS on a 2-core Xeon the tables
# took 0.18-0.65 of the FFT's time at batch 20 and 20 000 for m = 8..32,
# and 1.7x the FFT's time at batch 20 for m = 64 (tools/layer_bench.py).
_GEMM_MAX_MODES = 32

# OpenBLAS runs a GEMM with M*N*K at most 65536 * 4 on the calling thread
# (interface/gemm.c); row chunks stay under it, so the flow's own workers
# are the only parallelism whether or not BLAS is pinned to one thread.
_GEMM_SERIAL_MNK = 65536 * 4


def _product_tables(modes: int, npts: int):
    """Real DFT tables (t_in, t_out) of the product on npts points.

    t_in (2m, n) takes interleaved (Re, Im) coefficients to samples,
    t_out (n, m') samples to interleaved coefficients of u^2.  Angles come
    from the reduced index k*j mod npts, with exact zeros at the quarter
    and half turns.  n and m' round npts and 2m up to multiples of 8 with
    zero columns: an output width off that grid sends edge columns through
    OpenBLAS kernels whose bits depend on the row count.
    """
    r = np.outer(np.arange(1, modes + 1), np.arange(npts)) % npts
    cos, sin = np.cos(TWO_PI / npts * r), np.sin(TWO_PI / npts * r)
    cos[(4 * r == npts) | (4 * r == 3 * npts)] = 0.0
    sin[(r == 0) | (2 * r == npts)] = 0.0
    n, width = -(-npts // 8) * 8, -(-2 * modes // 8) * 8
    t_in, t_out = np.zeros((2 * modes, n)), np.zeros((n, width))
    t_in[0::2, :npts], t_in[1::2, :npts] = 2.0 * cos, -2.0 * sin
    t_out[:npts, 0 : 2 * modes : 2], t_out[:npts, 1 : 2 * modes : 2] = cos.T / npts, -sin.T / npts
    return t_in, t_out


def _product_work(lead: tuple, npts: int, tables) -> tuple:
    """Workspace of _product_coeff for a lead + (m,) stack: FFT buffers when tables is None."""
    if tables is None:
        half = npts // 2 + 1
        return np.zeros(lead + (half,), np.complex128), np.empty(lead + (npts,)), np.empty(lead + (half,), np.complex128)
    t_in, t_out = tables
    rows = max(2, math.prod(lead))
    chunk = min(rows, max(4, _GEMM_SERIAL_MNK // t_out.size))
    return t_in, t_out, np.zeros((2, len(t_in))), np.empty((chunk, len(t_out)))


def _product_coeff(coeff: np.ndarray, modes: int, npts: int, *, work: tuple) -> np.ndarray:
    """Modes 1..m of u^2 from an npts-point product grid, as a fresh array.

    npts >= 4*modes is alias-free for the quadratic product; smaller grids
    (allowed down to 2m+1) fold high products back onto the band.  `work`
    (from _product_work) holds the spectrum (zero off the band), sample and
    rfft buffers above _GEMM_MAX_MODES; else the DFT tables, a zero-padded
    row pair and a sample buffer of at most one serial GEMM's rows.
    """
    if modes > _GEMM_MAX_MODES:
        spec, u, prod = work
        _to_physical(coeff, npts, spec, out=u)
        u *= u
        return _from_physical(u, modes, out=prod)
    t_in, t_out, pad, u = work
    x = np.ascontiguousarray(coeff, np.complex128).reshape(-1, modes).view(np.float64)
    rows = len(x)
    if rows < 2:
        # numpy sends a 1-row operand to gemv, whose bits differ from gemm's rows
        pad[:rows] = x
        x = pad
    out = np.empty((len(x), t_out.shape[1]))
    # even chunks of at most len(u) rows, so none is a lone row: one chunk when
    # len(x) <= len(u) (a padded row pair included), else chunks of >= 4 rows
    chunks = -(-len(x) // len(u))
    for i in range(chunks):
        lo, hi = len(x) * i // chunks, len(x) * (i + 1) // chunks
        s = np.matmul(x[lo:hi], t_in, out=u[: hi - lo])
        s *= s
        np.matmul(s, t_out, out=out[lo:hi])
    return out[:rows, : 2 * modes].view(np.complex128).reshape(coeff.shape)


def _nonlinear(grid: GridSpec):
    """The nonlinear part c -> -i xi_k P_m(u^2)^(k) of the coefficient ODE.

    Its workspace follows the input shape: never share it between threads.
    """
    m, npts, rate = grid.modes, grid.points, -1j * grid.xi
    tables = _product_tables(m, npts) if m <= _GEMM_MAX_MODES else None
    work, lead = None, None

    def rhs(c):
        nonlocal work, lead
        if c.shape[:-1] != lead:
            lead = c.shape[:-1]
            work = _product_work(lead, npts, tables)
        product = _product_coeff(c, m, npts, work=work)
        return np.multiply(rate, product, out=product)

    return rhs


def nonlinear_term(f: FourierField) -> FourierField:
    """(1/2) P_m dx(u^2), dealiased: -1/2 of the flow's nonlinear part.

    Skew against its argument: <nonlinear_term(f), f>_{L2} = 0, which is
    what makes the full flow L2-conserving.
    """
    return FourierField(f.grid, -0.5 * _nonlinear(f.grid)(f.coeff))


# ---------------------------------------------------------------------------
# steppers


def _etdrk4_tables(lam: np.ndarray, h: float):
    """Coefficient tables for one ETDRK4 step of size h.

    The phi-functions are evaluated by complex contour averaging on a full
    unit circle around each h*lambda: the rates are purely imaginary, so the
    half-circle/real-part shortcut (valid for decaying real spectra) would
    silently lose the imaginary parts and the scheme's order.
    """
    z = h * lam
    r = np.exp(2j * np.pi * (np.arange(_CONTOUR_POINTS) + 0.5) / _CONTOUR_POINTS)
    zr = z[:, None] + r[None, :]
    ez = np.exp(zr)
    E = np.exp(z)
    E2 = np.exp(z / 2.0)
    Q = h * ((np.exp(zr / 2.0) - 1.0) / zr).mean(axis=1)
    f1 = h * ((-4.0 - zr + ez * (4.0 - 3.0 * zr + zr**2)) / zr**3).mean(axis=1)
    f2 = h * ((2.0 + zr + ez * (zr - 2.0)) / zr**3).mean(axis=1)
    f3 = h * ((-4.0 - 3.0 * zr - zr**2 + ez * (4.0 - zr)) / zr**3).mean(axis=1)
    return E, E2, Q, f1, 2.0 * f2, f3


def _etdrk4_step(c, tables, rhs):
    E, E2, Q, f1, f2_twice, f3 = tables
    n1 = rhs(c)
    e2c = E2 * c
    a = e2c + Q * n1
    n2 = rhs(a)
    b = e2c + Q * n2
    n3 = rhs(b)
    d = E2 * a + Q * (2.0 * n3 - n1)
    n4 = rhs(d)
    # E c + f1 n1 + 2 f2 (n2 + n3) + f3 n4, summed left to right in place
    out = E * c
    out += f1 * n1
    out += f2_twice * np.add(n2, n3, out=n2)
    out += np.multiply(f3, n4, out=n4)
    return out


def _check_state(c: np.ndarray, t: float) -> None:
    # one reduction in the common case; NaN fails the comparison
    if np.abs(c).max(initial=0.0) <= BLOW_UP_THRESHOLD:
        return
    bad = ~np.isfinite(c) | (np.abs(c) > BLOW_UP_THRESHOLD)
    if bad.any():
        where = np.nonzero(bad)
        modes = 1 + np.unique(where[-1])
        samples = np.unique(where[0]) if c.ndim > 1 else ()
        raise BlowUpError(t, modes, samples)


def _stepper(lam, rhs, h: float):
    """One step of size h (either sign) as c -> c': ETDRK4, or the exact phase when rhs is None."""
    if rhs is None:
        phase = np.exp(h * lam)
        return lambda c: phase * c
    tables = _etdrk4_tables(lam, h)
    return lambda c: _etdrk4_step(c, tables, rhs)


# most full steps one time may take: an m=32 state steps at about 1.25e4 steps/s
# (ETDRK4, batch 1, one core of a 2-core host), so the cap allows about 80 s
_MAX_STEPS = 10**6

# most nodes of a Picard time grid: about 3.3 KB each at m=16, so 0.85 GB and
# about 6 s for 8 iterations at the cap, which the node density reaches at T = 40
_MAX_NODES = 256_001

# picard_solve's grid: 6400 nodes per unit time, floor 65; _PICARD_T_MAX is the longest T inside the node cap
_NODES_PER_UNIT_TIME = 6400.0
_PICARD_T_MAX = (_MAX_NODES - 1) / _NODES_PER_UNIT_TIME

# largest L2 distance between Picard's limit and the ETDRK4 endpoint that counts as agreement:
# criterion 11's bound, above which the picard command exits 3
_PICARD_ENDPOINT_TOL = 1e-6


def _default_nodes(T: float) -> int:
    return max(65, math.ceil(_NODES_PER_UNIT_TIME * T) + 1)


def _full_steps(t: float, dt: float) -> int:
    steps = abs(t) / dt * (1.0 + 1e-12) + 1e-12
    if not steps < _MAX_STEPS + 1:
        raise ValueError(f"t = {t:g} at dt = {dt:g} takes {steps:.3g} steps, above the cap of {_MAX_STEPS}")
    return int(steps)


def _tail_step(c, t: float, lam, rhs, p: FlowParams):
    """Take the state after _full_steps(t) steps to time t (no-op when dt divides t)."""
    tail = t - _full_steps(t, p.dt) * math.copysign(p.dt, t)
    if abs(tail) > 1e-12 * max(p.dt, abs(t)):
        c = _stepper(lam, rhs, tail)(c)
        _check_state(c, t)
    return c


# Rows per block of a stacked run.  On a 2-core Xeon, 2 threads took a (20000, 8) stack to t = 0.05 and 0.1
# (dt 1e-3) in 1.4-1.8 s with 512-row blocks, 1.22-1.30 s with 1024, 1.15-1.25 s with 2048, 1.25-1.30 s with 4096.
_ROW_BLOCK = 2048


def _advance_times(coeff: np.ndarray, grid: GridSpec, p: FlowParams, times, threads: int = 1):
    """States at each t in times (either sign); a time of 0 gives the input state.

    A single (m,) state runs as one block; a (rows, m) stack runs in
    _ROW_BLOCK-row blocks on `threads` workers (0 = all cores).  Each block
    steps once per time sign up to each requested number of full steps,
    checking the state after each, and gives each time its own tail step;
    one right-hand side of its own serves both.  BlowUpError.samples index
    the stack.
    """
    times = [float(t) for t in times]
    lam = _linear_rates(grid)
    if coeff.ndim == 1:
        blocks = [slice(None)]
    else:
        blocks = [slice(i, i + _ROW_BLOCK) for i in range(0, len(coeff), _ROW_BLOCK)]

    def run_block(block):
        rows = coeff[block]
        rhs = _nonlinear(grid) if p.nonlinear else None
        out = [rows] * len(times)
        for sign in (1.0, -1.0):
            wanted = {}
            for j, t in enumerate(times):
                if t * sign > 0.0:
                    wanted.setdefault(_full_steps(t, p.dt), []).append(j)
            if not wanted:
                continue
            h = sign * p.dt
            step = _stepper(lam, rhs, h)
            c, n = rows, 0
            try:
                for target in sorted(wanted):
                    while n < target:
                        c, n = step(c), n + 1
                        _check_state(c, n * h)
                    for j in wanted[target]:
                        out[j] = _tail_step(c, times[j], lam, rhs, p)
            except BlowUpError as exc:
                start = block.start or 0
                raise BlowUpError(exc.time, exc.modes, [start + i for i in exc.samples]) from None
        return out

    done = _parallel_map(run_block, blocks, threads)
    return [np.concatenate([b[j] for b in done]) for j in range(len(times))]


def _record_times(T: float, dt: float, every: int) -> list:
    """Every `every`-th step time i*dt (signed like T) from 0, then T itself if not yet reached."""
    h = math.copysign(dt, T)
    times = [i * h for i in range(0, _full_steps(T, dt) + 1, every)]
    # i*dt can overshoot T by an ulp when dt does not divide T exactly;
    # only append the endpoint if the last record is genuinely earlier
    if abs(times[-1]) < abs(T):
        times.append(T)
    return times


# ---------------------------------------------------------------------------
# public drivers


def evolve(f0: FourierField, p: FlowParams) -> TrajectoryRecord:
    """Integrate to time p.T, recording state, L2 and H every record_every steps.

    The record always contains t = 0 and t = T.  Raises BlowUpError with
    the failure time if the state leaves the trusted range.
    """
    if p.T < 0.0:
        raise ValueError("evolve requires T >= 0; use flow_map for reversed runs")
    grid = f0.grid
    times = _record_times(p.T, p.dt, p.record_every)
    states = np.array(_advance_times(f0.coeff, grid, p, times))
    return TrajectoryRecord(
        times=np.array(times),
        l2=_l2(states, grid.length),
        hamiltonian=_hamiltonian(states, grid),
        final=FourierField(grid, states[-1]),
        states=states,
    )


def flow_map(f0: FourierField, t: float, p: FlowParams) -> FourierField:
    """Endpoint of the flow after time t (either sign); flow_map(f, 0) is f."""
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    if t == 0.0:
        return f0
    return FourierField(f0.grid, _advance_times(f0.coeff, f0.grid, p, [t])[0])


# ---------------------------------------------------------------------------
# Liouville divergence


@dataclass(frozen=True)
class LiouvilleCheck:
    """Finite-difference divergences of the coordinate vector field b.

    divergence          sum_i db_i/da_i at the point.
    rhs_norm            |b| at the point (scale for `relative`).
    weighted_divergence sum_i d(P b_i)/da_i, scaled by 1/P(point), where
                        P = exp(-1/2 sum v_j a_j^2 - g(u)) is the invariant
                        density; term cancellation is the invariance itself.
    weighted_scale      sum_i |d(P b_i)/da_i| term magnitudes (scale for
                        `weighted_relative`).
    """

    divergence: float
    rhs_norm: float
    weighted_divergence: float
    weighted_scale: float

    @property
    def relative(self) -> float:
        return abs(self.divergence) / self.rhs_norm if self.rhs_norm > 0.0 else 0.0

    @property
    def weighted_relative(self) -> float:
        return abs(self.weighted_divergence) / self.weighted_scale if self.weighted_scale > 0.0 else 0.0


def liouville_divergence(f: FourierField, h: float) -> LiouvilleCheck:
    """Central-difference check that the flow field is divergence-free.

    Works in the 2m real coordinates a_j.  Both the plain divergence
    sum db_i/da_i and the weighted flux divergence sum d(P b_i)/da_i are
    estimated with step h; both vanish for the exact field, the first by
    the skew-gradient structure, the second because P is invariant.
    """
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"h must be positive, got {h}")
    grid = f.grid
    n = 2 * grid.modes
    lam, nonlinear = _linear_rates(grid), _nonlinear(grid)

    def rhs_coords(a):
        c = _coords_to_coeff(a, grid)
        return _coeff_to_coords(lam * c + nonlinear(c), grid)

    v = _coord_eigenvalues(grid)

    def log_density(a):
        c = _coords_to_coeff(a, grid)
        u = FourierField(grid, c)
        return -0.5 * float(np.sum(v * a * a)) - cubic_g(u)

    a0 = coordinates(f)
    eye = np.eye(n)
    plus = a0[None, :] + h * eye
    minus = a0[None, :] - h * eye
    b_plus = rhs_coords(plus)
    b_minus = rhs_coords(minus)
    div = float(np.sum(np.diagonal(b_plus) - np.diagonal(b_minus)) / (2.0 * h))
    rhs_norm = float(np.linalg.norm(rhs_coords(a0)))

    log0 = log_density(a0)
    terms = np.empty(n)
    for i in range(n):
        flux_p = math.exp(log_density(plus[i]) - log0) * b_plus[i, i]
        flux_m = math.exp(log_density(minus[i]) - log0) * b_minus[i, i]
        terms[i] = (flux_p - flux_m) / (2.0 * h)
    return LiouvilleCheck(
        divergence=div,
        rhs_norm=rhs_norm,
        weighted_divergence=float(np.sum(terms)),
        weighted_scale=float(np.sum(np.abs(terms))),
    )


# ---------------------------------------------------------------------------
# Duhamel-Picard contraction


@dataclass(frozen=True)
class PicardResult:
    """Picard iterates of the Duhamel map on a uniform time grid.

    distances[n] = sup over the grid of the L2 distance between iterates
    n+1 and n; `diverged` flags three consecutive increases.
    """

    grid: GridSpec
    times: np.ndarray
    states: np.ndarray
    distances: np.ndarray
    diverged: bool

    def __post_init__(self):
        _freeze(self, "times", "states", "distances")

    @property
    def final(self) -> FourierField:
        return FourierField(self.grid, self.states[-1])


def picard_solve(phi: FourierField, T: float, iters: int) -> PicardResult:
    """Iterate the integral map L(u)(t) = S(t)phi - int_0^t S(t-t') dx(P_m u^2) dt'.

    S(t) is the exact linear propagator; the time integral is trapezoidal
    on a uniform grid of _default_nodes(T) nodes, enough for the fastest
    retained phase at moderate m.  Starting iterate is the free solution
    S(t)phi.  Contraction of `distances` certifies a fixed point, which
    solves the truncated equation on [0, T].
    """
    if not 0.0 < T <= _PICARD_T_MAX:
        raise ValueError(f"T must be in (0, {_PICARD_T_MAX:g}], got {T}")
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    grid = phi.grid
    times = np.linspace(0.0, T, _default_nodes(T))
    dt = times[1] - times[0]
    lam = _linear_rates(grid)
    phase = np.exp(np.outer(times, lam))          # (nodes, m): S(t) diagonal
    free = phase * phi.coeff[None, :]
    nonlinear = _nonlinear(grid)

    def apply_map(states):
        g = nonlinear(states) / phase              # interaction picture
        integral = np.cumsum(g, axis=0) * dt - 0.5 * dt * (g[0:1] + g)
        return free + phase * integral

    u = free
    distances = []
    for _ in range(iters):
        u_next = apply_map(u)
        distances.append(float(np.max(_l2(u_next - u, grid.length))))
        u = u_next
    d = np.array(distances)
    diverged = any(d[i] < d[i + 1] < d[i + 2] < d[i + 3] for i in range(len(d) - 3))
    return PicardResult(grid=grid, times=times, states=u, distances=d, diverged=diverged)


# ---------------------------------------------------------------------------
# Galerkin refinement study


@dataclass(frozen=True)
class ConvergenceStudy:
    """sup-in-time L2 errors of truncations m against a finer reference."""

    m_values: tuple
    errors: tuple
    reference_modes: int
    times: np.ndarray

    def __post_init__(self):
        _freeze(self, "times")


def convergence_in_m(
    f0: FourierField,
    T: float,
    m_list,
    dt: float = 1e-3,
    record_every: int = 50,
    nonlinear: bool = True,
) -> ConvergenceStudy:
    """Evolve projections of f0 at each m and compare against m_ref = 2*max.

    Errors are sup over the shared record times of the L2 distance, with
    the coarse run zero-padded onto the reference band (missing reference
    mass above mode m counts as error).
    """
    m_list = [int(m) for m in m_list]
    if not m_list or any(b <= a for a, b in zip(m_list, m_list[1:])) or m_list[0] < 1:
        raise ValueError("m_list must be strictly increasing positive integers")
    m_ref = 2 * m_list[-1]
    length = f0.grid.length
    p = FlowParams(dt=dt, T=T, record_every=record_every, nonlinear=nonlinear)
    times = _record_times(p.T, p.dt, p.record_every)

    def states(m):
        grid = make_grid(m, length=length)
        return np.array(_advance_times(regrid(f0, grid).coeff, grid, p, times))

    ref = states(m_ref)
    errors = []
    for m in m_list:
        padded = np.zeros_like(ref)
        padded[:, :m] = states(m)
        errors.append(float(np.max(_l2(padded - ref, length))))
    return ConvergenceStudy(
        m_values=tuple(m_list), errors=tuple(errors), reference_modes=m_ref, times=np.array(times)
    )
