"""Zero-mean periodic real fields and their spectral calculus.

A field lives on [0, length) and is stored through its positive-wavenumber
Fourier coefficients ``coeff[k-1] = u_hat(k)`` for k = 1..modes, with
``u_hat(-k) = conj(u_hat(k))`` implied (real field) and the zero mode
structurally absent (zero mean).  Physically

    u(x) = sum_{1<=|k|<=m} u_hat(k) exp(i xi_k x),      xi_k = 2*pi*k/length.

Quadrature uses ``points = 4*modes`` samples so that cubic integrands of
band-limited fields are alias-free: integrals of u^2 and u^3 computed from
the sample grid are exact for fields on the retained band.

Coordinates: the real orthonormal basis e_{2k-1} = sqrt(2/A) sin(xi_k x),
e_{2k} = sqrt(2/A) cos(xi_k x) gives u = sum_j a_j e_j with

    a_{2k-1} = -sqrt(2A) Im u_hat(k),    a_{2k} = sqrt(2A) Re u_hat(k),

so ||u||_{L2}^2 = sum_j a_j^2 = 2A sum_k |u_hat(k)|^2.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

TWO_PI = 2.0 * math.pi

# byte budget of the (rows, 4m) float64 samples of one _cubic_g or _hamiltonian call on a block of rows
_SAMPLE_BLOCK_BYTES = 1 << 20

# largest array a run may ask for, checked in cli._resolve: an ensemble with its real coordinates (1 048 576 samples
# at m = 8, 52 times the benchmark's and 10 times criterion 5's count), verify-invariance's value stack and ETDRK4's
# complex contour table (524 288 modes); no cap counts the states of simulate, convergence-m (no record stack) and
# verify-invariance (no state stack); kernel_sum_scan runs as many workers as fit their scratch arrays in it
_STACK_BYTES_MAX = 2**28

__all__ = [
    "FourierField",
    "GridSpec",
    "dispersion",
    "energy_eigenvalues",
    "make_grid",
    "random_smooth_field",
    "regrid",
]


@dataclass(frozen=True)
class GridSpec:
    """Truncated Fourier grid on [0, length).

    modes:  highest retained wavenumber index m (field carries k = 1..m).
    points: quadrature grid size N = 4*modes, so that products up to cubic
            order are alias-free on the retained band.
    """

    length: float
    modes: int

    def __post_init__(self):
        object.__setattr__(self, "length", float(self.length))
        if not math.isfinite(self.length) or self.length <= 0.0:
            raise ValueError(f"length must be positive and finite, got {self.length}")
        if int(self.modes) != self.modes or self.modes < 1:
            raise ValueError(f"modes must be an integer >= 1, got {self.modes!r}")
        object.__setattr__(self, "modes", int(self.modes))

    @property
    def points(self) -> int:
        return 4 * self.modes

    @property
    def xi(self) -> np.ndarray:
        """Physical wavenumbers xi_k = 2*pi*k/length for k = 1..modes."""
        return (TWO_PI / self.length) * np.arange(1, self.modes + 1)


def _freeze(record, *names: str, dtype=None) -> None:
    """Store each named field of a frozen dataclass as a read-only array (of dtype, if given)."""
    for name in names:
        arr = np.asarray(getattr(record, name), dtype=dtype)
        arr.setflags(write=False)
        object.__setattr__(record, name, arr)


def make_grid(modes: int, length: float = TWO_PI) -> GridSpec:
    """Grid of `modes` modes on [0, length)."""
    return GridSpec(length=length, modes=modes)


@dataclass(frozen=True, eq=False)
class FourierField:
    """Real zero-mean field stored by its positive-mode coefficients."""

    grid: GridSpec
    coeff: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeff, dtype=np.complex128)
        if c.shape != (self.grid.modes,):
            raise ValueError(
                f"coeff must have shape ({self.grid.modes},), got {c.shape}"
            )
        if not np.isfinite(c).all():
            raise ValueError("coeff must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "coeff", c)


def random_smooth_field(grid: GridSpec, rng: np.random.Generator, k0: float = 2.0, norm: float = 1.0) -> FourierField:
    """Random field with Gaussian-decaying spectrum, scaled to L2 norm ``norm``.

    Coefficients are complex standard normals damped by exp(-(k/k0)^2), so
    k0 sets how many modes carry appreciable energy.  Smooth ensembles like
    this keep time-integration error at scheme level; see the conservation
    tests for the contrast with slowly-decaying spectra.
    """
    if not (k0 > 0.0 and math.isfinite(k0)):
        raise ValueError(f"k0 must be positive, got {k0}")
    if not (norm > 0.0 and math.isfinite(norm)):
        raise ValueError(f"norm must be positive, got {norm}")
    k = np.arange(1, grid.modes + 1)
    z = rng.standard_normal(grid.modes) + 1j * rng.standard_normal(grid.modes)
    coeff = z * np.exp(-((k / k0) ** 2))
    scale = norm / _l2(coeff[None, :], grid.length)[0]
    return FourierField(grid, coeff * scale)


# ---------------------------------------------------------------------------
# transforms
#
# The one coefficient <-> sample convention, on numpy's pocketfft ufuncs called
# with the factors numpy.fft passes them: the same bytes, without its wrapper.


def _to_physical(coeff: np.ndarray, points: int, spec=None, out=None, scale=None) -> np.ndarray:
    """Samples on `points` nodes of a (..., m) stack; spec (zero off modes 1..m), out and scale are fresh if omitted.

    scale is `points` as a 0-d complex array: the ufuncs take it faster than the int, with the same bits.
    """
    lead, m = coeff.shape[:-1], coeff.shape[-1]
    spec = np.zeros(lead + (points // 2 + 1,), np.complex128) if spec is None else spec
    np.multiply(coeff, np.array(complex(points)) if scale is None else scale, out=spec[..., 1 : m + 1])
    return _pocketfft.irfft(spec, 1.0 / points, out=np.empty(lead + (points,)) if out is None else out)


def _from_physical(samples: np.ndarray, modes: int, out=None) -> np.ndarray:
    """Modes 1..modes of a (..., n) sample stack as a fresh array; out takes the whole forward transform."""
    n = samples.shape[-1]
    out = np.empty(samples.shape[:-1] + (n // 2 + 1,), np.complex128) if out is None else out
    forward = _pocketfft.rfft_n_even if n % 2 == 0 else _pocketfft.rfft_n_odd
    return forward(samples, 1, out=out)[..., 1 : modes + 1] / n


# ---------------------------------------------------------------------------
# projections and symbols


def regrid(f: FourierField, grid: GridSpec) -> FourierField:
    """Move f to another grid of the same length (pad or truncate modes)."""
    if grid.length != f.grid.length:
        raise ValueError("regrid requires equal domain lengths")
    m = min(f.grid.modes, grid.modes)
    c = np.zeros(grid.modes, dtype=np.complex128)
    c[:m] = f.coeff[:m]
    return FourierField(grid, c)


def dispersion(xi):
    """Linear symbol phi(xi) = xi^3 + 1/xi = xi * s(xi) at wavenumbers xi.

    The one definition of the linear part: the flow's rates are -i phi(xi_k)
    (pass grid.xi, which carries the 2*pi/length scaling), and on the
    integer lattice of the bourgain module phi(n) is the modulation symbol
    of the X^{s,b} norms and of the resonance function.  Odd in xi;
    undefined (and rejected) at xi = 0.
    """
    xi = np.asarray(xi, dtype=np.float64)
    if np.any(xi == 0):
        raise ValueError("dispersion is undefined at xi = 0")
    out = xi**3 + 1.0 / xi
    return float(out) if xi.ndim == 0 else out


def energy_eigenvalues(grid: GridSpec) -> np.ndarray:
    """Symbol s_k = xi_k^2 + xi_k^{-2} of the positive operator S.

    S is the quadratic-energy operator: (Su, u) = int u_x^2 + int (dx^{-1} u)^2.
    Each s_k carries multiplicity two (sine and cosine directions).
    """
    xi = grid.xi
    return xi**2 + xi**-2


# ---------------------------------------------------------------------------
# norms and functionals


def _l2(coeff: np.ndarray, length: float) -> np.ndarray:
    """L2 norm of each row of a (..., m) stack, calibrated to the integral: _l2(c)^2 = int u^2 dx."""
    return np.sqrt(2.0 * length * np.sum(np.abs(coeff) ** 2, axis=-1))


def _cubic_g_work(grid: GridSpec) -> tuple:
    """_cubic_g's buffers for one row: spectrum (stays 0 off modes 1..m), samples, cube and _to_physical's scale."""
    spec, scale = np.zeros(grid.points // 2 + 1, np.complex128), np.array(complex(grid.points))
    return spec, np.empty(grid.points), np.empty(grid.points), scale


def _cubic_g(coeff: np.ndarray, grid: GridSpec, work: tuple | None = None) -> np.ndarray:
    """Cubic functional g(u) = (1/3) int u^3 dx of each row (alias-free quadrature).

    work, from _cubic_g_work for one row, holds every array the call needs;
    without it they are fresh.  The bits are the same either way.
    """
    spec, u, cube, scale = (None, None, None, None) if work is None else work
    u = _to_physical(coeff, grid.points, spec, out=u, scale=scale)
    # (u*u)*u by two multiplies, not u**3 (libm pow, about 30x slower on a sample stack);
    # then np.mean's own sum and division, without its Python wrapper
    cube = np.multiply(u, u, out=cube)
    cube *= u
    return (grid.length / 3.0) * (np.add.reduce(cube, axis=-1) / grid.points)


def _hamiltonian(coeff: np.ndarray, grid: GridSpec) -> np.ndarray:
    """H(u) = (1/2)(Su, u) + g(u) of each row, where (1/2)(Su, u) = (1/2) int u_x^2 + (1/2) int (dx^{-1} u)^2 >= 0."""
    return grid.length * np.sum(energy_eigenvalues(grid) * np.abs(coeff) ** 2, axis=-1) + _cubic_g(coeff, grid)


# ---------------------------------------------------------------------------
# real coordinates


def _coeff_to_coords(coeff: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Coefficients a_j of each row in the interleaved sine/cosine basis (2m values)."""
    root = math.sqrt(2.0 * grid.length)
    a = np.empty(coeff.shape[:-1] + (2 * grid.modes,))
    a[..., 0::2] = -root * coeff.imag
    a[..., 1::2] = root * coeff.real
    return a


def _coord_pairs(a: np.ndarray, grid: GridSpec) -> tuple:
    """The operands of _coords_to_coeff: a's rows of 2m coordinates as m complex pairs, and the factor.

    Each pair (a_{2k-1}, a_{2k}) reads as the complex a_{2k-1} + 1j a_{2k},
    in place when a is contiguous; the factor is -1j / sqrt(2A), as a 0-d
    array, which numpy's ufuncs take faster than a Python complex.  A caller
    that converts one buffer many times binds these once.
    """
    factor = np.array(complex(0.0, -1.0 / math.sqrt(2.0 * grid.length)))
    return np.ascontiguousarray(a, np.float64).view(np.complex128), factor


def _coords_to_coeff(a: np.ndarray, grid: GridSpec, out: np.ndarray | None = None) -> np.ndarray:
    """Coefficients (a_{2k} - 1j a_{2k-1}) / sqrt(2A) of each row of 2m coordinates, into out if given.

    The product of _coord_pairs' operands.  numpy divides a complex by a
    real with Smith's algorithm, which multiplies by 1 / sqrt(2A) when the
    divisor's imaginary part is 0, so the product equals that quotient bit
    for bit, up to the sign of a part that is exactly 0 and the parts of a
    pair with a non-finite coordinate.
    """
    return np.multiply(*_coord_pairs(a, grid), out=out)


def _coord_eigenvalues(grid: GridSpec) -> np.ndarray:
    """energy_eigenvalues per real coordinate: [s_1, s_1, s_2, s_2, ...]."""
    return np.repeat(energy_eigenvalues(grid), 2)


# ---------------------------------------------------------------------------
# seeded streams and worker threads


def _philox(seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator keyed by [seed, stream]; distinct keys give independent streams."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def _philox_streams(seed: int, streams):
    """Generators in the states _philox(seed, stream) starts in, one per stream.

    One generator is re-keyed in place for each stream (counter 0, empty
    buffer, no spare 32-bit half), so its draws equal a fresh _philox's bit
    for bit.  Every item is the same object; draw from it before the next.
    """
    rng = _philox(seed, 0)
    state = rng.bit_generator.state  # counter 0, buffer 0, buffer_pos 4, has_uint32 0, uinteger 0
    for stream in streams:
        state["state"]["key"][1] = stream
        rng.bit_generator.state = state
        yield rng


def _parallel_map(fn, items, threads: int):
    """[fn(x) for x in items] on up to `threads` threads (0 = all cores), in input order."""
    items = list(items)
    workers = min(threads if threads > 0 else (os.cpu_count() or 1), len(items))
    if workers <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
