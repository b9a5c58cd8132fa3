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

__all__ = [
    "FourierField",
    "GridSpec",
    "coordinates",
    "cubic_g",
    "dispersion",
    "dx",
    "dx_inv",
    "energy_eigenvalues",
    "field_from_coordinates",
    "from_physical",
    "hamiltonian",
    "inner",
    "l2_norm",
    "make_grid",
    "quadratic_energy",
    "random_smooth_field",
    "regrid",
    "sobolev_norm",
    "to_physical",
    "zero_field",
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

    @property
    def x(self) -> np.ndarray:
        """Quadrature nodes x_j = j*length/points."""
        return (self.length / self.points) * np.arange(self.points)


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


def zero_field(grid: GridSpec) -> FourierField:
    return FourierField(grid, np.zeros(grid.modes, dtype=np.complex128))


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


def _to_physical(coeff: np.ndarray, points: int, spec=None, out=None) -> np.ndarray:
    """Samples on `points` nodes of a (..., m) stack; spec, zero off modes 1..m, and out are fresh if omitted."""
    lead, m = coeff.shape[:-1], coeff.shape[-1]
    spec = np.zeros(lead + (points // 2 + 1,), np.complex128) if spec is None else spec
    np.multiply(coeff, points, out=spec[..., 1 : m + 1])
    return _pocketfft.irfft(spec, 1.0 / points, out=np.empty(lead + (points,)) if out is None else out)


def _from_physical(samples: np.ndarray, modes: int, out=None) -> np.ndarray:
    """Modes 1..modes of a (..., n) sample stack as a fresh array; out takes the whole forward transform."""
    n = samples.shape[-1]
    out = np.empty(samples.shape[:-1] + (n // 2 + 1,), np.complex128) if out is None else out
    forward = _pocketfft.rfft_n_even if n % 2 == 0 else _pocketfft.rfft_n_odd
    return forward(samples, 1, out=out)[..., 1 : modes + 1] / n


def to_physical(f: FourierField) -> np.ndarray:
    """Samples of f on the quadrature grid (zero-padded inverse transform)."""
    return _to_physical(f.coeff, f.grid.points)


def from_physical(samples: np.ndarray, grid: GridSpec) -> FourierField:
    """Field with the coefficients of ``samples`` on modes 1..m.

    The sample mean and any content above mode m are discarded.
    Rejects non-finite samples.
    """
    s = np.asarray(samples, dtype=np.float64)
    if s.shape != (grid.points,):
        raise ValueError(f"expected {grid.points} samples, got shape {s.shape}")
    if not np.isfinite(s).all():
        raise ValueError("samples must be finite")
    return FourierField(grid, _from_physical(s, grid.modes))


# ---------------------------------------------------------------------------
# multipliers and projections


def dx(f: FourierField) -> FourierField:
    """Derivative: multiply mode k by i*xi_k."""
    return FourierField(f.grid, 1j * f.grid.xi * f.coeff)


def dx_inv(f: FourierField) -> FourierField:
    """Antiderivative on the zero-mean band: divide mode k by i*xi_k.

    Exact inverse of dx; no zero mode exists, so this is always defined.
    """
    return FourierField(f.grid, f.coeff / (1j * f.grid.xi))


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

    S is the quadratic-energy operator: (Su, u) = int u_x^2 + int (dx_inv u)^2.
    Each s_k carries multiplicity two (sine and cosine directions).
    """
    xi = grid.xi
    return xi**2 + xi**-2


# ---------------------------------------------------------------------------
# norms and functionals


def _l2(coeff: np.ndarray, length: float) -> np.ndarray:
    return np.sqrt(2.0 * length * np.sum(np.abs(coeff) ** 2, axis=-1))


def l2_norm(f: FourierField) -> float:
    """L2 norm, calibrated to the integral: l2_norm(f)^2 = int f^2 dx."""
    return float(_l2(f.coeff, f.grid.length))


def sobolev_norm(f: FourierField, s: float) -> float:
    """Sobolev norm (2A sum <xi_k>^{2s} |u_hat(k)|^2)^{1/2}, <x> = sqrt(1+x^2).

    The 2A normalization makes sobolev_norm(f, 0) == l2_norm(f).
    """
    w = (1.0 + f.grid.xi**2) ** s
    return float(np.sqrt(2.0 * f.grid.length * np.sum(w * np.abs(f.coeff) ** 2)))


def inner(f: FourierField, g: FourierField) -> float:
    """L2 pairing int f g dx; kept as the oracle of the skew-pairing tests."""
    if g.grid != f.grid:
        raise ValueError("fields must share a grid")
    return float(2.0 * f.grid.length * np.sum(f.coeff * np.conj(g.coeff)).real)


def _cubic_g(coeff: np.ndarray, grid: GridSpec) -> np.ndarray:
    u = _to_physical(coeff, grid.points)
    # (u*u)*u by two multiplies, not u**3 (libm pow, about 30x slower on a sample stack);
    # then np.mean's own sum and division, without its Python wrapper
    cube = u * u
    cube *= u
    return (grid.length / 3.0) * (np.add.reduce(cube, axis=-1) / grid.points)


def cubic_g(f: FourierField) -> float:
    """Cubic functional g(u) = (1/3) int u^3 dx (alias-free quadrature)."""
    return float(_cubic_g(f.coeff, f.grid))


def _quadratic_energy(coeff: np.ndarray, grid: GridSpec) -> np.ndarray:
    s = energy_eigenvalues(grid)
    return grid.length * np.sum(s * np.abs(coeff) ** 2, axis=-1)


def quadratic_energy(f: FourierField) -> float:
    """(1/2)(Su, u) = (1/2) int u_x^2 + (1/2) int (dx_inv u)^2; kept as the Hamiltonian tests' oracle."""
    return float(_quadratic_energy(f.coeff, f.grid))


def _hamiltonian(coeff: np.ndarray, grid: GridSpec) -> np.ndarray:
    return _quadratic_energy(coeff, grid) + _cubic_g(coeff, grid)


def hamiltonian(f: FourierField) -> float:
    """H(u) = (1/2)(Su, u) + g(u); the quadratic part is nonnegative."""
    return float(_hamiltonian(f.coeff, f.grid))


# ---------------------------------------------------------------------------
# real coordinates


def _coeff_to_coords(coeff: np.ndarray, grid: GridSpec) -> np.ndarray:
    root = math.sqrt(2.0 * grid.length)
    a = np.empty(coeff.shape[:-1] + (2 * grid.modes,))
    a[..., 0::2] = -root * coeff.imag
    a[..., 1::2] = root * coeff.real
    return a


def _coords_to_coeff(a: np.ndarray, grid: GridSpec) -> np.ndarray:
    root = math.sqrt(2.0 * grid.length)
    return (a[..., 1::2] - 1j * a[..., 0::2]) / root


def _coord_eigenvalues(grid: GridSpec) -> np.ndarray:
    """energy_eigenvalues per real coordinate: [s_1, s_1, s_2, s_2, ...]."""
    return np.repeat(energy_eigenvalues(grid), 2)


def coordinates(f: FourierField) -> np.ndarray:
    """Coefficients a_j of f in the interleaved sine/cosine basis (2m values)."""
    return _coeff_to_coords(f.coeff, f.grid)


def field_from_coordinates(grid: GridSpec, a) -> FourierField:
    """Field u = sum_j a_j e_j from 2m interleaved sine/cosine amplitudes."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.shape != (2 * grid.modes,):
        raise ValueError(f"expected {2 * grid.modes} coordinates, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("coordinates must be finite")
    return FourierField(grid, _coords_to_coeff(arr, grid))


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
