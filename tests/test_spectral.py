"""Spectral core: transforms, functionals, coordinates.

Reference values are computed two ways: closed forms for trig fields are
checked against direct quadrature oracles inside the tests, and a handful
of frozen constants pin the conventions (calibration of norms, dispersion
values) so regressions cannot drift silently.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

import ostlab.spectral as spectral
from ostlab.bourgain import ResonanceRecord, ResonanceScan, TimeLocalizationResult
from ostlab.flow import ConvergenceStudy, FlowParams, PicardResult, TrajectoryRecord, _linear_rates, evolve, picard_solve
from ostlab.gibbs import Ensemble, GibbsSpec, pcn_chain
from ostlab.invariance import cubic_integral, hamiltonian_observable, mode_power, run_invariance
from ostlab.spectral import (
    FourierField,
    GridSpec,
    coordinates,
    cubic_g,
    dispersion,
    dx,
    dx_inv,
    energy_eigenvalues,
    field_from_coordinates,
    from_physical,
    hamiltonian,
    inner,
    l2_norm,
    make_grid,
    quadratic_energy,
    regrid,
    sobolev_norm,
    to_physical,
    zero_field,
)

TWO_PI = 2.0 * math.pi


def cos_field(grid, k=1, amp=1.0):
    """amp*cos(xi_k x): coefficient amp/2 at mode k."""
    c = np.zeros(grid.modes, dtype=np.complex128)
    c[k - 1] = amp / 2.0
    return FourierField(grid, c)


def sin_field(grid, k=1, amp=1.0):
    """amp*sin(xi_k x): coefficient -i*amp/2 at mode k."""
    c = np.zeros(grid.modes, dtype=np.complex128)
    c[k - 1] = -0.5j * amp
    return FourierField(grid, c)


def random_field(grid, rng, scale=1.0):
    c = scale * (rng.standard_normal(grid.modes) + 1j * rng.standard_normal(grid.modes))
    return FourierField(grid, c)


def quadrature(values, length):
    """Trapezoid-free periodic quadrature: exact for band-limited integrands."""
    return length * float(np.mean(values))


class TestGridSpec:
    def test_default_points(self):
        g = make_grid(8)
        assert g.points == 32
        assert g.length == TWO_PI

    def test_points_derived_from_modes(self):
        # the alias-free 4m grid is the only quadrature grid; no field or argument sets it
        assert [make_grid(m).points for m in (1, 5, 33)] == [4, 20, 132]
        with pytest.raises(TypeError):
            GridSpec(length=TWO_PI, modes=4, points=32)

    def test_xi_unit_spacing_on_2pi(self):
        g = make_grid(4)
        assert np.allclose(g.xi, [1.0, 2.0, 3.0, 4.0])

    def test_xi_scales_with_length(self):
        g = make_grid(4, length=math.pi)
        assert np.allclose(g.xi, [2.0, 4.0, 6.0, 8.0])

    def test_rejects_bad_length(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                GridSpec(length=bad, modes=4)

    def test_rejects_bad_modes(self):
        with pytest.raises(ValueError):
            GridSpec(length=TWO_PI, modes=0)

    def test_x_nodes(self):
        g = GridSpec(length=2.0, modes=1)
        assert np.allclose(g.x, [0.0, 0.5, 1.0, 1.5])


class TestFieldInvariants:
    def test_coeff_shape_enforced(self):
        g = make_grid(4)
        with pytest.raises(ValueError):
            FourierField(g, np.zeros(3, dtype=np.complex128))

    def test_coeff_must_be_finite(self):
        g = make_grid(2)
        with pytest.raises(ValueError):
            FourierField(g, np.array([1.0, np.nan], dtype=np.complex128))

    def test_coeff_readonly_and_copied(self):
        g = make_grid(2)
        src = np.array([1.0 + 0j, 2.0], dtype=np.complex128)
        f = FourierField(g, src)
        src[0] = 99.0
        assert f.coeff[0] == 1.0
        with pytest.raises(ValueError):
            f.coeff[0] = 0.0

    def test_zero_field(self):
        f = zero_field(make_grid(3))
        assert l2_norm(f) == 0.0


def _records():
    """One record of each type that freezes its arrays, built from plain lists, with its array fields' dtypes."""
    g = make_grid(1)
    hit = ResonanceRecord(n=2, n1=1, R=1.0, ratio=1.0)
    records = [
        (TrajectoryRecord(times=[0.0, 1.0], l2=[1.0, 1.0], hamiltonian=[0.5, 0.5], final=zero_field(g),
                          states=[[0.0], [0.0]]),
         {"times": float, "l2": float, "hamiltonian": float, "states": complex}),
        (PicardResult(grid=g, times=[0.0, 1.0], states=[[0j], [0j]], distances=[1.0], diverged=False),
         {"times": float, "states": complex, "distances": float}),
        (ConvergenceStudy(m_values=(1,), errors=(0.1,), reference_modes=2, times=[0.0, 1.0]),
         {"times": float}),
        (ResonanceScan(n_max=2, minimum=hit, slice_minimum=hit, hist_counts=[1], hist_edges=[1.0, 2.0]),
         {"hist_counts": int, "hist_edges": float}),
        (TimeLocalizationResult(b_values=(0.25,), T_values=(0.5,), ratios=[[1.0]], slopes=(0.0,)),
         {"ratios": float}),
        (Ensemble(spec=GibbsSpec(grid=g), sampler="iid-importance", master_seed=0, coeffs=[[1.0]],
                  log_weights=[0], in_support=[1]),
         {"coeffs": complex, "log_weights": float, "in_support": bool}),
    ]
    return [pytest.param(record, dtypes, id=type(record).__name__) for record, dtypes in records]


@pytest.mark.parametrize("record, dtypes", _records())
def test_record_array_fields_read_only(record, dtypes):
    arrays = {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}
    arrays = {name: value for name, value in arrays.items() if isinstance(value, np.ndarray)}
    assert {name: value.dtype for name, value in arrays.items()} == {name: np.dtype(t) for name, t in dtypes.items()}
    for name, value in arrays.items():
        assert not value.flags.writeable, name


class TestTransforms:
    def test_cos_samples_match_formula(self):
        g = make_grid(8)
        f = cos_field(g, k=3)
        assert np.allclose(to_physical(f), np.cos(3.0 * g.x), atol=1e-12)

    def test_round_trip_spectral(self):
        rng = np.random.default_rng(7)
        g = make_grid(16)
        for _ in range(10):
            f = random_field(g, rng)
            back = from_physical(to_physical(f), g)
            assert np.allclose(back.coeff, f.coeff, atol=1e-12)

    def test_from_physical_discards_mean(self):
        g = make_grid(4)
        f = from_physical(np.full(g.points, 2.5), g)
        assert l2_norm(f) == 0.0

    def test_from_physical_discards_high_modes(self):
        g = make_grid(4)
        samples = np.cos(7.0 * g.x)  # above the retained band, below Nyquist
        f = from_physical(samples, g)
        assert np.allclose(f.coeff, 0.0, atol=1e-14)

    def test_from_physical_rejects_nonfinite(self):
        g = make_grid(2)
        s = np.zeros(g.points)
        s[3] = np.inf
        with pytest.raises(ValueError):
            from_physical(s, g)

    def test_from_physical_rejects_wrong_size(self):
        g = make_grid(2)
        with pytest.raises(ValueError):
            from_physical(np.zeros(g.points + 1), g)


class TestTransformPair:
    """`_to_physical`/`_from_physical` call numpy's pocketfft ufuncs, not np.fft.

    These tests guard that private dependency: a numpy release that changes
    the ufuncs' arguments or results fails them.
    """

    @pytest.mark.parametrize("lead", [(), (5,)], ids=["1d", "2d"])
    @pytest.mark.parametrize("odd", [False, True], ids=["4m", "2m+1"])
    @pytest.mark.parametrize("m", [1, 6, 8, 32])
    def test_equals_numpy_fft_bit_for_bit(self, m, odd, lead):
        n = 2 * m + 1 if odd else 4 * m
        rng = np.random.default_rng(100 * m + odd)
        spec_buf = np.zeros(lead + (n // 2 + 1,), dtype=np.complex128)
        samples_buf = np.empty(lead + (n,))
        forward_buf = np.empty(lead + (n // 2 + 1,), dtype=np.complex128)
        for _ in range(3):  # the buffers are reused across calls
            coeff = rng.standard_normal(lead + (m,)) + 1j * rng.standard_normal(lead + (m,))
            spec = np.zeros(lead + (n // 2 + 1,), dtype=np.complex128)
            spec[..., 1 : m + 1] = coeff * n
            expected = np.fft.irfft(spec, n=n, axis=-1).tobytes()
            assert spectral._to_physical(coeff, n).tobytes() == expected
            into = spectral._to_physical(coeff, n, spec_buf, out=samples_buf)
            assert into is samples_buf and into.tobytes() == expected

            u = rng.standard_normal(lead + (n,))
            expected = (np.fft.rfft(u, axis=-1)[..., 1 : m + 1] / n).tobytes()
            assert spectral._from_physical(u, m).tobytes() == expected
            assert spectral._from_physical(u, m, out=forward_buf).tobytes() == expected

    def test_flow_and_sampler_never_call_numpy_fft(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.fft wrapper called")

        monkeypatch.setattr(np.fft, "rfft", refuse)
        monkeypatch.setattr(np.fft, "irfft", refuse)
        g = make_grid(4)
        f = random_field(g, np.random.default_rng(3), scale=0.1)
        assert np.isfinite(evolve(f, FlowParams(dt=0.01, T=0.05)).states).all()
        spec = GibbsSpec(grid=g, seed=5)
        obs = [mode_power(1), cubic_integral(), hamiltonian_observable()]
        reports = run_invariance(spec, FlowParams(dt=0.01), (0.0, 0.05), obs, 50)
        assert len(reports) == 2
        assert len(pcn_chain(spec, 20, 0.5)) == 20
        assert not picard_solve(f, 0.05, 3).diverged
        assert np.isfinite(from_physical(to_physical(f), g).coeff).all()


class TestCalculus:
    def test_dx_of_sin_is_cos(self):
        g = make_grid(6)
        d = dx(sin_field(g, k=2))
        assert np.allclose(to_physical(d), 2.0 * np.cos(2.0 * g.x), atol=1e-12)

    def test_dx_inv_of_cos_is_sin(self):
        g = make_grid(6)
        a = dx_inv(cos_field(g, k=1))
        assert np.allclose(to_physical(a), np.sin(g.x), atol=1e-12)

    def test_dx_inv_inverts_dx(self):
        g = make_grid(8)
        f = random_field(g, np.random.default_rng(3))
        assert np.allclose(dx_inv(dx(f)).coeff, f.coeff, atol=1e-14)

    def test_regrid_round_trip(self):
        g_small, g_big = make_grid(4), make_grid(9)
        f = random_field(g_small, np.random.default_rng(5))
        lifted = regrid(f, g_big)
        assert np.allclose(lifted.coeff[:4], f.coeff)
        assert np.all(lifted.coeff[4:] == 0.0)
        back = regrid(lifted, g_small)
        assert np.allclose(back.coeff, f.coeff)

    def test_regrid_rejects_length_mismatch(self):
        f = zero_field(make_grid(4))
        with pytest.raises(ValueError):
            regrid(f, make_grid(4, length=math.pi))


class TestDispersion:
    def test_frozen_value_k2(self):
        # xi^3 + 1/xi at xi = 2: 8 + 0.5
        assert dispersion(2) == 8.5

    def test_odd_symmetry(self):
        k = np.array([1, 2, 5, -3])
        assert np.allclose(dispersion(-k), -dispersion(k))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            dispersion(0)
        with pytest.raises(ValueError):
            dispersion(np.array([1, 0, 2]))

    def test_scalar_returns_float(self):
        assert isinstance(dispersion(3), float)

    @pytest.mark.parametrize("length", [1.0, math.pi, 6.5, 40.0])
    def test_flow_rates_read_the_symbol(self, length):
        # one symbol: the flow's rates are -i dispersion(xi_k), bit for bit,
        # and dispersion(xi) = xi s(xi) for the energy symbol s = xi^2 + xi^-2
        grid = make_grid(12, length=length)
        assert np.array_equal(_linear_rates(grid), -1j * dispersion(grid.xi))
        s = energy_eigenvalues(grid)
        assert np.allclose(dispersion(grid.xi), grid.xi * s, rtol=1e-15, atol=0.0)


class TestNormsAndFunctionals:
    def test_l2_cos_closed_form_and_quadrature(self):
        g = make_grid(8)
        f = cos_field(g)
        # int cos^2 = pi on [0, 2pi)
        assert l2_norm(f) == pytest.approx(math.sqrt(math.pi), abs=1e-12)
        u = to_physical(f)
        assert l2_norm(f) ** 2 == pytest.approx(quadrature(u * u, g.length), abs=1e-12)

    def test_l2_parseval_random(self):
        rng = np.random.default_rng(17)
        g = make_grid(12)
        for _ in range(10):
            f = random_field(g, rng)
            u = to_physical(f)
            assert l2_norm(f) ** 2 == pytest.approx(
                quadrature(u * u, g.length), rel=1e-10
            )

    def test_sobolev_zero_matches_l2(self):
        f = random_field(make_grid(6), np.random.default_rng(2))
        assert sobolev_norm(f, 0.0) == pytest.approx(l2_norm(f), rel=1e-14)

    def test_sobolev_monotone_in_s(self):
        f = random_field(make_grid(6), np.random.default_rng(4))
        assert sobolev_norm(f, 1.0) > sobolev_norm(f, 0.5) > sobolev_norm(f, 0.0)

    def test_sobolev_cos_closed_form(self):
        g = make_grid(8)
        f = cos_field(g, k=2)
        # ||cos(2x)||_{H^s}^2 = pi * (1+4)^s
        assert sobolev_norm(f, 1.5) == pytest.approx(
            math.sqrt(math.pi * 5.0**1.5), rel=1e-14
        )

    def test_inner_matches_quadrature(self):
        g = make_grid(10)
        rng = np.random.default_rng(23)
        f, h = random_field(g, rng), random_field(g, rng)
        uf, uh = to_physical(f), to_physical(h)
        assert inner(f, h) == pytest.approx(quadrature(uf * uh, g.length), rel=1e-10)

    def test_inner_orthogonality(self):
        g = make_grid(4)
        assert inner(cos_field(g, 1), sin_field(g, 1)) == pytest.approx(0.0, abs=1e-15)
        assert inner(cos_field(g, 1), cos_field(g, 2)) == pytest.approx(0.0, abs=1e-15)

    def test_energy_eigenvalues_frozen(self):
        s = energy_eigenvalues(make_grid(2))
        assert np.allclose(s, [2.0, 4.25])

    def test_quadratic_energy_is_derivative_norms(self):
        g = make_grid(10)
        f = random_field(g, np.random.default_rng(31))
        expected = 0.5 * (l2_norm(dx(f)) ** 2 + l2_norm(dx_inv(f)) ** 2)
        assert quadratic_energy(f) == pytest.approx(expected, rel=1e-12)

    def test_cubic_g_sin_vanishes(self):
        g = make_grid(8)
        assert cubic_g(sin_field(g, 1)) == pytest.approx(0.0, abs=1e-14)

    def test_cubic_g_quadrature_oracle(self):
        # dense-grid quadrature oracle on a two-mode field
        g = make_grid(4)
        f = FourierField(g, np.array([0.5, -0.25j, 0.0, 0.0]))
        u = spectral._to_physical(f.coeff, 4096)
        oracle = quadrature(u**3, g.length) / 3.0
        assert cubic_g(f) == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("m", [8, 32])
    @pytest.mark.parametrize("rows", [None, 5])
    def test_cubic_g_equals_mean_form_bit_for_bit(self, m, rows):
        g = make_grid(m)
        rng = np.random.default_rng(m)
        shape = (m,) if rows is None else (rows, m)
        coeff = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        u = spectral._to_physical(coeff, g.points)
        expected = (g.length / 3.0) * np.mean(u * u * u, axis=-1)
        assert np.asarray(spectral._cubic_g(coeff, g)).tobytes() == np.asarray(expected).tobytes()

    @pytest.mark.parametrize("m", [8, 32])
    @pytest.mark.parametrize("rows", [None, 5])
    def test_cubic_g_within_roundoff_of_exact_sum(self, m, rows):
        # oracle: the exact rational sum of the exact cubes of the same samples.  Over 2000
        # rows per m the error was at most 2.0e-16 of (length/3) mean|u|^3 for (u*u)*u and
        # 2.3e-16 for the u**3 (pow) form; both forms are held to the same bound, 1e-15
        g = make_grid(m)
        rng = np.random.default_rng(m)
        shape = (m,) if rows is None else (rows, m)
        coeff = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        u = np.atleast_2d(spectral._to_physical(coeff, g.points))
        forms = {
            "_cubic_g": np.atleast_1d(spectral._cubic_g(coeff, g)),
            "pow": (g.length / 3.0) * np.mean(u**3, axis=-1),
        }
        for i, row in enumerate(u):
            exact = Fraction(g.length) * sum(Fraction(x) ** 3 for x in row.tolist()) / (3 * g.points)
            scale = (g.length / 3.0) * float(np.mean(np.abs(row) ** 3))
            for name, values in forms.items():
                assert abs(Fraction(float(values[i])) - exact) <= Fraction(1e-15 * scale), (name, i)

    def test_cubic_resonance_closed_form(self):
        # u = 2cos(x) + 2cos(2x): int u^3 = 3*2pi/... direct expansion:
        # only the cos(x)^2 cos(2x) triple resonates: 3 * (2^2*2) * pi/2 = 12pi
        g = make_grid(4)
        f = FourierField(g, np.array([1.0, 1.0, 0.0, 0.0], dtype=np.complex128))
        assert cubic_g(f) * 3.0 == pytest.approx(12.0 * math.pi, rel=1e-12)

    def test_hamiltonian_cos_frozen(self):
        # H(cos x) = (1/2)(1+1)*pi + 0 = pi
        g = make_grid(8)
        assert hamiltonian(cos_field(g)) == pytest.approx(math.pi, rel=1e-14)

    def test_hamiltonian_sum(self):
        f = random_field(make_grid(7), np.random.default_rng(41))
        assert hamiltonian(f) == pytest.approx(
            quadratic_energy(f) + cubic_g(f), rel=1e-14
        )


class TestCoordinates:
    def test_sin_amplitude(self):
        # e_1 = sqrt(2/A) sin(x): u = sin(x) has a_1 = sqrt(A/2) = sqrt(pi)
        g = make_grid(4)
        a = coordinates(sin_field(g, 1))
        assert a[0] == pytest.approx(math.sqrt(math.pi), rel=1e-14)
        assert np.allclose(a[1:], 0.0)

    def test_cos_amplitude(self):
        g = make_grid(4)
        a = coordinates(cos_field(g, 2))
        assert a[3] == pytest.approx(math.sqrt(math.pi), rel=1e-14)
        assert np.count_nonzero(a) == 1

    def test_round_trip(self):
        g = make_grid(9)
        f = random_field(g, np.random.default_rng(8))
        back = field_from_coordinates(g, coordinates(f))
        assert np.allclose(back.coeff, f.coeff, atol=1e-15)

    def test_l2_is_euclidean(self):
        g = make_grid(5)
        f = random_field(g, np.random.default_rng(13))
        a = coordinates(f)
        assert l2_norm(f) ** 2 == pytest.approx(float(np.dot(a, a)), rel=1e-13)

    def test_basis_is_orthonormal(self):
        g = make_grid(3)
        n = 2 * g.modes
        for i in range(n):
            for j in range(i, n):
                ei = field_from_coordinates(g, np.eye(n)[i])
                ej = field_from_coordinates(g, np.eye(n)[j])
                assert inner(ei, ej) == pytest.approx(
                    1.0 if i == j else 0.0, abs=1e-13
                )

    def test_rejects_bad_input(self):
        g = make_grid(2)
        with pytest.raises(ValueError):
            field_from_coordinates(g, np.zeros(3))
        with pytest.raises(ValueError):
            field_from_coordinates(g, np.array([1.0, np.nan, 0.0, 0.0]))

