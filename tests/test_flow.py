"""Galerkin flow: conservation, semigroup structure, Liouville, Picard."""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ostlab.flow as flow
from ostlab.flow import (
    _MAX_STEPS,
    _ROW_BLOCK,
    BLOW_UP_THRESHOLD,
    BlowUpError,
    _advance_times,
    _check_state,
    _etdrk4_step,
    _etdrk4_tables,
    _full_steps,
    _linear_rates,
    _nonlinear,
    _record_times,
    convergence_in_m,
    evolve,
    flow_map,
    liouville_divergence,
    picard_solve,
)
from ostlab.spectral import (
    _SAMPLE_BLOCK_BYTES, FourierField, _cubic_g, _hamiltonian, _l2, _philox, make_grid, random_smooth_field, regrid,
)


def l2(f):
    return float(_l2(f.coeff, f.grid.length))


def pairing(a, b, grid):
    """The L2 pairing int u v dx of two fields from their coefficients."""
    return 2.0 * grid.length * float(np.sum(a * np.conj(b)).real)


def zero_field(grid):
    return FourierField(grid, np.zeros(grid.modes))


def zero_rhs(grid):
    """Stands in for flow._nonlinear: with a zero nonlinearity each ETDRK4 step is the exact linear phase."""
    return lambda c: np.zeros_like(c)


def unit_random_field(grid, rng, decay=0.0):
    """Random field of unit L2 norm; decay>0 damps mode k by exp(-decay k)."""
    c = rng.standard_normal(grid.modes) + 1j * rng.standard_normal(grid.modes)
    c *= np.exp(-decay * np.arange(1, grid.modes + 1))
    f = FourierField(grid, c)
    return FourierField(grid, f.coeff / l2(f))


def smooth_random_field(grid, rng, k0=2.0):
    """Unit-norm random field with Gaussian spectral envelope exp(-(k/k0)^2)."""
    k = np.arange(1, grid.modes + 1)
    c = rng.standard_normal(grid.modes) + 1j * rng.standard_normal(grid.modes)
    f = FourierField(grid, c * np.exp(-((k / k0) ** 2)))
    return FourierField(grid, f.coeff / l2(f))


def fft_product_coeff(coeff, modes, npts):
    """Modes 1..m of u^2 through np.fft on the npts-point grid."""
    spec = np.zeros(coeff.shape[:-1] + (npts // 2 + 1,), dtype=np.complex128)
    spec[..., 1 : modes + 1] = coeff * npts
    u = np.fft.irfft(spec, n=npts, axis=-1)
    return np.fft.rfft(u * u, axis=-1)[..., 1 : modes + 1] / npts


def reference_product_coeff(coeff, modes, npts):
    """The pseudo-spectral product written plainly: fresh arrays at every call.

    Up to flow._GEMM_MAX_MODES it is one pair of table GEMMs over the whole
    stack, a lone row padded with a zero row; above, the np.fft product.
    """
    if modes > flow._GEMM_MAX_MODES:
        return fft_product_coeff(coeff, modes, npts)
    t_in, t_out = flow._product_tables(modes, npts)
    x = coeff.reshape(-1, modes).view(np.float64)
    rows = len(x)
    if rows < 2:
        x = np.concatenate([x, np.zeros((1, 2 * modes))])
    u = x @ t_in
    prod = (u * u) @ t_out
    return prod[:rows, : 2 * modes].copy().view(np.complex128).reshape(coeff.shape)


def reference_rhs(grid, npts=None):
    """The flow's nonlinear part -i xi P_m(u^2) on npts points (default the grid's), one fresh product per call."""
    npts = npts or grid.points
    return lambda c: -1j * grid.xi * reference_product_coeff(c, grid.modes, npts)


def aliased_nonlinear(grid):
    """flow._nonlinear with its product on the minimal 2m+1-point grid, which aliases."""
    m, npts = grid.modes, 2 * grid.modes + 1
    tables = flow._product_tables(m, npts) if m <= flow._GEMM_MAX_MODES else None
    work = lambda c: flow._product_work(c.shape[:-1], npts, tables)
    return lambda c: -1j * grid.xi * flow._product_coeff(c, m, npts, work=work(c))


def product_points(monkeypatch, grid, aliased):
    """The flow's product grid size; with aliased, flow._nonlinear is patched onto the 2m+1-point grid."""
    if not aliased:
        return grid.points
    monkeypatch.setattr(flow, "_nonlinear", aliased_nonlinear)
    return 2 * grid.modes + 1


def reference_etdrk4_step(c, tables, rhs):
    """One ETDRK4 step as the textbook sum (Cox-Matthews, Kassam-Trefethen)."""
    E, E2, Q, f1, f2, f3 = tables
    n1 = rhs(c)
    a = E2 * c + Q * n1
    n2 = rhs(a)
    b = E2 * c + Q * n2
    n3 = rhs(b)
    d = E2 * a + Q * (2.0 * n3 - n1)
    n4 = rhs(d)
    return E * c + f1 * n1 + 2.0 * f2 * (n2 + n3) + f3 * n4


def reference_run(c, grid, dt, steps, npts=None):
    """`steps` steps of size dt through the reference right-hand side on npts points."""
    rhs = reference_rhs(grid, npts)
    E, E2, Q, f1, f2_twice, f3 = _etdrk4_tables(_linear_rates(grid), dt)
    # halving is exact, so 2.0 * f2 below gives back the table's bits
    tables = (E, E2, Q, f1, f2_twice / 2.0, f3)
    for _ in range(steps):
        c = reference_etdrk4_step(c, tables, rhs)
    return c


def random_stack(grid, rng, lead=()):
    shape = lead + (grid.modes,)
    return 0.3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def counted_steps(monkeypatch) -> list:
    """One entry per ETDRK4 step taken from now on."""
    calls = []
    step = flow._etdrk4_step

    def counted(c, tables, rhs):
        calls.append(1)
        return step(c, tables, rhs)

    monkeypatch.setattr(flow, "_etdrk4_step", counted)
    return calls


class TestControls:
    """The drivers reject a step dt that is not positive and finite, a record interval below one and a non-finite T."""

    @pytest.mark.parametrize(
        "driver",
        [
            lambda f, dt: evolve(f, 0.05, dt),
            lambda f, dt: flow_map(f, 0.05, dt),
            lambda f, dt: convergence_in_m(f, 0.05, [2, 4], dt=dt),
            lambda f, dt: _advance_times(np.stack([f.coeff] * 3), f.grid, dt, [0.0, 0.05, -0.02], threads=2),
        ],
        ids=["evolve", "flow_map", "convergence_in_m", "_advance_times"],
    )
    def test_rejects_bad_dt(self, driver):
        f = unit_random_field(make_grid(4), np.random.default_rng(17))
        for dt in (0.0, -1e-3, math.inf, math.nan):
            with pytest.raises(ValueError, match="dt must be positive and finite"):
                driver(f, dt)

    @pytest.mark.parametrize(
        "driver",
        [
            lambda f, every: evolve(f, 0.05, 1e-3, every),
            lambda f, every: convergence_in_m(f, 0.05, [2, 4], dt=1e-3, record_every=every),
        ],
        ids=["evolve", "convergence_in_m"],
    )
    def test_rejects_bad_record_every(self, driver):
        f = unit_random_field(make_grid(4), np.random.default_rng(19))
        for every in (0, -1, 2.5):
            with pytest.raises(ValueError, match="record_every must be an integer >= 1"):
                driver(f, every)

    @pytest.mark.parametrize(
        "driver",
        [lambda f, T: evolve(f, T, 1e-3), lambda f, T: convergence_in_m(f, T, [2, 4])],
        ids=["evolve", "convergence_in_m"],
    )
    def test_rejects_non_finite_T(self, driver):
        f = unit_random_field(make_grid(4), np.random.default_rng(23))
        for T in (math.inf, math.nan):
            with pytest.raises(ValueError, match="T must be finite"):
                driver(f, T)


class TestNonlinearTerm:
    def test_zero_field(self):
        g = make_grid(8)
        assert np.all(_nonlinear(g)(np.zeros(8, dtype=np.complex128)) == 0.0)

    def test_cos_closed_form(self):
        # -d/dx cos^2(x) = sin(2x): mode-2 coefficient -i/2
        g = make_grid(8)
        c = np.zeros(8, dtype=np.complex128)
        c[0] = 0.5
        expected = np.zeros(8, dtype=np.complex128)
        expected[1] = -0.5j
        assert np.allclose(_nonlinear(g)(c), expected, atol=1e-15)

    def test_skew_pairing_vanishes(self):
        g = make_grid(16)
        rng = np.random.default_rng(101)
        for _ in range(100):
            f = unit_random_field(g, rng)
            assert abs(pairing(_nonlinear(g)(f.coeff), f.coeff, g)) <= 2e-10 * l2(f) ** 3

    @pytest.mark.parametrize("aliased", [False, True], ids=["dealiased", "odd-grid"])
    @pytest.mark.parametrize("m", [1, 4, 8, 16, 32])
    def test_product_matches_numpy_fft(self, m, aliased):
        # the table product is the FFT product up to roundoff, aliasing included on the odd grid
        g = make_grid(m)
        rhs, npts = (aliased_nonlinear(g), 2 * m + 1) if aliased else (_nonlinear(g), g.points)
        for lead in [(), (7,)]:
            c = random_stack(g, np.random.default_rng(67), lead)
            ref = -1j * g.xi * fft_product_coeff(c, m, npts)  # exactly 0 at m = 1 on the dealiased grid
            assert np.abs(rhs(c) - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("m", [1, 8, 32])
    def test_gemm_rows_stay_under_serial_threshold(self, m):
        # a larger GEMM would start OpenBLAS threads next to the flow's own workers
        for npts in (4 * m, 2 * m + 1):
            t_in, t_out, pad, _, parts, _ = flow._product_work((20000,), npts, flow._product_tables(m, npts))
            assert pad is None
            covered = 0
            for lo, hi, s, out in parts:
                chunks, rows, cols = s.shape
                assert (lo, hi) == (covered, covered + chunks * rows)
                assert out.shape == (chunks, rows, t_out.shape[1]) and cols == len(t_out)
                assert rows >= 4 and rows * t_out.size <= flow._GEMM_SERIAL_MNK
                covered = hi
            assert covered == 20000
            sizes = {s.shape[1] for _, _, s, _ in parts}
            assert max(sizes) - min(sizes) <= 1
        if m == 8:
            # a full row block stacks its four 512-row chunks into one call per GEMM stage
            assert len(flow._product_work((_ROW_BLOCK,), 32, flow._product_tables(8, 32))[4]) == 1

    def test_stacked_samples_stay_within_one_sample_block(self):
        # unbounded, the (20000, 16) stack's 157 chunks of 127 or 128 rows would hold 10 MB of samples
        t_in, t_out, _, _, parts, _ = flow._product_work((20000,), 64, flow._product_tables(16, 64))
        assert len({id(s.base) for _, _, s, _ in parts}) == 1
        assert parts[0][2].base.nbytes <= _SAMPLE_BLOCK_BYTES
        assert all(s.nbytes <= _SAMPLE_BLOCK_BYTES for _, _, s, _ in parts)


class TestReferenceBits:
    # the workspace product and the in-place step sum reproduce the plain
    # expressions bit for bit

    @pytest.mark.parametrize("aliased", [False, True], ids=["dealiased", "odd-grid"])
    @pytest.mark.parametrize("lead", [(), (5,)], ids=["single", "stack"])
    @pytest.mark.parametrize("m", [8, 32, 33])
    def test_rhs_matches_reference(self, m, lead, aliased):
        g = make_grid(m)
        c = random_stack(g, np.random.default_rng(41), lead)
        rhs, npts = (aliased_nonlinear(g), 2 * m + 1) if aliased else (_nonlinear(g), g.points)
        assert rhs(c).tobytes() == reference_rhs(g, npts)(c).tobytes()

    @pytest.mark.parametrize("rows, m", [(641, 16), (1568, 8), (2100, 32), (5000, 32), (1001, 8), (3, 8), (7, 32)])
    def test_stacked_product_matches_chunk_loop(self, rows, m):
        # numpy's matmul runs a stacked part as one dgemm per chunk: the bits of one 2-D matmul per even-split chunk
        npts = 4 * m
        t_in, t_out = flow._product_tables(m, npts)
        c = random_stack(make_grid(m), np.random.default_rng(79), (rows,))
        x = c.view(np.float64)
        chunks = -(-rows // min(rows, max(4, flow._GEMM_SERIAL_MNK // t_out.size)))
        expected = np.empty((rows, t_out.shape[1]))
        for i in range(chunks):
            lo, hi = rows * i // chunks, rows * (i + 1) // chunks
            u = np.matmul(x[lo:hi], t_in)
            u *= u
            expected[lo:hi] = np.matmul(u, t_out)
        work = flow._product_work((rows,), npts, (t_in, t_out))
        got = flow._product_coeff(c, m, npts, work=work)
        assert got.tobytes() == expected[:, : 2 * m].copy().view(np.complex128).tobytes()

    def test_one_closure_across_alternating_shapes(self):
        g = make_grid(8)
        rng = np.random.default_rng(43)
        rhs, ref = _nonlinear(g), reference_rhs(g)
        for lead in [(), (4,), (), (7,), (4,), (2, 3), ()]:
            c = random_stack(g, rng, lead)
            assert rhs(c).tobytes() == ref(c).tobytes()

    def test_successive_results_do_not_alias(self):
        # the product lands in a buffer the next call overwrites; the right-hand side's result must not
        g = make_grid(8)
        rng = np.random.default_rng(47)
        for lead in [(3,), ()]:
            rhs = _nonlinear(g)
            first = rhs(random_stack(g, rng, lead))
            kept = first.copy()
            second = rhs(random_stack(g, rng, lead))
            assert not np.shares_memory(first, second)
            assert first.tobytes() == kept.tobytes()

    def test_simulate_point_matches_reference(self):
        # 1000 batch-1 steps at m = 32, dt 1e-3: the one-state runs of the simulate command
        g = make_grid(32)
        c, dt = random_stack(g, np.random.default_rng(59)), 1e-3
        out = _advance_times(c, g, dt, [1000 * dt])[0]
        assert out.tobytes() == reference_run(c, g, dt, 1000).tobytes()

    @pytest.mark.parametrize("aliased", [False, True], ids=["etdrk4", "odd-grid"])
    @pytest.mark.parametrize("lead", [(), (6,)], ids=["single", "stack"])
    @pytest.mark.parametrize("m", [8, 32])
    def test_fifty_steps_match_reference(self, m, lead, aliased, monkeypatch):
        g = make_grid(m)
        npts = product_points(monkeypatch, g, aliased)
        c, dt = random_stack(g, np.random.default_rng(53), lead), 1e-2
        out = _advance_times(c, g, dt, [50 * dt])[0]
        assert out.tobytes() == reference_run(c, g, dt, 50, npts).tobytes()

    # a whole row block of the table product, and the FFT product above _GEMM_MAX_MODES
    @pytest.mark.parametrize("m, lead", [(8, (_ROW_BLOCK,)), (64, ()), (64, (6,))], ids=["block", "fft", "fft-stack"])
    def test_ten_steps_match_reference(self, m, lead):
        g = make_grid(m)
        c, dt = random_stack(g, np.random.default_rng(83), lead), 1e-2
        out = _advance_times(c, g, dt, [10 * dt])[0]
        assert out.tobytes() == reference_run(c, g, dt, 10).tobytes()


def step_tables(grid):
    return _etdrk4_tables(_linear_rates(grid), 1e-3)


class TestStepInPlace:
    # the step reuses its stage buffers in place, never its input's or the tables'

    @pytest.mark.parametrize("lead", [(), (_ROW_BLOCK,)], ids=["single", "block"])
    def test_input_and_tables_unwritten(self, lead):
        g = make_grid(8)
        c, tables = random_stack(g, np.random.default_rng(89), lead), step_tables(g)
        kept = [c.copy()] + [t.copy() for t in tables]
        out = _etdrk4_step(c, tables, _nonlinear(g))
        assert not any(np.shares_memory(out, x) for x in (c, *tables))
        for before, after in zip(kept, (c, *tables)):
            assert before.tobytes() == after.tobytes()

    @pytest.mark.parametrize("m", [8, 32])
    def test_peak_within_seven_states(self, m):
        # the stage arithmetic's peak above the input, with the right-hand side's workspace built
        g = make_grid(m)
        c, tables, rhs = random_stack(g, np.random.default_rng(97), (_ROW_BLOCK,)), step_tables(g), _nonlinear(g)
        rhs(c)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _etdrk4_step(c, tables, rhs)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 7 * c.nbytes


def full_mask_blow_up(c):
    """(modes, samples) of BlowUpError from the mask of every offending entry."""
    bad = ~np.isfinite(c) | (np.abs(c) > BLOW_UP_THRESHOLD)
    where = np.nonzero(bad)
    modes = 1 + np.unique(where[-1])
    samples = np.unique(where[0]) if c.ndim > 1 else ()
    return tuple(int(k) for k in modes), tuple(int(i) for i in samples)


class TestCheckState:
    @pytest.mark.parametrize(
        "bad",
        [
            {(1, 2): complex(math.nan, 0.0)},
            {(0, 5): complex(0.0, math.inf)},
            {(3, 0): 2.0 * BLOW_UP_THRESHOLD},
            {(2, 7): complex(-math.inf, math.nan), (0, 3): math.nan, (2, 1): -3.0 * BLOW_UP_THRESHOLD},
        ],
        ids=["nan", "inf", "large", "mixed"],
    )
    @pytest.mark.parametrize("stacked", [False, True], ids=["single", "stack"])
    def test_reports_full_mask(self, bad, stacked):
        g = make_grid(8)
        c = random_stack(g, np.random.default_rng(59), (4,))
        for (i, k), value in bad.items():
            c[i, k] = value
        if not stacked:
            c = c[max(i for i, _ in bad)]
        with pytest.raises(BlowUpError) as err:
            _check_state(c, 0.25)
        assert (err.value.modes, err.value.samples) == full_mask_blow_up(c)
        assert err.value.time == 0.25

    def test_threshold_itself_passes(self):
        c = np.full((3, 4), BLOW_UP_THRESHOLD, dtype=np.complex128)
        _check_state(c, 0.0)
        _check_state(np.zeros((0, 4), dtype=np.complex128), 0.0)
        _check_state(np.zeros((5, 0), dtype=np.complex128), 0.0)

    @pytest.mark.parametrize("value", [
        complex(0.9 * BLOW_UP_THRESHOLD, 0.0),  # one part above the parts' bound
        complex(-0.6 * BLOW_UP_THRESHOLD, 0.75 * BLOW_UP_THRESHOLD),  # both parts above it, |c| = 0.96 threshold
        complex(0.0, -BLOW_UP_THRESHOLD),
    ], ids=["real", "both", "imag-at-threshold"])
    @pytest.mark.parametrize("lead, m", [((), 8), ((200,), 8), ((), 1024)], ids=["single", "stack", "wide-single"])
    def test_parts_above_the_fast_bound_pass_within_the_threshold(self, value, lead, m):
        assert max(abs(value.real), abs(value.imag)) > flow._PART_BOUND and abs(value) <= BLOW_UP_THRESHOLD
        c = random_stack(make_grid(m), np.random.default_rng(61), lead)
        c[(2,) * len(lead) + (5,)] = value
        _check_state(c, 0.5)

    @pytest.mark.parametrize("bad", [
        {(2, 5): complex(0.6 * BLOW_UP_THRESHOLD, 0.8 * BLOW_UP_THRESHOLD * (1.0 + 1e-15))},
        {(0, 1): complex(math.nextafter(BLOW_UP_THRESHOLD, math.inf), 0.0), (3, 6): complex(-math.inf, 0.0)},
        {(1, 0): complex(math.nan, math.nan), (3, 0): complex(0.0, math.inf)},
    ], ids=["just-above", "above-and-inf", "nan-and-inf"])
    @pytest.mark.parametrize("lead, m", [((), 8), ((200,), 8), ((), 1024)], ids=["single", "stack", "wide-single"])
    def test_just_above_the_threshold_raises_as_before(self, bad, lead, m):
        # the stack and the wide single state read the parts' extremes first, the 8-mode state does not
        c = random_stack(make_grid(m), np.random.default_rng(67), lead or (4,))
        for (i, k), value in bad.items():
            c[i, k] = value
        if not lead:
            c = c[max(i for i, _ in bad)]
        assert (c.size >= flow._PART_CHECK_ENTRIES) == (lead != () or m == 1024)
        assert np.abs(c).max() > BLOW_UP_THRESHOLD or not np.isfinite(c).all()
        with pytest.raises(BlowUpError) as err:
            _check_state(c, -0.5)
        assert (err.value.modes, err.value.samples) == full_mask_blow_up(c)
        assert err.value.time == -0.5


def traced_evolve(f, T):
    """evolve of f to T at dt 1e-3, every step recorded, and tracemalloc's peak during it."""
    tracemalloc.start()
    try:
        rec = evolve(f, T, 1e-3)
        return rec, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestEtdrk4Tables:
    def test_tables_match_60_digit_phi_functions(self):
        # the contour averages against the closed forms (Kassam-Trefethen 2005) at 60 digits, where their
        # cancellation near 0 costs nothing; at |h lambda| = 1 a contour node lies 0.098 from the origin, and
        # f1 there is the worst entry (2.4e-13 measured)
        mpmath = pytest.importorskip("mpmath")
        y = np.concatenate([np.logspace(-6, math.log10(2000.0), 41), [0.098, 0.9, 1.0, 1.1]])
        z = np.concatenate([1j * y, -1j * y])
        tables = _etdrk4_tables(z, 1.0)
        worst = {}
        with mpmath.workdps(60):
            for k, zk in enumerate(z):
                w = mpmath.mpc(complex(zk))
                e, e2 = mpmath.exp(w), mpmath.exp(w / 2)
                exact = {
                    "E": e,
                    "E2": e2,
                    "Q": (e2 - 1) / w,
                    "f1": (-4 - w + e * (4 - 3 * w + w**2)) / w**3,
                    "2f2": 2 * (2 + w + e * (w - 2)) / w**3,
                    "f3": (-4 - 3 * w - w**2 + e * (4 - w)) / w**3,
                }
                for (name, value), table in zip(exact.items(), tables):
                    err = float(abs(mpmath.mpc(complex(table[k])) - value) / abs(value))
                    worst[name] = max(worst.get(name, 0.0), err)
        assert max(worst.values()) <= 1e-12, worst


class TestEvolve:
    def test_zero_initial_state(self):
        g = make_grid(8)
        rec = evolve(zero_field(g), 0.05, 1e-3)
        assert np.all(rec.l2 == 0.0)
        assert np.all(rec.hamiltonian == 0.0)
        assert np.all(rec.final.coeff == 0.0)

    def test_linear_phase_exact(self):
        # ETDRK4's E is the exact phase exp(-i (xi^3 + 1/xi) h), and with a zero
        # nonlinearity one step is E c bit for bit (Kassam-Trefethen 2005)
        for g, h in [(make_grid(6), 1e-3), (make_grid(6), -1e-3), (make_grid(6), 0.7), (make_grid(5, 3.0), 0.01)]:
            xi, c = g.xi, unit_random_field(g, np.random.default_rng(5)).coeff
            tables = _etdrk4_tables(_linear_rates(g), h)
            assert np.abs(tables[0] - np.exp(-1j * (xi**3 + 1.0 / xi) * h)).max() <= 1e-15
            assert _etdrk4_step(c, tables, zero_rhs(g)).tobytes() == (tables[0] * c).tobytes()

    def test_single_mode_phase_frozen(self):
        # mode 2 on the 2*pi circle rotates at rate 8.5 = 2^3 + 1/2
        E = _etdrk4_tables(_linear_rates(make_grid(4)), 0.25)[0]
        assert E[1] == pytest.approx(np.exp(-1j * 8.5 * 0.25), abs=1e-15)

    def test_l2_and_hamiltonian_drift(self):
        g = make_grid(16)
        f = smooth_random_field(g, np.random.default_rng(42))
        rec = evolve(f, 1.0, 1e-3, 100)
        l2_drift = np.max(np.abs(rec.l2 - rec.l2[0])) / rec.l2[0]
        h_drift = np.max(np.abs(rec.hamiltonian - rec.hamiltonian[0])) / abs(
            rec.hamiltonian[0]
        )
        assert l2_drift <= 1e-10
        assert h_drift <= 1e-9

    def test_record_times(self):
        g = make_grid(4)
        f = unit_random_field(g, np.random.default_rng(1))
        rec = evolve(f, 0.01, 1e-3, 5)
        assert np.allclose(rec.times, [0.0, 0.005, 0.01])
        assert np.all(np.diff(rec.times) > 0)

    def test_snapshots(self):
        g = make_grid(4)
        f = unit_random_field(g, np.random.default_rng(2))
        rec = evolve(f, 0.004, 1e-3, 2)
        states = _advance_times(f.coeff, g, 1e-3, rec.times)
        assert states.shape == (len(rec.times), 4)
        assert np.array_equal(states[0], f.coeff)
        assert np.array_equal(states[-1], rec.final.coeff)
        for i, state in enumerate(states):
            assert state.tobytes() == reference_run(f.coeff, g, 1e-3, i * 2).tobytes()

    def test_single_state_wider_than_row_block(self):
        # a single state is one block, not _ROW_BLOCK-mode slices
        g = make_grid(_ROW_BLOCK + 52)
        f = unit_random_field(g, np.random.default_rng(4), decay=0.01)
        rec = evolve(f, 2e-3, 1e-3)
        assert rec.final.coeff.tobytes() == reference_run(f.coeff, g, 1e-3, 2).tobytes()

    def test_fractional_final_step(self):
        g = make_grid(4)
        f = unit_random_field(g, np.random.default_rng(3))
        rec = evolve(f, 0.0105, 1e-3)
        assert rec.times[-1] == 0.0105
        # against a run whose dt divides T
        ref = flow_map(f, 0.0105, 0.0105 / 11)
        assert np.allclose(rec.final.coeff, ref.coeff, atol=1e-11)

    def test_blow_up_detected(self):
        g = make_grid(8)
        c = np.full(8, 1e7, dtype=np.complex128)
        with pytest.raises(BlowUpError) as err:
            evolve(FourierField(g, c), 1.0, 1e-3)
        assert err.value.time > 0.0
        assert len(err.value.modes) > 0
        assert err.value.samples == ()

    def test_negative_horizon_rejected(self):
        g = make_grid(4)
        with pytest.raises(ValueError):
            evolve(zero_field(g), -1.0, 1e-3)

    def test_record_quantities_in_bounded_memory(self):
        # each state is copied into one reused block of 64 records at m = 512,
        # whose L2 and H are taken when it fills: ten times the records leave
        # the peak near where it was, and every row keeps the bits of the
        # kernels on the whole record stack (2556 records end in a partial block)
        g = make_grid(512)
        assert _SAMPLE_BLOCK_BYTES // (8 * g.points) == 64
        f = smooth_random_field(g, np.random.default_rng(13), k0=8.0)
        short, short_peak = traced_evolve(f, 0.255)
        rec, peak = traced_evolve(f, 2.555)
        assert (len(short.times), len(rec.times)) == (256, 2556)
        assert peak <= 1.5 * short_peak
        states = _advance_times(f.coeff, g, 1e-3, rec.times)
        assert rec.l2.tobytes() == _l2(states, g.length).tobytes()
        for lo in range(0, len(states), 512):
            assert rec.hamiltonian[lo : lo + 512].tobytes() == _hamiltonian(states[lo : lo + 512], g).tobytes()

    def test_aliased_product_breaks_conservation(self, monkeypatch):
        # same run with products on the minimal grid: pairing no longer skew
        g = make_grid(8)
        f = unit_random_field(g, np.random.default_rng(7))
        good = evolve(f, 1.0, 1e-3, 1000)
        product_points(monkeypatch, g, aliased=True)
        bad = evolve(f, 1.0, 1e-3, 1000)
        drift_good = abs(good.l2[-1] - good.l2[0])
        drift_bad = abs(bad.l2[-1] - bad.l2[0])
        assert drift_bad > 100.0 * max(drift_good, 1e-14)


class TestFlowMap:
    def test_identity_at_zero(self):
        g = make_grid(4)
        f = unit_random_field(g, np.random.default_rng(9))
        assert flow_map(f, 0.0, 1e-3) is f

    def test_semigroup(self):
        g = make_grid(16)
        f = unit_random_field(g, np.random.default_rng(11), decay=0.3)
        two_hops = flow_map(flow_map(f, 0.5, 1e-3), 0.5, 1e-3)
        one_hop = flow_map(f, 1.0, 1e-3)
        diff = _l2(two_hops.coeff - one_hop.coeff, g.length)
        assert diff <= 1e-7

    def test_time_reversal(self):
        g = make_grid(16)
        f = smooth_random_field(g, np.random.default_rng(13))
        back = flow_map(flow_map(f, 0.5, 1e-3), -0.5, 1e-3)
        diff = _l2(back.coeff - f.coeff, g.length)
        assert diff <= 1e-7

    @pytest.mark.parametrize("dt", [1e-2], ids=["etdrk4"])
    @pytest.mark.parametrize("m", [8, 32, 33])
    def test_rows_independent_of_batch_and_chunking(self, m, dt):
        # row i of a stacked or chunked run equals its single-row run bit for bit
        g = make_grid(m)
        rng = np.random.default_rng(29)
        stack = np.stack([unit_random_field(g, rng, decay=0.3).coeff for _ in range(37)])
        t = 0.055  # five full steps and a fractional tail
        whole = _advance_times(stack, g, dt, [t])[0]
        chunked = np.concatenate([_advance_times(stack[i : i + 5], g, dt, [t])[0] for i in range(0, 37, 5)])
        for i in range(37):
            single = _advance_times(stack[i], g, dt, [t])[0]
            assert whole[i].tobytes() == single.tobytes()
            assert chunked[i].tobytes() == single.tobytes()


class TestAdvanceTimes:
    @pytest.mark.parametrize("linear", [False, True], ids=["etdrk4", "linear"])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_each_time_matches_advance(self, linear, threads, monkeypatch):
        # snapshots of one pass over a multi-block stack equal single-time runs bit for bit,
        # also with a zero nonlinearity, where every step is the exact phase
        if linear:
            monkeypatch.setattr(flow, "_nonlinear", zero_rhs)
        g = make_grid(8)
        rng = np.random.default_rng(37)
        stack = np.stack([unit_random_field(g, rng, decay=0.3).coeff for _ in range(_ROW_BLOCK + 300)])
        times = [0.0, 0.055, -0.03, 0.004, 0.1, 0.055]
        states = _advance_times(stack, g, 1e-2, times, threads=threads)
        assert len(states) == len(times)
        for t, state in zip(times, states):
            assert state.tobytes() == _advance_times(stack, g, 1e-2, [t])[0].tobytes()

    def test_blocks_keep_their_own_right_hand_sides(self, monkeypatch):
        # more workers than cores, switching often: a shared product
        # workspace would mix blocks
        monkeypatch.setattr(flow, "_ROW_BLOCK", 16)
        g = make_grid(8)
        stack = random_stack(g, np.random.default_rng(61), (16 * 6 + 5,))
        serial = _advance_times(stack, g, 1e-2, [0.2, -0.1])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = _advance_times(stack, g, 1e-2, [0.2, -0.1], threads=6)
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(serial, threaded):
            assert a.tobytes() == b.tobytes()

    def test_one_pass_per_time_sign(self, monkeypatch):
        # 10 full steps forward and 3 back, shared by every time of that sign, then one tail
        # step for each 0.055 entry; 0.1 and -0.03 end on a full step
        g = make_grid(4)
        stack = random_stack(g, np.random.default_rng(7), (3,))
        calls = counted_steps(monkeypatch)
        _advance_times(stack, g, 1e-2, [0.055, -0.03, 0.1, 0.055])
        assert len(calls) == 10 + 3 + 2

    @pytest.mark.parametrize("aliased", [False, True], ids=["dealiased", "odd-grid"])
    @pytest.mark.parametrize("m", [4, 8, 16, 32, 33])
    def test_lone_tail_row_matches_single_runs(self, m, aliased, monkeypatch):
        # the last block holds one row, which the table product pads rather than send to gemv
        g = make_grid(m)
        product_points(monkeypatch, g, aliased)
        stack = random_stack(g, np.random.default_rng(71), (_ROW_BLOCK + 1,))
        whole = _advance_times(stack, g, 1e-2, [0.015])[0]
        for i in (0, 1, 500, 511, 512, _ROW_BLOCK - 1, _ROW_BLOCK):
            assert whole[i].tobytes() == _advance_times(stack[i], g, 1e-2, [0.015])[0].tobytes()

    def test_bytes_independent_of_blas_threads(self):
        # every GEMM stays under OpenBLAS's serial threshold, and its rows do not depend on the split
        script = (
            "import hashlib, numpy as np\n"
            "from ostlab.flow import _advance_times, _product_coeff, _product_tables, _product_work\n"
            "from ostlab.spectral import make_grid\n"
            "rng = np.random.default_rng(73)\n"
            "def stack(rows, m):\n"
            "    return 0.3 * (rng.standard_normal((rows, m)) + 1j * rng.standard_normal((rows, m)))\n"
            "for m, rows in ((8, 3000), (32, 300)):\n"
            "    out = _advance_times(stack(rows, m), make_grid(m), 1e-2, [0.03], threads=2)[0]\n"
            "    print(hashlib.sha256(out.tobytes()).hexdigest())\n"
            "# the product alone on the odd 2m+1-point grid\n"
            "out = _product_coeff(stack(700, 16), 16, 33, work=_product_work((700,), 33, _product_tables(16, 33)))\n"
            "print(hashlib.sha256(out.tobytes()).hexdigest())\n"
        )
        digests = []
        for blas_threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads, PYTHONPATH=os.pathsep.join(sys.path))
            run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
            assert run.returncode == 0, run.stderr
            digests.append(run.stdout)
        assert len(digests[0].split()) == 3
        assert digests[0] == digests[1]

    def test_blow_up_reports_row_of_whole_stack(self):
        g = make_grid(8)
        stack = np.zeros((3100, 8), dtype=np.complex128)
        stack[3000] = 1e7
        with pytest.raises(BlowUpError) as err:
            _advance_times(stack, g, 1e-3, [0.5, -0.2], threads=2)
        assert err.value.samples == (3000,)

    def test_step_count_capped(self):
        # the cap itself is allowed, and the longest documented runs sit far below it
        assert _full_steps(_MAX_STEPS * 1e-3, 1e-3) == _MAX_STEPS
        assert _full_steps(-15.0, 1e-3) == 15_000
        for t, dt in (((_MAX_STEPS + 1) * 1e-3, 1e-3), (1e300, 1e-300), (-1e300, 1e-3)):
            with pytest.raises(ValueError) as exc:
                _full_steps(t, dt)
            assert str(exc.value).startswith(f"t = {t:g} at dt = {dt:g} takes ")
            assert str(exc.value).endswith(f" steps, above the cap of {_MAX_STEPS}")
        with pytest.raises(ValueError, match="above the cap"):
            _advance_times(np.zeros((3, 4), complex), make_grid(4), 1e-3, [0.1, 1e300])


@st.composite
def fields(draw, max_modes, max_amplitude, min_length):
    """Fields on grids of 1..max_modes modes and lengths min_length..20."""
    m = draw(st.integers(1, max_modes))
    grid = make_grid(m, draw(st.floats(min_length, 20.0)))
    parts = st.floats(-max_amplitude, max_amplitude)
    return FourierField(grid, np.array([complex(draw(parts), draw(parts)) for _ in range(m)]))


class TestProperties:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(fields(24, 10.0, 1.0))
    def test_nonlinear_term_is_skew(self, f):
        # roundoff scale of the pairing: max xi * |u|_2^2 * |u|_inf (up to a factor 2)
        scale = f.grid.xi[-1] * l2(f) ** 2 * np.sum(np.abs(f.coeff))
        assert abs(pairing(_nonlinear(f.grid)(f.coeff), f.coeff, f.grid)) <= 2e-12 * scale

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        # wavenumbers xi_k <= 8 keep dt * xi^3 near 1/2 or below: the regime the scheme resolves
        fields(8, 0.3, 2.0 * math.pi),
        st.floats(-0.1, 0.1).filter(lambda t: t != 0.0),
    )
    def test_flow_map_round_trip(self, f, t):
        # ETDRK4 is not reversible: the round trip closes to scheme error, O(dt^4)
        back = flow_map(flow_map(f, t, 1e-3), -t, 1e-3)
        assert _l2(back.coeff - f.coeff, f.grid.length) <= 1e-6 * max(1.0, l2(f))


class TestLiouville:
    def test_divergence_free_at_random_states(self):
        g = make_grid(4)
        rng = np.random.default_rng(19)
        for _ in range(5):
            f = unit_random_field(g, rng)
            check = liouville_divergence(f, 1e-4)
            assert check.relative <= 1e-6

    def test_weighted_divergence_free(self):
        g = make_grid(4)
        rng = np.random.default_rng(21)
        for _ in range(5):
            f = unit_random_field(g, rng)
            check = liouville_divergence(f, 1e-4)
            assert check.weighted_relative <= 1e-5

    def test_zero_field(self):
        g = make_grid(4)
        check = liouville_divergence(zero_field(g), 1e-4)
        assert abs(check.divergence) <= 1e-8
        assert abs(check.weighted_divergence) <= 1e-8

    def test_rejects_bad_step(self):
        g = make_grid(4)
        with pytest.raises(ValueError):
            liouville_divergence(zero_field(g), 0.0)


class TestPicard:
    def test_zero_data_fixed_point(self):
        g = make_grid(8)
        res = picard_solve(zero_field(g), T=0.1, iters=3)
        assert res.distances[0] == 0.0
        assert not res.diverged
        assert np.all(res.final.coeff == 0.0)

    def test_contraction_small_data(self):
        g = make_grid(16)
        f = unit_random_field(g, np.random.default_rng(23), decay=0.3)
        phi = FourierField(g, 0.1 * f.coeff)
        res = picard_solve(phi, T=0.1, iters=6)
        assert not res.diverged
        d = res.distances
        for n in range(1, len(d) - 1):
            if d[n] > 1e-13:  # above the roundoff floor
                assert d[n + 1] <= 0.5 * d[n]

    def test_limit_matches_time_stepper(self):
        g = make_grid(16)
        f = unit_random_field(g, np.random.default_rng(23), decay=0.3)
        phi = FourierField(g, 0.1 * f.coeff)
        res = picard_solve(phi, T=0.1, iters=8)
        end = flow_map(phi, 0.1, 1e-4)
        diff = _l2(res.final.coeff - end.coeff, g.length)
        assert diff <= 1e-6

    def test_in_place_map_matches_plain_expression(self):
        # criterion 11's point: states and distances equal those of the map written as one expression
        g = make_grid(16)
        phi = random_smooth_field(g, _philox(1011, 0), k0=2.0, norm=0.1)
        res = picard_solve(phi, 0.1, iters=8)
        times = np.linspace(0.0, 0.1, flow._default_nodes(0.1))
        dt = times[1] - times[0]
        phase = np.exp(np.outer(times, _linear_rates(g)))
        free = phase * phi.coeff[None, :]
        nonlinear = _nonlinear(g)
        u, distances = free, []
        for _ in range(8):
            gt = nonlinear(u) / phase
            u_next = free + phase * (np.cumsum(gt, axis=0) * dt - 0.5 * dt * (gt[0:1] + gt))
            distances.append(float(np.max(_l2(u_next - u, g.length))))
            u = u_next
        assert res.states.tobytes() == u.tobytes()
        assert res.distances.tobytes() == np.array(distances).tobytes()

    def test_divergence_flagged_for_large_data(self):
        g = make_grid(8)
        c = np.zeros(8, dtype=np.complex128)
        c[0] = 2.5  # 5*cos(x)
        with np.errstate(over="ignore", invalid="ignore"):
            res = picard_solve(FourierField(g, c), T=1.0, iters=6)
        assert res.diverged

    @pytest.mark.parametrize("T, nodes", [(0.0078125, 65), (0.015625, 101), (0.25, 1601)])
    def test_default_grid_density(self, T, nodes):
        # 6400 nodes per unit time (6400 T exact at these T) plus one, with a floor of 65
        assert len(picard_solve(zero_field(make_grid(1)), T=T, iters=1).times) == nodes

    def test_default_grid_meets_node_cap_at_longest_t(self):
        assert flow._default_nodes(flow._PICARD_T_MAX) == flow._MAX_NODES
        assert flow._default_nodes(math.nextafter(flow._PICARD_T_MAX, math.inf)) > flow._MAX_NODES

    def test_rejects_bad_arguments(self):
        g = make_grid(4)
        with pytest.raises(ValueError):
            picard_solve(zero_field(g), T=0.0, iters=3)
        with pytest.raises(ValueError):
            picard_solve(zero_field(g), T=0.1, iters=0)
        # the T whose node grid stays inside the node cap
        for T in (math.nextafter(flow._PICARD_T_MAX, math.inf), 1e300, math.nan):
            with pytest.raises(ValueError, match="T must be in"):
                picard_solve(zero_field(g), T=T, iters=1)


def ostrovsky_phi(k, length):
    """The symbol xi^3 + 1/xi at xi = 2 pi k / length, written out rather than taken from the package."""
    xi = 2.0 * math.pi / length * k
    return xi**3 + 1.0 / xi


def free_flow(f, T):
    """S(T)f: each coefficient turned by its exact linear phase."""
    return np.exp(-1j * ostrovsky_phi(np.arange(1, f.grid.modes + 1), f.grid.length) * T) * f.coeff


def duhamel_term(f, T):
    """B(f, T)_n = -i xi_n e^{-i phi(n) T} sum_{k1+k2=n} f_k1 f_k2 (e^{iRT} - 1)/(iR), R = phi(n) - phi(k1) - phi(k2).

    The sum runs over every nonzero |k1|, |k2| <= m, with f_{-k} = conj(f_k),
    and takes the limit T where R = 0.
    """
    m, length = f.grid.modes, f.grid.length
    k, n = np.arange(-m, m + 1), np.arange(1, m + 1)
    full = np.concatenate([np.conj(f.coeff[::-1]), [0.0], f.coeff])  # f_k at index k + m
    phi = ostrovsky_phi(np.where(k == 0, 1, k), length)  # phi(k) at index k + m; the k = 0 entry is never summed
    k2 = n[:, None] - k  # rows n, columns k1
    inside = (k != 0) & (k2 != 0) & (np.abs(k2) <= m)
    i2 = np.clip(k2, -m, m) + m
    R = phi[n + m, None] - phi - phi[i2]
    kernel = np.where(R == 0.0, T, (np.exp(1j * R * T) - 1.0) / (1j * np.where(R == 0.0, 1.0, R)))
    pairs = np.where(inside, full * full[i2] * kernel, 0.0).sum(axis=1)
    return -1j * (2.0 * math.pi / length * n) * np.exp(-1j * phi[n + m] * T) * pairs


def relative_l2(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


class TestDuhamelOracle:
    """The Duhamel term in closed form, against Picard's first map and ETDRK4's coupling.

    B is the first Picard correction to the free flow, S(T)f + B(f, T), and
    the epsilon^2 coefficient of the flow, Phi_T(eps f) = eps S(T)f +
    eps^2 B(f, T) + O(eps^3).  Neither the symbol nor the sum goes through
    the package, so a defect in either cannot cancel.  Each bound is about
    4x the error measured on the code as it is.
    """

    @pytest.mark.parametrize("k0, bound", [(2.0, 1e-7), (8.0, 3.5e-6)])  # measured 2.29e-8 and 8.72e-7
    def test_first_picard_map_is_free_flow_plus_duhamel_term(self, k0, bound):
        # criterion 11's point: m = 16, |phi| = 0.1, T = 0.1 on 641 nodes
        f = random_smooth_field(make_grid(16), _philox(0, 0), k0=k0, norm=0.1)
        iterate = picard_solve(f, 0.1, 1).states[-1]
        assert relative_l2(iterate, free_flow(f, 0.1) + duhamel_term(f, 0.1)) < bound

    # measured 4.47e-7, 3.99e-7 and 4.56e-7: the expansion's O(eps^2) remainder, not the integrator's error
    @pytest.mark.parametrize("m, length", [(8, 2.0 * math.pi), (32, 2.0 * math.pi), (8, 7.3)])
    def test_flow_second_order_coefficient_is_duhamel_term(self, m, length):
        f = random_smooth_field(make_grid(m, length), _philox(1, 0), k0=2.0, norm=1.0)

        def q(eps):
            end = flow_map(FourierField(f.grid, eps * f.coeff), 0.1, 1e-3).coeff
            return (end - eps * free_flow(f, 0.1)) / eps**2

        # Richardson in eps cancels the O(eps) term of q
        assert relative_l2(2.0 * q(5e-3) - q(1e-2), duhamel_term(f, 0.1)) < 2e-6


class TestConvergenceInM:
    def test_band_limited_exact_capture(self, monkeypatch):
        # with a zero nonlinearity no mode above the data's band is ever excited
        monkeypatch.setattr(flow, "_nonlinear", zero_rhs)
        g = make_grid(4)
        f = unit_random_field(g, np.random.default_rng(25))
        study = convergence_in_m(f, T=0.2, m_list=[4, 8])
        assert study.reference_modes == 16
        assert all(e <= 1e-10 for e in study.errors)

    def test_smooth_data_errors_decrease(self):
        g = make_grid(16)
        k = np.arange(1, 17)
        c = np.exp(-((k / 2.0) ** 2)) * (1.0 + 0.3j)
        f = FourierField(g, c)
        f = FourierField(g, f.coeff / l2(f))
        study = convergence_in_m(f, T=0.5, m_list=[4, 8])
        assert study.errors[1] < study.errors[0]

    def test_zero_data(self):
        g = make_grid(4)
        study = convergence_in_m(zero_field(g), T=0.1, m_list=[4, 8])
        assert study.errors == (0.0, 0.0)

    @pytest.mark.parametrize("T", [0.2555, -0.2555])
    def test_record_grid_ends_at_T(self, T):
        # 0.2555 is not a multiple of record_every * dt = 0.05 in either direction
        times = _record_times(T, 1e-3, 50)
        assert times[-1] == T
        assert np.allclose(np.abs(times[:-1]), 0.05 * np.arange(6), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("T", [0.1, -0.1013, 0.1013])
    def test_errors_match_padded_record_stacks(self, T):
        # the lockstep walk gives the bits of each m's whole record stack,
        # zero-padded onto the reference's, minus the reference's stack
        f = unit_random_field(make_grid(16), np.random.default_rng(33), decay=0.3)
        length, times = f.grid.length, _record_times(T, 2e-3, 10)

        def states(m):
            grid = make_grid(m, length=length)
            return _advance_times(regrid(f, grid).coeff, grid, 2e-3, times)

        ref, expected = states(16), []
        for m in (4, 8):
            padded = np.zeros_like(ref)
            padded[:, :m] = states(m)
            expected.append(float(np.max(_l2(padded - ref, length))))
        study = convergence_in_m(f, T, [4, 8], dt=2e-3, record_every=10)
        assert study.reference_modes == 16
        assert np.array(study.errors).tobytes() == np.array(expected).tobytes()

    def test_rejects_unsorted_m_list(self):
        g = make_grid(4)
        with pytest.raises(ValueError):
            convergence_in_m(zero_field(g), T=0.1, m_list=[8, 4])


class TestConservedFunctionals:
    def test_cubic_part_not_conserved_alone(self):
        # sanity: only the combination H = quadratic + cubic is invariant
        g = make_grid(16)
        f = smooth_random_field(g, np.random.default_rng(27))
        out = flow_map(f, 0.5, 1e-3)
        assert abs(_cubic_g(out.coeff, g) - _cubic_g(f.coeff, g)) > 1e-6
        assert abs(_hamiltonian(out.coeff, g) - _hamiltonian(f.coeff, g)) <= 1e-8
