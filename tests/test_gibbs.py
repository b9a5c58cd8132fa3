"""Measures and samplers: eigenvalue ladder, trace, weights, pCN, cylinders."""

import dataclasses
import hashlib
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.stats import kstest

import ostlab.gibbs as gibbs
from ostlab.gibbs import (
    ESS_FLOOR,
    Ensemble,
    GibbsSpec,
    cylinder_probability,
    default_cutoff,
    gaussian_rms_l2,
    gibbs_expectation,
    load_ensemble,
    pcn_chain,
    sample_gaussian,
    save_ensemble,
    trace_check,
)
from ostlab.spectral import (
    TWO_PI,
    FourierField,
    _coord_eigenvalues,
    _coords_to_coeff,
    _cubic_g,
    _l2,
    _philox,
    _philox_streams,
    _to_physical,
    energy_eigenvalues,
    make_grid,
)


def coords_matrix(ens):
    """Interleaved sine/cosine coordinates of every sample, shape (n, 2m)."""
    root = math.sqrt(2.0 * ens.spec.grid.length)
    out = np.empty((len(ens), 2 * ens.spec.grid.modes))
    out[:, 0::2] = -root * ens.coeffs.imag
    out[:, 1::2] = root * ens.coeffs.real
    return out


def l2_squared(ens):
    """|u_i|_{L2}^2 of every sample, shape (n,)."""
    return 2.0 * ens.spec.grid.length * np.sum(np.abs(ens.coeffs) ** 2, axis=1)


def cubic_g(f):
    return float(_cubic_g(f.coeff, f.grid))


def l2_norm(f):
    return float(_l2(f.coeff, f.grid.length))


def reference_pcn_chain(spec, count, beta, burn_in=0, g_fn=None, start=None):
    """The pCN chain written plainly: g on both states at every step, one
    FourierField per proposal, constants recomputed at every draw.

    Returns (coeffs, acceptance_rate, cutoff_rejections).
    """
    g_fn = cubic_g if g_fn is None else g_fn
    grid = spec.grid
    rng = _philox(spec.seed, 2**63 + 1)

    def draw():
        z = rng.standard_normal(2 * grid.modes) / np.sqrt(_coord_eigenvalues(grid))
        return _coords_to_coeff(z, grid)

    def step(u):
        proposal = FourierField(grid, math.sqrt(1.0 - beta**2) * u.coeff + beta * draw())
        if spec.cutoff_R is not None and l2_norm(proposal) > spec.cutoff_R:
            return u, False, True
        log_ratio = g_fn(u) - g_fn(proposal)
        if log_ratio >= 0.0 or rng.uniform() < math.exp(log_ratio):
            return proposal, True, False
        return u, False, False

    if start is None:
        u = FourierField(grid, draw())
        if spec.cutoff_R is not None and l2_norm(u) > spec.cutoff_R:
            u = FourierField(grid, np.zeros(grid.modes, dtype=np.complex128))
    else:
        u = start
    accepted = walls = 0
    coeffs = np.empty((count, grid.modes), dtype=np.complex128)
    for i in range(-burn_in, count):
        u, ok, wall = step(u)
        accepted += ok
        walls += wall
        if i >= 0:
            coeffs[i] = u.coeff
    return coeffs, accepted / (count + burn_in), walls


def fresh_array_pcn_chain(spec, count, beta, burn_in=0, g_fn=None, start=None):
    """The pCN chain with fresh arrays at every step and its helpers written
    out: coefficients as the complex quotient (a_odd - 1j a_even) / sqrt(2A),
    g as (L/3) mean((u*u)*u), g carried with the state.  The buffered step
    must match it bit for bit.

    Returns (coeffs, acceptance_rate, g evaluations).
    """
    grid, cutoff, keep = spec.grid, spec.cutoff_R, math.sqrt(1.0 - beta**2)
    root_v, root = np.sqrt(_coord_eigenvalues(grid)), math.sqrt(2.0 * grid.length)
    rng = _philox(spec.seed, 2**63 + 1)

    def draw():
        a = rng.standard_normal(root_v.size) / root_v
        return (a[1::2] - 1j * a[0::2]) / root

    def g(coeff):
        if g_fn is not None:
            return g_fn(FourierField(grid, coeff))
        u = _to_physical(coeff, grid.points)
        value = float((grid.length / 3.0) * (np.add.reduce(u * u * u, axis=-1) / grid.points))
        if not math.isfinite(value):
            FourierField(grid, coeff)
        return value

    u = None if start is None else start.coeff
    if u is None:
        u = draw()
        if cutoff is not None and _l2(u, grid.length) > cutoff:
            u = np.zeros(grid.modes, dtype=np.complex128)
    g_u, evaluations, accepted = g(u), 1, 0
    coeffs = np.empty((count, grid.modes), dtype=np.complex128)
    for i in range(-burn_in, count):
        proposal = keep * u + beta * draw()
        ok = False
        if cutoff is None or not _l2(proposal, grid.length) > cutoff:
            g_proposal, evaluations = g(proposal), evaluations + 1
            log_ratio = g_u - g_proposal
            ok = bool(log_ratio >= 0.0 or rng.uniform() < math.exp(log_ratio))
            if ok:
                u, g_u = proposal, g_proposal
        accepted += ok
        if i >= 0:
            coeffs[i] = u
    return coeffs, accepted / (count + burn_in), evaluations


class CountingG:
    """cubic_g that counts its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, f):
        self.calls += 1
        return cubic_g(f)


@pytest.fixture(scope="module")
def big_ensemble():
    spec = GibbsSpec(grid=make_grid(8), seed=42)
    return sample_gaussian(spec, 100_000)


class TestEigenvalues:
    def test_frozen_values(self):
        v = energy_eigenvalues(make_grid(4))
        assert v[0] == pytest.approx(2.0, abs=1e-15)
        assert v[1] == pytest.approx(4.25, abs=1e-15)

    def test_asymptotics(self):
        g = make_grid(64)
        lam = g.xi**2
        v = energy_eigenvalues(g)
        assert np.all(np.abs(v / lam - 1.0) <= 1.0 / lam**2 + 1e-15)

    def test_positive_increasing(self):
        v = energy_eigenvalues(make_grid(32))
        assert np.all(v > 0)
        assert np.all(np.diff(v) > 0)

    def test_coordinate_ladder_repeats_each_eigenvalue(self):
        g = make_grid(3)
        ladder = _coord_eigenvalues(g)
        assert np.array_equal(ladder[0::2], energy_eigenvalues(g))
        assert np.array_equal(ladder[1::2], energy_eigenvalues(g))


class TestTraceCheck:
    def test_single_term(self):
        assert trace_check(make_grid(1), 1) == pytest.approx(1.0, abs=1e-15)

    def test_partial_sums_cauchy(self):
        g = make_grid(8)
        s4 = trace_check(g, 10**4)
        s5 = trace_check(g, 10**5)
        assert s5 > s4
        assert (s5 - s4) / s5 <= 1e-4

    def test_increments_summable(self):
        g = make_grid(1)
        sums = [trace_check(g, k) for k in range(1, 30)]
        increments = np.diff(sums)
        k = np.arange(2, 30)
        assert np.all(increments <= 2.0 / k**2 + 1e-15)

    def test_bounded(self):
        # sum 2/(k^2 + k^-2) < sum 2/k^2 = pi^2/3
        assert trace_check(make_grid(8), 10**6) < math.pi**2 / 3.0

    def test_rejects_small_k_max(self):
        with pytest.raises(ValueError):
            trace_check(make_grid(8), 4)


class TestGibbsSpec:
    def test_rejects_bad_cutoff(self):
        for bad in (0.0, -1.0, math.inf):
            with pytest.raises(ValueError):
                GibbsSpec(grid=make_grid(2), cutoff_R=bad)

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError):
            GibbsSpec(grid=make_grid(2), seed=-1)

    def test_default_cutoff_scale(self):
        g = make_grid(8)
        assert default_cutoff(g) == pytest.approx(4.0 * gaussian_rms_l2(g), rel=1e-15)
        assert gaussian_rms_l2(g) == pytest.approx(
            math.sqrt(float(np.sum(2.0 / energy_eigenvalues(g)))), rel=1e-15
        )


class TestSampleGaussian:
    def test_golden_single_sample(self):
        # determinism pin: Philox stream (seed=12345, index=0), m=2
        ens = sample_gaussian(GibbsSpec(grid=make_grid(2), seed=12345), 1)
        expected = np.array(
            [
                -0.026634143903344214 + 0.04505708225330275j,
                0.06259105649060943 - 0.06936853687296278j,
            ]
        )
        assert np.array_equal(ens.coeffs[0], expected)
        # g cubes by (u*u)*u; the u**3 (pow) form gave -0.0010533686840107912, 4 ulps away
        assert ens.log_weights[0] == -0.001053368684010792

    def test_reproducible(self):
        spec = GibbsSpec(grid=make_grid(4), seed=7)
        a = sample_gaussian(spec, 50)
        b = sample_gaussian(spec, 50)
        assert np.array_equal(a.coeffs, b.coeffs)
        assert np.array_equal(a.log_weights, b.log_weights)

    def test_prefix_stability(self):
        # per-sample streams: a longer run extends, never reshuffles
        spec = GibbsSpec(grid=make_grid(4), seed=7)
        short = sample_gaussian(spec, 10)
        long = sample_gaussian(spec, 25)
        assert np.array_equal(long.coeffs[:10], short.coeffs)

    def test_rows_are_the_philox_streams(self):
        g = make_grid(5)
        spec = GibbsSpec(grid=g, seed=2**40 + 9)
        ens = sample_gaussian(spec, 300)
        z = np.stack([_philox(spec.seed, i).standard_normal(2 * g.modes) for i in range(300)])
        expected = _coords_to_coeff(z * (1.0 / np.sqrt(_coord_eigenvalues(g))), g)
        assert ens.coeffs.tobytes() == expected.tobytes()

    def test_rekeyed_streams_equal_fresh_generators(self):
        # indices past 2**32 and 2**63 use the key's high bits; a 32-bit draw
        # leaves a spare half behind, which re-keying must discard
        streams = [0, 1, 7, 2**32 - 1, 2**32, 2**32 + 5, 2**63 + 1, 2**64 - 1, 3]
        for seed in (0, 11, 2**63 - 1):
            for stream, rng in zip(streams, _philox_streams(seed, streams)):
                fresh = _philox(seed, stream)
                assert rng.integers(0, 2**32, dtype=np.uint32) == fresh.integers(0, 2**32, dtype=np.uint32)
                assert rng.standard_normal(13).tobytes() == fresh.standard_normal(13).tobytes()
                assert rng.uniform() == fresh.uniform()

    @pytest.mark.parametrize("k", [1, 2, 17, 64])
    def test_prefix_rows_equal_shorter_draw(self, k):
        g = make_grid(4)
        spec = GibbsSpec(grid=g, cutoff_R=gaussian_rms_l2(g), seed=5)
        long = sample_gaussian(spec, 64)
        short = sample_gaussian(spec, k)
        assert long.coeffs[:k].tobytes() == short.coeffs.tobytes()
        assert long.log_weights[:k].tobytes() == short.log_weights.tobytes()
        assert np.array_equal(long.in_support[:k], short.in_support)

    @pytest.mark.parametrize("m, count", [(8, 20000), (16, 5000), (3, 7)])
    def test_blocks_match_whole_stack_draw(self, m, count):
        # 4096 and 2048 rows per block at m = 8 and 16, the last one partial: every array equals
        # the draw made as one (count, 2m) stack, bit for bit
        g = make_grid(m)
        spec = GibbsSpec(grid=g, cutoff_R=gaussian_rms_l2(g), seed=23)
        ens = sample_gaussian(spec, count)
        coords = np.empty((count, 2 * m))
        for row, rng in zip(coords, _philox_streams(spec.seed, range(count))):
            rng.standard_normal(out=row)
        coeffs = _coords_to_coeff(coords * (1.0 / np.sqrt(_coord_eigenvalues(g))), g)
        assert ens.coeffs.tobytes() == coeffs.tobytes()
        assert ens.log_weights.tobytes() == (-_cubic_g(coeffs, g)).tobytes()
        assert ens.in_support.tobytes() == (_l2(coeffs, g.length) <= spec.cutoff_R).tobytes()

    def test_draw_peak_bounded_by_the_ensemble(self):
        # g's samples are cubed 1 MiB at a time, not as one (count, 4m) stack: the whole draw
        # peaked at 6.0 times the ensemble's own bytes, and peaks at 2.25 times them in blocks
        spec = GibbsSpec(grid=make_grid(8), seed=29)
        tracemalloc.start()
        try:
            ens = sample_gaussian(spec, 20000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * (ens.coeffs.nbytes + ens.log_weights.nbytes + ens.in_support.nbytes)

    def test_mean_clt_bound(self, big_ensemble):
        a = coords_matrix(big_ensemble)
        v = _coord_eigenvalues(big_ensemble.spec.grid)
        bound = 4.0 / np.sqrt(len(big_ensemble) * v)
        assert np.all(np.abs(a.mean(axis=0)) <= bound)

    def test_variance_ratio(self, big_ensemble):
        a = coords_matrix(big_ensemble)
        v = _coord_eigenvalues(big_ensemble.spec.grid)
        ratio = a.var(axis=0) * v
        assert np.all(ratio >= 0.95)
        assert np.all(ratio <= 1.05)

    def test_marginals_kolmogorov_smirnov(self):
        spec = GibbsSpec(grid=make_grid(8), seed=3)
        ens = sample_gaussian(spec, 10_000)
        a = coords_matrix(ens)
        v = _coord_eigenvalues(spec.grid)
        for j in range(8):
            stat = kstest(a[:, j] * math.sqrt(v[j]), "norm").statistic
            assert stat <= 1.63 / math.sqrt(len(ens))  # 1% critical value

    def test_log_weight_is_minus_g(self):
        spec = GibbsSpec(grid=make_grid(4), seed=11)
        ens = sample_gaussian(spec, 20)
        for i in range(20):
            assert ens.log_weights[i] == pytest.approx(-_cubic_g(ens.coeffs[i], spec.grid), abs=1e-14)

    def test_cutoff_indicator(self):
        g = make_grid(4)
        spec = GibbsSpec(grid=g, cutoff_R=gaussian_rms_l2(g), seed=13)
        ens = sample_gaussian(spec, 500)
        assert np.array_equal(ens.in_support, np.sqrt(l2_squared(ens)) <= spec.cutoff_R)
        assert 0 < ens.in_support.sum() < 500  # radius chosen to split

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            sample_gaussian(GibbsSpec(grid=make_grid(2)), 0)


class TestPcn:
    def test_beta_zero_is_identity(self):
        spec = GibbsSpec(grid=make_grid(4), seed=17)
        u = sample_gaussian(spec, 1).coeffs[0]
        chain = pcn_chain(spec, 5, 0.0, start=FourierField(spec.grid, u))
        assert chain.acceptance_rate == 1.0
        assert all(np.array_equal(row, u) for row in chain.coeffs)

    def test_rejects_bad_beta(self):
        spec = GibbsSpec(grid=make_grid(4))
        u = sample_gaussian(spec, 1).coeffs[0]
        with pytest.raises(ValueError):
            pcn_chain(spec, 1, 1.5, start=FourierField(spec.grid, u))

    @pytest.mark.parametrize("beta", [1.5, -0.1, math.nan, math.inf])
    def test_chain_rejects_bad_beta(self, beta):
        with pytest.raises(ValueError, match="beta"):
            pcn_chain(GibbsSpec(grid=make_grid(2)), 5, beta)

    @pytest.mark.parametrize(
        "cutoff, beta, burn_in, g_fn",
        [
            (None, 0.5, 0, None),
            ("small", 0.5, 0, None),
            (None, 0.3, 40, None),
            ("small", 0.7, 25, None),
            (None, 0.0, 0, None),
            (None, 1.0, 0, None),
            ("small", 1.0, 10, None),
            (None, 0.5, 5, lambda f: 4.0 * cubic_g(f) + l2_norm(f) ** 2),
            ("small", 0.5, 0, lambda f: 0.0),
        ],
    )
    def test_chain_matches_plain_loop_bit_for_bit(self, cutoff, beta, burn_in, g_fn):
        g = make_grid(6)
        radius = 0.9 * gaussian_rms_l2(g) if cutoff == "small" else None
        spec = GibbsSpec(grid=g, cutoff_R=radius, seed=61)
        chain = pcn_chain(spec, 600, beta, burn_in=burn_in, g_fn=g_fn)
        coeffs, rate, walls = reference_pcn_chain(spec, 600, beta, burn_in=burn_in, g_fn=g_fn)
        assert chain.coeffs.tobytes() == coeffs.tobytes()
        assert chain.acceptance_rate == rate
        if cutoff == "small" and beta > 0.0:
            assert walls > 0  # the cutoff really rejects

    @pytest.mark.parametrize("m, length", [(1, TWO_PI), (3, 7.3), (8, TWO_PI), (32, TWO_PI)])
    @pytest.mark.parametrize(
        "cutoff, beta, burn_in, g_fn, start",
        [
            (None, 0.5, 0, None, False),
            ("small", 0.7, 25, None, False),
            (None, 0.5, 5, lambda f: 4.0 * cubic_g(f) + l2_norm(f) ** 2, False),
            ("small", 0.4, 3, None, True),
            (None, 0.0, 10, None, False),
            ("small", 1.0, 10, None, False),
        ],
        ids=["plain", "walls", "g_fn", "start", "beta-0", "beta-1"],
    )
    def test_chain_matches_fresh_array_step_bit_for_bit(self, m, length, cutoff, beta, burn_in, g_fn, start):
        g = make_grid(m, length)
        radius = 0.9 * gaussian_rms_l2(g) if cutoff == "small" else None
        spec = GibbsSpec(grid=g, cutoff_R=radius, seed=97 + m)
        donor = dataclasses.replace(spec, seed=5)
        start = FourierField(g, 0.3 * sample_gaussian(donor, 1).coeffs[0]) if start else None
        counters = {}
        chain = pcn_chain(spec, 600, beta, burn_in=burn_in, g_fn=g_fn, start=start, counters=counters)
        coeffs, rate, evaluations = fresh_array_pcn_chain(spec, 600, beta, burn_in=burn_in, g_fn=g_fn, start=start)
        assert chain.coeffs.tobytes() == coeffs.tobytes()
        assert chain.acceptance_rate == rate
        assert counters["g_evaluations"] == evaluations
        if cutoff == "small" and beta > 0.0:
            assert evaluations < 600 + burn_in + 1  # the cutoff really rejects

    def test_chain_from_start_state_matches_plain_loop(self):
        g = make_grid(4)
        spec = GibbsSpec(grid=g, seed=67)
        start = FourierField(g, np.full(g.modes, 0.3 - 0.1j))
        chain = pcn_chain(spec, 300, 0.4, burn_in=3, start=start)
        coeffs, rate, _ = reference_pcn_chain(spec, 300, 0.4, burn_in=3, start=start)
        assert chain.coeffs.tobytes() == coeffs.tobytes()
        assert chain.acceptance_rate == rate

    def test_overflowing_g_is_not_a_non_finite_state(self):
        # finite coefficients whose cube overflows: g is +-inf, no error
        g = make_grid(3)
        spec = GibbsSpec(grid=g, seed=71)
        start = FourierField(g, np.full(g.modes, 1e120 + 0j))
        with np.errstate(over="ignore", invalid="ignore"):
            chain = pcn_chain(spec, 50, 0.5, start=start)
            coeffs, rate, _ = reference_pcn_chain(spec, 50, 0.5, start=start)
        assert chain.coeffs.tobytes() == coeffs.tobytes()
        assert chain.acceptance_rate == rate

    def test_one_g_evaluation_per_proposal(self):
        spec = GibbsSpec(grid=make_grid(4), seed=73)
        count_g = CountingG()
        counters = {}
        pcn_chain(spec, 500, 0.5, burn_in=20, g_fn=count_g, counters=counters)
        assert count_g.calls == 500 + 20 + 1
        assert counters == {"chain_steps": 520, "g_evaluations": 521}

    def test_cutoff_rejection_skips_g(self):
        g = make_grid(4)
        spec = GibbsSpec(grid=g, cutoff_R=0.9 * gaussian_rms_l2(g), seed=79)
        count_g = CountingG()
        counters = {}
        pcn_chain(spec, 500, 0.8, g_fn=count_g, counters=counters)
        _, _, walls = reference_pcn_chain(spec, 500, 0.8)
        assert walls > 0
        assert count_g.calls == counters["g_evaluations"] == 500 + 1 - walls

    def test_step_matches_plain_step(self):
        g = make_grid(4)
        spec = GibbsSpec(grid=g, cutoff_R=0.9 * gaussian_rms_l2(g), seed=83)
        u = sample_gaussian(spec, 1).coeffs[0]
        before = u.tobytes()
        chain = pcn_chain(spec, 40, 0.6, start=FourierField(g, u))
        coeffs, rate, walls = reference_pcn_chain(spec, 40, 0.6, start=FourierField(g, u))
        assert chain.coeffs.tobytes() == coeffs.tobytes() and chain.acceptance_rate == rate
        # moves that keep the state and moves that take the proposal, each at its own step
        stays = [np.array_equal(a, b) for a, b in zip(coeffs, coeffs[1:])]
        assert any(stays) and not all(stays) and 0.0 < rate < 1.0 and walls > 0
        assert u.tobytes() == before  # the start is copied in, never written

    @pytest.mark.parametrize("radius", [None, 1.0])
    def test_step_rejects_non_finite_proposal(self, monkeypatch, radius):
        class InfiniteNormals:
            def standard_normal(self, out):
                out.fill(np.inf)
                return out

            def uniform(self):
                return 0.5

        spec = GibbsSpec(grid=make_grid(3), cutoff_R=radius)
        u = sample_gaussian(spec, 1).coeffs[0]
        monkeypatch.setattr(gibbs, "_philox", lambda seed, stream: InfiniteNormals())
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
            pcn_chain(spec, 1, 0.5, start=FourierField(spec.grid, u))

    def test_gaussian_target_accepts_everything(self):
        spec = GibbsSpec(grid=make_grid(4), seed=19)
        chain = pcn_chain(spec, 2000, beta=0.7, g_fn=lambda f: 0.0)
        assert chain.acceptance_rate == 1.0

    def test_gaussian_target_second_moments(self):
        spec = GibbsSpec(grid=make_grid(4), seed=19)
        chain = pcn_chain(spec, 20_000, beta=0.7, g_fn=lambda f: 0.0)
        a = coords_matrix(chain)
        v = _coord_eigenvalues(spec.grid)
        for j in range(8):
            est = gibbs_expectation(chain, a[:, j] ** 2)
            assert abs(est.mean - 1.0 / v[j]) <= 3.0 * est.std_error

    def test_cutoff_is_hard_wall(self):
        g = make_grid(4)
        spec = GibbsSpec(grid=g, cutoff_R=0.8 * gaussian_rms_l2(g), seed=23)
        chain = pcn_chain(spec, 2000, beta=0.5)
        assert np.all(np.sqrt(l2_squared(chain)) <= spec.cutoff_R)
        assert chain.acceptance_rate < 1.0

    def test_two_samplers_agree_on_cubic_integral(self):
        g = make_grid(8)
        spec = GibbsSpec(grid=g, cutoff_R=default_cutoff(g), seed=29)
        iid_ens = sample_gaussian(spec, 30_000)
        chain = pcn_chain(spec, 30_000, beta=0.5, burn_in=1000)
        iid = gibbs_expectation(iid_ens, 3.0 * _cubic_g(iid_ens.coeffs, g))
        mcmc = gibbs_expectation(chain, 3.0 * _cubic_g(chain.coeffs, g))
        combined = math.hypot(iid.std_error, mcmc.std_error)
        assert abs(iid.mean - mcmc.mean) <= 3.0 * combined


class TestCylinderProbability:
    def test_whole_space(self):
        spec = GibbsSpec(grid=make_grid(4))
        box = [(-np.inf, np.inf)] * 8
        assert cylinder_probability(spec, box) == pytest.approx(1.0, abs=1e-12)
        assert cylinder_probability(spec, []) == 1.0

    def test_half_line(self):
        spec = GibbsSpec(grid=make_grid(4))
        assert cylinder_probability(spec, [(0.0, np.inf)]) == pytest.approx(0.5, abs=1e-12)

    def test_symmetric_box_closed_form_and_monte_carlo(self, big_ensemble):
        spec = big_ensemble.spec
        a = 0.5
        p = cylinder_probability(spec, [(-a, a)])
        phi = 0.5 * (1.0 + math.erf(a * math.sqrt(energy_eigenvalues(spec.grid)[0]) / math.sqrt(2.0)))
        assert p == pytest.approx(2.0 * phi - 1.0, abs=1e-12)
        coords = coords_matrix(big_ensemble)
        hits = np.abs(coords[:, 0]) <= a
        freq = hits.mean()
        se = math.sqrt(p * (1.0 - p) / len(big_ensemble))
        assert abs(freq - p) <= 3.0 * se

    def test_degenerate_box(self):
        spec = GibbsSpec(grid=make_grid(4))
        assert cylinder_probability(spec, [(1.0, 1.0)]) == 0.0
        assert cylinder_probability(spec, [(2.0, -2.0), (-1.0, 1.0)]) == 0.0

    def test_rejects_oversized_box(self):
        spec = GibbsSpec(grid=make_grid(2))
        with pytest.raises(ValueError):
            cylinder_probability(spec, [(-1.0, 1.0)] * 5)


class TestGibbsExpectation:
    def test_constant_observable(self, big_ensemble):
        est = gibbs_expectation(big_ensemble, np.ones(len(big_ensemble)))
        assert est.mean == 1.0
        assert est.std_error == 0.0
        assert not est.degenerate

    def test_l2_squared_gaussian_oracle(self, big_ensemble):
        # disable the density: plain Gaussian second moment sum 2/v_k
        unweighted = dataclasses.replace(
            big_ensemble, log_weights=np.zeros(len(big_ensemble))
        )
        est = gibbs_expectation(unweighted, l2_squared(unweighted))
        exact = float(np.sum(2.0 / energy_eigenvalues(big_ensemble.spec.grid)))
        assert abs(est.mean - exact) <= 3.0 * est.std_error

    def test_zero_mean_functional_vanishes(self):
        spec = GibbsSpec(grid=make_grid(4), seed=31)
        ens = sample_gaussian(spec, 200)
        values = np.mean(_to_physical(ens.coeffs, spec.grid.points), axis=1) * np.sqrt(l2_squared(ens))
        est = gibbs_expectation(ens, values)
        assert abs(est.mean) <= 1e-13

    def test_permutation_invariance(self, big_ensemble):
        est = gibbs_expectation(big_ensemble, l2_squared(big_ensemble))
        perm = np.random.default_rng(1).permutation(len(big_ensemble))
        shuffled = Ensemble(
            spec=big_ensemble.spec,
            sampler=big_ensemble.sampler,
            master_seed=big_ensemble.master_seed,
            coeffs=big_ensemble.coeffs[perm],
            log_weights=big_ensemble.log_weights[perm],
            in_support=big_ensemble.in_support[perm],
        )
        est2 = gibbs_expectation(shuffled, l2_squared(shuffled))
        assert est.mean == est2.mean
        assert est.ess == est2.ess

    def test_sums_match_fsum_over_the_arrays(self, big_ensemble):
        # the estimator feeds fsum Python floats from a memoryview; a strided values array gives the same bits
        values = l2_squared(big_ensemble)
        w = big_ensemble._weights[0]
        total = math.fsum(w)
        mean = math.fsum(w * values) / total
        se = math.sqrt(math.fsum((w * (values - mean)) ** 2)) / total
        est = gibbs_expectation(big_ensemble, np.repeat(values, 2)[::2])
        assert (est.mean, est.std_error, est.ess) == (mean, se, total**2 / math.fsum(w * w))

    def test_degenerate_weights_flagged(self):
        spec = GibbsSpec(grid=make_grid(2), seed=1)
        ens = sample_gaussian(spec, 100)
        lw = np.full(100, -1000.0)
        lw[0] = 0.0
        skewed = dataclasses.replace(ens, log_weights=lw)
        est = gibbs_expectation(skewed, np.sqrt(l2_squared(skewed)))
        assert est.ess < ESS_FLOOR
        assert est.degenerate

    def test_excluded_sample_does_not_set_the_weight_shift(self):
        # an excluded sample 800 above the rest would underflow every kept
        # weight if it set the shift
        g = make_grid(2)
        spec = GibbsSpec(grid=g, cutoff_R=default_cutoff(g), seed=1)
        ens = sample_gaussian(spec, 100)
        lw = np.zeros(100)
        lw[0] = 800.0
        chi = np.ones(100, dtype=bool)
        chi[0] = False
        skewed = dataclasses.replace(ens, log_weights=lw, in_support=chi)
        values = l2_squared(ens)
        est = gibbs_expectation(skewed, values)
        assert not est.degenerate
        assert est.ess == pytest.approx(99.0, rel=1e-12)
        assert est.mean == pytest.approx(values[1:].mean(), rel=1e-12)

    def test_weights_computed_once_per_ensemble(self):
        ens = sample_gaussian(GibbsSpec(grid=make_grid(2), seed=3), 50)
        w = ens._weights[0]
        assert not w.flags.writeable
        gibbs_expectation(ens, np.sqrt(l2_squared(ens)))
        assert ens._weights[0] is w
        # a replaced ensemble gets weights of its own
        shifted = dataclasses.replace(ens, log_weights=ens.log_weights + 1.0)
        assert shifted._weights[0] is not w
        assert np.allclose(shifted._weights[0], w, rtol=1e-14)

    def test_all_outside_support(self):
        spec = GibbsSpec(grid=make_grid(2), seed=1)
        ens = sample_gaussian(spec, 10)
        dead = dataclasses.replace(ens, in_support=np.zeros(10, dtype=bool))
        est = gibbs_expectation(dead, np.ones(10))
        assert est.degenerate
        assert math.isnan(est.mean)

    @pytest.mark.parametrize("shape", ["short", "column", "scalar"])
    def test_values_of_other_shapes_rejected(self, shape):
        ens = sample_gaussian(GibbsSpec(grid=make_grid(2), seed=3), 20)
        values = {"short": np.ones(19), "column": np.ones((20, 1)), "scalar": 1.0}[shape]
        with pytest.raises(ValueError, match=r"values must have shape \(20,\)"):
            gibbs_expectation(ens, values)

    def test_one_state_chain_has_nan_error_without_warnings(self):
        spec = GibbsSpec(grid=make_grid(4), seed=37)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = gibbs_expectation(pcn_chain(spec, 1, beta=0.3), np.array([2.5]))
            assert (est.mean, est.ess, est.degenerate) == (2.5, 1.0, True)
            assert math.isnan(est.std_error)
            # two states are two batches of one
            two = gibbs_expectation(pcn_chain(spec, 2, beta=0.3), np.array([1.0, 4.0]))
        assert two.std_error == float(np.std([1.0, 4.0], ddof=1) / math.sqrt(2))

    def test_mcmc_batch_means_error(self):
        spec = GibbsSpec(grid=make_grid(4), seed=37)
        chain = pcn_chain(spec, 5000, beta=0.3)
        values = l2_squared(chain)
        est = gibbs_expectation(chain, values)
        assert est.std_error > 0.0
        assert est.ess == 5000.0
        # correlated chain: batch-means SE exceeds the naive iid estimate
        naive = values.std(ddof=1) / math.sqrt(len(chain))
        assert est.std_error > naive


class TestPersistence:
    def test_round_trip(self, tmp_path):
        g = make_grid(3)
        spec = GibbsSpec(grid=g, cutoff_R=default_cutoff(g), seed=41)
        ens = sample_gaussian(spec, 7)
        save_ensemble(ens, tmp_path / "ens")
        back = load_ensemble(tmp_path / "ens")
        assert back.spec == ens.spec
        assert back.sampler == ens.sampler
        assert back.master_seed == ens.master_seed
        for a, b in ((back.coeffs, ens.coeffs), (back.log_weights, ens.log_weights),
                     (back.in_support, ens.in_support)):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    def test_chain_round_trip_keeps_acceptance(self, tmp_path):
        spec = GibbsSpec(grid=make_grid(2), seed=43)
        chain = pcn_chain(spec, 25, beta=0.5)
        save_ensemble(chain, tmp_path / "chain")
        back = load_ensemble(tmp_path / "chain")
        assert back.acceptance_rate == chain.acceptance_rate
        assert np.array_equal(back.coeffs, chain.coeffs)

    def test_single_file_with_identical_bytes_across_saves(self, tmp_path):
        ens = sample_gaussian(GibbsSpec(grid=make_grid(4), seed=47), 30)
        digests = []
        for name in ("a", "b"):
            save_ensemble(ens, tmp_path / name)
            files = list((tmp_path / name).iterdir())
            assert [f.name for f in files] == ["ensemble.npz"]
            digests.append(hashlib.sha256(files[0].read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_rejects_v1_manifest_directory(self, tmp_path):
        (tmp_path / "sample_000000.csv").write_text(
            "# ostlab-field-v1 length=6.283185307179586 modes=2 points=8\n"
            "k,re,im\n"
            "1,0.125,-0.25\n"
            "2,0.0625,0.5\n"
        )
        manifest = {"format": "ostlab-ensemble-v1", "count": 1, "files": ["sample_000000.csv"]}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=re.escape(str(tmp_path))):
            load_ensemble(tmp_path)

    def test_rejects_foreign_directory(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            load_ensemble(tmp_path)

    def test_rejects_directory_without_ensemble_file(self, tmp_path):
        with pytest.raises(ValueError, match=re.escape(str(tmp_path))):
            load_ensemble(tmp_path)

    def test_rejects_points_other_than_four_times_modes(self, tmp_path):
        # the header keeps "points" for an unchanged file format; only the 4m grid reads back
        save_ensemble(sample_gaussian(GibbsSpec(grid=make_grid(4), seed=53), 5), tmp_path)
        with np.load(tmp_path / "ensemble.npz") as data:
            arrays = {name: data[name] for name in data.files}
        header = json.loads(str(arrays["header"]))
        assert header["spec"]["points"] == 16
        header["spec"]["points"] = 17
        arrays["header"] = np.array(json.dumps(header, sort_keys=True))
        np.savez(tmp_path / "ensemble.npz", **arrays)
        with pytest.raises(ValueError, match=re.escape(f"{tmp_path}: points = 17 is not 4 * modes = 16")):
            load_ensemble(tmp_path)

    def test_rejects_foreign_npz(self, tmp_path):
        np.savez(tmp_path / "ensemble.npz", header=np.array('{"format": "something-else"}'))
        with pytest.raises(ValueError, match=re.escape(str(tmp_path))):
            load_ensemble(tmp_path)


@pytest.mark.parametrize("field, value", [("coeffs", np.zeros((3, 3), complex)), ("log_weights", np.zeros(2)),
                                          ("in_support", np.ones(4, bool)), ("log_weights", np.array([0, np.inf, 0]))])
def test_ensemble_validates_before_freezing(field, value):
    # a rejected ensemble leaves the caller's arrays writeable
    arrays = {"coeffs": np.zeros((3, 2), complex), "log_weights": np.zeros(3), "in_support": np.ones(3, bool)}
    arrays[field] = value
    spec = GibbsSpec(grid=make_grid(2))
    with pytest.raises(ValueError, match="shapes|finite"):
        Ensemble(spec=spec, sampler="iid-importance", master_seed=0, **arrays)
    assert all(a.flags.writeable for a in arrays.values())
