"""Operating-point battery: every advertised guarantee at its stated regime.

Each test exercises one documented numerical property at the parameters
under which it is promised to hold and prints exactly one verdict line
(visible even under capture), so a full run reads as a checklist.
"""

import math

import numpy as np
import pytest

from ostlab.bourgain import (
    bilinear_sweep,
    kernel_integral_scan,
    kernel_sum_scan,
    localization_demo_field,
    resonance_scan,
    time_localization_scan,
)
from ostlab.flow import (
    _PICARD_ENDPOINT_TOL,
    FlowParams,
    convergence_in_m,
    evolve,
    flow_map,
    liouville_divergence,
    picard_solve,
)
from ostlab.gibbs import (
    GibbsSpec,
    cylinder_probability,
    default_cutoff,
    gibbs_expectation,
    pcn_chain,
    sample_gaussian,
    trace_check,
)
from ostlab.invariance import (
    ball_indicator,
    cubic_integral,
    hamiltonian_observable,
    mode_power,
    run_invariance,
)
from ostlab.spectral import _coord_eigenvalues, make_grid, random_smooth_field


def make_rng(seed):
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))


def coords_matrix(coeffs, grid):
    """Interleaved sine/cosine coordinates, shape (n, 2m)."""
    root = math.sqrt(2.0 * grid.length)
    out = np.empty((coeffs.shape[0], 2 * grid.modes))
    out[:, 0::2] = -root * coeffs.imag
    out[:, 1::2] = root * coeffs.real
    return out


def report(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}: {detail}")


@pytest.fixture(scope="module")
def conservation_records():
    """Twenty unit-norm trajectories at m=32, dt=1e-3, T=10."""
    grid = make_grid(32)
    rng = make_rng(1001)
    p = FlowParams(dt=1e-3, T=10.0, record_every=100)
    return [evolve(random_smooth_field(grid, rng, k0=2.0, norm=1.0), p) for _ in range(20)]


class TestConservation:
    def test_01_l2_conservation(self, capsys, conservation_records):
        drift = max(
            float(np.max(np.abs(rec.l2 - rec.l2[0]))) / rec.l2[0]
            for rec in conservation_records
        )
        ok = drift <= 1e-8
        report(capsys, 1, "L2 conservation", ok, f"max relative drift {drift:.3e} <= 1e-08")
        assert ok

    def test_02_hamiltonian_conservation(self, capsys, conservation_records):
        drift = max(
            float(np.max(np.abs(rec.hamiltonian - rec.hamiltonian[0])))
            / abs(rec.hamiltonian[0])
            for rec in conservation_records
        )
        ok = drift <= 1e-6
        report(
            capsys, 2, "Hamiltonian conservation", ok, f"max relative drift {drift:.3e} <= 1e-06"
        )
        assert ok


class TestLiouville:
    def test_03_divergence_free_flux(self, capsys):
        grid = make_grid(4)
        rng = make_rng(1003)
        worst_plain = worst_weighted = 0.0
        for _ in range(20):
            f = random_smooth_field(grid, rng, k0=2.0, norm=1.0)
            check = liouville_divergence(f, 1e-4)
            worst_plain = max(worst_plain, check.relative)
            worst_weighted = max(worst_weighted, check.weighted_relative)
        ok = worst_plain <= 1e-5 and worst_weighted <= 1e-5
        report(
            capsys, 3, "Liouville condition", ok,
            f"max relative divergence {worst_plain:.3e}, weighted {worst_weighted:.3e} <= 1e-05",
        )
        assert ok


class TestGibbsInvariance:
    def test_04_observables_invariant(self, capsys):
        grid = make_grid(8)
        spec = GibbsSpec(grid=grid, cutoff_R=default_cutoff(grid), seed=1004)
        obs = [mode_power(k) for k in (1, 2, 3, 4)]
        obs += [cubic_integral(), hamiltonian_observable(), ball_indicator(default_cutoff(grid) / 2.0)]
        p = FlowParams(dt=1e-3)
        count = 20_000

        control, *pushed = run_invariance(spec, p, (0.0, 0.5, 1.0), obs, count, threads=0)
        control_ok = all(row.z == 0.0 for row in control.rows)
        worst = max(abs(row.z) for rep in pushed for row in rep.rows)
        ok = control_ok and all(rep.all_passed for rep in pushed)
        report(
            capsys, 4, "Gibbs invariance", ok,
            f"t=0 control z == 0: {control_ok}; max |z| {worst:.2f} <= 3 at t in {{0.5, 1.0}}",
        )
        assert ok

    def test_05_sampler_correctness(self, capsys):
        # (a) per-coordinate variance against the 1/v_j ladder
        grid = make_grid(8)
        spec = GibbsSpec(grid=grid, seed=1005)
        ens = sample_gaussian(spec, 100_000)
        var = coords_matrix(ens.coeffs, grid).var(axis=0)
        ladder = var * _coord_eigenvalues(grid)
        ladder_ok = bool(np.all((ladder >= 0.95) & (ladder <= 1.05)))

        # (b) cylinder probability: Monte Carlo vs Gaussian quadrature
        box = [(-0.5, 0.8), (-0.3, 0.3), (0.1, math.inf)]
        exact = cylinder_probability(spec, box)
        a = coords_matrix(ens.coeffs, grid)
        inside = np.ones(len(ens), dtype=bool)
        for j, (lo, hi) in enumerate(box):
            inside &= (a[:, j] >= lo) & (a[:, j] <= hi)
        p_hat = float(np.mean(inside))
        se = math.sqrt(p_hat * (1.0 - p_hat) / len(ens))
        cyl_ok = abs(p_hat - exact) <= 3.0 * se

        # (c) pCN with g == 0 preserves the Gaussian second moments
        grid4 = make_grid(4)
        chain = pcn_chain(GibbsSpec(grid=grid4, seed=1055), 20_000, 0.5, burn_in=500, g_fn=lambda u: 0.0)

        v4 = _coord_eigenvalues(grid4)
        pcn_ok = True
        worst_pcn = 0.0
        for j in range(2 * grid4.modes):
            est = gibbs_expectation(chain, coords_matrix(chain.coeffs, grid4)[:, j] ** 2)
            z = abs(est.mean - 1.0 / v4[j]) / est.std_error
            worst_pcn = max(worst_pcn, z)
            pcn_ok = pcn_ok and z <= 3.0

        ok = ladder_ok and cyl_ok and pcn_ok
        report(
            capsys, 5, "sampler correctness", ok,
            f"variance*v in [{ladder.min():.4f}, {ladder.max():.4f}] within [0.95, 1.05]; "
            f"cylinder |MC - quadrature| = {abs(p_hat - exact):.2e} <= 3*SE = {3 * se:.2e}; "
            f"pCN second-moment max |z| {worst_pcn:.2f} <= 3",
        )
        assert ok

    def test_06_trace_class_partial_sums(self, capsys):
        grid = make_grid(4)
        t4 = trace_check(grid, 10**4)
        t5 = trace_check(grid, 10**5)
        gap = abs(t5 - t4) / t5
        ok = gap <= 1e-4
        report(
            capsys, 6, "trace class", ok,
            f"relative gap between k_max 1e4 and 1e5 partial sums {gap:.3e} <= 1e-04",
        )
        assert ok


class TestFrequencyAnalysis:
    def test_07_resonance_lower_bound(self, capsys):
        scan = resonance_scan(256)
        ok = scan.minimum.ratio >= 1.0
        report(
            capsys, 7, "resonance bound", ok,
            f"exhaustive |n| >= 2 min ratio {scan.minimum.ratio:.6f} >= 1 "
            f"at (n, n1) = ({scan.minimum.n}, {scan.minimum.n1})",
        )
        assert ok

    def test_08_kernel_bounds_single_constant(self, capsys):
        integrals = kernel_integral_scan(
            [0.0, 1.0, -1.0, 10.0, -10.0, 1e3, -1e3, 1e6, -1e6], rho=0.5, eps=0.5
        )
        sums = kernel_sum_scan([0.0, 5.0, -25.0, 300.0], [1, 2, -3, 7], rho=0.7, k_range=100_000)
        constant = max(integrals.max_ratio, sums.max_value)
        ok = constant <= 10.0
        report(
            capsys, 8, "kernel bounds", ok,
            f"single constant {constant:.3f} <= 10 "
            f"(integral ratios <= {integrals.max_ratio:.3f}, sums <= {sums.max_value:.3f})",
        )
        assert ok

    def test_09_bilinear_growth_pattern(self, capsys):
        result = bilinear_sweep([0.0, -0.5, -0.6], [16, 32, 64], trials=4, seed=0)
        growth_0 = result.max_ratio(0.0, 64) / result.max_ratio(0.0, 16)
        growth_half = result.max_ratio(-0.5, 64) / result.max_ratio(-0.5, 16)
        seq = [result.max_ratio(-0.6, n) for n in (16, 32, 64)]
        increasing = seq[0] < seq[1] < seq[2]
        ok = growth_0 < 2.0 and growth_half < 2.0 and increasing
        report(
            capsys, 9, "bilinear estimate behavior", ok,
            f"growth 16->64: {growth_0:.3f}x at s=0, {growth_half:.3f}x at s=-1/2 (< 2); "
            f"s=-0.6 ratios {seq[0]:.4f} < {seq[1]:.4f} < {seq[2]:.4f}",
        )
        assert ok

    def test_10_time_localization_slope(self, capsys):
        scan = time_localization_scan(localization_demo_field(), [0.25])
        slope = scan.slopes[0]
        ok = abs(slope - 0.25) <= 0.1
        report(
            capsys, 10, "time localization", ok,
            f"log-log slope at b=1/4 is {slope:.4f}, within 0.1 of 0.25",
        )
        assert ok


class TestWellPosedness:
    def test_11_picard_contraction(self, capsys):
        grid = make_grid(16)
        rng = make_rng(1011)
        phi = random_smooth_field(grid, rng, k0=2.0, norm=0.1)
        res = picard_solve(phi, 0.1, iters=8)
        d = res.distances
        factors = [
            d[i + 1] / d[i] for i in range(1, len(d) - 1) if d[i] > 1e-13
        ]
        contracting = (not res.diverged) and all(f <= 0.5 for f in factors)
        end = flow_map(phi, 0.1, FlowParams(dt=1e-4))
        err = math.sqrt(2.0 * grid.length * float(np.sum(np.abs(res.final.coeff - end.coeff) ** 2)))
        ok = contracting and err <= _PICARD_ENDPOINT_TOL
        report(
            capsys, 11, "contraction", ok,
            f"worst per-step factor {max(factors):.4f} <= 0.5; "
            f"limit vs time-stepper endpoint {err:.3e} <= {_PICARD_ENDPOINT_TOL:g}",
        )
        assert ok

    def test_12_galerkin_convergence(self, capsys):
        grid = make_grid(64)
        rng = make_rng(1012)
        f0 = random_smooth_field(grid, rng, k0=4.0, norm=1.0)
        study = convergence_in_m(f0, 1.0, [8, 16, 32])
        e = study.errors
        ok = e[0] > e[1] > e[2]
        report(
            capsys, 12, "Galerkin convergence", ok,
            f"sup-in-time L2 errors {e[0]:.3e} > {e[1]:.3e} > {e[2]:.3e} "
            f"against reference m = {study.reference_modes}",
        )
        assert ok
