"""Tests for the space-time lattice probes: resonance, norms, kernel
bounds, bilinear sweeps, and time localization."""

import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import ostlab.bourgain as bourgain
from ostlab.bourgain import (
    LatticeField,
    LatticeSpec,
    ResonanceRecord,
    _bilinear_ratios,
    _resonance_grid,
    bilinear_sweep,
    concentrated_pair,
    hann_ft,
    kernel_integral_scan,
    kernel_sum_scan,
    localization_demo_field,
    localization_ratio,
    localize,
    resonance,
    resonance_scan,
    sweep_spec,
    time_localization_scan,
    xsb_norm,
)
from ostlab.spectral import dispersion


def make_rng(*key):
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


def exact_symbol(n):
    return n**3 + Fraction(1, n)


def delta_field(spec, n, tau, value=1.0):
    """One nonzero cell, at frequency n and the tau column nearest tau."""
    return LatticeField(spec, windows=[(spec.index(n), spec.nearest_column(tau), [value])])


def dense_field(spec, values):
    """The field of a dense spec.shape array, as full-row windows."""
    return LatticeField(spec, windows=[(i, 0, row) for i, row in enumerate(values)])


def random_values(spec, rng):
    return rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)


def bilinear_ratio(f, g, s):
    return _bilinear_ratios(f, g, [s])[0]


# ---------------------------------------------------------------------------
# resonance function


class TestResonance:
    def test_frozen_values(self):
        # m(1) = 2, m(2) = 17/2, m(3) = 82/3
        assert resonance(2, 1) == Fraction(9, 2)
        assert float(resonance(2, 1)) == 4.5
        assert resonance(3, 1) == Fraction(101, 6)

    def test_defining_identity_exact(self):
        # R(n, n1) = m(n) - m(n1) - m(n - n1) in exact rational arithmetic
        rng = make_rng(101, 0)
        checked = 0
        while checked < 10_000:
            n, n1 = (int(v) for v in rng.integers(-300, 301, size=2))
            if n == 0 or n1 == 0 or n == n1:
                continue
            lhs = resonance(n, n1)
            rhs = exact_symbol(n) - exact_symbol(n1) - exact_symbol(n - n1)
            assert lhs == rhs
            checked += 1

    def test_grid_follows_the_flow_symbol(self):
        # R against m = spectral.dispersion itself, not a telescoped form of
        # it, over the whole n_max 64 grid: a wrong symbol fails here
        n_max = 64
        n_range = np.concatenate([np.arange(-n_max, 0), np.arange(1, n_max + 1)])
        _, n, n1, _, R, valid = _resonance_grid(n_range, *block_inputs(n_range, n_max))
        n, n1 = (a[valid] for a in np.broadcast_arrays(n, n1))
        expected = dispersion(n) - dispersion(n1) - dispersion(n - n1)
        assert np.max(np.abs(R[valid] - expected) / np.abs(expected)) <= 1e-12
        for a, b in [(2, 1), (-2, -1), (64, -64), (-7, 3), (1, 64)]:
            assert float(resonance(a, b)) == pytest.approx(dispersion(a) - dispersion(b) - dispersion(a - b), rel=1e-12)

    def test_ratio_closed_form(self):
        # R / (n n1 n2) = 3 - (n1^2 + n1 n2 + n2^2) / (n n1 n2)^2, n2 = n - n1
        for n in [*range(-12, 0), *range(1, 13)]:
            for n1 in [*range(-12, 0), *range(1, 13)]:
                if n1 == n:
                    continue
                n2 = n - n1
                p = n * n1 * n2
                assert resonance(n, n1) / p == 3 - Fraction(n1 * n1 + n1 * n2 + n2 * n2, p * p)

    def test_symmetry_in_factors(self):
        # n1 and n - n1 enter symmetrically; negating everything flips the sign
        assert resonance(5, 2) == resonance(5, 3)
        assert resonance(-5, -2) == -resonance(5, 2)

    def test_rejects_zero_factors(self):
        with pytest.raises(ValueError):
            resonance(0, 1)
        with pytest.raises(ValueError):
            resonance(2, 0)
        with pytest.raises(ValueError):
            resonance(2, 2)
        with pytest.raises(ValueError):
            resonance(2.5, 1)


def block_inputs(n_range, n_max):
    """The n1 columns and the buffers of one row block n_range of an n_max scan."""
    return bourgain._n1_rows(n_max), bourgain._grid_buffers(len(n_range), n_max)


@pytest.fixture
def ratio_block_calls(monkeypatch):
    """The row blocks passed to bourgain._ratio_block, one entry per call."""
    calls = []
    ratio_block = bourgain._ratio_block

    def counted(n_block, *args):
        calls.append(n_block)
        return ratio_block(n_block, *args)

    monkeypatch.setattr(bourgain, "_ratio_block", counted)
    return calls


class TestResonanceScan:
    @pytest.mark.parametrize("n_max", [2, 8, 64])
    def test_minimum_is_nine_quarters(self, n_max):
        # the correction (n1^2 + n1 n2 + n2^2) / (n n1 n2)^2 peaks at 3/4 when
        # |n1| = |n2| = 1; (2, 1) ties with (-2, -1), which comes first
        scan = resonance_scan(n_max)
        assert (scan.minimum.n, scan.minimum.n1) == (-2, -1)
        assert scan.minimum.ratio == 2.25
        assert scan.minimum.R == -4.5
        # the record's exact R must reproduce the ratio
        rec = scan.minimum
        denom = abs(rec.n * rec.n1 * (rec.n - rec.n1))
        assert abs(rec.ratio - abs(rec.R) / denom) < 1e-12

    def test_minimum_non_increasing_in_box_size(self):
        small = resonance_scan(8)
        large = resonance_scan(64)
        assert large.minimum.ratio <= small.minimum.ratio
        assert small.minimum.ratio >= 1.0

    def test_unit_frequency_slice_reported_separately(self):
        scan = resonance_scan(32)
        assert abs(scan.slice_minimum.n) == 1
        assert scan.slice_minimum.ratio > 0.0

    def test_histogram_counts_all_admissible_pairs(self):
        scan = resonance_scan(64)
        # |n| in 2..64 (126 values) x nonzero |n1| <= 64 minus n1 == n
        assert scan.hist_counts.sum() == 126 * 127
        assert scan.hist_edges[0] >= 1.0

    def test_rejects_tiny_box(self):
        with pytest.raises(ValueError):
            resonance_scan(1)

    def test_rejects_box_above_cap(self):
        with pytest.raises(ValueError, match="n_max must be an integer in"):
            resonance_scan(bourgain._RESONANCE_N_MAX + 1)

    def test_row_minus_n_is_row_n_mirrored_bit_for_bit(self):
        # the scan computes only the rows n <= -2 and counts each twice
        n_max = 64
        n_range = np.concatenate([np.arange(-n_max, 0), np.arange(1, n_max + 1)])
        n1_range, ratio, _ = bourgain._ratio_block(n_range, *block_inputs(n_range, n_max))
        assert n1_range.tolist() == n_range.tolist()
        for i, n in enumerate(n_range):
            mirror = len(n_range) - 1 - i
            assert n_range[mirror] == -n
            assert ratio[mirror, ::-1].tobytes() == ratio[i].tobytes()

    def test_shared_grid_matches_exact_resonance(self):
        # the (n, n1) grid behind resonance_scan
        n_range = np.array([-5, -2, 1, 3, 6])
        n1_range, n, n1, n2, R, valid = _resonance_grid(n_range, *block_inputs(n_range, 6))
        assert R.shape == valid.shape == n2.shape == (5, 12)
        for i, a in enumerate(n_range):
            for j, b in enumerate(n1_range):
                assert n[i, 0] == a and n1[0, j] == b
                assert valid[i, j] == (a != b)
                if a != b:
                    assert n2[i, j] == a - b
                    assert R[i, j] == pytest.approx(float(resonance(int(a), int(b))), rel=1e-14)

    @pytest.mark.parametrize("n_max, cells", [(300, None), (40, 400), (257, None)])
    def test_streamed_scan_matches_full_grid(self, monkeypatch, n_max, cells):
        # the scan computes the rows -n_max..-2 only.  300: 54-row blocks, the
        # last one 29 rows; 40 with 400 cells: 5-row blocks, the last one 4
        # rows; 257: 63-row blocks, the last one 4 rows, and only the last two
        # of the five fall below the histogram's last edge and are re-scanned.
        # (n, n1) and (-n, -n1) tie exactly, so the minimum also checks
        # that ties go to the first pair in row-major order of the full grid.
        if cells is not None:
            monkeypatch.setattr(bourgain, "_BLOCK_CELLS", cells)
        blocks = bourgain._admissible_blocks(n_max)
        assert np.concatenate(blocks).tolist() == list(range(-n_max, -1))
        assert 0 < len(blocks[-1]) < len(blocks[0])
        expected = _full_grid_scan(n_max)
        scan = resonance_scan(n_max)
        assert scan.minimum == expected["minimum"]
        assert scan.minimum.n < 0
        assert scan.slice_minimum == expected["slice_minimum"]
        assert scan.hist_counts.dtype == expected["counts"].dtype
        assert scan.hist_counts.tobytes() == expected["counts"].tobytes()
        assert scan.hist_edges.tobytes() == expected["edges"].tobytes()

    def test_skipped_and_rescanned_blocks_match_full_grid(self, monkeypatch, ratio_block_calls):
        # blocks of a few rows: in each scan the blocks far from n = -2 lie
        # wholly in the last bin and are skipped, the ones near it are re-scanned
        mixed = 0
        for n_max in range(2, 49):
            monkeypatch.setattr(bourgain, "_BLOCK_CELLS", 6 * n_max)
            ratio_block_calls.clear()
            scan = resonance_scan(n_max)
            blocks = len(bourgain._admissible_blocks(n_max))
            rescanned = len(ratio_block_calls) - blocks - 1
            assert 1 <= rescanned <= blocks
            mixed += rescanned < blocks
            expected = _full_grid_scan(n_max)
            assert scan.minimum == expected["minimum"]
            assert scan.slice_minimum == expected["slice_minimum"]
            assert scan.hist_counts.tobytes() == expected["counts"].tobytes()
            assert scan.hist_edges.tobytes() == expected["edges"].tobytes()
        assert mixed >= 30

    def test_blocks_in_the_last_bin_are_computed_once(self, ratio_block_calls):
        # n_max 2048: 256 blocks, of which only the one holding n = -2 is
        # re-scanned for bin counts, and the |n| = 1 slice
        resonance_scan(2048)
        assert len(bourgain._admissible_blocks(2048)) == 256
        assert len(ratio_block_calls) == 258

    def test_n1_columns_are_built_once_per_scan(self, monkeypatch, ratio_block_calls):
        # 258 row blocks at n_max 2048, the |n| = 1 slice among them, share one set of columns
        built = []
        n1_rows = bourgain._n1_rows
        monkeypatch.setattr(bourgain, "_n1_rows", lambda n_max: built.append(n_max) or n1_rows(n_max))
        resonance_scan(2048)
        assert built == [2048] and len(ratio_block_calls) == 258

    def test_memory_below_one_full_grid(self):
        # one (2 n_max)^2 float64 grid at n_max = 1024 is 33.5 MB
        tracemalloc.start()
        try:
            resonance_scan(1024)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (2 * 1024) ** 2 * 8


def _full_grid_scan(n_max):
    """resonance_scan computed on whole (n, n1) grids, as one array each."""

    def minimum(n_range):
        n1_range, n, n1, n2, R, valid = _resonance_grid(n_range, *block_inputs(n_range, n_max))
        ratio = np.abs(R) / np.abs(n * n1 * n2)
        ratio[~valid] = np.inf
        i, j = np.unravel_index(np.argmin(ratio), ratio.shape)
        a, b = int(n_range[i]), int(n1_range[j])
        return ResonanceRecord(a, b, float(resonance(a, b)), float(ratio[i, j])), ratio

    main, ratio = minimum(np.concatenate([np.arange(-n_max, -1), np.arange(2, n_max + 1)]))
    counts, edges = np.histogram(ratio[np.isfinite(ratio)], bins=40)
    unit, _ = minimum(np.array([-1, 1]))
    return {"minimum": main, "slice_minimum": unit, "counts": counts, "edges": edges}


# ---------------------------------------------------------------------------
# lattice containers


class TestLatticeSpec:
    def test_grid_layout(self):
        spec = LatticeSpec(n_max=4, tau_max=64.0, d_tau=0.5)
        assert len(spec.tau) == 2 * 128 + 1
        assert spec.tau[0] == -64.0 and spec.tau[-1] == 64.0
        assert np.allclose(np.diff(spec.tau), 0.5)
        assert list(spec.n_values) == [-4, -3, -2, -1, 1, 2, 3, 4]
        for n in spec.n_values:
            assert spec.n_values[spec.index(int(n))] == n

    def test_index_rejects_bad_frequencies(self):
        spec = LatticeSpec(n_max=4, tau_max=8.0, d_tau=1.0)
        for bad in (0, 5, -5, 2.5):
            with pytest.raises(ValueError):
                spec.index(bad)

    def test_validation(self):
        with pytest.raises(ValueError):
            LatticeSpec(n_max=0, tau_max=8.0, d_tau=1.0)
        with pytest.raises(ValueError):
            LatticeSpec(n_max=4, tau_max=8.0, d_tau=0.0)
        with pytest.raises(ValueError):
            LatticeSpec(n_max=4, tau_max=0.5, d_tau=1.0)
        # float64 resolves tau columns only up to a tau index of 2**52
        assert LatticeSpec(n_max=4, tau_max=2.0**52, d_tau=1.0).k_tau == 2**52
        with pytest.raises(ValueError, match="2\\*\\*52"):
            LatticeSpec(n_max=4, tau_max=2.0**53, d_tau=1.0)

    @pytest.mark.parametrize("d_tau", [1.0, 16.0, 0.37])
    @pytest.mark.parametrize("n_max", [4, 16, 64, 100])
    def test_nearest_column_matches_dense_argmin(self, n_max, d_tau):
        spec = sweep_spec(n_max, d_tau=d_tau)
        tau, k = spec.tau, spec.k_tau
        # the curve cells, as the field constructors use them
        targets = [-dispersion(int(n)) for n in (*spec.n_values[:: max(1, n_max // 8)], n_max)]
        targets += [(j + 0.5) * d_tau for j in (-k, -7, -1, 0, 3, k - 1)]  # midpoints: ties
        targets += [c * spec.tau_max for c in (-3.0, -1.0, -0.5, 0.0, 1.0, 3.0)]
        targets += [t + e for t in (tau[0], tau[-1]) for e in (-2.5 * d_tau, -1e-9, 1e-9, 2.5 * d_tau)]
        targets += list(make_rng(13, n_max).uniform(-1.1 * spec.tau_max, 1.1 * spec.tau_max, 20))
        for t in targets:
            assert spec.nearest_column(t) == int(np.argmin(np.abs(tau - t))), t

    def test_nearest_column_tie_takes_lower_column(self):
        spec = LatticeSpec(n_max=2, tau_max=8.0, d_tau=1.0)
        assert spec.nearest_column(0.5) == spec.k_tau
        assert spec.nearest_column(-0.5) == spec.k_tau - 1


class TestLatticeField:
    def test_shape_and_finiteness_enforced(self):
        spec = LatticeSpec(n_max=2, tau_max=4.0, d_tau=1.0)
        for bad in ([(0, 0, np.zeros(10))], [(0, 0, np.zeros((1, 9)))], [(0, 2, [1.0, np.nan])], [(1, 0, [np.inf])]):
            with pytest.raises(ValueError):
                LatticeField(spec, windows=bad)
        with pytest.raises(TypeError):  # windows only: no dense array
            LatticeField(spec, np.zeros((4, 9)))
        assert LatticeField(spec).windows == ()

    def test_windows_trimmed_to_nonzero_span(self):
        spec = LatticeSpec(n_max=2, tau_max=4.0, d_tau=1.0)
        row = np.array([0.0, 0.0, 0.0, 1.0, 2j, 0.0, 0.0, 0.0, 0.0])
        expected = [(1, 3, [1.0, 2j]), (3, 8, [3.0])]
        for windows in ([(1, 0, row), (3, 8, [3.0])], [(3, 6, [0.0, 0.0, 3.0]), (1, 2, row[2:6]), (0, 0, np.zeros(9))]):
            field = LatticeField(spec, windows=windows)
            assert [(r, col, list(win)) for r, col, win in field.windows] == expected
        with pytest.raises(ValueError):
            field.windows[0][2][0] = 0.0
        for bad in ([(4, 0, [1.0])], [(0, 8, [1.0, 1.0])], [(0, -1, [1.0])], [(0, 0, [1.0]), (0, 4, [1.0])]):
            with pytest.raises(ValueError):
                LatticeField(spec, windows=bad)


# ---------------------------------------------------------------------------
# norms


class TestNorms:
    def test_delta_oracle_on_curve(self):
        # the curve cell of n = 1 is tau = -m(1) = -2, so the modulation weight is <0> = 1
        spec = LatticeSpec(n_max=4, tau_max=64.0, d_tau=0.5)
        d = delta_field(spec, 1, -2.0)
        for s in (0.0, -0.5, 1.0, 2.0):
            expected = 2.0 ** (s / 2.0) * math.sqrt(0.5)
            assert abs(xsb_norm(d, s, 0.5) - expected) < 1e-14

    def test_delta_oracle_off_curve(self):
        # delta at n = 2, tau = 0: modulation weight <m(2)> = <8.5>
        spec = LatticeSpec(n_max=4, tau_max=64.0, d_tau=0.5)
        d = delta_field(spec, 2, 0.0)
        expected = 5.0**0.5 * (1.0 + 8.5**2) ** 0.25 * math.sqrt(0.5)
        assert abs(xsb_norm(d, 1.0, 0.5) - expected) < 1e-12
        # and on-curve placement removes the modulation factor
        on_curve = delta_field(spec, 2, -8.5)
        assert abs(xsb_norm(on_curve, 1.0, 0.5) - 5.0**0.5 * math.sqrt(0.5)) < 1e-12

    def test_absolute_homogeneity_and_rotation(self):
        spec = LatticeSpec(n_max=3, tau_max=6.0, d_tau=0.75)
        values = random_values(spec, make_rng(5, 0))
        base = xsb_norm(dense_field(spec, values), -0.5, 0.5)
        scaled = dense_field(spec, 3.5 * values)
        rotated = dense_field(spec, np.exp(0.7j) * values)
        assert abs(xsb_norm(scaled, -0.5, 0.5) - 3.5 * base) < 1e-12 * base
        assert abs(xsb_norm(rotated, -0.5, 0.5) - base) < 1e-12 * base

    def test_triangle_inequality(self):
        spec = LatticeSpec(n_max=3, tau_max=6.0, d_tau=0.75)
        for trial in range(5):
            fv, gv = random_values(spec, make_rng(6, trial)), random_values(spec, make_rng(7, trial))
            f, g, h = dense_field(spec, fv), dense_field(spec, gv), dense_field(spec, fv + gv)
            for s, b in ((0.0, 0.5), (-0.5, 0.25), (1.0, 0.5)):
                assert xsb_norm(h, s, b) <= xsb_norm(f, s, b) + xsb_norm(g, s, b) + 1e-12


# ---------------------------------------------------------------------------
# bilinear ratios


class TestBilinearRatio:
    def test_delta_pair_closed_form(self):
        # f = g = delta at (1, 0): the product sits at n = 2, tau = 0 with
        # amplitude d_tau, so every factor is explicit; m(1) = 2 and m(2) = 8.5
        # give f the modulation weight <2>^{1/2} and the product <8.5>^{-1/2}
        spec = LatticeSpec(n_max=4, tau_max=64.0, d_tau=0.5)
        f = delta_field(spec, 1, 0.0)
        for s in (0.0, -0.5, 1.0):
            expected = (
                2.0
                * 5.0 ** (s / 2.0)
                * (1.0 + 8.5**2) ** -0.25
                / (2.0**s * (1.0 + 2.0**2) ** 0.5)
                * math.sqrt(spec.d_tau)
            )
            got = bilinear_ratio(f, f, s)
            assert abs(got - expected) < 1e-12 * expected

    def test_matches_direct_convolution(self):
        spec = LatticeSpec(n_max=3, tau_max=4.0, d_tau=0.5)
        fv, gv = random_values(spec, make_rng(11, 0)), random_values(spec, make_rng(11, 1))
        f, g = dense_field(spec, fv), dense_field(spec, gv)
        nv, tau, dt = spec.n_values, spec.tau, spec.d_tau
        nt = len(tau)
        conv = {}
        for i, n1 in enumerate(nv):
            for j, n2 in enumerate(nv):
                n_out = int(n1 + n2)
                if n_out == 0:
                    continue
                row = conv.setdefault(n_out, np.zeros(2 * nt - 1, dtype=complex))
                for k1 in range(nt):
                    row[k1 : k1 + nt] += fv[i, k1] * gv[j] * dt
        tau_out = 2 * tau[0] + np.arange(2 * nt - 1) * dt
        s_values = [0.0, -0.25, -0.5, -0.6]
        # one convolution serves every s
        ratios = _bilinear_ratios(f, g, s_values)
        for s, got in zip(s_values, ratios):
            total = 0.0
            for n_out, row in conv.items():
                w = (
                    abs(n_out)
                    * (1 + n_out**2) ** (s / 2)
                    * (1 + (tau_out + dispersion(n_out)) ** 2) ** -0.25
                )
                total += np.sum((w * np.abs(row)) ** 2)
            brute = math.sqrt(total * dt) / (xsb_norm(f, s, 0.5) * xsb_norm(g, s, 0.5))
            assert abs(got - brute) < 1e-10 * brute
            assert got == bilinear_ratio(f, g, s)

    def test_invariant_under_rotation_and_scaling(self):
        spec = LatticeSpec(n_max=3, tau_max=4.0, d_tau=0.5)
        fv, gv = random_values(spec, make_rng(12, 0)), random_values(spec, make_rng(12, 1))
        base = bilinear_ratio(dense_field(spec, fv), dense_field(spec, gv), -0.5)
        f2 = dense_field(spec, 2.0 * np.exp(1.3j) * fv)
        g2 = dense_field(spec, 0.25 * np.exp(-0.4j) * gv)
        assert abs(bilinear_ratio(f2, g2, -0.5) - base) < 1e-12 * base

    def test_zero_input_is_an_error(self):
        spec = LatticeSpec(n_max=2, tau_max=4.0, d_tau=1.0)
        zero = LatticeField(spec)
        f = delta_field(spec, 1, 0.0)
        with pytest.raises(ValueError):
            bilinear_ratio(zero, f, 0.0)
        with pytest.raises(ValueError):
            bilinear_ratio(f, zero, 0.0)

    def test_mismatched_lattices_rejected(self):
        f = delta_field(LatticeSpec(2, 4.0, 1.0), 1, 0.0)
        g = delta_field(LatticeSpec(2, 8.0, 1.0), 1, 0.0)
        with pytest.raises(ValueError):
            bilinear_ratio(f, g, 0.0)

    def test_random_fields_small_at_critical_regularity(self):
        # dense random data spreads mass far off the dispersion curve, so
        # ratios sit far below the curve-concentrated extremizers
        spec = LatticeSpec(n_max=32, tau_max=256.0, d_tau=1.0)
        for trial in range(10):
            rng = make_rng(7, trial)
            f = dense_field(spec, random_values(spec, rng))
            g = dense_field(spec, random_values(spec, rng))
            r = bilinear_ratio(f, g, -0.5)
            assert 0.0 < r < 0.01


class TestBilinearSweep:
    def test_concentrated_pair_support(self):
        spec = sweep_spec(16)
        f, g = concentrated_pair(spec, nu=2)
        for field, n_row in ((f, 16), (g, 2 - 16)):
            [(row, col, window)] = field.windows
            assert row == spec.index(n_row)
            assert len(window) == 16 and np.all(window != 0)
            center = spec.tau[col : col + 16].mean()
            assert abs(center + dispersion(n_row)) <= 16 * spec.d_tau

    def test_concentrated_pair_validation(self):
        spec = sweep_spec(16)
        with pytest.raises(ValueError):
            concentrated_pair(spec, nu=0)
        with pytest.raises(ValueError):
            concentrated_pair(spec, nu=16)
        with pytest.raises(ValueError):
            concentrated_pair(spec, profile="random")
        with pytest.raises(ValueError):
            concentrated_pair(spec, profile="spike")

    def test_growth_pattern_across_regularities(self):
        res = bilinear_sweep([0.0, -0.5, -0.6], [16, 32], trials=2, seed=0)
        # s = 0: bounded with room to spare (decreasing in n_max)
        assert res.max_ratio(0.0, 32) < res.max_ratio(0.0, 16)
        # s = -1/2: flat within a few permille
        r16, r32 = res.max_ratio(-0.5, 16), res.max_ratio(-0.5, 32)
        assert abs(r32 / r16 - 1.0) < 0.1
        # s = -0.6: strict growth — the estimate fails below -1/2
        assert res.max_ratio(-0.6, 32) > res.max_ratio(-0.6, 16) * 1.05
        for row in res.rows:
            assert row.candidate.startswith("curve-")
        with pytest.raises(KeyError):
            res.max_ratio(0.25, 16)

    def test_sweep_is_deterministic(self):
        a = bilinear_sweep([-0.5], [16], trials=2, seed=3)
        b = bilinear_sweep([-0.5], [16], trials=2, seed=3)
        assert a == b

    def test_memory_at_criterion_9_point(self):
        # window lattices: the dense (128, 32 809) fields at n_max 64 took 67 MB each
        tracemalloc.start()
        try:
            bilinear_sweep([0.0, -0.5, -0.6], [16, 32, 64], trials=4, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    def test_box_pairs_scale_to_4096_in_bounded_memory(self):
        n_list = [2**k for k in range(4, 13)]
        tracemalloc.start()
        try:
            res = bilinear_sweep([0.0, -0.5, -0.6], n_list, trials=4, seed=0)
            box = [_bilinear_ratios(*concentrated_pair(sweep_spec(n), 1), [0.0, -0.5, -0.6]) for n in n_list]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6  # a dense field at n_max 4096 would hold 8192 x 8.6e9 cells
        assert len(res.rows) == 27
        # nu = 1 box pairs: s = 0 halves per doubling, s = -1/2 stays flat, s = -0.6 grows 2^0.2
        expected = {
            16: (7.5827e-3, 0.098987, 0.16547),
            64: (1.8552e-3, 0.099071, 0.21951),
            256: (4.6130e-4, 0.099110, 0.29010),
            1024: (1.1516e-4, 0.099113, 0.38291),
            4096: (2.8779e-5, 0.099113, 0.50529),
        }
        for n, ratios in expected.items():
            got = box[n_list.index(n)]
            for want, r in zip(ratios, got):
                assert abs(r / want - 1.0) < 1e-4, (n, r, want)

    def test_one_convolution_per_candidate_pair(self, monkeypatch):
        calls = []
        convolve = bourgain._bilinear_convolution

        def counted(f, g):
            calls.append(1)
            return convolve(f, g)

        monkeypatch.setattr(bourgain, "_bilinear_convolution", counted)
        res = bilinear_sweep([0.0, -0.5, -0.6], [16], trials=4, seed=0)
        # nu in {1, 2}: one box pair and 4 random pairs each
        assert len(calls) == 10
        assert len(res.rows) == 3

    def test_zero_trials_sweeps_box_pairs_only(self, monkeypatch):
        calls = []
        ratios = bourgain._bilinear_ratios

        def counted(f, g, s_values):
            calls.append(1)
            return ratios(f, g, s_values)

        monkeypatch.setattr(bourgain, "_bilinear_ratios", counted)
        s_list = [0.0, -0.5, -0.6]
        res = bilinear_sweep(s_list, [8, 16], trials=0)
        # one box pair per nu and n_max, and no random one
        assert len(calls) == 4
        assert {row.candidate for row in res.rows} == {"curve-box nu=1", "curve-box nu=2"}
        for n in (8, 16):
            nu1, nu2 = (ratios(*concentrated_pair(sweep_spec(n), nu), s_list) for nu in (1, 2))
            for s, r1, r2 in zip(s_list, nu1, nu2):
                # a later candidate replaces the best only when strictly larger
                (row,) = [row for row in res.rows if (row.s, row.n_max) == (s, n)]
                assert (row.max_ratio, row.candidate) == (max(r1, r2), f"curve-box nu={1 if r1 >= r2 else 2}")


# ---------------------------------------------------------------------------
# kernel bounds


KERNEL_ALPHAS = [0.0, 1.0, -1.0, 10.0, -10.0, 1e3, -1e3, 1e6, -1e6]


class TestKernelIntegrals:
    # Reference values below are mpmath at 40 digits: the half-line beta <= 0 is
    # (1/s) 2F1(q, s; p+q; -a) with s = p+q-1 (p and q swapped for beta >= a), and each
    # half of [0, a] is (2+a)^(1-p-q) int x^-p (1-x)^-q dx over [1/(2+a), 1/2]
    # (exponents swapped for the other half), summed on doubling breakpoints.

    def test_form1_closed_form_at_every_alpha(self):
        res = kernel_integral_scan(KERNEL_ALPHAS, rho=0.5)
        for row in (r for r in res.rows if r.form == 1):
            a = abs(row.alpha)
            exact = 2.0 * math.log1p(a) / a + 2.0 * math.log1p(a) / (2.0 + a) if a else 2.0
            assert row.integral == pytest.approx(exact, rel=2e-15)

    def test_forms_2_and_3_at_zero_frequency(self):
        # 2/rho and 2/(1+2 eps): two half-lines of (1+u)^-(p+q)
        for rho in (0.5, 0.1, 0.01, 1e-3, 1e-6):
            row = kernel_integral_scan([0.0], rho=rho).rows[1]
            assert row.integral == pytest.approx(2.0 / rho, rel=2e-15)
        for eps in (0.5, 5.0, 60.0, 1000.0, 1e6):
            row = kernel_integral_scan([0.0], rho=0.5, eps=eps).rows[2]
            assert row.integral == pytest.approx(2.0 / (1.0 + 2.0 * eps), rel=2e-15)

    def test_default_grid_far_rows(self):
        rows = {(r.form, r.alpha): r for r in kernel_integral_scan(KERNEL_ALPHAS, rho=0.5, eps=0.5).rows}
        for alpha in (1e6, -1e6):
            assert rows[(2, alpha)].integral == pytest.approx(0.03354118929397313, rel=1e-14)
            assert rows[(3, alpha)].integral == pytest.approx(7.991988000055e-9, rel=1e-14)

    @pytest.mark.parametrize("rho, value", [(0.1, 12.012260253731653389), (0.01, 198.27286865153677432)])
    def test_small_rho_far_row(self, rho, value):
        row = kernel_integral_scan([1e6], rho=rho).rows[1]
        assert row.integral == pytest.approx(value, rel=1e-14)

    def test_zero_frequency_oracle(self):
        res = kernel_integral_scan([0.0], rho=0.5)
        form1 = next(r for r in res.rows if r.form == 1)
        assert abs(form1.integral - 2.0) < 1e-9
        assert abs(form1.ratio - 2.0 / math.log(2.0)) < 1e-8

    def test_single_constant_over_documented_grid(self):
        res = kernel_integral_scan(KERNEL_ALPHAS, rho=0.5)
        assert res.max_ratio <= 10.0
        for row in res.rows:
            assert row.integral > 0.0 and row.ratio > 0.0

    def test_even_in_alpha(self):
        res = kernel_integral_scan([10.0, -10.0, 1e3, -1e3], rho=0.5)
        by_key = {(r.form, r.alpha): r.integral for r in res.rows}
        for form in (1, 2, 3):
            for a in (10.0, 1e3):
                assert abs(by_key[(form, a)] - by_key[(form, -a)]) < 1e-9 * by_key[(form, a)]

    def test_validation(self):
        with pytest.raises(ValueError):
            kernel_integral_scan([0.0], rho=1.5)
        with pytest.raises(ValueError):
            kernel_integral_scan([0.0], rho=0.5, eps=0.0)
        with pytest.raises(ValueError):
            kernel_integral_scan([0.0], rho=0.5, eps=1.01e6)


class TestKernelSums:
    def test_bounded_with_tails(self):
        res = kernel_sum_scan([0.0, 5.0, -25.0, 300.0], [1, 2, -3, 7], rho=0.7)
        assert res.max_value <= 10.0
        for row in res.rows:
            assert row.value > 0.0
            assert 0.0 <= row.tail < 1e-2

    def test_partial_sum_matches_direct_loop(self):
        value, _ = _direct_form1(0.0, 1, 200)
        res = kernel_sum_scan([0.0], [1], rho=0.75, k_range=200)
        row = next(r for r in res.rows if r.form == 1)
        assert abs(row.value - value) < 1e-12 * value

    def test_rows_match_per_row_symbol_evaluation(self):
        # the scan looks m up in one table; evaluating dispersion row by row
        # must give the same bits
        taus, ns, rho, k = [0.0, 5.0, -25.0, 300.0], [1, 2, -3, 7], 0.7, 200
        res = kernel_sum_scan(taus, ns, rho=rho, k_range=k)
        expected = []
        for tau in taus:
            for n in ns:
                n1 = np.arange(-k, k + 1)
                n1 = n1[(n1 != 0) & (n1 != n)]
                a = np.abs(tau + dispersion(n1) + dispersion(n - n1))
                expected.append(float(np.sum(np.log(2.0 + a) / (1.0 + a))))
                j = np.arange(-k, k + 1)
                j = j[(j != 0) & (j != -n)]
                a = np.abs(tau + float(dispersion(n)) - dispersion(j))
                expected.append(float(np.sum(np.log(2.0 + a) / (1.0 + a))))
                expected.append(float(np.sum(np.log(1.0 + a) / (1.0 + a) ** rho)))
        assert [row.value for row in res.rows] == expected
        # |n| = k puts an excluded index at an end of the summed slice, and
        # |n| > k outside it; no tau meets both tail checks there, so each
        # form runs on its own
        m = bourgain._symbol_table(4 * k)
        for n in (k, -k, k + 1, -(k + 1), 3 * k):
            n1 = np.arange(-k, k + 1)
            n1 = n1[(n1 != 0) & (n1 != n)]
            a = np.abs(dispersion(n1) + dispersion(n - n1))
            value = bourgain._sum_form1(0.0, n, k, m, (np.empty(2 * k + 1), np.empty(7)))[0]
            assert value == float(np.sum(np.log(2.0 + a) / (1.0 + a)))
            j = np.arange(-k, k + 1)
            j = j[(j != 0) & (j != -n)]
            tau1 = -float(dispersion(n))
            a = np.abs(tau1 + float(dispersion(n)) - dispersion(j))
            (v2, _), (v3, _) = bourgain._sum_forms23(tau1, n, k, rho, m, (np.empty(2 * k + 1), np.empty(7)))
            assert v2 == float(np.sum(np.log(2.0 + a) / (1.0 + a)))
            assert v3 == float(np.sum(np.log(1.0 + a) / (1.0 + a) ** rho))

    def test_sums_run_in_place(self):
        # the default 4 x 4 grid at k_range 1e5: the symbol table, one summed
        # array of 2 k_range + 1 floats and one block, not a temporary per
        # operation
        k = 10**5
        tracemalloc.start()
        try:
            kernel_sum_scan([0.0, 5.0, -25.0, 300.0], [1, 2, -3, 7], rho=0.7, k_range=k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * (2 * k + 1) * 8

    @pytest.mark.parametrize("k", [2000, 16385, 10**5])
    def test_rows_are_bit_equal_on_any_thread_count(self, k):
        # the default grid and one with a single point; each against the
        # plain expressions with np.delete and np.concatenate/np.insert's table;
        # at 16385 each sum's last block holds one term (2 k + 1 - 2 = 2**15 + 1)
        assert bourgain._SUM_BLOCK == 2**15
        for taus, ns in (([0.0, 5.0, -25.0, 300.0], [1, 2, -3, 7]), ([-25.0], [-3])):
            expected = [value for tau in taus for n in ns for value in _plain_sums(tau, n, k, 0.7)]
            for threads in (1, 2, 0):
                res = kernel_sum_scan(taus, ns, rho=0.7, k_range=k, threads=threads)
                assert [(r.form, r.tau, r.n) for r in res.rows] == [
                    (form, tau, n) for tau in taus for n in ns for form in (1, 2, 3)
                ]
                assert [r.value for r in res.rows] == expected
                assert res.rows == kernel_sum_scan(taus, ns, rho=0.7, k_range=k).rows

    def test_more_workers_than_cores_under_fast_switching(self):
        # 8 workers share the symbol table; each writes only its own scratch and rows
        taus, ns = [0.0, 5.0, -25.0, 300.0], [1, 2, -3, 7]
        expected = kernel_sum_scan(taus, ns, rho=0.7, k_range=2000).rows
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert kernel_sum_scan(taus, ns, rho=0.7, k_range=2000, threads=8).rows == expected
        finally:
            sys.setswitchinterval(interval)

    def test_drop_in_place_equals_np_delete(self):
        # the kept segments move left within the array, with no copy of it
        k = 10**4
        values = make_rng(31, 0).standard_normal(2 * k + 1)
        for excluded in ((), (0,), (0, 0), (0, 7), (0, -7), (0, k), (0, -k), (k, -k), (0, k + 1), (0, -(k + 3)),
                         (k + 1,), (-k, -k + 1, k)):
            work = values.copy()
            tracemalloc.start()
            try:
                kept = bourgain._drop(work, k, *excluded)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            expected = np.delete(values, [k + i for i in excluded if abs(i) <= k])
            assert kept.tobytes() == expected.tobytes()
            assert np.shares_memory(kept, work) and peak < 4096

    @pytest.mark.parametrize("k_max", [1001, 12345, 100007, 1000007])
    def test_symbol_table_bytes_equal_concatenate_reference(self, k_max):
        i = np.concatenate([np.arange(-k_max, 0), np.arange(1, k_max + 1)])
        expected = np.insert(dispersion(i), k_max, np.nan)
        assert bourgain._symbol_table(k_max)(0, k_max).tobytes() == expected.tobytes()

    def test_two_workers_hold_one_summed_array_and_one_block_each(self):
        # the symbol table and, per worker, one array of 2 k_range + 1 floats and one block, plus slack
        k = 10**5
        unit = (2 * k + 1) * 8
        table = (2 * (k + 7) + 1) * 8
        tracemalloc.start()
        try:
            kernel_sum_scan([0.0, 5.0, -25.0, 300.0], [1, 2, -3, 7], rho=0.7, k_range=k, threads=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table + 2 * (unit + 8 * bourgain._SUM_BLOCK) + 0.25 * unit

    def test_worker_count_fits_the_byte_cap(self, monkeypatch):
        # the count is read where the scan hands its runs to the workers, which then stops it
        monkeypatch.setattr(bourgain.os, "cpu_count", lambda: 64)

        class Stop(Exception):
            pass

        def no_workers(fn, items, threads):
            calls.append(([len(run) for run in items], threads))
            raise Stop

        calls = []
        monkeypatch.setattr(bourgain, "_parallel_map", no_workers)
        # a summed array of 2e6 + 1 floats and a block per worker: 16 fit in 2**28 bytes
        assert bourgain._STACK_BYTES_MAX // (8 * (2 * 10**6 + 1 + bourgain._SUM_BLOCK)) == 16
        taus = [0.0, 5.0, -25.0, 300.0, 1.0, 2.0, 3.0, 4.0]
        for tau_list, k, threads in ((taus, 10**6, 0), (taus, 10**6, 2), (taus, 10**5, 0), (taus[:1], 10**5, 0),
                                     (taus, 10**6, 1)):
            with pytest.raises(Stop):
                kernel_sum_scan(tau_list, [1, 2, -3, 7], rho=0.7, k_range=k, threads=threads)
        assert calls == [([2] * 16, 16), ([16] * 2, 2), ([1] * 32, 32), ([1] * 4, 4), ([32], 1)]

    def test_frequency_beyond_k_range_raises_value_error(self):
        # n1 = n lies outside -k_range..k_range and nothing is dropped for it;
        # form 2's tail check then rejects the range
        with pytest.raises(ValueError, match="k_range too small for the tail bound"):
            kernel_sum_scan([0.0], [7], 0.7, k_range=3)

    def test_validation(self):
        with pytest.raises(ValueError):
            kernel_sum_scan([0.0], [1], rho=0.5)
        with pytest.raises(ValueError):
            kernel_sum_scan([0.0], [0], rho=0.75)
        for k_range in (0, -5, -1000):
            with pytest.raises(ValueError, match="k_range too small"):
                kernel_sum_scan([0.0], [1], rho=0.75, k_range=k_range)
        # both caps are checked before the symbol table is built
        with pytest.raises(ValueError, match=f"k_range must be at most {bourgain._KERNEL_K_MAX}"):
            kernel_sum_scan([0.0], [1], rho=0.75, k_range=bourgain._KERNEL_K_MAX + 1)
        with pytest.raises(ValueError, match=f"at most {bourgain._KERNEL_K_MAX}, got 10000000000000"):
            kernel_sum_scan([0.0], [1, -10**13], rho=0.75, k_range=10)


def _plain_sums(tau, n, k, rho):
    """The three values of a grid point from the plain expressions, np.delete and a concatenated symbol table."""
    k_max = k + abs(n)
    i = np.concatenate([np.arange(-k_max, 0), np.arange(1, k_max + 1)])
    table = np.insert(dispersion(i), k_max, np.nan)
    m = lambda c: table[k_max + c - k : k_max + c + k + 1]
    a = np.abs(np.delete(tau + m(0) + m(n)[::-1], [k + i for i in (0, n) if abs(i) <= k]))
    v1 = float(np.sum(np.log(2.0 + a) / (1.0 + a)))
    a = np.abs(np.delete((tau + float(table[k_max + n])) - m(0), [k + i for i in (0, -n) if abs(i) <= k]))
    return v1, float(np.sum(np.log(2.0 + a) / (1.0 + a))), float(np.sum(np.log(1.0 + a) / (1.0 + a) ** rho))


def _direct_form1(tau, n, k_range):
    total = 0.0
    for n1 in range(-k_range, k_range + 1):
        if n1 == 0 or n1 == n:
            continue
        arg = abs(tau + float(dispersion(n1)) + float(dispersion(n - n1)))
        total += math.log(2.0 + arg) / (1.0 + arg)
    return total, None


# ---------------------------------------------------------------------------
# time localization


class TestHannTransform:
    def test_removable_singularities(self):
        T = 0.5
        a = math.pi / T
        assert hann_ft(0.0, T) == T
        assert hann_ft(a, T) == T / 2.0
        assert hann_ft(-a, T) == T / 2.0

    def test_generic_value(self):
        # lambda = a/2: -sin(pi/2) a^2 / ((a/2)(-a/2)(3a/2)) = 8/(3a) = 8T/(3 pi)
        T = 0.25
        a = math.pi / T
        assert abs(hann_ft(a / 2.0, T) - 8.0 * T / (3.0 * math.pi)) < 1e-14

    def test_integral_recovers_window_peak(self):
        # (1/2pi) int psi_hat = psi(0) = 1
        lam = np.arange(-80_000, 80_001) * 0.05
        total = np.sum(hann_ft(lam, 0.5)) * 0.05 / (2.0 * math.pi)
        assert abs(total - 1.0) < 1e-6

    def test_validation_and_shapes(self):
        with pytest.raises(ValueError):
            hann_ft(0.0, 0.0)
        out = hann_ft(np.array([0.0, 1.0]), 0.5)
        assert out.shape == (2,)
        assert isinstance(hann_ft(1.0, 0.5), float)


class TestTimeLocalization:
    def test_window_spreads_curve_deltas(self):
        u = localization_demo_field(n_max=2, margin=200.0)
        w = localize(u, 0.5)
        # zero rows stay zero; nonzero rows spread beyond a single cell
        cells = lambda field: sum(np.count_nonzero(np.abs(win) > 1e-12) for _, _, win in field.windows)
        assert cells(w) > cells(u)

    def test_b_half_is_identity_ratio(self):
        u = localization_demo_field(n_max=2, margin=200.0)
        assert localization_ratio(u, 0.5, 0.25) == 1.0

    def test_gain_slope_at_b_quarter(self):
        u = localization_demo_field()
        res = time_localization_scan(u, [0.25, 0.5])
        slope_q = res.slopes[0]
        assert abs(slope_q - 0.25) <= 0.1
        assert res.slopes[1] == 0.0
        # ratios shrink monotonically with the window
        assert all(np.diff(res.ratios[0]) < 0.0)

    def test_order_one_at_unit_window(self):
        u = localization_demo_field()
        assert 0.1 < localization_ratio(u, 0.25, 1.0) < 10.0

    def test_scan_localizes_once_per_window(self, monkeypatch):
        u = localization_demo_field(n_max=2, margin=200.0)
        b_list = [0.1, 0.25, 0.5]
        expected = [[localization_ratio(u, b, 2.0**-k) for k in range(1, 7)] for b in b_list]
        calls = []

        def counted(field, T):
            calls.append(T)
            return localize(field, T)

        monkeypatch.setattr(bourgain, "localize", counted)
        res = time_localization_scan(u, b_list)
        # one windowed field per T, shared by every b
        assert calls == [2.0**-k for k in range(1, 7)]
        assert res.ratios.shape == (3, 6)
        assert res.ratios.tolist() == expected

    def test_validation(self):
        u = localization_demo_field(n_max=2, margin=200.0)
        with pytest.raises(ValueError):
            time_localization_scan(u, [0.75])
        with pytest.raises(ValueError):
            time_localization_scan(u, [0.0])
        spec = LatticeSpec(n_max=2, tau_max=4.0, d_tau=1.0)
        with pytest.raises(ValueError):
            localization_ratio(LatticeField(spec), 0.25, 0.5)
