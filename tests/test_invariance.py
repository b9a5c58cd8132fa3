"""Invariance experiment: observables and reports."""

import functools
import math
import sys
import tracemalloc

import numpy as np
import pytest

import ostlab.flow as flow
import ostlab.invariance as invariance
from ostlab.flow import _advance_times
from ostlab.gibbs import (
    DegenerateWeightsError,
    Ensemble,
    GibbsEstimate,
    GibbsSpec,
    default_cutoff,
    gibbs_expectation,
    sample_gaussian,
)
from ostlab.invariance import (
    OBSERVABLE_NAMES,
    _z_score,
    ball_indicator,
    cubic_integral,
    hamiltonian_observable,
    l2_squared,
    mode_power,
    parse_observables,
    run_invariance,
)
from ostlab.spectral import FourierField, _coeff_to_coords, _cubic_g, _hamiltonian, _l2, make_grid


def sample_field(seed=5, m=4):
    spec = GibbsSpec(grid=make_grid(m), seed=seed)
    return FourierField(spec.grid, sample_gaussian(spec, 1).coeffs[0])


def l2_norm(f):
    return float(_l2(f.coeff, f.grid.length))


def reference_reports(spec, dt, times, obs, count):
    """run_invariance's (name, means, errors, z) rows from whole-stack observables of the drawn and flowed states."""
    ens, grid = sample_gaussian(spec, count), spec.grid
    before = [gibbs_expectation(ens, F.batch(ens.coeffs, grid)) for F in obs]
    out = []
    for states in _advance_times(ens.coeffs, grid, dt, times):
        after = [gibbs_expectation(ens, F.batch(states, grid)) for F in obs]
        out.append([(F.name, b.mean, b.std_error, a.mean, a.std_error, _z_score(b, a))
                    for F, b, a in zip(obs, before, after)])
    return out


def all_observables(grid):
    return parse_observables("mode_power(1),mode_power(2),mode_power(3),mode_power(4),cubic_integral,hamiltonian,"
                             "ball_indicator", GibbsSpec(grid=grid))


class TestObservables:
    def test_l2_squared(self):
        f = sample_field()
        assert l2_squared().batch(f.coeff, f.grid) == pytest.approx(l2_norm(f) ** 2, rel=1e-14)

    def test_mode_power_sums_to_l2(self):
        f = sample_field(m=4)
        total = sum(mode_power(k).batch(f.coeff, f.grid) for k in range(1, 5))
        assert total == pytest.approx(l2_norm(f) ** 2, rel=1e-13)

    def test_mode_power_is_coordinate_energy(self):
        f = sample_field()
        a = _coeff_to_coords(f.coeff, f.grid)
        assert mode_power(2).batch(f.coeff, f.grid) == pytest.approx(a[2] ** 2 + a[3] ** 2, rel=1e-13)

    def test_cubic_integral(self):
        f = sample_field()
        assert cubic_integral().batch(f.coeff, f.grid) == pytest.approx(3.0 * _cubic_g(f.coeff, f.grid), rel=1e-13)

    def test_hamiltonian(self):
        f = sample_field()
        assert hamiltonian_observable().batch(f.coeff, f.grid) == pytest.approx(_hamiltonian(f.coeff, f.grid), rel=1e-13)

    def test_ball_indicator(self):
        f = sample_field()
        r = l2_norm(f)
        assert ball_indicator(2.0 * r).batch(f.coeff, f.grid) == 1.0
        assert ball_indicator(0.5 * r).batch(f.coeff, f.grid) == 0.0

    def test_batch_matches_scalar(self):
        spec = GibbsSpec(grid=make_grid(4), seed=9)
        ens = sample_gaussian(spec, 10)
        for obs in (l2_squared(), mode_power(3), cubic_integral(), ball_indicator(1.0)):
            batch = obs.batch(ens.coeffs, spec.grid)
            single = [obs.batch(ens.coeffs[i : i + 1], spec.grid)[0] for i in range(10)]
            assert np.allclose(batch, single, atol=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            mode_power(0)
        with pytest.raises(ValueError):
            ball_indicator(0.0)
        f = sample_field(m=2)
        with pytest.raises(ValueError):
            mode_power(5).batch(f.coeff, f.grid)

    def test_parse_observables_in_order(self):
        g = make_grid(4)
        text = "mode_power(1), mode_power(4),cubic_integral,hamiltonian,ball_indicator,l2_squared,"
        names = [F.name for F in parse_observables(text, GibbsSpec(grid=g, cutoff_R=2.5))]
        assert names == ["mode_power(1)", "mode_power(4)", "cubic_integral", "hamiltonian", "ball_indicator(2.5)",
                         "l2_squared"]
        # the listed vocabulary is the parsed one
        assert OBSERVABLE_NAMES.split(", ") == ["mode_power(k)", *names[2:4], "ball_indicator", "l2_squared"]

    def test_parse_observables_ball_radius(self):
        # the cutoff radius, or default_cutoff without a cutoff
        g = make_grid(4)
        for spec, radius in ((GibbsSpec(grid=g, cutoff_R=2.5), 2.5), (GibbsSpec(grid=g), default_cutoff(g))):
            (ball,) = parse_observables("ball_indicator", spec)
            assert ball.name == f"ball_indicator({radius:g})"
            # one mode of L2 norm just inside, then just outside, the radius
            c = np.zeros((2, 4), dtype=complex)
            c[:, 0] = np.array([0.999, 1.001]) * radius / math.sqrt(2.0 * g.length)
            assert ball.batch(c, g).tolist() == [1.0, 0.0]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("mode_power(1),entropy", "unknown observable 'entropy'; choose from " + OBSERVABLE_NAMES),
            ("mode_power(9)", "mode_power(9) exceeds grid.modes = 4"),
            (" , ,", "need at least one observable"),
        ],
    )
    def test_parse_observables_rejects(self, text, message):
        with pytest.raises(ValueError) as exc:
            parse_observables(text, GibbsSpec(grid=make_grid(4)))
        assert str(exc.value) == message


class TestRunInvariance:
    def test_zero_time_all_z_zero(self):
        g = make_grid(4)
        spec = GibbsSpec(grid=g, cutoff_R=default_cutoff(g), seed=101)
        obs = [l2_squared(), mode_power(1), cubic_integral()]
        (report,) = run_invariance(spec, 1e-3, [0.0], obs, 500)
        assert all(r.z == 0.0 for r in report.rows)
        assert all(r.mean_before == r.mean_after for r in report.rows)
        assert report.all_passed
        assert report.m == 4
        assert report.count == 500

    def test_l2_squared_z_bounded_by_drift(self):
        g = make_grid(4)
        spec = GibbsSpec(grid=g, cutoff_R=default_cutoff(g), seed=103)
        (report,) = run_invariance(spec, 1e-3, [0.3], [l2_squared()], 500)
        assert abs(report.rows[0].z) <= 0.1

    def test_invariance_holds(self):
        g = make_grid(4)
        spec = GibbsSpec(grid=g, cutoff_R=default_cutoff(g), seed=107)
        obs = [
            mode_power(1),
            mode_power(2),
            cubic_integral(),
            hamiltonian_observable(),
            ball_indicator(default_cutoff(g) / 2.0),
        ]
        (report,) = run_invariance(spec, 1e-3, [0.5], obs, 2000)
        for row in report.rows:
            assert abs(row.z) <= 3.0, row

    def test_degenerate_ensemble_raises(self):
        g = make_grid(4)
        spec = GibbsSpec(grid=g, cutoff_R=1e-6, seed=109)
        with pytest.raises(DegenerateWeightsError):
            run_invariance(spec, 1e-3, [0.1], [l2_squared()], 200)

    def test_validation(self):
        g = make_grid(4)
        spec = GibbsSpec(grid=g, seed=1)
        with pytest.raises(ValueError):
            run_invariance(spec, 1e-3, [0.1], [l2_squared()], 0)
        with pytest.raises(ValueError):
            run_invariance(spec, 1e-3, [0.1], [], 10)
        for times in ([], [0.1, math.nan], [math.inf]):
            with pytest.raises(ValueError):
                run_invariance(spec, 1e-3, times, [l2_squared()], 10)

    def test_rejects_bad_dt_before_drawing(self, monkeypatch):
        def draw(*args):
            raise AssertionError("an ensemble was drawn for a bad dt")

        monkeypatch.setattr(invariance, "sample_gaussian", draw)
        spec = GibbsSpec(grid=make_grid(4), seed=1)
        for dt in (0.0, -1e-3, math.inf, math.nan):
            with pytest.raises(ValueError, match="dt must be positive and finite"):
                run_invariance(spec, dt, [0.1], [l2_squared()], 10)

    def test_rejects_time_past_the_step_cap_before_drawing(self, monkeypatch):
        def draw(*args):
            raise AssertionError("an ensemble was drawn for a time past the step cap")

        monkeypatch.setattr(invariance, "sample_gaussian", draw)
        spec = GibbsSpec(grid=make_grid(4), seed=1)
        for times in ([2000.0], [0.1, -2000.0], [math.inf], [0.1, math.nan]):
            with pytest.raises(ValueError, match="above the cap of 1000000"):
                run_invariance(spec, 1e-3, times, [l2_squared()], 50)

    def test_json_schema(self):
        g = make_grid(4)
        spec = GibbsSpec(grid=g, cutoff_R=default_cutoff(g), seed=113)
        (report,) = run_invariance(
            spec, 1e-3, [0.0], [l2_squared(), mode_power(1)], 100
        )
        doc = report.to_json()
        assert set(doc["meta"]) == {"m", "t", "count", "seed", "ess"}
        for row in doc["results"]:
            assert set(row) == {
                "name",
                "mean_before",
                "se_before",
                "mean_after",
                "se_after",
                "z",
                "pass",
            }
        assert "no multiple-comparison correction" in doc["note"]

    def test_weights_computed_once(self, monkeypatch):
        # the pushed ensembles share the drawn ensemble's log weights and support
        calls = []
        weights = Ensemble._weights.func

        def counted(ens):
            calls.append(1)
            return weights(ens)

        prop = functools.cached_property(counted)
        prop.__set_name__(Ensemble, "_weights")
        monkeypatch.setattr(Ensemble, "_weights", prop)
        g = make_grid(4)
        spec = GibbsSpec(grid=g, cutoff_R=default_cutoff(g), seed=131)
        reports = run_invariance(spec, 1e-3, [0.01, 0.02], [l2_squared(), mode_power(1)], 300)
        assert len(reports) == 2
        assert len(calls) == 1

    @pytest.mark.parametrize("threads, row_block", [(1, None), (0, None), (2, 7)])
    def test_reports_match_whole_stack_reference(self, threads, row_block, monkeypatch):
        # per-block observables, the t = 0 values taken from the walk, equal the observables of the
        # whole drawn and flowed stacks bit for bit, for any thread count and block size
        if row_block is not None:
            monkeypatch.setattr(flow, "_ROW_BLOCK", row_block)
        g = make_grid(4)
        spec = GibbsSpec(grid=g, cutoff_R=default_cutoff(g) / 3.0, seed=137)
        times, obs = [0.0, -0.02, 0.03, 0.0213], all_observables(g)
        reports = run_invariance(spec, 5e-3, times, obs, 4500 if row_block is None else 300, threads=threads)
        reference = reference_reports(spec, 5e-3, times, obs, reports[0].count)
        for report, rows in zip(reports, reference, strict=True):
            got = [(r.name, r.mean_before, r.se_before, r.mean_after, r.se_after, r.z) for r in report.rows]
            assert [(name, *map(float.hex, v)) for name, *v in got] == [(name, *map(float.hex, v)) for name, *v in rows]

    def test_reports_independent_of_threads_and_blocks(self, monkeypatch):
        # the workers write their blocks' values into one shared stack; with 7-row blocks, more
        # workers than cores and frequent switches, a lost or misplaced write would change a report
        g = make_grid(8)
        spec = GibbsSpec(grid=g, seed=139)
        args = (spec, 5e-3, [0.01, -0.015, 0.0], all_observables(g), 300)
        serial = [r.to_json() for r in run_invariance(*args, threads=1)]
        for threads in (2, 0):
            assert [r.to_json() for r in run_invariance(*args, threads=threads)] == serial
        monkeypatch.setattr(flow, "_ROW_BLOCK", 7)
        assert [r.to_json() for r in run_invariance(*args, threads=2)] == serial
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert [r.to_json() for r in run_invariance(*args, threads=6)] == serial
        finally:
            sys.setswitchinterval(interval)

    def test_degenerate_ensemble_raises_before_any_step(self, monkeypatch):
        def walk(*args):
            raise AssertionError("the flow ran on a degenerate ensemble")

        monkeypatch.setattr(flow, "_walk", walk)
        g = make_grid(4)
        spec = GibbsSpec(grid=g, cutoff_R=1e-6, seed=109)
        with pytest.raises(DegenerateWeightsError):
            run_invariance(spec, 1e-3, [0.1], [l2_squared()], 200)

    def test_peak_grows_by_the_value_rows_alone(self, monkeypatch):
        # from 1 to 8 times, a run adds 7 rows of 7 observables' values (7.48 MiB) and no states: with a
        # held (len(times), count, m) state stack the traced peak grew by 17.1 MiB.  The estimates, whose
        # fsum over Python floats takes seconds under tracemalloc and allocates the same for both runs,
        # are stubbed
        g = make_grid(8)
        spec, obs = GibbsSpec(grid=g, seed=149), all_observables(g)
        stub = lambda ens, values: GibbsEstimate(0.0, 1.0, ens._weights[2], False)
        monkeypatch.setattr(invariance, "gibbs_expectation", stub)
        peaks = []
        for times in ([0.001], [0.001 * k for k in range(1, 9)]):
            tracemalloc.start()
            try:
                run_invariance(spec, 1e-3, times, obs, 20000, threads=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 1.25 * 7 * len(obs) * 20000 * 8

    def test_deterministic(self):
        g = make_grid(4)
        spec = GibbsSpec(grid=g, cutoff_R=default_cutoff(g), seed=127)
        args = (spec, 1e-3, [0.2], [l2_squared(), mode_power(1)], 300)
        assert run_invariance(*args)[0].to_json() == run_invariance(*args)[0].to_json()
