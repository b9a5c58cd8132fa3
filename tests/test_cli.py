"""Command-line front end: config resolution, artifacts, exit codes."""

import json
import math
import re
import time
import warnings

import pytest

from ostlab.bourgain import _KERNEL_K_MAX
from ostlab.cli import _COMMANDS, _PICARD_CELLS_MAX, _STACK_BYTES_MAX, ConfigError, _build_parser, _resolve, main
from ostlab.flow import _MAX_NODES, _MAX_STEPS, _PICARD_ENDPOINT_TOL
from ostlab.gibbs import load_ensemble


def run(capsys, *args):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    """Split a provenance CSV into (config dict, header list, row lists)."""
    config = {}
    header = None
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            name, _, value = line[2:].partition(" = ")
            config[name] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return config, header, rows


class TestConfigResolution:
    def test_missing_config_file_exits_1_with_path(self, capsys, tmp_path):
        missing = tmp_path / "absent.cfg"
        code, _, err = run(capsys, "simulate", "--config", str(missing))
        assert code == 1
        assert str(missing) in err

    def test_config_file_not_utf8_names_path(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xffgrid.modes = 8\n")
        code, _, err = run(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert (code, err.strip()) == (1, f"error: {cfg}: byte 0 is not UTF-8 (invalid start byte)")
        assert not (tmp_path / "out").exists()

    def test_unknown_key_reports_file_and_line(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid.modes = 8\nbogus.key = 3\n")
        code, _, err = run(capsys, "simulate", "--config", str(cfg))
        assert code == 1
        assert f"{cfg}:2" in err and "bogus.key" in err

    def test_malformed_line_reports_file_and_line(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# fine comment\ngrid.modes 8\n")
        code, _, err = run(capsys, "simulate", "--config", str(cfg))
        assert code == 1
        assert f"{cfg}:2" in err

    def test_bad_value_names_key_and_line(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid.modes = eight\n")
        code, _, err = run(capsys, "simulate", "--config", str(cfg))
        assert code == 1
        assert f"{cfg}:1" in err and "grid.modes" in err

    def test_key_from_another_subcommand_is_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("picard.iters = 5\n")  # valid for picard, not simulate
        code, _, err = run(capsys, "simulate", "--config", str(cfg))
        assert code == 1
        assert "picard.iters" in err

    def test_flags_override_file_overrides_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"resonance.n_max = 4\noutput.dir = {tmp_path}\n")
        code, _, _ = run(capsys, "resonance-scan", "--config", str(cfg), "--nmax", "6")
        assert code == 0
        config, _, _ = read_csv(tmp_path / "resonance_scan.csv")
        assert config["resonance.n_max"] == "6"  # flag wins
        assert config["output.dir"] == str(tmp_path)  # file wins over default

    def test_comments_and_blank_lines_ignored(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n# full-line comment\nresonance.n_max = 5  # trailing\n\n")
        code, _, _ = run(capsys, "resonance-scan", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 0
        config, _, _ = read_csv(tmp_path / "resonance_scan.csv")
        assert config["resonance.n_max"] == "5"

    def test_no_subcommand_exits_1(self, capsys):
        code, _, err = run(capsys)
        assert code == 1
        assert "subcommand" in err

    def test_unknown_subcommand_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_unknown_flag_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["resonance-scan", "--frobnicate", "3"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("command", ["simulate", "verify-invariance", "picard"])
    @pytest.mark.parametrize("flag", ["--integrator", "--points", "--dealias", "--nodes"])
    def test_removed_flow_and_grid_flags_exit_1(self, capsys, command, flag):
        # ETDRK4 on the 4m grid is the only flow configuration, and Picard's node grid follows picard.t
        with pytest.raises(SystemExit) as exc:
            main([command, flag, "64"])
        assert exc.value.code == 1
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["flow.integrator = etdrk4", "grid.points = 64", "flow.dealias = false",
                                      "picard.nodes = 2"])
    def test_removed_keys_in_config_file_exit_1_as_unknown(self, capsys, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"grid.modes = 8\n{line}\n")
        command = "picard" if line.startswith("picard.") else "simulate"
        code, _, err = run(capsys, command, "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert code == 1
        assert f"{cfg}:2: unknown key '{line.split()[0]}'" in err
        assert not (tmp_path / "out").exists()

    def test_help_documents_keys_and_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gibbs-sample", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "gibbs.cutoff_r" in out and "default" in out

    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_help_comes_from_command_table(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "200")  # no wrapping, so a hyphenated word stays whole
        pages = []
        for argv in (["--help"], [command, "--help"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            pages.append(" ".join(capsys.readouterr().out.split()))
        top, page = pages
        handler, keys = _COMMANDS[command]
        assert f"{command} {handler.__doc__}" in top
        assert handler.__doc__ in page
        for k in keys:
            flag, name = re.escape(f"--{k.flag}"), re.escape(k.name)
            assert re.search(rf"{flag} V [^\[]*\[default: [^\]]*; key: {name}\]", page), k.name

    def test_parser_built_once_per_process(self, capsys):
        _build_parser.cache_clear()
        assert run(capsys)[0] == 1 and run(capsys, "resonance-scan", "--nmax", "many")[0] == 1
        assert _build_parser.cache_info().misses == 1

    @pytest.mark.parametrize("argv, code", [(["--help"], 0), (["simulate", "--help"], 0), (["simulate", "--bogus"], 1)])
    def test_cached_parser_prints_as_a_fresh_one(self, capsys, argv, code):
        # after earlier parses, help pages and a usage error read as from a newly built parser
        run(capsys, "simulate", "--dt", "many")

        def exit_and_output(parse):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            return exc.value.code, capsys.readouterr()

        fresh = exit_and_output(_build_parser.__wrapped__().parse_args)
        assert fresh[0] == code and (fresh[1].out if code == 0 else fresh[1].err)
        assert exit_and_output(main) == fresh

    def test_bad_flag_value_exits_1(self, capsys):
        code, _, err = run(capsys, "resonance-scan", "--nmax", "many")
        assert code == 1
        assert "nmax" in err

    @pytest.mark.parametrize(
        "argv, key, value",
        [
            (["verify-invariance", "--t-values", "-0.05,0.1"], "invariance.t_values", (-0.05, 0.1)),
            (["bilinear-sweep", "--s", "-0.5,0"], "bilinear.s_values", (-0.5, 0.0)),
            (["kernel-scan", "--alpha", "-1,2"], "kernel.alpha_values", (-1.0, 2.0)),
            (["kernel-scan", "--sum-tau", "-25,5"], "kernel.sum_tau_values", (-25.0, 5.0)),
            (["kernel-scan", "--sum-n", "-3,7"], "kernel.sum_n_values", (-3, 7)),
            (["convergence-m", "--t", "-1e-1"], "convergence.t", -0.1),
        ],
    )
    def test_negative_value_after_flag(self, argv, key, value):
        # "--flag -x" parses like "--flag=-x"
        assert _resolve(argv[0], _build_parser().parse_args(argv))[key] == value

    @pytest.mark.parametrize(
        "argv",
        [
            ["gibbs-sample", "--count", "1"],
            ["gibbs-sample", "--count", "0"],
            ["verify-invariance", "--count", "0"],
            ["verify-invariance", "--count", "-2"],
            ["verify-invariance", "--count", "1"],
            ["verify-invariance", "--count", "9"],
        ],
    )
    def test_count_below_minimum_names_key(self, capsys, tmp_path, argv):
        code, _, err = run(capsys, *argv, "--out", str(tmp_path))
        assert code == 1
        assert "gibbs.count" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("beta", ["1.5", "-0.1", "nan"])
    def test_beta_outside_unit_interval_exits_1(self, capsys, tmp_path, beta):
        code, _, err = run(capsys, "gibbs-sample", "--sampler", "pcn-mcmc", "--beta", beta, "--out", str(tmp_path))
        assert code == 1
        assert "--beta (gibbs.beta)" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["kernel-scan", "--alpha", "inf"], "kernel.alpha_values"),
            (["kernel-scan", "--alpha", "nan"], "kernel.alpha_values"),
            (["kernel-scan", "--sum-tau", "nan"], "kernel.sum_tau_values"),
            (["bilinear-sweep", "--s", "nan"], "bilinear.s_values"),
            (["bilinear-sweep", "--s", "inf"], "bilinear.s_values"),
            (["gibbs-sample", "--cutoff", "-3"], "gibbs.cutoff_r"),
            (["gibbs-sample", "--cutoff", "nan"], "gibbs.cutoff_r"),
            (["verify-invariance", "--cutoff", "-3"], "gibbs.cutoff_r"),
            (["verify-invariance", "--cutoff", "nan"], "gibbs.cutoff_r"),
            (["verify-invariance", "--z-max", "-1"], "invariance.z_max"),
            (["verify-invariance", "--z-max", "nan"], "invariance.z_max"),
            (["simulate", "--threads", "-1"], "run.threads"),
            (["bilinear-sweep", "--w-cells", "0"], "bilinear.w_cells"),
            (["kernel-scan", "--rho", "0"], "kernel.rho"),
            (["kernel-scan", "--eps", "nan"], "eps"),
            (["kernel-scan", "--eps", "inf"], "eps"),
            (["kernel-scan", "--sum-rho", "inf"], "kernel.sum_rho"),
            # above the largest eps whose end layers the kernel rule resolves
            (["kernel-scan", "--eps", "1e7"], "kernel.eps"),
            (["kernel-scan", "--rho", "1"], "kernel.rho"),
            (["kernel-scan", "--rho", "nan"], "kernel.rho"),
            (["kernel-scan", "--sum-rho", "0.5"], "kernel.sum_rho"),
            (["simulate", "--dt", "0"], "flow.dt"),
            (["simulate", "--record-every", "0"], "flow.record_every"),
            (["picard", "--iters", "0"], "picard.iters"),
            (["bilinear-sweep", "--trials", "-1"], "bilinear.trials"),
            (["picard", "--ref-dt", "0"], "picard.ref_dt"),
            (["picard", "--ref-dt", "nan"], "picard.ref_dt"),
            (["kernel-scan", "--sum-n", "1,0"], "kernel.sum_n_values"),
            # seeds key counter-based streams of two 64-bit words; GibbsSpec takes [0, 2**63)
            (["simulate", "--seed", "-1"], "init.seed"),
            (["simulate", "--seed", str(2**64)], "init.seed"),
            (["picard", "--seed", str(2**63)], "init.seed"),
            (["gibbs-sample", "--seed", "-1"], "gibbs.seed"),
            (["verify-invariance", "--seed", str(2**63)], "gibbs.seed"),
            (["bilinear-sweep", "--seed", "-1"], "bilinear.seed"),
            (["bilinear-sweep", "--seed", str(2**64)], "bilinear.seed"),
            # a zero norm made a NaN relative drift in simulate.meta.json
            (["simulate", "--init", "cosine", "--norm", "0"], "init.norm"),
            (["simulate", "--norm", "nan"], "init.norm"),
            (["simulate", "--k0", "0"], "init.k0"),
            (["picard", "--norm", "-0.1"], "init.norm"),
            (["convergence-m", "--norm", "0"], "init.norm"),
            (["convergence-m", "--k0", "inf"], "init.k0"),
            (["simulate", "--modes", "0"], "grid.modes"),
            (["gibbs-sample", "--modes", "0"], "grid.modes"),
            (["simulate", "--length", "0"], "grid.length"),
            (["convergence-m", "--length", "nan"], "grid.length"),
            (["simulate", "--t", "nan"], "flow.t"),
            (["simulate", "--t", "-1"], "flow.t"),
            (["convergence-m", "--t", "nan"], "convergence.t"),
            (["convergence-m", "--m", "8,4"], "convergence.m_values"),
            (["convergence-m", "--m", "0,4"], "convergence.m_values"),
            (["gibbs-sample", "--sampler", "pcn-mcmc", "--burn-in", "-1"], "gibbs.burn_in"),
            (["bilinear-sweep", "--d-tau", "0"], "bilinear.d_tau"),
            # parsed on the resolved grid: an unknown name, an empty list, a mode above grid.modes
            (["verify-invariance", "--observables", "bogus"], "invariance.observables"),
            (["verify-invariance", "--observables", ","], "invariance.observables"),
            (["verify-invariance", "--modes", "2"], "invariance.observables"),
            # the candidates' second row sits at nu = 1 or 2, below n_max; 16,2 ran n_max 16 first
            (["bilinear-sweep", "--nmax", "1"], "bilinear.n_max_values"),
            (["bilinear-sweep", "--nmax", "2"], "bilinear.n_max_values"),
            (["bilinear-sweep", "--nmax", "16,2"], "bilinear.n_max_values"),
            (["bilinear-sweep", "--nmax", "0"], "bilinear.n_max_values"),
        ],
    )
    def test_out_of_domain_value_exits_1_naming_key(self, capsys, tmp_path, argv, key):
        start = time.perf_counter()
        code, _, err = run(capsys, *argv, "--out", str(tmp_path))
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert key in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    # in-domain exponents whose integrands overflowed or whose integrals underflow
    # a float; references as in tests/test_bourgain.py::TestKernelIntegrals
    @pytest.mark.parametrize(
        "flag, value, form, alpha, ratio",
        [
            pytest.param("eps", "60", 3, 1e6, 0.066666666666740346628, id="eps-60"),
            pytest.param("eps", "100", 3, 1e3, 0.04000004238894524186, id="eps-100"),
            pytest.param("eps", "700", 3, 1e6, 0.0057142857142914777501, id="eps-700"),
            pytest.param("eps", "1000", 3, 1e6, 0.0040000000000040240641, id="eps-1000"),
            pytest.param("rho", "0.001", 2, 1e6, 136.85876876362313369, id="rho-0.001"),
            pytest.param("rho", "1e-6", 2, 1e6, 134995.51623309875713, id="rho-1e-6"),
            pytest.param("rho", "1e-12", 2, 1e6, 134993651228.50396073, id="rho-1e-12"),
        ],
    )
    def test_in_domain_kernel_exponent_computes(self, capsys, tmp_path, flag, value, form, alpha, ratio):
        code, _, err = run(capsys, "kernel-scan", f"--{flag}", value, "--k-range", "1000", "--out", str(tmp_path))
        assert code == 0, err
        _, _, rows = read_csv(tmp_path / "kernel_integrals.csv")
        values = {(int(r[0]), float(r[1])): [float(v) for v in r[2:]] for r in rows}
        assert len(values) == 27 and all(math.isfinite(v) and v >= 0.0 for row in values.values() for v in row)
        for a in (alpha, -alpha):
            integral, bound, got = values[(form, a)]
            assert got == pytest.approx(ratio, rel=1e-14)
            assert integral == (got * bound)  # 0.0 where the integral underflows

    def test_kernel_integral_overflow_exits_2(self, capsys, tmp_path):
        # form 2 at alpha = 0 is 2/rho, beyond a float for a subnormal rho
        code, _, err = run(capsys, "kernel-scan", "--rho", "1e-320", "--out", str(tmp_path))
        assert code == 2
        assert "numerical failure: kernel integral form 2 at alpha=0.0 overflows a float" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_kernel_sum_frequency_beyond_k_range_exits_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "kernel-scan", "--sum-n", "7", "--k-range", "3", "--out", str(tmp_path))
        assert code == 1
        assert "kernel.k_range = 3" in err and "k_range too small for the tail bound at tau 0, n 7" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command, line, flag",
        [
            ("simulate", "run.threads = -1", "--threads"),
            ("gibbs-sample", "gibbs.beta = 2", "--beta"),
            ("gibbs-sample", "gibbs.cutoff_r = -3", "--cutoff"),
            ("verify-invariance", "invariance.z_max = -1", "--z-max"),
            ("bilinear-sweep", "bilinear.w_cells = 0", "--w-cells"),
        ],
    )
    def test_out_of_domain_file_value_names_file_and_line(self, capsys, tmp_path, command, line, flag):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{line}\n")
        code, _, err = run(capsys, command, "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert code == 1
        assert f"{cfg}:1" in err and line.split(" = ")[0] in err
        assert flag not in err
        assert not (tmp_path / "out").exists()

    def test_count_from_config_file_checked(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gibbs.count = 1\n")
        code, _, err = run(capsys, "gibbs-sample", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 1
        assert "gibbs.count" in err

    def test_count_domain_checked_by_its_key(self, capsys, tmp_path):
        # gibbs-sample's count key admits two samples at least, verify-invariance's ESS_FLOOR (an
        # ensemble's effective sample size is at most its count), each rejected by its parser, so a
        # config file's error names its line
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# ensemble\ngibbs.count = 1\n")
        out = str(tmp_path / "out")
        code, _, err = run(capsys, "gibbs-sample", "--config", str(cfg), "--out", out)
        assert (code, err.strip()) == (1, f"error: {cfg}:2: key 'gibbs.count': expected an integer >= 2, got 1")
        code, _, err = run(capsys, "verify-invariance", "--config", str(cfg), "--out", out)
        assert (code, err.strip()) == (1, f"error: {cfg}:2: key 'gibbs.count': expected an integer >= 10, got 1")
        code, _, err = run(capsys, "verify-invariance", "--count", "9", "--out", out)
        assert (code, err.strip()) == (1, "error: --count (gibbs.count): expected an integer >= 10, got 9")
        cfg.write_text("gibbs.count = 10\n")
        args = _build_parser().parse_args(["verify-invariance", "--config", str(cfg)])
        assert _resolve("verify-invariance", args)["gibbs.count"] == 10
        assert not (tmp_path / "out").exists()

    def test_flag_replaces_out_of_domain_file_value(self, tmp_path):
        # only the winning text is parsed, so the file's count of 1 (below the floor of 10) is never checked
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gibbs.count = 1\n")
        args = _build_parser().parse_args(["verify-invariance", "--config", str(cfg), "--count", "20"])
        assert _resolve("verify-invariance", args)["gibbs.count"] == 20


class TestResonanceScanCommand:
    def test_min_ratio_row_at_least_one(self, capsys, tmp_path):
        code, _, _ = run(capsys, "resonance-scan", "--nmax", "8", "--out", str(tmp_path))
        assert code == 0
        _, header, rows = read_csv(tmp_path / "resonance_scan.csv")
        assert header == ["kind", "n", "n1", "R", "ratio"]
        by_kind = {r[0]: r for r in rows}
        assert float(by_kind["admissible-min"][4]) >= 1.0

    def test_histogram_file_written(self, capsys, tmp_path):
        run(capsys, "resonance-scan", "--nmax", "6", "--out", str(tmp_path))
        _, header, rows = read_csv(tmp_path / "resonance_hist.csv")
        assert header == ["ratio_lo", "ratio_hi", "count"]
        assert sum(int(r[2]) for r in rows) > 0

    def test_reruns_byte_identical_and_meta_isolates_timestamp(self, capsys, tmp_path):
        args = ("resonance-scan", "--nmax", "5", "--out", str(tmp_path))
        run(capsys, *args)
        first = (tmp_path / "resonance_scan.csv").read_bytes()
        meta1 = json.loads((tmp_path / "resonance-scan.meta.json").read_text())
        run(capsys, *args)
        second = (tmp_path / "resonance_scan.csv").read_bytes()
        meta2 = json.loads((tmp_path / "resonance-scan.meta.json").read_text())
        assert first == second
        meta1.pop("timestamp")
        meta2.pop("timestamp")
        assert meta1 == meta2

    def test_box_above_cap_exits_1_fast_naming_key(self, capsys, tmp_path):
        # about 4e10 cells per pass at n_max 1e5: rejected before any scan
        start = time.perf_counter()
        code, _, err = run(capsys, "resonance-scan", "--nmax", "100000", "--out", str(tmp_path))
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert "resonance.n_max" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("n_max", [64, 256, 1024, 2048])
    def test_documented_boxes_within_cap(self, n_max):
        args = _build_parser().parse_args(["resonance-scan", "--nmax", str(n_max)])
        assert _resolve("resonance-scan", args)["resonance.n_max"] == n_max


class TestSimulateCommand:
    def test_outputs_embed_config_and_version(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            "simulate", "--modes", "6", "--t", "0.2", "--dt", "0.002",
            "--record-every", "20", "--out", str(tmp_path),
        )
        assert code == 0
        config, header, rows = read_csv(tmp_path / "simulate.csv")
        assert config["version"] == "0.1.0"
        assert config["command"] == "simulate"
        assert config["grid.modes"] == "6"
        assert config["flow.dt"] == "0.002"
        assert header == ["t", "l2", "hamiltonian"]
        l2 = [float(r[1]) for r in rows]
        assert max(abs(v - l2[0]) for v in l2) / l2[0] < 1e-8

    def test_final_state_has_one_row_per_mode(self, capsys, tmp_path):
        run(
            capsys,
            "simulate", "--modes", "6", "--t", "0.05", "--dt", "0.005",
            "--out", str(tmp_path),
        )
        _, header, rows = read_csv(tmp_path / "final_state.csv")
        assert header == ["k", "re", "im"]
        assert [int(r[0]) for r in rows] == list(range(1, 7))

    def test_cosine_initial_state(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            "simulate", "--init", "cosine", "--norm", "0.5", "--modes", "8",
            "--t", "0.05", "--dt", "0.005", "--out", str(tmp_path),
        )
        assert code == 0
        _, _, rows = read_csv(tmp_path / "simulate.csv")
        # |u0| = norm/sqrt(2) * sqrt(A) for a pure cosine of amplitude norm
        assert float(rows[0][1]) == pytest.approx(0.5 * math.sqrt(math.pi), rel=1e-12)

    def test_blow_up_exits_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "simulate", "--modes", "8", "--norm", "1e9", "--t", "1.0",
            "--dt", "0.05", "--out", str(tmp_path),
        )
        assert code == 2
        assert "numerical failure" in err

    def test_domain_violation_exits_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "simulate", "--modes", "-3", "--out", str(tmp_path))
        assert code == 1
        assert "modes" in err

    def test_meta_reports_phase_per_step(self, capsys, tmp_path):
        # length 1 with 6 modes: the top mode turns 54 rad per 1e-3 step
        code, _, _ = run(
            capsys,
            "simulate", "--length", "1", "--modes", "6", "--t", "0.002", "--dt", "0.001",
            "--out", str(tmp_path),
        )
        assert code == 0
        meta = json.loads((tmp_path / "simulate.meta.json").read_text())
        xi = 2.0 * math.pi * 6
        assert meta["summary"]["max_phase_per_step"] == pytest.approx(1e-3 * (xi**3 + 1.0 / xi), rel=1e-12)
        assert meta["summary"]["max_phase_per_step"] > 50.0


class TestGibbsSampleCommand:
    def test_summary_variances_near_ladder(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            "gibbs-sample", "--modes", "4", "--count", "4000", "--out", str(tmp_path),
        )
        assert code == 0
        _, header, rows = read_csv(tmp_path / "gibbs_summary.csv")
        assert header == ["coordinate", "v", "variance", "variance_times_v"]
        assert len(rows) == 8
        for r in rows:
            assert abs(float(r[3]) - 1.0) < 0.2

    def test_two_samples_accepted(self, capsys, tmp_path):
        code, _, _ = run(capsys, "gibbs-sample", "--modes", "2", "--count", "2", "--out", str(tmp_path))
        assert code == 0

    def test_ensemble_directory_written(self, capsys, tmp_path):
        run(capsys, "gibbs-sample", "--modes", "3", "--count", "10", "--out", str(tmp_path))
        assert [f.name for f in (tmp_path / "ensemble").iterdir()] == ["ensemble.npz"]
        assert len(load_ensemble(tmp_path / "ensemble")) == 10

    def test_pcn_sampler_reports_acceptance(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            "gibbs-sample", "--modes", "3", "--count", "200", "--sampler", "pcn-mcmc",
            "--beta", "0.4", "--burn-in", "50", "--out", str(tmp_path),
        )
        assert code == 0
        meta = json.loads((tmp_path / "gibbs-sample.meta.json").read_text())
        assert 0.0 < meta["summary"]["acceptance_rate"] <= 1.0

    def test_sidecar_reports_phases_and_chain_counters(self, capsys, tmp_path):
        base = ("gibbs-sample", "--modes", "3", "--count", "200")
        run(capsys, *base, "--out", str(tmp_path / "iid"))
        run(capsys, *base, "--sampler", "pcn-mcmc", "--burn-in", "50", "--out", str(tmp_path / "pcn"))
        iid = json.loads((tmp_path / "iid" / "gibbs-sample.meta.json").read_text())["summary"]
        pcn = json.loads((tmp_path / "pcn" / "gibbs-sample.meta.json").read_text())["summary"]
        for summary in (iid, pcn):
            assert summary["sample_s"] > 0.0 and summary["write_s"] > 0.0
        assert "chain_steps" not in iid and "g_evaluations" not in iid
        # no cutoff: g runs on the start state and once per step
        assert pcn["chain_steps"] == 250
        assert pcn["g_evaluations"] == 251


class TestVerifyInvarianceCommand:
    def test_t_zero_control_all_z_exactly_zero(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "verify-invariance", "--modes", "4", "--count", "2000",
            "--t-values", "0.0", "--out", str(tmp_path),
        )
        assert code == 0
        doc = json.loads((tmp_path / "invariance.json").read_text())
        results = doc["reports"][0]["results"]
        assert len(results) == 7  # default observable set
        assert all(r["z"] == 0.0 for r in results)
        assert all(r["pass"] for r in results)
        assert "PASS" in out

    def test_failed_z_gate_exits_3(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "verify-invariance", "--modes", "4", "--count", "500", "--dt", "0.01",
            "--z-max", "0", "--t-values", "0.1", "--out", str(tmp_path),
        )
        assert code == 3
        assert "FAIL" in out
        doc = json.loads((tmp_path / "invariance.json").read_text())
        assert not all(r["pass"] for r in doc["reports"][0]["results"])

    def test_meta_reports_phase_per_step(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            "verify-invariance", "--modes", "4", "--count", "100", "--dt", "0.002",
            "--t-values", "0.0", "--out", str(tmp_path),
        )
        assert code == 0
        meta = json.loads((tmp_path / "verify-invariance.meta.json").read_text())
        assert meta["summary"]["max_phase_per_step"] == pytest.approx(0.002 * (4**3 + 1 / 4), rel=1e-12)

    def test_results_independent_of_thread_count(self, capsys, tmp_path):
        # 1500 rows fit in one row block; 4500 span three
        for count in ("1500", "4500"):
            base = (
                "verify-invariance", "--modes", "4", "--count", count,
                "--t-values", "0.2,0.4", "--dt", "0.01", "--out", str(tmp_path),
            )
            run(capsys, *base, "--threads", "1")
            one = json.loads((tmp_path / "invariance.json").read_text())["reports"]
            run(capsys, *base, "--threads", "3")
            three = json.loads((tmp_path / "invariance.json").read_text())["reports"]
            assert one == three

    @pytest.mark.parametrize("value", ["nan", "inf", "0.1,nan", "-inf"])
    def test_non_finite_t_values_exit_1(self, capsys, tmp_path, value):
        code, _, err = run(
            capsys,
            "verify-invariance", "--modes", "4", "--count", "100",
            "--t-values", value, "--out", str(tmp_path),
        )
        assert code == 1
        assert "invariance.t_values" in err
        assert not (tmp_path / "invariance.json").exists()

    def test_custom_observable_tokens(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            "verify-invariance", "--modes", "4", "--count", "1000",
            "--t-values", "0.0", "--observables", "mode_power(2),l2_squared",
            "--out", str(tmp_path),
        )
        assert code == 0
        doc = json.loads((tmp_path / "invariance.json").read_text())
        names = [r["name"] for r in doc["reports"][0]["results"]]
        assert names == ["mode_power(2)", "l2_squared"]

    def test_unknown_observable_exits_1(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "verify-invariance", "--modes", "4", "--observables", "entropy",
            "--out", str(tmp_path),
        )
        assert code == 1
        assert "entropy" in err

    def test_mode_power_beyond_grid_exits_1(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "verify-invariance", "--modes", "4", "--observables", "mode_power(9)",
            "--out", str(tmp_path),
        )
        assert code == 1
        assert "mode_power(9)" in err

    def test_degenerate_weights_exit_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "verify-invariance", "--modes", "4", "--count", "300",
            "--cutoff", "0.001", "--t-values", "0.1", "--out", str(tmp_path),
        )
        assert code == 2
        assert "numerical failure" in err


class TestAnalysisCommands:
    def test_picard_artifacts(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "picard", "--modes", "8", "--norm", "0.1", "--t", "0.05",
            "--iters", "5", "--ref-dt", "0.001", "--out", str(tmp_path),
        )
        assert code == 0
        _, header, rows = read_csv(tmp_path / "picard.csv")
        assert header == ["iteration", "distance"]
        assert len(rows) == 5
        meta = json.loads((tmp_path / "picard.meta.json").read_text())
        assert meta["summary"]["diverged"] is False
        assert meta["summary"]["endpoint_error"] < 1e-6
        assert meta["summary"]["nodes"] == 321  # 6400 per unit time at T = 0.05, plus one
        assert "contracting" in out

    @pytest.mark.parametrize("argv, code", [([], 0), (["--modes", "16", "--k0", "8"], 3)], ids=["default", "k0-8"])
    def test_picard_exits_3_above_criterion_11_bound(self, capsys, tmp_path, argv, code):
        # on the default 641-node grid the default data read 2.679e-07, k0 = 8 data 8.948e-06
        rc, out, _ = run(capsys, "picard", *argv, "--out", str(tmp_path))
        summary = json.loads((tmp_path / "picard.meta.json").read_text())["summary"]
        assert (rc, "FAIL" in out, summary["endpoint_error"] > _PICARD_ENDPOINT_TOL) == (code, code == 3, code == 3)
        assert summary["diverged"] is False
        assert (tmp_path / "picard.csv").is_file()
        assert _PICARD_ENDPOINT_TOL == 1e-6

    def test_picard_overflow_is_a_fail_not_an_error(self, capsys, tmp_path):
        # the iterates overflow to non-finite values; this used to exit 1 with "coeff must be finite"
        # after numpy RuntimeWarning lines
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc, out, err = run(capsys, "picard", "--norm", "1000", "--out", str(tmp_path))
        assert rc == 3
        assert "diverged" in out and "[FAIL]" in out
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "RuntimeWarning" not in err and "Traceback" not in err
        assert (tmp_path / "picard.csv").is_file()
        # here the reference flow blows up too: a numerical failure
        assert run(capsys, "picard", "--norm", "1e6", "--iters", "20", "--out", str(tmp_path / "ref"))[0] == 2

    @pytest.mark.parametrize("norm", ["100", "1000"], ids=["infinite", "nan"])
    def test_picard_non_finite_endpoint_error_is_null(self, capsys, tmp_path, norm):
        # the sidecar stays strict JSON: no bare Infinity or NaN token
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        rc, _, _ = run(capsys, "picard", "--norm", norm, "--out", str(tmp_path))
        meta = json.loads((tmp_path / "picard.meta.json").read_text(), parse_constant=reject)
        assert (rc, meta["summary"]["endpoint_error"]) == (3, None)

    def test_convergence_m_decreasing(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            "convergence-m", "--m", "4,8", "--t", "0.1", "--dt", "0.002",
            "--record-every", "10", "--out", str(tmp_path),
        )
        assert code == 0
        _, _, rows = read_csv(tmp_path / "convergence_m.csv")
        errors = [float(r[1]) for r in rows]
        assert errors[1] < errors[0]
        meta = json.loads((tmp_path / "convergence-m.meta.json").read_text())
        assert meta["summary"]["strictly_decreasing"] is True

    def test_convergence_m_requires_increasing_list(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "convergence-m", "--m", "8,4", "--out", str(tmp_path)
        )
        assert code == 1
        assert "increasing" in err

    def test_kernel_scan_single_constant(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "kernel-scan", "--alpha", "0,1,-10", "--sum-tau", "0,5",
            "--sum-n", "1,2", "--k-range", "2000", "--out", str(tmp_path),
        )
        assert code == 0
        meta = json.loads((tmp_path / "kernel-scan.meta.json").read_text())
        assert meta["summary"]["single_constant"] <= 10.0
        _, header, rows = read_csv(tmp_path / "kernel_integrals.csv")
        assert header == ["form", "alpha", "integral", "bound", "ratio"]
        assert len(rows) == 9  # 3 forms x 3 alphas
        assert "constant" in out

    def test_bilinear_sweep_rows(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            "bilinear-sweep", "--s", "0,-0.5", "--nmax", "4,8", "--trials", "1",
            "--out", str(tmp_path),
        )
        assert code == 0
        _, header, rows = read_csv(tmp_path / "bilinear_sweep.csv")
        assert header == ["s", "n_max", "max_ratio", "candidate"]
        assert len(rows) == 4
        assert all(float(r[2]) > 0.0 for r in rows)
        # sorted by (s, n_max)
        keys = [(float(r[0]), int(r[1])) for r in rows]
        assert keys == sorted(keys)

    def test_bilinear_sweep_reaches_4096(self, capsys, tmp_path):
        nmax = ",".join(str(2**k) for k in range(4, 13))
        code, _, _ = run(capsys, "bilinear-sweep", "--nmax", nmax, "--out", str(tmp_path))
        assert code == 0
        _, _, rows = read_csv(tmp_path / "bilinear_sweep.csv")
        assert len(rows) == 27
        slopes = json.loads((tmp_path / "bilinear-sweep.meta.json").read_text())["summary"]["log_log_slope"]
        # halving per doubling at s = 0, flat at s = -1/2, 2^0.2 per doubling at s = -0.6
        assert abs(slopes["0.0"] + 1.0) < 0.05
        assert abs(slopes["-0.5"]) < 0.01
        assert abs(slopes["-0.6"] - 0.2) < 0.01

    def test_bilinear_sweep_single_size_has_no_slope(self, capsys, tmp_path):
        code, _, _ = run(capsys, "bilinear-sweep", "--s", "0", "--nmax", "8", "--out", str(tmp_path))
        assert code == 0
        meta = json.loads((tmp_path / "bilinear-sweep.meta.json").read_text())
        assert meta["summary"]["log_log_slope"] == {"0.0": None}

    @pytest.mark.parametrize("nmax", ["16,1048576", "9223372036854775807"])
    def test_bilinear_tau_index_beyond_2_52_exits_1(self, capsys, tmp_path, nmax):
        # at d_tau = 16, n_max 2**20 puts floor(tau_max/d_tau) near 7.2e16
        code, _, err = run(capsys, "bilinear-sweep", "--nmax", nmax, "--out", str(tmp_path))
        assert code == 1
        assert "bilinear.n_max_values" in err and "2**52" in err
        assert "Traceback" not in err
        assert not (tmp_path / "bilinear_sweep.csv").exists()


class TestStepCap:
    @pytest.mark.parametrize(
        "argv, keys, steps",
        [
            pytest.param(["simulate", "--t", "1e300"], "flow.t (flow.dt)", "t = 1e+300 at dt = 0.001 takes 1e+303",
                         id="simulate"),
            pytest.param(["convergence-m", "--t", "1e300"], "convergence.t (flow.dt)",
                         "t = 1e+300 at dt = 0.001 takes 1e+303", id="convergence-m"),
            pytest.param(["verify-invariance", "--t-values", "1e300"], "invariance.t_values (flow.dt)",
                         "t = 1e+300 at dt = 0.001 takes 1e+303", id="verify-invariance"),
            # these ran for seconds before the cap fired (the draw, or Picard's iterations), or exited 2 on ESS
            pytest.param(["verify-invariance", "--t-values", "0.5,2000", "--modes", "8", "--count", "200000"],
                         "invariance.t_values (flow.dt)", "t = 2000 at dt = 0.001 takes 2e+06",
                         id="verify-invariance-after-draw"),
            pytest.param(["verify-invariance", "--t-values", "0.5,2000", "--modes", "8", "--count", "10"],
                         "invariance.t_values (flow.dt)", "t = 2000 at dt = 0.001 takes 2e+06",
                         id="verify-invariance-small-count"),
            pytest.param(["picard", "--t", "20", "--ref-dt", "1e-5"], "picard.t (picard.ref_dt)",
                         "t = 20 at dt = 1e-05 takes 2e+06", id="picard"),
        ],
    )
    def test_huge_time_exits_1_fast_without_artifacts(self, capsys, tmp_path, argv, keys, steps):
        # rejected with the configuration, before any sample is drawn or iterate taken
        start = time.perf_counter()
        code, _, err = run(capsys, *argv, "--out", str(tmp_path))
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert f"{keys}: {steps} steps, above the cap of {_MAX_STEPS}" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flag, value, key",
        [("t", "1e4", "picard.t"), ("t", "1e300", "picard.t")],
    )
    def test_picard_grid_beyond_node_cap_exits_1_fast(self, capsys, tmp_path, flag, value, key):
        # the (nodes, m) tables of picard_solve would need gigabytes before any step
        start = time.perf_counter()
        code, _, err = run(capsys, "picard", f"--{flag}", value, "--out", str(tmp_path))
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert f"--{flag} ({key}): expected" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["--k-range", "0"], "kernel.k_range"),
            (["--k-range", str(_KERNEL_K_MAX + 1)], "kernel.k_range"),
            (["--sum-n", "1,10000000000000"], "kernel.sum_n_values"),
        ],
    )
    def test_kernel_sum_range_beyond_cap_exits_1_fast(self, capsys, tmp_path, argv, key):
        # the symbol table holds 2(k_range + max |n|) + 1 floats, so 1e13 would need 160 TB
        start = time.perf_counter()
        code, _, err = run(capsys, "kernel-scan", *argv, "--out", str(tmp_path))
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert f"({key}): expected" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_kernel_sum_cap_edges_accepted(self):
        resolve = lambda *argv: _resolve("kernel-scan", _build_parser().parse_args(["kernel-scan", *argv]))
        assert resolve("--k-range", str(_KERNEL_K_MAX))["kernel.k_range"] == _KERNEL_K_MAX
        cap = _KERNEL_K_MAX
        sum_n = next(k for k in _COMMANDS["kernel-scan"][1] if k.name == "kernel.sum_n_values")
        assert sum_n.parse(f"{-cap},{cap}") == (-cap, cap)
        # forms 2 and 3 need k_range^3 / 2 above |m(n)| + 3, so no k_range up to the cap serves |n| = cap
        with pytest.raises(ConfigError, match=rf"^kernel\.k_range = {cap} .*tail bound at tau 0, n -{cap}$"):
            resolve("--sum-n", f"{-cap},{cap}", "--k-range", str(cap))

    @pytest.mark.parametrize("argv", [("--modes", "4096", "--t", "40"), ("--modes", "32", "--t", "40"),
                                      ("--modes", "17", "--t", "40")], ids=" ".join)
    def test_picard_tables_beyond_cell_cap_exit_1_fast(self, capsys, tmp_path, argv):
        # nodes x modes bounds the (nodes, m) tables: 4096 modes at T = 40 would need 15.6 GiB each
        start = time.perf_counter()
        code, _, err = run(capsys, "picard", *argv, "--out", str(tmp_path))
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert f"grid.modes = {argv[1]} on {_MAX_NODES} nodes (picard.t = 40.0)" in err
        assert f"above the cap of {_PICARD_CELLS_MAX}" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_picard_cap_edges_accepted(self, capsys, tmp_path):
        # T = 40 is the longest grid inside the node cap, and 16 modes on it fill the cell cap
        resolve = lambda *argv: _resolve("picard", _build_parser().parse_args(["picard", *argv]))
        assert resolve("--modes", "16", "--t", "40")["picard.t"] == 40.0
        assert run(capsys, "picard", "--t", "40.001", "--out", str(tmp_path))[0] == 1
        assert _PICARD_CELLS_MAX == 16 * _MAX_NODES

    @pytest.mark.parametrize(
        "argv, count, modes",
        [
            (["gibbs-sample", "--count", "1000000000"], 1000000000, 16),
            (["gibbs-sample", "--count", "1000000000", "--sampler", "pcn-mcmc"], 1000000000, 16),
            (["gibbs-sample", "--modes", "100000000", "--count", "2"], 2, 100000000),
            (["verify-invariance", "--modes", "8", "--count", "100000000"], 100000000, 8),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else None,
    )
    def test_sample_stack_beyond_cap_exits_1_fast(self, capsys, tmp_path, argv, count, modes):
        # the ensemble and its real coordinates; these used to end in a numpy _ArrayMemoryError traceback
        start = time.perf_counter()
        code, _, err = run(capsys, *argv, "--out", str(tmp_path))
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert (f"gibbs.count = {count} at grid.modes = {modes} is a ({count}, {modes}) complex ensemble and its "
                f"({count}, {2 * modes}) float64 coordinates of {32 * count * modes} bytes, above the cap of "
                f"{_STACK_BYTES_MAX}") in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_sample_stack_cap_edges(self):
        resolve = lambda *argv: _resolve(argv[0], _build_parser().parse_args(list(argv)))
        # the cap's edge, criterion 5's draw and the benchmark's stacks
        for command, count in [("gibbs-sample", 1048576), ("verify-invariance", 1048576), ("gibbs-sample", 100000),
                               ("verify-invariance", 20000), ("gibbs-sample", 20000)]:
            assert resolve(command, "--modes", "8", "--count", str(count))["gibbs.count"] == count
        assert resolve("gibbs-sample")["gibbs.count"] == 1000
        for command in ("gibbs-sample", "verify-invariance"):
            with pytest.raises(ConfigError, match=r"^gibbs\.count = 1048577 at grid\.modes = 8 "):
                resolve(command, "--modes", "8", "--count", "1048577")

    def test_value_stack_beyond_cap_exits_1_fast(self, capsys, tmp_path):
        # 101 x 7 x 2**20 float64 observable values, 22 times the cap, passed _resolve when a state stack was held
        times = ",".join(f"{0.001 * (i + 1):g}" for i in range(100))
        start = time.perf_counter()
        code, _, err = run(capsys, "verify-invariance", "--modes", "8", "--count", "1048576", "--t-values", times,
                           "--out", str(tmp_path))
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert ("invariance.t_values (100 times, and t = 0) with gibbs.count = 1048576 and 7 observables is a "
                f"(101, 7, 1048576) float64 value stack of {101 * 7 * 8 << 20} bytes, above the cap of "
                f"{_STACK_BYTES_MAX}") in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_value_stack_cap_edges(self):
        resolve = lambda *argv: _resolve("verify-invariance", _build_parser().parse_args(["verify-invariance", *argv]))
        # 16 walk entries of 4 observables over 2**19 samples fill the cap; one more sample or time exceeds it
        obs = ["--observables", " mode_power(1), mode_power(2),,mode_power(3),mode_power(4) "]
        times = [f"{0.001 * (i + 1):g}" for i in range(16)]
        edge = resolve("--modes", "8", "--count", str(2**19), "--t-values", ",".join(times[:15]), *obs)
        assert 16 * 4 * 8 * edge["gibbs.count"] == _STACK_BYTES_MAX
        for count, walk in ((2**19 + 1, 15), (2**19, 16)):
            with pytest.raises(ConfigError, match=rf"^invariance\.t_values \({walk} times, and t = 0\) with "
                                                  rf"gibbs\.count = {count} and 4 observables is a "):
                resolve("--modes", "8", "--count", str(count), "--t-values", ",".join(times[:walk]), *obs)

    @pytest.mark.parametrize(
        "argv, stack",
        [
            (["simulate", "--modes", "100000000", "--t", "0.001"],
             "grid.modes = 100000000 needs a (100000000, 32) complex ETDRK4 contour table of 51200000000 bytes"),
            (["convergence-m", "--m", "8,1000000", "--t", "0.001"],
             "convergence.m_values = 8,1000000 (a reference of 2000000 modes) needs a (2000000, 32) complex ETDRK4 "
             "contour table of 1024000000 bytes"),
            # verify-invariance's fewest samples, on a grid whose ensemble fits the cap and whose contour table does not
            (["verify-invariance", "--modes", "800000", "--count", "10"],
             "grid.modes = 800000 needs a (800000, 32) complex ETDRK4 contour table of 409600000 bytes"),
            (["picard", "--modes", "1000000"],
             "grid.modes = 1000000 needs a (1000000, 32) complex ETDRK4 contour table of 512000000 bytes"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else None,
    )
    def test_flow_stack_beyond_cap_exits_1_fast(self, capsys, tmp_path, argv, stack):
        # the first two used to end in a numpy _ArrayMemoryError traceback under a 2 GB address-space limit
        start = time.perf_counter()
        code, _, err = run(capsys, *argv, "--out", str(tmp_path))
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert f"{stack}, above the cap of {_STACK_BYTES_MAX}" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_flow_stack_cap_edges(self):
        resolve = lambda *argv: _resolve(argv[0], _build_parser().parse_args(list(argv)))
        # each contour table at the cap itself, the acceptance operating points and the benchmark's runs
        for argv in [("simulate", "--modes", "524288", "--t", "0"), ("convergence-m", "--m", "8,262144", "--t", "0"),
                     ("simulate", "--modes", "16384", "--t", "1.023"),
                     ("simulate", "--modes", "16", "--t", "1000", "--record-every", "1"),
                     ("simulate", "--modes", "32", "--t", "10", "--record-every", "100"),
                     ("convergence-m", "--m", "8,16,32"), ("picard", "--modes", "16"),
                     ("verify-invariance", "--modes", "8", "--count", "20000", "--t-values", "0.5,1.0")]:
            resolve(*argv)
        for argv, key in [(("simulate", "--modes", "524289", "--t", "0"), "grid.modes = 524289 needs"),
                          (("convergence-m", "--m", "8,262145", "--t", "0"), "convergence.m_values = 8,262145 ")]:
            with pytest.raises(ConfigError, match=rf"^{re.escape(key)}"):
                resolve(*argv)

    def test_record_count_has_no_cap(self):
        # simulate and convergence-m hold no record stack, so their record count is not capped
        resolve = lambda *argv: _resolve(argv[0], _build_parser().parse_args(list(argv)))
        assert resolve("simulate", "--modes", "16384", "--t", "1.024")["flow.t"] == 1.024
        assert resolve("convergence-m", "--m", "8,140000", "--t", "1", "--record-every", "1")[
            "convergence.m_values"] == (8, 140000)


class TestOutputDirectory:
    def test_env_var_default(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("OSTLAB_OUTDIR", str(tmp_path / "envdir"))
        code, _, _ = run(capsys, "resonance-scan", "--nmax", "4")
        assert code == 0
        assert (tmp_path / "envdir" / "resonance_scan.csv").is_file()

    def test_flag_beats_env_var(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("OSTLAB_OUTDIR", str(tmp_path / "envdir"))
        code, _, _ = run(capsys, "resonance-scan", "--nmax", "4", "--out", str(tmp_path / "flagdir"))
        assert code == 0
        assert (tmp_path / "flagdir" / "resonance_scan.csv").is_file()
        assert not (tmp_path / "envdir").exists()

    def test_nested_directory_created(self, capsys, tmp_path):
        target = tmp_path / "a" / "b"
        code, _, _ = run(capsys, "resonance-scan", "--nmax", "4", "--out", str(target))
        assert code == 0
        assert (target / "resonance_scan.csv").is_file()
