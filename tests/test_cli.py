"""Command-line interface: commands, config files, CSV determinism, exit codes."""

import contextlib
import io
import json
import math
import re
import shlex
from pathlib import Path

import mpmath
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fogsim import cli, sagnac
from fogsim.cli import RunConfig, format_number, main
from fogsim.sagnac import db_to_photons


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_in_process(argv):
    """(exit code, stdout, stderr) of ``main`` without pytest fixtures."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def command_flags(command):
    """Every flag a command accepts, read from its help text."""
    with contextlib.redirect_stdout(io.StringIO()) as help_text:
        assert main([command, "--help"]) == 0
    return set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", help_text.getvalue())) - {"--help"}


def assert_usage_error(result, *named):
    """Exit 2, no output, and one stderr line naming each of ``named``."""
    code, out, err = result
    assert (code, out) == (2, "")
    assert err.startswith("fogsim: error:") and err.count("\n") == 1
    assert all(word in err for word in named), err


def table_rejection(err):
    """Whether ``err`` is a rejection by the input domain table or the design rules."""
    message = err.removeprefix("fogsim: error: ")
    names = {name for name, *_ in sagnac.DOMAIN.values()}
    return (any(message.startswith(f"{name} must ") for name in names)
            or message.startswith("design ") or " overflows the squeezed" in message)


def parse_csv(text):
    lines = text.strip().split("\n")
    assert lines[0].startswith("# ")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


class TestTable:
    def test_values_and_cross_validation(self, capsys):
        code, out, _ = run(capsys, "table1")
        assert code == 0
        header, rows = parse_csv(out)
        assert rows[0][0].startswith("5.0")
        assert rows[-1][0] == "inf"
        expected_row1 = (1.116, 1.168, 1.187, 1.193, 1.196)
        expected_row2 = (1.435, 1.837, 2.154, 2.375, 2.718)
        for row, r1, r2 in zip(rows, expected_row1, expected_row2):
            analytic_1, numeric_1, diff_1 = map(float, row[1:4])
            analytic_2, numeric_2, diff_2 = map(float, row[4:7])
            assert analytic_1 == pytest.approx(r1, abs=1e-3)
            assert numeric_1 == pytest.approx(r1, abs=1e-3)
            assert analytic_2 == pytest.approx(r2, abs=1e-3)
            assert numeric_2 == pytest.approx(r2, abs=1e-3)
            assert diff_1 <= 1e-3 and diff_2 <= 1e-3

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "table1", "--format", "json")
        assert code == 0
        records = json.loads(out)
        assert len(records) == 5
        assert records[1]["improvement_m_opt_analytic"] == pytest.approx(1.837, abs=1e-3)


class TestVariance:
    def test_classical_example(self, capsys):
        code, out, _ = run(
            capsys, "variance", "--design", "C", "--t", "1", "--eta", "0.5",
            "--n-v", "100",
        )
        assert code == 0
        record = json.loads(out)
        assert record["variance"] == pytest.approx(0.02, rel=1e-12)

    def test_eta_from_fiber_model(self, capsys):
        code, out, _ = run(
            capsys, "variance", "--design", "E", "--m", "4", "--squeeze-db", "10",
            "--length-km", "15", "--b", "0.5", "--t", "1",
        )
        assert code == 0
        record = json.loads(out)
        assert record["eta"] == pytest.approx(10 ** (-0.5 * (15 / 4) / 10), rel=1e-12)

    def test_missing_eta_is_config_error(self, capsys):
        code, _, err = run(capsys, "variance", "--design", "C")
        assert code == 2
        assert "eta" in err

    @pytest.mark.parametrize("design, m", [("S", "1"), ("E", "4"), ("P", "4")])
    def test_infinite_squeezing_leaves_the_loss_floor(self, capsys, design, m):
        code, out, err = run(
            capsys, "variance", "--design", design, "--m", m, "--squeeze-db", "inf",
            "--eta", "0.9",
        )
        assert (code, err) == (0, "")
        record = json.loads(out)
        assert record["n_squeezed"] == "inf"
        laser_only = 1.0 / (0.9 * int(m) * 100.0)
        assert record["variance"] == pytest.approx(laser_only * (1.0 - 0.9), rel=1e-12)


class TestOptimize:
    def test_fixed_length_count_search(self, capsys):
        code, out, _ = run(
            capsys, "optimize", "--design", "E", "--fix-length", "15",
            "--b", "0.5", "--squeeze-db", "10",
        )
        assert code == 0
        record = json.loads(out)
        n_s = db_to_photons(10.0)
        from fogsim.optimize import optimize_m_integer

        search = optimize_m_integer("E", 0.5, 15.0, n_s)
        assert record["m_best"] == search.m_best
        assert record["m_continuous"] == pytest.approx(4.4093, abs=2e-4)
        assert record["improvement_fixed_length"] == pytest.approx(1.837, abs=1e-3)

    def test_length_mode(self, capsys):
        code, out, _ = run(capsys, "optimize", "--design", "C", "--b", "0.5")
        assert code == 0
        record = json.loads(out)
        assert record["length_opt_km"] == pytest.approx(17.372, abs=5e-4)
        assert record["relative_length_difference"] < 1e-6


class TestRatio:
    def test_ratios_record(self, capsys):
        code, out, _ = run(capsys, "ratio", "--squeeze-db", "10", "--eta", "0.8")
        assert code == 0
        record = json.loads(out)
        assert record["ratio_fixed_eta"] == pytest.approx(0.8 / 10 + 0.2, rel=1e-12)
        assert record["improvement_optimal_m"] == pytest.approx(1.837, abs=1e-3)

    def test_infinite_squeezing(self, capsys):
        code, out, _ = run(capsys, "ratio", "--squeeze-db", "inf")
        assert code == 0
        record = json.loads(out)
        assert record["ratio_optimal_m"] == pytest.approx(1 / math.e, rel=1e-12)
        assert record["n_squeezed"] == "inf"


class TestSimulate:
    def test_rejects_infinite_squeezing(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--design", "S", "--squeeze-db", "inf", "--eta", "0.9"
        )
        assert (code, out) == (2, "")
        assert "finite" in err

    def test_matches_analytic_on_defaults(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--design", "E", "--m", "4", "--squeeze-db", "10",
            "--eta", "0.8", "--t", "1",
        )
        assert code == 0
        record = json.loads(out)
        assert record["relative_deviation"] <= 1e-9

    def test_reports_homodyne_statistics(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--design", "S", "--squeeze-db", "10",
            "--eta", "0.8", "--phi", "0.01", "--n-v", "100",
        )
        assert code == 0
        record = json.loads(out)
        assert record["homodyne_mean"] == pytest.approx(
            math.sqrt(0.8) * math.sin(0.01) * 10.0, rel=1e-12
        )

    @pytest.mark.parametrize("eta", [0.5, 1.0])
    @pytest.mark.parametrize("sigma_db", [0.0, 30.0, 80.0, 120.0])
    @pytest.mark.parametrize("design, m", [("S", 1), ("P", 1), ("P", 16), ("E", 1), ("E", 16)])
    def test_high_squeezing_matches_high_precision_closed_form(
        self, capsys, design, m, sigma_db, eta
    ):
        code, out, err = run(
            capsys, "simulate", "--design", design, "--m", str(m),
            "--squeeze-db", str(sigma_db), "--eta", str(eta), "--n-v", "100",
        )
        assert (code, err) == (0, "")
        record = json.loads(out)
        with mpmath.workdps(50):
            per_port = mpmath.mpf(record["n_squeezed"]) / (m if design == "P" else 1)
            dark = 1 / (4 * (mpmath.sqrt(1 + per_port) + mpmath.sqrt(per_port)) ** 2)
            e = mpmath.mpf(eta)
            # (2 / T)^2 Var / slope^2 at T = 1, slope^2 = eta * M * n_v.
            exact = 4 * (e * dark + (1 - e) / 4) / (e * m * 100)
            deviation = abs(record["estimator_variance_sim"] - exact) / exact
        assert deviation <= 1e-12

    @pytest.mark.parametrize("design", ["S", "E", "P"])
    @pytest.mark.parametrize("sigma_db", ["1000", "3000"])
    @pytest.mark.filterwarnings("error")
    def test_squeezing_up_to_the_overflow_limit(self, capsys, design, sigma_db):
        # At 3000 dB the squeezed variances are 2.5e299 and 2.5e-301: the
        # state is pure, and the circuit agrees with the closed form.
        code, out, err = run(
            capsys, "simulate", "--design", design, "--squeeze-db", sigma_db, "--eta", "0.5"
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["relative_deviation"] <= 1e-15

    @pytest.mark.parametrize("command", ["variance", "simulate"])
    @pytest.mark.parametrize("design, m", [("S", "1"), ("E", "4"), ("P", "16")])
    @pytest.mark.parametrize("flag, key", [("--squeeze-db", "squeeze_db"), ("--n-squeezed", "n_squeezed")])
    @pytest.mark.filterwarnings("error")
    def test_largest_declared_squeezing_runs_on_every_route(self, capsys, command, design, m, flag, key):
        largest = repr(sagnac.DOMAIN[key][3])
        code, out, err = run(capsys, command, "--design", design, "--m", m, flag, largest, "--eta", "0.5")
        assert (code, err) == (0, "")
        assert json.loads(out)["n_squeezed"] <= sagnac.DOMAIN["n_squeezed"][3]

    @pytest.mark.parametrize("command", ["variance", "simulate"])
    @pytest.mark.parametrize("design", ["S", "E", "P"])
    @pytest.mark.filterwarnings("error")
    def test_squeezing_past_the_overflow_limit_is_named(self, capsys, command, design):
        assert run(
            capsys, command, "--design", design, "--squeeze-db", "3080", "--eta", "0.5"
        ) == (2, "", "fogsim: error: 3080.0 dB of squeezing overflows the squeezed photon "
                     "number; use 'inf' for the infinite-squeezing limit\n")


class TestFigures:
    def test_classical_curve_minimum_location(self, capsys):
        code, out, _ = run(capsys, "figure", "--id", "3b")
        assert code == 0
        header, rows = parse_csv(out)
        lengths = [float(r[0]) for r in rows]
        classical = [float(r[1]) for r in rows]
        best = lengths[classical.index(min(classical))]
        assert best == pytest.approx(17.372, abs=0.3)

    def test_single_interferometer_bars_coincide(self, capsys):
        code, out, _ = run(capsys, "figure", "--id", "5")
        assert code == 0
        header, rows = parse_csv(out)
        assert header[0] == "m"
        first = rows[0]
        assert int(first[0]) == 1
        p_shared, p_per_mode, entangled = map(float, first[2:5])
        assert p_shared == pytest.approx(entangled, rel=1e-12)
        assert p_per_mode == pytest.approx(entangled, rel=1e-12)

    def test_per_mode_product_tracks_entangled_for_all_counts(self, capsys):
        code, out, _ = run(capsys, "figure", "--id", "5")
        _, rows = parse_csv(out)
        for row in rows:
            assert float(row[3]) == pytest.approx(float(row[4]), rel=1e-12)

    def test_ratio_surfaces_ordered(self, capsys):
        code, out, _ = run(capsys, "figure", "--id", "7")
        assert code == 0
        header, rows = parse_csv(out)
        idx = {name: i for i, name in enumerate(header)}
        for row in rows:
            r_p = float(row[idx["ratio_p"]])
            r_e = float(row[idx["ratio_e"]])
            floor_value = float(row[idx["one_minus_eta"]])
            assert r_e <= r_p + 1e-12
            assert r_e >= floor_value - 1e-12
            assert r_p >= floor_value - 1e-12

    def test_figure_3a_lossless_has_heisenberg_scaling(self, capsys):
        code, out, _ = run(capsys, "figure", "--id", "3a")
        assert code == 0
        header, rows = parse_csv(out)
        idx = {name: i for i, name in enumerate(header)}
        n = [float(r[idx["n_photons"]]) for r in rows]
        squeezed = [float(r[idx["squeezed_eta_1.0"]]) for r in rows]
        hi, lo = n.index(min(n, key=lambda v: abs(v - 1e2))), n.index(
            min(n, key=lambda v: abs(v - 1e4))
        )
        slope = (math.log(squeezed[lo]) - math.log(squeezed[hi])) / (
            math.log(n[lo]) - math.log(n[hi])
        )
        assert slope == pytest.approx(-2.0, abs=0.02)

    def test_figure_6_emits_profiles_and_parametric_optimum(self, capsys):
        code, out, _ = run(capsys, "figure", "--id", "6")
        assert code == 0
        header, rows = parse_csv(out)
        assert "design_e_15km" in header
        assert "param_m_e" in header

    def test_unknown_id_rejected(self, capsys):
        assert_usage_error(run(capsys, "figure", "--id", "9"), "'figure_id'", "3a, 3b, 5, 6, 7", "'9'")

    @pytest.mark.parametrize("key, figure_id", [("fig6_max_m", "6"), ("fig7_max_m", "7")])
    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_count_below_one_is_named(self, capsys, tmp_path, key, figure_id, count):
        config = tmp_path / "count.cfg"
        config.write_text(f"{key} = {count}\n")
        assert run(capsys, "figure", "--id", figure_id, "--config", str(config)) == (
            2, "", f"fogsim: error: {key} must be at least 1, got {count}\n")

    def test_id_from_a_config_file(self, capsys, tmp_path):
        config = tmp_path / "figure.cfg"
        config.write_text("figure_id = 5\n")
        from_file = run(capsys, "figure", "--config", str(config))
        assert from_file[0] == 0 and from_file == run(capsys, "figure", "--id", "5")

    def test_determinism_and_number_format(self, capsys, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(["figure", "--id", "3b", "--out", str(first)]) == 0
        assert main(["figure", "--id", "3b", "--out", str(second)]) == 0
        a, b = first.read_bytes(), second.read_bytes()
        assert a == b
        pattern = re.compile(r"^-?\d\.\d{11}e[+-]\d{2,3}$")
        _, rows = parse_csv(a.decode())
        for row in rows[:10]:
            for cell in row:
                if cell:
                    assert pattern.match(cell), cell


class TestConfigFile:
    def test_file_plus_flag_override(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "# comment line\n"
            "design = C\n"
            "n_v = 100\n"
            "eta = 0.5\n"
            "time_factor_s = 1\n"
        )
        code, out, _ = run(capsys, "variance", "--config", str(config))
        assert code == 0
        assert json.loads(out)["variance"] == pytest.approx(0.02)
        code, out, _ = run(
            capsys, "variance", "--config", str(config), "--eta", "0.25"
        )
        assert code == 0
        assert json.loads(out)["variance"] == pytest.approx(0.04)

    def test_unknown_key_named_in_error(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("not_a_key = 3\n")
        code, _, err = run(capsys, "variance", "--config", str(config))
        assert code == 2
        assert "not_a_key" in err

    def test_malformed_line(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("design C\n")
        code, _, err = run(capsys, "variance", "--config", str(config))
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "variance", "--config", "/nonexistent.cfg")
        assert code == 2

    def test_conflicting_squeezing_keys(self, capsys):
        code, _, err = run(
            capsys, "ratio", "--squeeze-db", "10", "--n-squeezed", "2.0"
        )
        assert code == 2
        assert "squeeze_db" in err or "n_squeezed" in err


class TestExitCodes:
    def test_invalid_design_value_is_usage_error(self, capsys):
        assert_usage_error(run(capsys, "variance", "--design", "Q"), "'design'", "C, S, D, P, E", "'Q'")

    def test_convergence_error_maps_to_three(self, capsys, monkeypatch):
        from fogsim.optimize import ConvergenceError

        def explode(config):
            raise ConvergenceError("forced")

        monkeypatch.setitem(cli._COMMANDS, "table1", explode)
        code, _, err = run(capsys, "table1")
        assert code == 3
        assert "convergence" in err

    def test_zero_loss_coefficient_is_usage_error(self, capsys):
        code, out, err = run(capsys, "table1", "--b", "0")
        assert (code, out) == (2, "")
        assert "loss coefficient must be positive" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("ratio", "--squeeze-db", "1e6"),
            ("variance", "--design", "S", "--eta", "0.9", "--squeeze-db", "4000"),
        ],
    )
    def test_overflowing_squeezing_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "'inf'" in err

    def test_zero_interferometers_with_fiber_length_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "ratio", "--squeeze-db", "10", "--length-km", "15", "--m", "0"
        )
        assert (code, out) == (2, "")
        assert "interferometer count must lie in [1, inf), got 0" in err

    @pytest.mark.parametrize("command", ["variance", "simulate"])
    @pytest.mark.parametrize(
        "flag, value, named",
        [("--radius-m", value, ("radius",)) for value in ("nan", "inf", "0", "-1")]
        + [("--wavelength-nm", value, ("wavelength",)) for value in ("nan", "inf", "0")]
        # Finite positive inputs whose loop area, frequency or time factor
        # leaves floating-point range name the whole coil.
        + [("--radius-m", value, ("radius", "wavelength")) for value in ("1e-170", "1e300")]
        + [("--wavelength-nm", "1e-320", ("radius", "wavelength"))],
    )
    @pytest.mark.filterwarnings("error")
    def test_bad_coil_input_is_named(self, capsys, command, flag, value, named):
        code, out, err = run(capsys, command, "--length-km", "10", flag, value)
        assert (code, out) == (2, "")
        assert err.startswith("fogsim: error:") and err.count("\n") == 1
        assert all(word in err for word in named)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("variance", "--design", "C", "--length-km", "10", "--b", "nan"),
             "loss coefficient must be nonnegative and finite, got nan"),
            (("ratio", "--squeeze-db", "10", "--length-km", "10", "--b", "-1"),
             "loss coefficient must be nonnegative and finite, got -1.0"),
            (("ratio", "--squeeze-db", "10", "--length-km=-1"),
             "fiber length must be nonnegative and finite, got -1.0"),
            (("simulate", "--design", "C", "--length-km", "10", "--b", "inf"),
             "loss coefficient must be nonnegative and finite, got inf"),
        ],
    )
    def test_bad_fiber_input_is_named(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"fogsim: error: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("variance", "--design", "C", "--n-v", "inf", "--eta", "0.9"),
            ("variance", "--design", "C", "--t", "inf", "--eta", "0.9"),
            ("simulate", "--design", "E", "--m", "4", "--squeeze-db", "10", "--eta", "1e-320"),
            ("simulate", "--design", "E", "--m", "4", "--squeeze-db", "10", "--eta", "1e-320",
             "--n-v", "1e-10"),
            ("simulate", "--n-v", "inf", "--eta", "0.9"),
            ("simulate", "--phi", "inf", "--eta", "0.9"),
            ("simulate", "--t", "1e-200", "--eta", "0.9"),
            ("variance", "--design", "C", "--eta", "0.9", "--t", "1e200"),
            ("variance", "--design", "C", "--eta", "0.9", "--t", "1e-200"),
            # The optimizer's objective overflows or divides by zero.
            ("table1", "--b", "1e-300"),
            ("table1", "--format", "json", "--b", "1e-300"),
            ("table1", "--b", "1e300"),
            ("table1", "--fix-length", "1e300"),
            ("optimize", "--design", "S", "--squeeze-db", "10", "--b", "1e-300"),
            # Floating-point overflow or division by zero outside every
            # library guard, named at the CLI boundary.
            ("table1", "--b", "1e-12"),
            ("optimize", "--design", "D", "--fix-length", "1e-12", "--b", "1e300"),
            ("optimize", "--design", "S", "--b", "1e300", "--squeeze-db", "10"),
            ("optimize", "--design", "D", "--m", "4", "--b", "1e300"),
            ("optimize", "--design", "D", "--fix-length", "1", "--b", "inf"),
            ("optimize", "--design", "P", "--fix-length", "1e-320", "--b", "inf",
             "--squeeze-db", "10"),
            ("optimize", "--design", "E", "--fix-length", "1e300", "--b", "1e-320",
             "--squeeze-db", "0"),
            ("ratio", "--squeeze-db", "10", "--length-km", "-1", "--b", "1e6"),
            ("simulate", "--design", "S", "--squeeze-db", "200", "--eta", "1"),
            ("figure", "--id", "6", "--b", "1e300"),
            ("optimize", "--design", "E", "--fix-length", "1e6", "--squeeze-db", "10"),
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_non_finite_results_are_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("fogsim: error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("variance", "--design", "S", "--eta", "0.9"),
            ("ratio",),
            ("ratio", "--eta", "0.9", "--m", "4"),
            ("optimize", "--design", "S"),
            ("optimize", "--design", "P", "--m", "4"),
            ("optimize", "--design", "E", "--fix-length", "15"),
            ("optimize", "--design", "P", "--fix-length", "15"),
        ],
    )
    @pytest.mark.parametrize(
        "flag, name", [("--squeeze-db", "squeezing in dB"), ("--n-squeezed", "squeezed photon number")]
    )
    def test_nan_squeezing_is_named(self, capsys, argv, flag, name):
        code, out, err = run(capsys, *argv, flag, "nan")
        assert (code, out) == (2, "")
        assert err == f"fogsim: error: {name} must be nonnegative, got nan\n"

    @pytest.mark.parametrize(
        "argv, named",
        [
            (("--design", "S", "--squeeze-db", "3080", "--eta", "0.5"), "3080.0 dB of squeezing"),
            (("--design", "P", "--m", "4", "--squeeze-db", "3085", "--eta", "0.5"),
             "3085.0 dB of squeezing"),
            (("--design", "S", "--squeeze-db", "10", "--eta", "0"), "transmissivity"),
            (("--design", "C", "--n-v", "inf", "--eta", "0.9"), "per-fiber laser photon number"),
            (("--design", "C", "--t", "inf", "--eta", "0.9"), "time factor"),
            (("--design", "S", "--n-squeezed", "-1", "--eta", "0.9"), "squeezed photon number"),
            (("--design", "S", "--n-squeezed", "nan", "--eta", "0.9"), "squeezed photon number"),
            (("--design", "C", "--m", "3", "--squeeze-db", "10", "--eta", "0.9"),
             "design C uses a single interferometer"),
        ],
        ids=" ".join,
    )
    def test_variance_and_simulate_reject_alike(self, capsys, argv, named):
        variance = run(capsys, "variance", *argv)
        assert_usage_error(variance, named)
        assert run(capsys, "simulate", *argv) == variance

    @pytest.mark.parametrize("command", [("table1",), ("figure", "--id", "3a")])
    @pytest.mark.parametrize("target", ["missing/out.csv", "."], ids=["missing directory", "directory"])
    def test_unwritable_out_is_named(self, capsys, tmp_path, command, target):
        path = str(tmp_path / target)
        assert_usage_error(run(capsys, *command, "--out", path), "cannot write output file", path)

    def test_number_format_helper(self):
        assert format_number(17.3717792761) == "1.73717792761e+01"
        assert len(format_number(math.pi).split("e")[0].replace("-", "").replace(".", "")) == 12


README = Path(__file__).resolve().parents[1] / "README.md"


class TestFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            # Flags of settings the command does not read.
            ("table1", "--wavelength-nm", "1"),
            ("table1", "--radius-m", "1"),
            ("figure", "--id", "5", "--wavelength-nm", "1"),
            ("figure", "--id", "5", "--radius-m", "1"),
            ("optimize", "--wavelength-nm", "1"),
            ("optimize", "--radius-m", "1"),
            ("optimize", "--n-v", "1"),
            ("ratio", "--wavelength-nm", "1"),
            ("ratio", "--radius-m", "1"),
            ("ratio", "--design", "C"),
            ("ratio", "--n-v", "1"),
            # Flags match exactly; an abbreviation is not expanded.
            ("ratio", "--squeeze", "10"),
        ],
        ids=" ".join,
    )
    def test_unread_and_abbreviated_flags_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"fogsim: error: {argv[0]}: unknown flag {argv[-2]!r}\n"

    def test_negative_exponent_value_reads_like_the_equals_form(self, capsys):
        request = ("simulate", "--design", "C", "--eta", "0.9")
        spaced = run(capsys, *request, "--phi", "-1e-3")
        assert spaced == run(capsys, *request, "--phi=-1e-3")
        assert spaced[0] == 0 and json.loads(spaced[1])["phi"] == -1e-3

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("variance", "--design", "C", "--eta", "0.9", "--t", "-inf"),
             "time factor must be positive and finite, got -inf"),
            (("variance", "--design", "C", "--length-km", "10", "--b", "-1e6"),
             "loss coefficient must be nonnegative and finite, got -1000000.0"),
        ],
    )
    def test_negative_value_reaches_the_library_check(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"fogsim: error: {message}\n")

    def test_last_occurrence_of_a_flag_wins(self, capsys):
        code, out, _ = run(capsys, "variance", "--design", "C", "--eta", "0.9", "--eta=0.5")
        assert code == 0 and json.loads(out)["eta"] == 0.5

    @pytest.mark.parametrize(
        "argv, message",
        [
            ((), "expected a command (table1, figure, variance, optimize, ratio, simulate)"),
            (("plot",), "expected a command (table1, figure, variance, optimize, ratio, "
                        "simulate), got 'plot'"),
            (("variance", "--eta"), "variance: flag --eta expects a value"),
            (("variance", "--eta", "--m", "2"), "variance: flag --eta expects a value"),
            (("variance", "0.9"), "variance: unknown flag '0.9'"),
            (("table1", "--format", "xml"), "configuration key 'format' expects one of csv, json, got 'xml'"),
            (("figure", "--b", "0.5"), "figure: flag --id is required"),
        ],
        ids=repr,
    )
    def test_usage_error_is_one_named_line(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"fogsim: error: {message}\n")

    @pytest.mark.parametrize("command", list(cli.COMMAND_SETTINGS))
    def test_help_lists_each_flag_with_its_text(self, capsys, command):
        code, out, err = run(capsys, command, "--help")
        assert (code, err) == (0, "")
        assert re.search(r"^  --config +flat key = value configuration file$", out, re.M)
        for key in ("out", *cli.COMMAND_SETTINGS[command]):
            text = re.escape(cli._SETTINGS[key][2])
            assert re.search(rf"^  {cli._flag(key)} +{text}", out, re.M), key
        assert run(capsys, command, "-h", "--design", "Q") == (0, out, "")

    def test_program_help_lists_the_commands(self, capsys):
        code, out, err = run(capsys, "--help")
        assert (code, err) == (0, "")
        assert re.findall(r"^  (\w+) ", out, re.M) == list(cli.COMMAND_SETTINGS)

    @pytest.mark.parametrize(
        "command, key, flag, value, expected",
        [
            ("variance", "m", "--m", "four", "an integer"),
            ("variance", "design", "--design", "Q", "one of C, S, D, P, E"),
            ("table1", "format", "--format", "xml", "one of csv, json"),
            ("figure", "figure_id", "--id", "9", "one of 3a, 3b, 5, 6, 7"),
        ],
    )
    def test_flag_and_file_parse_alike(self, capsys, tmp_path, command, key, flag, value, expected):
        config = tmp_path / "setting.cfg"
        config.write_text(f"{key} = {value}\n")
        rejection = (2, "", f"fogsim: error: configuration key {key!r} expects {expected}, got {value!r}\n")
        assert run(capsys, command, flag, value) == rejection
        assert run(capsys, command, "--config", str(config)) == rejection

    @pytest.mark.parametrize(
        "line",
        [line for line in README.read_text().splitlines() if line.startswith("fogsim ")],
    )
    def test_readme_example_runs(self, line, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, err = run_in_process(shlex.split(line, comments=True)[1:])
        assert (code, err) == (0, "")

    def test_readme_lists_each_command_flags(self):
        rows = re.findall(r"^\| `(\w+)` \| (`--.*) \|$", README.read_text(), re.MULTILINE)
        listed = {command: set(re.findall(r"`(--[\w-]+)`", flags)) for command, flags in rows}
        assert set(listed) == set(cli.COMMAND_SETTINGS)
        for command, flags in listed.items():
            assert flags | {"--config", "--out"} == command_flags(command), command


def domain_bounds(key):
    """Bounds of a ``sagnac.DOMAIN`` entry as the README's domain table writes them."""
    _, _, lo, hi, ends = sagnac.DOMAIN[key]
    bounds = f"{ends[0]}{lo:g}, {hi:g}{ends[1]}"
    return f"{bounds} or inf" if key in sagnac._LIMITS else bounds


def test_readme_domain_table_matches_the_code():
    rows = re.findall(r"^\| `(\w+)` \| ([^|]+) \| ([^|]+) \| ([^|]+) \| ([^|]+) \| ([^|]+) \|$",
                      README.read_text(), re.MULTILINE)
    assert [row[0] for row in rows] == list(sagnac.DOMAIN)
    for key, name, unit, bounds, flags, commands in rows:
        expected_name, expected_unit, *_ = sagnac.DOMAIN[key]
        assert (name, unit, bounds) == (expected_name, expected_unit or "—", domain_bounds(key))
        flags = set(re.findall(r"`(--[\w-]+)`", flags))
        for command in [] if commands == "—" else commands.split(", "):
            assert flags and flags <= command_flags(command), (key, command)


def test_readme_settings_table_matches_the_code():
    rows = re.findall(r"^\| `(\w+)` \| ([^|]+) \| ([^|]+) \| ([^|]+) \|$", README.read_text(), re.MULTILINE)
    assert [row[0] for row in rows] == list(cli._SETTINGS)
    # A setting has help text and a flag exactly when some command takes it as a flag.
    flagged = {key for key, row in cli._SETTINGS.items() if len(row) > 2}
    assert flagged == {"out"}.union(*cli.COMMAND_SETTINGS.values())
    names = {int: "integer", float: "number", str: "text"}
    for key, value, default, flag in rows:
        kind, expected_default, *help_and_flag = cli._SETTINGS[key]
        expected_value = f"one of {', '.join(kind)}" if isinstance(kind, tuple) else names[kind]
        assert value == expected_value, key
        assert default == ("—" if expected_default is None else str(expected_default)), key
        assert flag == (f"`{cli._flag(key)}`" if help_and_flag else "—"), key


def _numbers(typical):
    """The typical value half of the time, else an edge of the float range."""
    edges = ("0", "-1", "1e-320", "1e-12", "1e6", "1e300", "inf", "-inf", "nan")
    return st.just(typical) | st.sampled_from(edges)


#: Values drawn for each flag.  Counts stay small (--m at most 10**6, and at
#: most 16 for simulate; --m-max at most 64): huge counts are out of scope
#: here because they only cost memory or time.
FLAG_VALUES = {
    "--b": _numbers("0.5"),
    "--wavelength-nm": _numbers("1550"),
    "--radius-m": _numbers("0.05"),
    "--design": st.sampled_from("CSDPE"),
    "--m": st.sampled_from(("-1", "0", "1", "2", "4", "16", "1000000")),
    "--n-v": _numbers("100"),
    "--squeeze-db": st.floats(0.0, 3000.0).map(repr) | st.just("inf"),
    "--n-squeezed": _numbers("10"),
    "--eta": _numbers("0.9"),
    "--length-km": _numbers("15"),
    "--fix-length": _numbers("15"),
    "--t": _numbers("1"),
    "--phi": _numbers("0.01"),
    "--m-max": st.integers(-1, 64).map(str),
    "--format": st.sampled_from(("csv", "json")),
    "--id": st.sampled_from(("3a", "3b", "5", "6", "7")),
}


#: Flags whose value must be one of a fixed set, with their keys, and values
#: outside every set.
CHOICE_FLAGS = {"--design": "design", "--id": "figure_id", "--format": "format"}
BAD_CHOICES = ("Q", "c", "", "CSV", "4")

#: What a request may get wrong in its flags, on top of its drawn values.
FLAG_DEFECTS = (None, "repeated flag", "unknown flag", "flag without value", "value outside choices")


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


class TestWholeInputSpace:
    @pytest.mark.parametrize("command", list(cli.COMMAND_SETTINGS))
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(
        max_examples=40, derandomize=True, database=None, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_every_request_ends_in_a_result_or_a_named_error(self, command, data):
        values = dict(FLAG_VALUES)
        if command == "simulate":
            values["--m"] = st.integers(-1, 16).map(str)
        flags = sorted(command_flags(command) - {"--config", "--out"})
        chosen = data.draw(st.lists(st.sampled_from(flags), unique=True, max_size=5))
        if command == "figure" and "--id" not in chosen:
            chosen.append("--id")
        drawn = {flag: data.draw(values[flag], label=flag) for flag in chosen}
        argv = [command]
        for flag, value in drawn.items():
            argv += data.draw(st.sampled_from(([f"{flag}={value}"], [flag, value])), label="form")
        result = run_in_process(argv)
        code, out, err = result
        assert code in (0, 2, 3)
        if code == 0:
            assert err == ""
            if command not in ("table1", "figure") or drawn.get("--format") == "json":
                json.loads(out, parse_constant=_reject_constant)
        elif code == 2:
            assert out == ""
            assert err.startswith("fogsim: error:") and err.count("\n") == 1
        else:
            assert err.startswith("fogsim: convergence error:")

        defect = data.draw(st.sampled_from(FLAG_DEFECTS), label="defect")
        choice_flags = sorted(set(flags) & set(CHOICE_FLAGS))
        if defect == "repeated flag" and chosen:
            # An earlier occurrence of a flag is overridden by the last one.
            flag = data.draw(st.sampled_from(chosen), label="repeated")
            earlier = f"{flag}={data.draw(values[flag], label='earlier value')}"
            assert run_in_process([command, earlier, *argv[1:]]) == result
        elif defect == "unknown flag":
            unread = sorted(set(FLAG_VALUES) - set(flags))
            abbreviated = [flag[:-1] for flag in flags if len(flag) > 4]
            bad = data.draw(st.sampled_from(unread + abbreviated), label="unknown")
            assert_usage_error(run_in_process([*argv, bad, "1"]), f"{command}: unknown flag {bad!r}")
        elif defect == "flag without value":
            flag = data.draw(st.sampled_from(flags), label="without value")
            assert_usage_error(run_in_process([*argv, flag]), f"{command}: flag {flag} expects a value")
        elif defect == "value outside choices" and choice_flags:
            flag = data.draw(st.sampled_from(choice_flags), label="choice flag")
            bad = data.draw(st.sampled_from(BAD_CHOICES), label="bad choice")
            assert_usage_error(run_in_process([*argv, flag, bad]),
                               f"configuration key {CHOICE_FLAGS[flag]!r} expects one of")


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(
        max_examples=300, derandomize=True, database=None, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_variance_and_simulate_accept_the_same_inputs(self, data):
        argv = ["--design", data.draw(FLAG_VALUES["--design"], label="--design"),
                "--m", data.draw(st.integers(-1, 16).map(str), label="--m")]
        squeezing = data.draw(st.sampled_from((None, "--squeeze-db", "--n-squeezed")), label="squeezing")
        transmission = data.draw(st.sampled_from((("--eta",), ("--length-km", "--b"))), label="route")
        optional = ("--n-v", "--t", "--wavelength-nm", "--radius-m")
        flags = [*transmission, *([squeezing] if squeezing else []),
                 *data.draw(st.lists(st.sampled_from(optional), unique=True), label="optional")]
        for flag in flags:
            argv += [flag, data.draw(FLAG_VALUES[flag], label=flag)]
        variance = run_in_process(["variance", *argv])
        simulate = run_in_process(["simulate", *argv])
        if squeezing and argv[argv.index(squeezing) + 1] == "inf":
            # Infinite squeezing is the closed form's limit; the circuit rejects it.
            return
        assert variance[0] == simulate[0], (variance, simulate)
        if table_rejection(variance[2]) or table_rejection(simulate[2]):
            assert variance == simulate


class TestRunConfig:
    def test_apply_type_errors(self):
        config = RunConfig()
        with pytest.raises(cli.ConfigError):
            config.apply("m", "four")
        with pytest.raises(cli.ConfigError):
            config.apply("eta", "half")

    def test_squeeze_db_is_parsed_once_as_a_number(self):
        config = RunConfig()
        config.apply("squeeze_db", "inf")
        assert config.squeeze_db == math.inf
        with pytest.raises(cli.ConfigError, match="'squeeze_db' expects a number"):
            config.apply("squeeze_db", "ten")

    def test_fig6_lengths_parsing(self):
        config = RunConfig()
        config.apply("fig6_lengths_km", "2.5, 10")
        assert config.fig6_lengths() == [2.5, 10.0]
