"""Command-line interface: commands, config files, CSV determinism, exit codes."""

import json
import math
import re

import mpmath
import pytest

from fogsim import cli
from fogsim.cli import RunConfig, format_number, main
from fogsim.sagnac import db_to_photons


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_unknown_id_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["figure", "--id", "9"])
        assert exc.value.code == 2

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
    def test_invalid_design_value_flagged_by_argparse(self):
        with pytest.raises(SystemExit) as exc:
            main(["variance", "--design", "Q"])
        assert exc.value.code == 2

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
        assert "m must be a positive integer" in err

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
    @pytest.mark.parametrize("squeezing", [("--squeeze-db", "nan"), ("--n-squeezed", "nan")])
    def test_nan_squeezing_is_named(self, capsys, argv, squeezing):
        code, out, err = run(capsys, *argv, *squeezing)
        assert (code, out) == (2, "")
        assert err == "fogsim: error: squeezed photon number must be nonnegative\n"

    def test_number_format_helper(self):
        assert format_number(17.3717792761) == "1.73717792761e+01"
        assert len(format_number(math.pi).split("e")[0].replace("-", "").replace(".", "")) == 12


class TestRunConfig:
    def test_known_keys_cover_fields(self):
        assert "design" in RunConfig.known_keys()
        assert "fig6_lengths_km" in RunConfig.known_keys()

    def test_apply_type_errors(self):
        config = RunConfig()
        with pytest.raises(cli.ConfigError):
            config.apply("m", "four")
        with pytest.raises(cli.ConfigError):
            config.apply("eta", "half")

    def test_fig6_lengths_parsing(self):
        config = RunConfig()
        config.apply("fig6_lengths_km", "2.5, 10")
        assert config.fig6_lengths() == [2.5, 10.0]
