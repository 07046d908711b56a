import math

import numpy as np
import pytest

from minienv.cli import main


def read_csv(path):
    meta, header, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key] = value
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append(line.split(","))
    data = {
        name: np.array([float(r[i]) for r in rows])
        for i, name in enumerate(header)
        if not rows or _is_float(rows[0][i])
    }
    return meta, header, data


def _is_float(token):
    try:
        float(token)
        return True
    except ValueError:
        return False


class TestFigure:
    def test_figure1_contents(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert main(["figure", "1", "--output", str(out)]) == 0
        meta, header, data = read_csv(out)
        assert header == ["gamma_t", "zeta1", "zeta2", "zeta3"]
        assert meta["alpha0"] == "5" and meta["nbar"] == "25"
        assert data["gamma_t"][0] == 0.0
        assert data["zeta1"][0] == 0.0 and data["zeta2"][0] == 0.0 and data["zeta3"][0] == 0.0
        plateau = 50.0 / 51.0
        assert abs(data["zeta1"].max() - plateau) < 1e-3
        assert abs(data["zeta2"].max() - plateau) < 1e-3

    def test_byte_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["figure", "3", "--output", str(a)]) == 0
        assert main(["figure", "3", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_id_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["figure", "9"])
        assert exc.value.code == 2

    def test_single_point_is_usage_error(self, tmp_path):
        assert main(["figure", "1", "--points", "1", "--output", str(tmp_path / "f.csv")]) == 2

    def test_dat_mirror(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert main(["figure", "2", "--output", str(out), "--points", "50", "--dat"]) == 0
        dat = out.with_suffix(".dat")
        assert dat.exists()
        csv_rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        dat_rows = [l for l in dat.read_text().splitlines() if not l.startswith("#")]
        assert csv_rows[1].split(",") == dat_rows[0].split(" ")


class TestSimulate:
    def test_master_cross_engine_column(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = main([
            "simulate", "--model", "master", "--alpha0", "2", "--nbar", "1",
            "--engine", "both", "--tmax", "3", "--points", "40",
            "--output", str(out),
        ])
        assert code == 0
        _, header, data = read_csv(out)
        assert header == ["t", "zeta_master_analytic", "zeta_master_brute"]
        delta = np.abs(data["zeta_master_analytic"] - data["zeta_master_brute"])
        assert delta.max() < 1e-5

    def test_master_brute_force_at_zero_temperature(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = main([
            "simulate", "--model", "master", "--alpha0", "2", "--nbar", "0",
            "--engine", "both", "--tmax", "3", "--points", "40", "--output", str(out),
        ])
        assert code == 0
        _, _, data = read_csv(out)
        delta = np.abs(data["zeta_master_analytic"] - data["zeta_master_brute"])
        assert delta.max() < 1e-5

    def test_oversized_master_run_is_numerical_failure(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code = main([
            "simulate", "--model", "master", "--engine", "brute-force", "--alpha0", "30",
            "--nbar", "0", "--points", "2", "--output", str(out),
        ])
        assert code == 1
        assert "too large" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("model,nbar", [("master", "inf"), ("amplitude", "nan")])
    def test_non_finite_nbar_is_usage_error(self, tmp_path, model, nbar):
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--model", model, "--nbar", nbar, "--output", str(out)]) == 2
        assert not out.exists()

    def test_overflow_is_numerical_failure(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code = main([
            "simulate", "--model", "kerr", "--rate", "1e300", "--alpha0", "1e200",
            "--output", str(out),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_kerr_zero_temperature_column(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = main([
            "simulate", "--model", "kerr", "--alpha0", "1", "--nbar", "0",
            "--tmax", "2", "--points", "30", "--output", str(out),
        ])
        assert code == 0
        _, _, data = read_csv(out)
        assert np.abs(data["zeta_kerr"]).max() == 0.0

    def test_amplitude_swap_value(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = main([
            "simulate", "--model", "amplitude", "--nbar", "1",
            "--tmax", str(math.pi), "--points", "201", "--output", str(out),
        ])
        assert code == 0
        _, _, data = read_csv(out)
        assert abs(data["zeta_amplitude"][100] - 2.0 / 3.0) < 1e-9

    def test_spec_file_roundtrip(self, tmp_path):
        spec = tmp_path / "run.spec"
        out_flag = tmp_path / "flag.csv"
        out_spec = tmp_path / "spec.csv"
        spec.write_text(
            "# comparison run\n"
            "model = master,amplitude\n"
            "alpha0 = 2\n"
            "nbar = 1\n"
            "tmax = 2.0\n"
            "points = 25\n"
            f"output = {out_spec}\n"
        )
        assert main(["simulate", "--spec", str(spec)]) == 0
        assert main([
            "simulate", "--model", "master,amplitude", "--alpha0", "2", "--nbar", "1",
            "--tmax", "2.0", "--points", "25", "--output", str(out_flag),
        ]) == 0
        spec_rows = [l for l in out_spec.read_text().splitlines() if not l.startswith("#")]
        flag_rows = [l for l in out_flag.read_text().splitlines() if not l.startswith("#")]
        assert spec_rows == flag_rows

    def test_spec_parse_error_reports_line(self, tmp_path, capsys):
        spec = tmp_path / "bad.spec"
        spec.write_text("model = master\nnot a key value pair\n")
        assert main(["simulate", "--spec", str(spec)]) == 2
        err = capsys.readouterr().err
        assert ":2:" in err

    def test_unknown_model_is_usage_error(self, capsys):
        assert main(["simulate", "--model", "bogus"]) == 2

    def test_tiny_tail_tolerance_is_resolved(self, tmp_path):
        # 1e-30 is below what 1 - sum p_n resolves; the directly summed tail settles it
        out = tmp_path / "sim.csv"
        code = main([
            "simulate", "--model", "master", "--engine", "both",
            "--alpha0", "5", "--nbar", "0", "--tail-tol", "1e-30",
            "--points", "5", "--tmax", "1", "--output", str(out),
        ])
        assert code == 0
        _, _, data = read_csv(out)
        assert np.abs(data["zeta_master_brute"] - data["zeta_master_analytic"]).max() < 1e-12

    @pytest.mark.parametrize("key", ["tail_tol", "joint_tail_tol"])
    @pytest.mark.parametrize("value", ["0", "-1", "1", "2", "nan"])
    def test_tail_tolerance_outside_unit_interval_is_usage_error(
        self, tmp_path, capsys, key, value
    ):
        out = tmp_path / "sim.csv"
        spec = tmp_path / "run.spec"
        spec.write_text(f"{key} = {value}\n")
        flag = "--" + key.replace("_", "-")
        for argv in ([flag, value], ["--spec", str(spec)]):
            code = main(["simulate", "--engine", "both", "--output", str(out), *argv])
            assert code == 2
            assert f"{key} must be in (0, 1)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("model,engine,code", [
        ("master", "analytic", 0), ("amplitude", "analytic", 0),
        ("master", "brute-force", 1), ("amplitude", "brute-force", 1),
        ("kerr", "analytic", 1), ("kerr", "brute-force", 1),
    ])
    def test_alpha0_whose_square_overflows(self, tmp_path, capsys, model, engine, code):
        out = tmp_path / "sim.csv"
        argv = ["simulate", "--model", model, "--engine", engine, "--alpha0", "1e200",
                "--points", "5", "--output", str(out)]
        assert main(argv) == code
        err = capsys.readouterr().err
        if code:
            assert "|alpha0| = 1e+200" in err and "numerical overflow" not in err
            assert not out.exists()

    def test_metadata_echo_is_complete(self, tmp_path):
        out = tmp_path / "sim.csv"
        main([
            "simulate", "--model", "master", "--alpha0", "1.5", "--nbar", "2",
            "--rate", "0.5", "--tmax", "1", "--points", "10", "--output", str(out),
        ])
        meta, _, _ = read_csv(out)
        for key in ("model", "alpha0", "nbar", "rate", "tmax", "points", "engine",
                    "tail_tol", "joint_tail_tol", "version"):
            assert key in meta, f"missing {key} in metadata echo"


class TestSweep:
    def test_deterministic_ordering(self, tmp_path):
        spec = tmp_path / "sweep.spec"
        out = tmp_path / "sweep.csv"
        spec.write_text(
            "model = master,kerr\n"
            "alpha0 = 1,2\n"
            "nbar = 1\n"
            "tmax = 1.0\n"
            "points = 5\n"
        )
        assert main(["sweep", "--spec", str(spec), "--output", str(out)]) == 0
        rows = [l.split(",") for l in out.read_text().splitlines()
                if not l.startswith("#")][1:]
        assert len(rows) == 2 * 2 * 5
        # tuples ordered by (model, alpha0), time fastest
        labels = [(r[0], r[1]) for r in rows]
        assert labels == sorted(labels, key=lambda x: (x[0] != "master", x[1]))

    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        spec = tmp_path / "sweep.spec"
        spec.write_text("modle = kerr\nalpha0 = 1\npoints = 5\n")
        assert main(["sweep", "--spec", str(spec), "--output", str(tmp_path / "s.csv")]) == 2
        assert "unknown spec key 'modle'" in capsys.readouterr().err

    def test_brute_force_engine_is_usage_error(self, tmp_path):
        spec = tmp_path / "sweep.spec"
        spec.write_text("model = master\nengine = brute-force\npoints = 5\n")
        assert main(["sweep", "--spec", str(spec), "--output", str(tmp_path / "s.csv")]) == 2


class TestValidateCommand:
    def test_hook_forces_cutoff_failure(self, capsys):
        assert main(["validate", "--hook-lower-cutoff", "3"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "tail mass" in out
        assert "states.cutoff_guard" in out
