import hashlib
import json
import math

import numpy as np
import pytest

from rotosphere import cli, snapshot


def run_cli(argv):
    return cli.main(argv)


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


SIM_CONFIG = {
    "omega": 1.0, "dt": 0.05, "t_end": 0.5, "lmax": 8, "diag_stride": 5,
    "initial": {"kind": "modes", "coefficients": [[2, 1, 0.3, 0.1], [1, 0, 0.5, 0.0]]},
}


class TestSimulate:
    def test_outputs_and_manifest(self, tmp_path):
        cfg = write_json(tmp_path / "sim.json", SIM_CONFIG)
        out = tmp_path / "out"
        assert run_cli(["simulate", cfg, "--outdir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["code_version"]
        assert manifest["started_at"] is None
        # every output file is listed exactly once and exists
        assert len(manifest["outputs"]) == len(set(manifest["outputs"]))
        for name in manifest["outputs"]:
            assert (out / name).exists()
        # config hash matches the stored copy
        digest = hashlib.sha256((out / "config.json").read_bytes()).hexdigest()
        assert manifest["config_hash"] == digest
        header = (out / "diagnostics.csv").read_text().splitlines()[0]
        assert header.startswith("time,energy,enstrophy")

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_json(tmp_path / "sim.json", SIM_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(["simulate", cfg, "--outdir", str(out1), "--svg"]) == 0
        assert run_cli(["simulate", cfg, "--outdir", str(out2), "--svg"]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_zero_initial_state_gives_zero_diagnostics(self, tmp_path):
        config = dict(SIM_CONFIG, initial={"kind": "modes", "coefficients": []})
        cfg = write_json(tmp_path / "sim.json", config)
        out = tmp_path / "out"
        assert run_cli(["simulate", cfg, "--outdir", str(out)]) == 0
        rows = (out / "diagnostics.csv").read_text().splitlines()[1:]
        for row in rows:
            assert all(float(x) == 0.0 for x in row.split(",")[1:])

    def test_missing_config_is_config_error(self, tmp_path):
        assert run_cli(["simulate", str(tmp_path / "nope.json"),
                        "--outdir", str(tmp_path / "o")]) == 2

    def test_invalid_field_is_config_error(self, tmp_path):
        config = dict(SIM_CONFIG, dt=-1.0)
        cfg = write_json(tmp_path / "sim.json", config)
        assert run_cli(["simulate", cfg, "--outdir", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("change", [
        {"snapshot_stride": "2"},
        {"initial": {"kind": "modes", "coefficients": [[3, 5, 1.0, 0.0]]}},
        {"nlat": 12, "nlon": 24},
        {"lmax": 8.7},
    ], ids=["string-stride", "mode-outside-table", "grid-keys", "fractional-lmax"])
    def test_malformed_config_is_config_error(self, tmp_path, capsys, change):
        cfg = write_json(tmp_path / "sim.json", dict(SIM_CONFIG, **change))
        assert run_cli(["simulate", cfg, "--outdir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_blowup_is_numerical_failure(self, tmp_path):
        config = dict(SIM_CONFIG, dt=20.0, t_end=2000.0, lmax=10,
                      initial={"kind": "random", "decay": 0.2})
        cfg = write_json(tmp_path / "sim.json", config)
        assert run_cli(["simulate", cfg, "--outdir", str(tmp_path / "o")]) == 3

    def test_snapshot_readable(self, tmp_path):
        cfg = write_json(tmp_path / "sim.json", SIM_CONFIG)
        out = tmp_path / "out"
        run_cli(["simulate", cfg, "--outdir", str(out)])
        field, t = snapshot.read_snapshot(out / "snapshot_000001.shc")
        assert field.lmax == 8
        assert t == pytest.approx(0.5)


class TestStabilityCommands:
    def test_planet_report_fractions(self, tmp_path, capsys):
        out = tmp_path / "p"
        assert run_cli(["stability", "planet", "--name", "uranus",
                        "--outdir", str(out)]) == 0
        payload = json.loads((out / "stability_report.json").read_text())
        assert payload["coefficients"] == {"alpha": "64/45", "beta": "-272/45",
                                           "gamma": "184/45"}
        assert payload["verdict"] == "stable"
        assert payload["denominator_quadratic"]["p"] == "-5/2"
        assert payload["denominator_quadratic"]["q"] == "155/96"
        assert payload["denominator_quadratic"]["discriminant"].startswith("-")

    def test_neptune_report(self, tmp_path):
        out = tmp_path / "p"
        assert run_cli(["stability", "planet", "--name", "neptune",
                        "--outdir", str(out)]) == 0
        payload = json.loads((out / "stability_report.json").read_text())
        assert payload["coefficients"]["alpha"] == "2048/75"
        assert payload["verdict"] == "stable"

    def test_unknown_planet_is_config_error(self, tmp_path):
        assert run_cli(["stability", "planet", "--name", "vulcan",
                        "--outdir", str(tmp_path / "p")]) == 2

    def test_zonal_report(self, tmp_path):
        cfg = write_json(tmp_path / "zonal.json", {
            "omega": 2.0, "zonal_coefficients": {"1": 1.0, "2": 1.0},
            "wavenumbers": [1], "basis_size": 24,
        })
        out = tmp_path / "z"
        assert run_cli(["stability", "zonal", "--config", cfg,
                        "--outdir", str(out)]) == 0
        payload = json.loads((out / "stability_report.json").read_text())
        assert payload["per_wavenumber"]["1"]["unstable"] is False
        assert payload["rayleigh"]["met"] is True

    RH2_CONFIG = {
        "omega": 0.0, "alpha": 0.4, "beta0": 1.0, "lmax": 8,
        "dt": 0.02, "t_end": 0.2, "diag_stride": 5,
        "y_unit": {"0": [1.0, 0.0]},
        "perturbation": [[2, 1, 0.001, 0.0], [3, 1, 0.001, 0.0]],
    }

    def test_rh2_experiment(self, tmp_path):
        cfg = write_json(tmp_path / "rh2.json", self.RH2_CONFIG)
        out = tmp_path / "r"
        assert run_cli(["stability", "rh2", "--config", cfg, "--outdir", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["max_quadratic_deviation"] < 0.05
        lines = (out / "modal_series.csv").read_text().splitlines()
        assert lines[0].startswith("time,quadratic_combination")

    def test_rh2_mode_outside_table_is_config_error(self, tmp_path):
        config = dict(self.RH2_CONFIG, perturbation=[[3, 5, 0.001, 0.0]])
        cfg = write_json(tmp_path / "rh2.json", config)
        assert run_cli(["stability", "rh2", "--config", cfg, "--outdir", str(tmp_path / "r")]) == 2


class TestMakeSolution:
    def test_log_family_report(self, tmp_path):
        out = tmp_path / "sol"
        assert run_cli(["make-solution", "--family", "log",
                        "--params", '{"epsilon": 0.3, "lmax": 31}',
                        "--outdir", str(out)]) == 0
        report = json.loads((out / "residual_report.json").read_text())
        assert report["residual_linf"] < 1e-8
        assert report["stability_verdict"] == "stable"
        assert report["stationary"] is True
        field, _ = snapshot.read_snapshot(out / "solution.shc")
        assert field.lmax == 31
        twin, _ = snapshot.read_snapshot(out / "solution.json")
        assert np.max(np.abs(twin.coeffs - field.coeffs)) == 0.0

    def test_parameter_validation(self, tmp_path):
        assert run_cli(["make-solution", "--family", "log",
                        "--params", '{"epsilon": 2.0}',
                        "--outdir", str(tmp_path / "x")]) == 2


class TestBifurcate:
    def test_branch_outputs(self, tmp_path):
        cfg = write_json(tmp_path / "prob.json", {
            "group": "tetrahedral", "lmax": 12,
            "family": {"kind": "cubic", "mu": 1.0, "mu1": 1.0, "degree": 3},
            "lambda_range": [0.0, 2.0], "steps": 8, "ds": 0.08,
        })
        out = tmp_path / "b"
        assert run_cli(["bifurcate", cfg, "--outdir", str(out)]) == 0
        report = json.loads((out / "branch_report.json").read_text())
        assert abs(report["origin_lambda"] - 1 / math.sqrt(3)) < 1e-9
        assert report["status"] == "completed"
        lines = (out / "branch.csv").read_text().splitlines()
        assert lines[0] == ("lambda,amplitude,residual,full_residual,sup_psi,"
                            "sup_vorticity,arclength,within_bounds")
        assert len(lines) == 10
        manifest = json.loads((out / "manifest.json").read_text())
        assert any(n.startswith("branch_point_") for n in manifest["outputs"])

    @pytest.mark.parametrize("change", [
        {"lmax": 12.5}, {"steps": "8"}, {"branch_from": True},
        {"family": {"kind": "cubic", "mu": 1.0, "mu1": 1.0, "degree": 3.0}},
        {"branch_from": 7},
    ], ids=["fractional-lmax", "string-steps", "bool-branch", "float-degree", "branch-outside"])
    def test_malformed_config_is_config_error(self, tmp_path, capsys, change):
        cfg = write_json(tmp_path / "prob.json", {
            "group": "tetrahedral", "lmax": 12,
            "family": {"kind": "cubic", "mu": 1.0, "mu1": 1.0, "degree": 3},
            "lambda_range": [0.0, 2.0], "steps": 8, "ds": 0.08, **change,
        })
        out = tmp_path / "b"
        assert run_cli(["bifurcate", cfg, "--outdir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    def test_rotating_family(self, tmp_path):
        cfg = write_json(tmp_path / "prob.json", {
            "group": "tetrahedral", "lmax": 12,
            "family": {"kind": "saturating", "beta": 1.0, "mu": 1.0, "degree": 3},
            "steps": 5, "ds": 0.05,
        })
        out = tmp_path / "b"
        assert run_cli(["bifurcate", cfg, "--outdir", str(out)]) == 0
        report = json.loads((out / "branch_report.json").read_text())
        assert abs(report["origin_lambda"] - 2.0) < 1e-9


class TestLift3d:
    def test_fields_and_trajectories(self, tmp_path):
        out = tmp_path / "l"
        assert run_cli(["lift3d", "--omega", "18", "--family", "log",
                        "--epsilon", "0.3", "--samples", "5", "--lmax", "31",
                        "--seeds", "[[0.5, 0.4, 0.2]]",
                        "--outdir", str(out)]) == 0
        lines = (out / "fields.csv").read_text().splitlines()
        assert lines[0] == "phi,theta,z,psi,u,v,p,T"
        assert len(lines) == 5**3 + 1
        report = json.loads((out / "trajectory_report.json").read_text())
        assert report["level_drifts"][0] < 1e-6
        assert (out / "trajectory_000.csv").exists()

    def test_unknown_family_is_config_error(self, tmp_path):
        assert run_cli(["lift3d", "--omega", "1", "--family", "cubic",
                        "--outdir", str(tmp_path / "x")]) == 2


class TestSelftest:
    def test_passes_and_writes_report(self, tmp_path, capsys):
        out = tmp_path / "st"
        assert run_cli(["sht-selftest", "--lmax", "15", "--outdir", str(out)]) == 0
        text = capsys.readouterr().out
        assert "PASS" in text and "FAIL" not in text
        assert (out / "selftest.txt").exists()

    def test_failed_check_exits_with_assertion_code(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_selftest_checks",
                            lambda lmax: [("forced failure", 1.0, 1e-12)])
        assert run_cli(["sht-selftest", "--lmax", "4"]) == 4
        assert "FAIL" in capsys.readouterr().out
