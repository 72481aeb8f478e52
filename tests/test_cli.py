import copy
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rotosphere
from rotosphere import bifurcation, cli, sht, snapshot, solutions


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

    def test_outputs_independent_of_blas_threads(self, tmp_path):
        # the longitude stage of the lmax-31 step runs through BLAS products
        config = dict(SIM_CONFIG, lmax=31, dt=0.01, t_end=0.2, snapshot_stride=10, seed=4,
                      initial={"kind": "random"})
        cfg = write_json(tmp_path / "sim.json", config)
        src = str(Path(cli.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            subprocess.run([sys.executable, "-m", "rotosphere", "simulate", cfg, "--outdir", str(out)],
                           env=env, check=True)
            outputs.append({p.name: p.read_bytes() for p in sorted(out.glob("snapshot_*.shc"))}
                           | {"diagnostics.csv": (out / "diagnostics.csv").read_bytes()})
        assert len(outputs[0]) == 4
        assert outputs[0] == outputs[1]

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
        {"dt": "0.05"},
        {"initial": {"kind": "modes", "coefficients": [[2, 1]]}},
        {"t_end": 0.2, "dt": 0.07},
        {"initial": {"kind": "snapshot", "path": "bare.json"}},
        {"diag_strid": 1},
        {"initial": {"kind": "modes", "coefficients": [], "decay": 0.5}},
        {"initial": {"kind": "modes", "coefficients": [[1, 0, 0.5, 0.1]]}},
        {"initial": {"kind": "modes", "coefficients": [[2, 1, 0.3, 0.1], [2, -1, -0.3, 0.1]]}},
        {"snapshot_stride": 0},
    ], ids=["string-stride", "mode-outside-table", "grid-keys", "fractional-lmax",
            "string-dt", "short-mode-entry", "t-end-not-multiple", "snapshot-without-lmax",
            "misspelled-key", "key-of-another-kind", "complex-zonal-mode", "repeated-mode",
            "zero-stride"])
    def test_malformed_config_is_config_error(self, tmp_path, capsys, monkeypatch, change):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bare.json").write_text('{"format": "RSPHCOF1"}')
        cfg = write_json(tmp_path / "sim.json", dict(SIM_CONFIG, **change))
        assert run_cli(["simulate", cfg, "--outdir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "o").exists()

    def test_modes_are_realised_as_written(self, tmp_path):
        entries = [[2, 1, 1.0, 0.0], [3, -2, 0.0, 1.0], [1, 0, 0.5, 0.0], [3, 3, 0.25, -0.75]]
        config = dict(SIM_CONFIG, t_end=0.0, initial={"kind": "modes", "coefficients": entries})
        cfg = write_json(tmp_path / "sim.json", config)
        out = tmp_path / "out"
        assert run_cli(["simulate", cfg, "--outdir", str(out)]) == 0
        field, _ = snapshot.read_snapshot(out / "snapshot_000000.shc")
        for l, m, re_part, im_part in entries:
            assert field.get(l, m) == complex(re_part, im_part)
            assert field.get(l, -m) == (-1) ** m * complex(re_part, -im_part)

    def test_snapshot_breaking_reality_is_config_error(self, tmp_path, capsys):
        coefficients = [[0.0, 0.0]] * 9
        coefficients[7] = coefficients[5] = [0.5, 0.25]  # c_2^1 = c_2^-1, not -conj(c_2^1)
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"format": "RSPHCOF1", "version": 1, "lmax": 2,
                                    "real_valued": True, "time": 0.0,
                                    "coefficients": coefficients}))
        config = dict(SIM_CONFIG, initial={"kind": "snapshot", "path": str(path)})
        cfg = write_json(tmp_path / "sim.json", config)
        assert run_cli(["simulate", cfg, "--outdir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "o").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_blowup_is_numerical_failure(self, tmp_path):
        config = dict(SIM_CONFIG, dt=20.0, t_end=2000.0, lmax=10,
                      initial={"kind": "random", "decay": 0.2})
        cfg = write_json(tmp_path / "sim.json", config)
        out = tmp_path / "o"
        assert run_cli(["simulate", cfg, "--outdir", str(out)]) == 3
        # the snapshots written before the failure stay, and no manifest claims the run
        assert not (out / "manifest.json").exists()
        written = sorted(out.glob("snapshot_*.shc"))
        assert written
        for path in written:
            field, _ = snapshot.read_snapshot(path)
            assert field.lmax == 10

    def test_enstrophy_growth_is_numerical_failure(self, tmp_path, capsys):
        # 38 steps per period of this wave is past RK4's stability limit: the
        # state stays finite, but its enstrophy grows 1371-fold by the last step
        speed = solutions.rossby_haurwitz_speed(2, 0.3, 1.0)
        dt = 2.0 * math.pi / abs(speed) / 38
        config = dict(SIM_CONFIG, dt=dt, t_end=38 * dt, lmax=12, initial={
            "kind": "rossby_haurwitz", "degree": 2, "alpha": 0.3, "omega": 1.0,
            "ycoeffs": {"1": [0.6, 0.2]}})
        cfg = write_json(tmp_path / "sim.json", config)
        assert run_cli(["simulate", cfg, "--outdir", str(tmp_path / "o")]) == 3
        assert "enstrophy grew" in capsys.readouterr().err

    def test_filter_strength_reported(self, tmp_path):
        cfg = write_json(tmp_path / "sim.json", dict(SIM_CONFIG, filter_strength=5.0))
        out = tmp_path / "out"
        assert run_cli(["simulate", cfg, "--outdir", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["filter_strength"] == 5.0

    def test_memory_does_not_grow_with_snapshots(self, tmp_path):
        def traced_peak(stride, t_end=2.0):
            config = dict(SIM_CONFIG, dt=0.01, t_end=t_end, lmax=31, diag_stride=50,
                          snapshot_stride=stride, initial={"kind": "random"})
            cfg = write_json(tmp_path / "sim.json", config)
            tracemalloc.start()
            try:
                assert run_cli(["simulate", cfg, "--outdir", str(tmp_path / f"o{stride}")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        traced_peak(1, t_end=0.01)  # builds the cached transforms outside the measurement
        gap = traced_peak(1) - traced_peak(200)
        # 201 snapshots against 2: keeping the states costs a 16 KiB half table
        # each, 3.1 MiB in all; written as the run goes, the gap measures 0.03 MiB
        assert gap < 0.5 * 2**20

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

    def test_planet_defaults_to_uranus(self, tmp_path):
        out = tmp_path / "p"
        assert run_cli(["stability", "planet", "--outdir", str(out)]) == 0
        assert json.loads((out / "stability_report.json").read_text())["planet"] == "uranus"

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

    ZONAL_CONFIG = {"omega": 2.0, "zonal_coefficients": {"1": 1.0, "2": 1.0},
                    "wavenumbers": [1], "basis_size": 24}

    @pytest.mark.parametrize("analysis, change", [
        ("zonal", {"zonal_coefficients": {"a": 1}}),
        ("zonal", {"wavenumbers": [0]}),
        ("zonal", {"gamma_samples": [-1.0, 0.0, 1.0]}),
        ("rh2", {"dt": -1}),
        ("rh2", {"t_end": 0.2, "dt": 0.07}),
        ("rh2", {"y_unit": {"3": [1.0, 0.0]}}),
        ("rh2", {"snapshot_stride": 2}),
        ("rh2", {"perturbation": [[2, 0, 0.001, 0.001]]}),
        ("rh2", {"perturbation": [[3, 1, 0.001, 0.0], [3, -1, -0.001, 0.0]]}),
    ], ids=["non-integer-degree", "zero-wavenumber", "key-zonal-does-not-read", "negative-dt", "t-end-not-multiple",
            "order-beyond-degree", "key-rh2-does-not-read", "complex-zonal-mode",
            "repeated-mode"])
    def test_malformed_config_is_config_error(self, tmp_path, capsys, analysis, change):
        base = self.ZONAL_CONFIG if analysis == "zonal" else self.RH2_CONFIG
        cfg = write_json(tmp_path / "cfg.json", dict(base, **change))
        out = tmp_path / "r"
        assert run_cli(["stability", analysis, "--config", cfg, "--outdir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()


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

    @pytest.mark.parametrize("family, params", [
        ("log", '{"epsilon": "0.2"}'),
        ("log", '{"epsilon": 0.2, "lmax": 8.7}'),
        ("rossby_haurwitz", '{"degree": 2, "ycoeffs": {"1": [0.3, 0.1]}, "lmax": 8.7}'),
        ("log", '{bad'),
        ("log", '[1,2]'),
    ], ids=["string-epsilon", "fractional-lmax", "fractional-wave-lmax", "bad-json",
            "non-object"])
    def test_malformed_config_is_config_error(self, tmp_path, capsys, family, params):
        out = tmp_path / "x"
        assert run_cli(["make-solution", "--family", family, "--params", params,
                        "--outdir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    def _report(self, tmp_path, family, params):
        out = tmp_path / "sol"
        assert run_cli(["make-solution", "--family", family, "--params", json.dumps(params),
                        "--outdir", str(out)]) == 0
        return json.loads((out / "residual_report.json").read_text())

    def test_unknown_kind_rejected(self, tmp_path, capsys):
        out = tmp_path / "x"
        params = {"base": {"kind": "vortex_street", "parameters": {}}}
        assert run_cli(["make-solution", "--family", "rotated", "--params", json.dumps(params),
                        "--outdir", str(out)]) == 2
        assert "unknown solution kind 'vortex_street'" in capsys.readouterr().err
        assert not out.exists()

    def test_build_log_family(self, tmp_path):
        report = self._report(tmp_path, "log_family", {"epsilon": 0.2, "lmax": 15})
        assert report["family"] == "log_family"
        assert report["residual_linf"] < 1e-8
        assert report["stability_verdict"] == "stable"

    def test_build_rotated(self, tmp_path):
        report = self._report(tmp_path, "rotated", {
            "base": {"kind": "exp_family", "parameters": {"epsilon": 0.2, "lmax": 15}},
            "rotation": [0.1, 0.5, 0.0],
        })
        assert report["advection_linf"] < 1e-8

    def test_build_rossby_haurwitz(self, tmp_path):
        report = self._report(tmp_path, "rossby_haurwitz", {
            "degree": 2, "alpha": 0.5, "omega": 1.0, "ycoeffs": {"1": [0.3, 0.1]}})
        assert report["degree"] == 2
        assert report["speed"] == solutions.rossby_haurwitz_speed(2, 0.5, 1.0)

    # epsilon 1e6 overflows the exp family to a NaN solution; omega 1e308
    # makes the advection residual of a finite zonal flow NaN
    @pytest.mark.parametrize("family, params", [
        ("exp", {"epsilon": 1e6}),
        ("zonal_harmonic", {"components": [{"l": 2, "coefficient": 1.0}], "omega": 1e308}),
    ], ids=["exp-overflow", "advection-overflow"])
    def test_non_finite_solution_is_numerical_failure(self, tmp_path, capsys, family, params):
        out = tmp_path / "x"
        assert run_cli(["make-solution", "--family", family, "--params", json.dumps(params),
                        "--outdir", str(out)]) == 3
        assert capsys.readouterr().err.startswith("numerical failure:")
        assert sorted(p.name for p in out.iterdir()) == ["config.json"]


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
        {"branch_from": 7}, {"ds": "0.05"}, {"group": "icosahedral"},
        {"ds": 0}, {"direction": 5}, {"direction": 0}, {"lmax": 0}, {"lmax": -2}, {"lmax": 2},
        {"steps": -3},
    ], ids=["fractional-lmax", "string-steps", "bool-branch", "float-degree", "branch-outside",
            "string-ds", "unknown-group", "zero-ds", "direction-5", "zero-direction",
            "zero-lmax", "negative-lmax", "empty-subspace", "negative-steps"])
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

    def test_close_pair_in_the_default_window(self, tmp_path):
        # both crossings +/- sqrt(mu / (3 mu1)) lie within 0.006 of 0
        cfg = write_json(tmp_path / "prob.json", {
            "group": "tetrahedral", "lmax": 8, "steps": 2, "ds": 0.01,
            "family": {"kind": "cubic", "mu": 1e-4, "mu1": 1.0, "degree": 3},
        })
        out = tmp_path / "b"
        assert run_cli(["bifurcate", cfg, "--outdir", str(out)]) == 0
        report = json.loads((out / "branch_report.json").read_text())
        target = math.sqrt(1e-4 / 3.0)
        assert [d for _, d in report["detected_points"]] == [3, 3]
        for (lam, _), sign in zip(report["detected_points"], (-1.0, 1.0)):
            assert abs(lam - sign * target) < 1e-11 * target

    def test_parser_built_once_per_process(self, tmp_path):
        cfg = write_json(tmp_path / "prob.json", {
            "group": "tetrahedral", "lmax": 8, "steps": 4, "ds": 0.08, "lambda_range": [0.0, 2.0],
            "family": {"kind": "cubic", "mu": 1.0, "mu1": 1.0, "degree": 3},
        })
        assert run_cli(["bifurcate", cfg, "--outdir", str(tmp_path / "first")]) == 0
        with pytest.raises(SystemExit) as exc:  # argparse: no such flag
            run_cli(["bifurcate", cfg, "--no-such-flag"])
        assert exc.value.code == 2
        assert run_cli(["make-solution", "--family", "log", "--params",
                        '{"epsilon": 0.3, "lmax": 8}', "--outdir", str(tmp_path / "m")]) == 0
        assert run_cli(["bifurcate", cfg, "--outdir", str(tmp_path / "second")]) == 0
        assert cli.build_parser() is cli.build_parser()
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "rotosphere", "bifurcate", cfg,
                        "--outdir", str(tmp_path / "fresh")], env=env, check=True, timeout=300)
        runs = [{p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
                for name in ("first", "second", "fresh")]
        assert "branch.csv" in runs[0]
        assert runs[0] == runs[1] == runs[2]


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

    def test_byte_identical_reruns(self, tmp_path):
        argv = ["lift3d", "--omega", "18", "--family", "exp", "--epsilon", "0.3",
                "--samples", "3", "--lmax", "15", "--seeds", "[[0.5, 0.4, 0.2], [2.0, -1.4, 0.9]]",
                "--t-end", "0.05", "--dt", "0.0005"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(argv + ["--outdir", str(out1)]) == 0
        assert run_cli(argv + ["--outdir", str(out2)]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert "trajectory_001.csv" in names
        assert names == sorted(p.name for p in out2.iterdir())
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_unknown_family_is_config_error(self, tmp_path):
        assert run_cli(["lift3d", "--omega", "1", "--family", "cubic",
                        "--outdir", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("flags", [
        ["--seeds", "[[0.5"], ["--samples", "-1"], ["--dt", "-0.001"], ["--t-end", "-1"],
        ["--t-end", "1", "--dt", "0.3"], ["--seeds", "[[0.5, 2.0, 0.2]]"],
        ["--seeds", "[[0.5, -1.5707963267948966, 0.2]]"], ["--seeds", "[[0.5, 0.4, -0.1]]"],
        ["--z-max", "-0.5"], ["--omega", "0"],
    ], ids=["bad-seeds-json", "negative-samples", "negative-dt", "negative-t-end",
            "t-end-not-multiple", "seed-beyond-pole", "seed-at-pole", "seed-below-tropopause",
            "negative-z-max", "zero-omega-without-t-end"])
    def test_malformed_config_is_config_error(self, tmp_path, capsys, flags):
        out = tmp_path / "x"
        assert run_cli(["lift3d", "--omega", "18", "--epsilon", "0.1", "--lmax", "8", *flags,
                        "--outdir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    # the density exp(-3 z) underflows to 0 above z ~ 248
    @pytest.mark.parametrize("flags, written", [
        (["--samples", "2", "--seeds", "[[0.1, 0.2, 300]]"], ["config.json", "fields.csv"]),
        (["--samples", "4", "--z-max", "300"], ["config.json"]),
    ], ids=["seed-above-underflow", "samples-above-underflow"])
    def test_non_finite_output_is_numerical_failure(self, tmp_path, capsys, flags, written):
        out = tmp_path / "x"
        assert run_cli(["lift3d", "--omega", "1", "--lmax", "8", *flags,
                        "--outdir", str(out)]) == 3
        assert capsys.readouterr().err.startswith("numerical failure:")
        assert sorted(p.name for p in out.iterdir()) == written


class TestImportPath:
    def test_commands_load_no_scipy(self, tmp_path):
        # root finding runs on the package's own Brent port, so no command needs scipy
        cubic = {"group": "tetrahedral", "lmax": 8, "steps": 3, "ds": 0.08, "lambda_range": [0.0, 2.0],
                 "family": {"kind": "cubic", "mu": 1.0, "mu1": 1.0, "degree": 3}}
        saturating = {"group": "tetrahedral", "lmax": 8, "steps": 3, "ds": 0.1,
                      "family": {"kind": "saturating", "beta": 1.0, "mu": 1.0, "degree": 3}}
        argvs = [
            ["simulate", write_json(tmp_path / "sim.json", SIM_CONFIG), "--outdir", str(tmp_path / "s")],
            ["make-solution", "--family", "log", "--params", '{"epsilon": 0.3, "lmax": 8}',
             "--outdir", str(tmp_path / "m")],
            ["lift3d", "--omega", "18", "--family", "exp", "--epsilon", "0.3", "--samples", "3",
             "--lmax", "15", "--seeds", "[[0.5, 0.4, 0.2]]", "--t-end", "0.01", "--dt", "0.001",
             "--outdir", str(tmp_path / "l")],
            ["sht-selftest", "--lmax", "8", "--outdir", str(tmp_path / "t")],
            # a monotone total vorticity gradient: no sign change to refine
            ["stability", "zonal", "--outdir", str(tmp_path / "z"), "--config",
             write_json(tmp_path / "zonal.json", {"omega": 18.0, "wavenumbers": [1], "basis_size": 8,
                                                  "zonal_coefficients": {"1": 1.0, "2": 1.0}})],
            # a total vorticity gradient that changes sign: Brent refines the crossing
            ["stability", "zonal", "--outdir", str(tmp_path / "zs"), "--config",
             write_json(tmp_path / "zonal_sign.json", {"omega": 2.0, "wavenumbers": [1], "basis_size": 8,
                                                       "zonal_coefficients": {"1": 1.0, "2": 1.0}})],
            ["bifurcate", write_json(tmp_path / "cubic.json", cubic), "--outdir", str(tmp_path / "bc")],
            ["bifurcate", write_json(tmp_path / "saturating.json", saturating),
             "--outdir", str(tmp_path / "bs")],
        ]
        script = ("import json, sys\n"
                  "from rotosphere import cli\n"
                  "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
                  "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
                  "print(json.dumps([codes, loaded]))\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                              capture_output=True, text=True, env=env, timeout=300)
        codes, loaded = json.loads(proc.stdout.splitlines()[-1])
        assert codes == [0] * len(argvs), proc.stderr
        assert loaded == []
        report = json.loads((tmp_path / "zs" / "stability_report.json").read_text())
        assert report["rayleigh"]["sign_changes"]


@pytest.mark.parametrize("argv", [
    ["make-solution", "--family", "log", "--params", '{"epsilon": 0.3, "lmax": 8}', "--svg"],
    ["stability", "planet", "--svg"],
    ["lift3d", "--omega", "18", "--lmax", "8", "--samples", "2", "--svg"],
    ["stability", "planet", "--config", "ZONAL"],
    ["stability", "zonal", "--config", "ZONAL", "--name", "uranus"],
    ["stability", "rh2", "--config", "RH2", "--name", "uranus"],
    ["sht-selftest", "--lmax", "4", "--record-wallclock"],
    ["make-solution", "--family", "log", "--params-file", "PARAMS"],
    ["make-solution", "--family", "travelling", "--params",
     '{"degree": 2, "alpha": 0.5, "omega": 1.0, "ycoeffs": {"1": [0.3, 0.1]}}'],
    ["stability", "zonal"],
    ["stability", "rh2"],
], ids=["make-solution-svg", "stability-svg", "lift3d-svg", "planet-config", "zonal-name",
        "rh2-name", "selftest-wallclock-without-outdir", "make-solution-params-file",
        "make-solution-travelling",
        "zonal-without-config", "rh2-without-config"])
def test_flag_the_command_would_ignore_exits_2(tmp_path, argv):
    configs = {"ZONAL": write_json(tmp_path / "zonal.json", TestStabilityCommands.ZONAL_CONFIG),
               "RH2": write_json(tmp_path / "rh2.json", TestStabilityCommands.RH2_CONFIG),
               "PARAMS": write_json(tmp_path / "params.json", {"epsilon": 0.3, "lmax": 8})}
    out = tmp_path / "out"
    argv = [configs.get(a, a) for a in argv]
    if argv[0] != "sht-selftest":
        argv += ["--outdir", str(out)]
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse: the command has no such flag
        code = exc.code
    assert code == 2
    assert not out.exists()


class TestSelftest:
    def test_passes_and_writes_report(self, tmp_path, capsys):
        for lmax in (1, 15, 31):
            out = tmp_path / f"st{lmax}"
            assert run_cli(["sht-selftest", "--lmax", str(lmax), "--outdir", str(out)]) == 0
            text = capsys.readouterr().out
            assert "PASS" in text and "FAIL" not in text
            assert (out / "selftest.txt").exists()

    @pytest.mark.parametrize("outdir", [False, True], ids=["stdout-only", "with-outdir"])
    def test_closed_stdout_keeps_exit_status(self, tmp_path, outdir):
        # the reader is gone before the report is printed, as with `| head -c 5`
        read_end, write_end = os.pipe()
        os.close(read_end)
        out = tmp_path / "st"
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "rotosphere", "sht-selftest", "--lmax", "8",
                 *(["--outdir", str(out)] if outdir else [])],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env)
        finally:
            os.close(write_end)
        assert proc.returncode == 0
        assert proc.stderr == ""
        if outdir:
            assert "PASS" in (out / "selftest.txt").read_text()
            assert "selftest.txt" in json.loads((out / "manifest.json").read_text())["outputs"]

    def test_lmax_below_one_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "st"
        assert run_cli(["sht-selftest", "--lmax", "0", "--outdir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    def test_failed_check_exits_with_assertion_code(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_selftest_checks",
                            lambda lmax: [("forced failure", 1.0, 1e-12)])
        assert run_cli(["sht-selftest", "--lmax", "4"]) == 4
        assert "FAIL" in capsys.readouterr().out


# A valid small config of each command; the fuzz test below breaks one key.
class TestGoldenOutputs:
    """sha256 of written snapshots, pinned when they were first recorded."""

    def test_random_initial_snapshot(self, tmp_path):
        config = dict(SIM_CONFIG, t_end=0.0, lmax=6, seed=3, initial={"kind": "random"})
        out = tmp_path / "out"
        assert run_cli(["simulate", write_json(tmp_path / "sim.json", config),
                        "--outdir", str(out)]) == 0
        digest = hashlib.sha256((out / "snapshot_000000.shc").read_bytes()).hexdigest()
        assert digest == "89a0baefd01fb6b1ae0b290327ca6796654a3f78b226bddae97846d4a4b8283d"

    def test_rotated_solution(self, tmp_path):
        params = {"base": {"kind": "log_family", "parameters": {"epsilon": 0.3, "lmax": 15}},
                  "rotation": [0.3, 0.7, -0.2]}
        out = tmp_path / "out"
        assert run_cli(["make-solution", "--family", "rotated", "--params", json.dumps(params),
                        "--outdir", str(out)]) == 0
        digest = hashlib.sha256((out / "solution.shc").read_bytes()).hexdigest()
        assert digest == "471fe81f74fda08f008ccfd7f8dc878256697d7ddcb38a697e8d853c2e7876bc"

    @pytest.mark.parametrize("change, digests", [
        ({"ds": 0.08, "lambda_range": [0.0, 2.0],
          "family": {"kind": "cubic", "mu": 1.0, "mu1": 1.0, "degree": 3}},
         {"branch.csv": "99d26df0b04b6363e94244a86c66f4b314b21f3c5d5ac0b6accdebe5be1026a0",
          "branch_report.json": "b42b5e5547e0a01cb43038642c270614b6bedecb80d2ae2ab4ab4e101356ebf8"}),
        # the last point leaves the saturating profile's linear window
        ({"ds": 0.1, "family": {"kind": "saturating", "beta": 1.0, "mu": 1.0, "degree": 3}},
         {"branch.csv": "7f287a9f568f888deaa41eca693809e6eb354575ce41fcd4da1d8ddb12af6152",
          "branch_report.json": "30b7100e818b286e72078a04163d4fe07298e163f13ba783b9ff4f5196ccc413"}),
    ], ids=["cubic", "saturating"])
    def test_bifurcate_branch(self, tmp_path, change, digests):
        problem = {"group": "tetrahedral", "lmax": 8, "steps": 6, **change}
        out = tmp_path / "out"
        assert run_cli(["bifurcate", write_json(tmp_path / "problem.json", problem),
                        "--outdir", str(out)]) == 0
        for name, digest in digests.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    def test_bifurcate_branches_in_one_process(self, tmp_path):
        """Cubic, saturating, cubic again on one cached subspace: each run
        folds its own grid and writes the pinned digests above."""
        (mark,) = [m for m in self.test_bifurcate_branch.pytestmark if m.name == "parametrize"]
        cases = dict(zip(mark.kwargs["ids"], mark.args[1]))
        rotosphere.clear_caches()
        for i, kind in enumerate(["cubic", "saturating", "cubic"]):
            (tmp_path / f"run{i}").mkdir()
            self.test_bifurcate_branch(tmp_path / f"run{i}", *cases[kind])


def test_clear_caches_empties_every_table_cache(tmp_path):
    caches = [sht.get_transform, sht.laplacian_eigenvalues,
              bifurcation._named_subspace, bifurcation._orbit_quadrature]
    runs = [["simulate", write_json(tmp_path / "sim.json", SIM_CONFIG)],
            ["bifurcate", write_json(tmp_path / "problem.json", FUZZ_BIFURCATE)]]

    def outputs(tag):
        files = {}
        for i, argv in enumerate(runs):
            out = tmp_path / f"{tag}{i}"
            assert run_cli([*argv, "--outdir", str(out)]) == 0
            files |= {(i, p.name): p.read_bytes() for p in out.iterdir()}
        return files

    before = outputs("before")
    assert all(cache.cache_info().currsize for cache in caches) and len(sht._pi2_tables) > 1
    rotosphere.clear_caches()
    assert [cache.cache_info().currsize for cache in caches] == [0] * len(caches)
    assert list(sht._pi2_tables) == [0]
    assert outputs("after") == before


FUZZ_BIFURCATE = {
    "group": "tetrahedral", "lmax": 8, "steps": 4, "ds": 0.08, "lambda_range": [0.0, 2.0],
    "family": {"kind": "cubic", "mu": 1.0, "mu1": 1.0, "degree": 3},
}
FUZZ_WAVE = {"degree": 2, "alpha": 0.5, "omega": 1.0, "ycoeffs": {"1": [0.3, 0.1]}}
FUZZ_CASES = [
    (["simulate"], dict(SIM_CONFIG, snapshot_stride=5, seed=1)),
    (["simulate"], dict(SIM_CONFIG, initial=dict(FUZZ_WAVE, kind="rossby_haurwitz"))),
    (["stability", "zonal"], TestStabilityCommands.ZONAL_CONFIG),
    (["stability", "rh2"], TestStabilityCommands.RH2_CONFIG),
    (["bifurcate"], FUZZ_BIFURCATE),
    (["bifurcate"], dict(FUZZ_BIFURCATE, family={"kind": "saturating", "beta": 1.0, "mu": 1.0,
                                                 "degree": 3})),
    (["make-solution", "--family", "log"], {"epsilon": 0.3, "phi0": 0.1, "lmax": 8}),
    (["make-solution", "--family", "rossby_haurwitz"], dict(FUZZ_WAVE, lmax=8)),
    (["make-solution", "--family", "rotated"], {
        "base": {"kind": "exp_family", "parameters": {"epsilon": 0.2, "lmax": 8}},
        "rotation": [0.1, 0.5, 0.0]}),
    (["make-solution", "--family", "zonal_harmonic"],
     {"lmax": 8, "components": [{"l": 2, "coefficient": 1.0}]}),
    (["lift3d"], {"omega": 18.0, "epsilon": 0.1, "lmax": 8, "samples": 2,
                  "seeds": [[0.5, 0.4, 0.2]], "t-end": 0.05, "dt": 0.005}),
]
DELETE = object()
FUZZ_VALUES = st.sampled_from(["x", True, {}, None, math.nan, -1, -2.5, [1.0],
                               [1.0, 2.0, 3.0, 4.0, 5.0], DELETE])


def _key_paths(value, prefix=()):
    if prefix:
        yield prefix
    children = (value.items() if isinstance(value, dict)
                else enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield from _key_paths(child, prefix + (key,))


def _at(config, path):
    for key in path:
        config = config[key]
    return config


def _fuzz_argv(prefix, config, tmp):
    if prefix[0] == "make-solution":
        return prefix + ["--params", json.dumps(config)]
    if prefix[0] == "lift3d":  # lift3d takes its config as flags
        return prefix + [a for key, value in config.items() for a in (f"--{key}", json.dumps(value))]
    path = write_json(tmp / "config.json", config)
    return prefix + (["--config", path] if prefix[0] == "stability" else [path])


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_fuzzed_config_exits_0_2_or_3(data):
    prefix, config = data.draw(st.sampled_from(FUZZ_CASES))
    path = data.draw(st.sampled_from(list(_key_paths(config))))
    value = data.draw(FUZZ_VALUES)
    config = copy.deepcopy(config)
    parent = _at(config, path[:-1])
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        argv = _fuzz_argv(prefix, config, Path(tmp)) + ["--outdir", str(out)]
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a flag value of the wrong type
            code = exc.code
        assert code in (0, 2, 3), argv
        if code == 2:
            assert not out.exists(), argv


@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_unread_config_key_exits_2(data):
    # no config key ends in "_", so the misspelling is read by no command
    prefix, config = data.draw(st.sampled_from([c for c in FUZZ_CASES if c[0] != ["lift3d"]]))
    path = data.draw(st.sampled_from(
        [()] + [p for p in _key_paths(config) if isinstance(_at(config, p), dict)]))
    config = copy.deepcopy(config)
    parent = _at(config, path)
    key = data.draw(st.sampled_from(sorted(parent))) + "_"
    parent[key] = data.draw(FUZZ_VALUES.filter(lambda v: v is not DELETE))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        argv = _fuzz_argv(prefix, config, Path(tmp)) + ["--outdir", str(out)]
        assert cli.main(argv) == 2, argv
        assert not out.exists(), argv

