import contextlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from casimir_mto import errors
from casimir_mto.cli import main
from casimir_mto.constants import CODATA
from casimir_mto.electrostatics import make_calibration_samples
from casimir_mto.lifshitz import ideal_force_sphere_plane
from casimir_mto.materials import data_dir

R_SPHERE = 294.3e-6


def run(args):
    return main([str(a) for a in args])


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestForceCommand:
    def _config(self, tmp_path, **extra):
        doc = {
            "materials": {"pair": ["ideal", "ideal"]},
            "radius_m": R_SPHERE,
            "z_grid_m": [2e-7, 5e-7, 1e-6],
            "tol": 1e-6,
            "out": str(tmp_path / "force.csv"),
        }
        doc.update(extra)
        return write_json(tmp_path / "force.json", doc)

    def test_ideal_grid_matches_closed_form(self, tmp_path):
        cfg = self._config(tmp_path)
        assert run(["force", "--config", cfg]) == 0
        rows = np.loadtxt(tmp_path / "force.csv", delimiter=",", skiprows=1)
        assert rows.shape == (3, 3)
        for z, f, err in rows:
            assert f == pytest.approx(ideal_force_sphere_plane(z, R_SPHERE), rel=1e-5, abs=0.0)
            assert err <= 1e-6

    def test_byte_identical_reruns(self, tmp_path):
        cfg = self._config(tmp_path)
        run(["force", "--config", cfg])
        first = (tmp_path / "force.csv").read_bytes()
        run(["force", "--config", cfg])
        assert (tmp_path / "force.csv").read_bytes() == first

    def test_empty_grid_is_usage_error(self, tmp_path):
        cfg = self._config(tmp_path, z_grid_m=[])
        assert run(["force", "--config", cfg]) == 2

    def test_unknown_material_lists_registry(self, tmp_path, capsys):
        cfg = self._config(tmp_path, materials={"pair": ["ideal", "unobtanium"]})
        assert run(["force", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            "error: materials: unknown material 'unobtanium'; registry has "
            "['copper', 'copper_drude', 'gold', 'gold_drude', 'ideal']\n")

    def test_unknown_key_rejected(self, tmp_path):
        cfg = self._config(tmp_path, bogus_key=1)
        assert run(["force", "--config", cfg]) == 2

    def test_missing_file_exit_1(self, tmp_path, capsys):
        assert run(["force", "--config", tmp_path / "nope.json"]) == 1
        assert "nope.json" in capsys.readouterr().err

    def test_roughness_column(self, tmp_path):
        cfg = self._config(
            tmp_path,
            roughness={"entries": [[-3.94e-8, 0.5], [3.94e-8, 0.5]]},
            z_grid_m=[1e-6],
        )
        assert run(["force", "--config", cfg]) == 0
        with open(tmp_path / "force.csv") as fh:
            header = fh.readline().strip().split(",")
            row = [float(x) for x in fh.readline().split(",")]
        assert header == ["z_m", "f_n", "est_rel_error", "f_n_rough"]
        assert abs(row[3]) > abs(row[1])  # convex enhancement

    def test_gradient_quantity(self, tmp_path):
        cfg = self._config(tmp_path, quantity="gradient", z_grid_m=[1e-6])
        assert run(["force", "--config", cfg]) == 0
        rows = np.loadtxt(tmp_path / "force.csv", delimiter=",", skiprows=1, ndmin=2)
        want = 2 * math.pi * R_SPHERE * math.pi**2 * CODATA.hbar * CODATA.c / 240e-24
        assert rows[0, 1] == pytest.approx(want, rel=1e-5)

    def test_gradient_roughness_column_is_averaged_pressure(self, tmp_path):
        from casimir_mto.materials import load_registry
        from casimir_mto.roughness import RoughnessDistribution, averaged_pressure

        entries = [[-3.94e-8, 0.5], [3.94e-8, 0.5]]
        cfg = self._config(
            tmp_path,
            materials={"pair": ["gold_drude", "copper_drude"]},
            quantity="gradient",
            roughness={"entries": entries},
            z_grid_m=[3e-7, 6e-7],
        )
        assert run(["force", "--config", cfg]) == 0
        with open(tmp_path / "force.csv") as fh:
            assert fh.readline().strip().split(",")[-1] == "dfdz_n_per_m_rough"
            rows = [[float(x) for x in line.split(",")] for line in fh]
        registry = load_registry()
        dist = RoughnessDistribution(*np.array(entries).T)
        for row in rows:
            p = averaged_pressure(row[0], dist, registry["gold_drude"],
                                  registry["copper_drude"], tol=1e-6)
            assert row[3] == 2.0 * math.pi * R_SPHERE * abs(p.value)

    def test_one_sided_roughness_column_is_averaged_force(self, tmp_path):
        # With every offset > 0 the row's own separation is not an entry of
        # its average, and does not become the smallest separation whose
        # nodes the average's entries share: the rough column is
        # averaged_force's and the plain columns those of the grid without
        # roughness, bit for bit.
        from casimir_mto.materials import load_registry
        from casimir_mto.roughness import RoughnessDistribution, averaged_force

        entries = [[1e-8, 0.5], [3e-8, 0.5]]
        grid = [3e-7, 6e-7]
        pair = {"pair": ["gold", "copper"]}
        assert run(["force", "--config", self._config(tmp_path, materials=pair,
                                                      z_grid_m=grid)]) == 0
        plain = (tmp_path / "force.csv").read_text().splitlines()
        cfg = self._config(tmp_path, materials=pair, z_grid_m=grid,
                           roughness={"entries": entries})
        assert run(["force", "--config", cfg]) == 0
        rough = [line.split(",") for line in (tmp_path / "force.csv").read_text().splitlines()]
        assert [",".join(row[:3]) for row in rough] == plain
        registry = load_registry()
        want = averaged_force(np.array(grid), R_SPHERE, RoughnessDistribution(*np.array(entries).T),
                              registry["gold"], registry["copper"], tol=1e-6)
        assert [float(row[3]) for row in rough[1:]] == want.value.tolist()

    def test_rough_row_is_one_integral(self, tmp_path, monkeypatch):
        # Every row's average comes from one stacked call, with the nodes of
        # the rows' averages made one by one. The plain column is one more
        # call, the grid without roughness bit for bit, though the zero
        # offset is not the smallest of its row.
        from casimir_mto import lifshitz
        from casimir_mto.materials import load_registry
        from casimir_mto.roughness import RoughnessDistribution, averaged_force

        entries = [[-3e-8, 0.15], [-1e-8, 0.2], [0.0, 0.3], [1e-8, 0.2], [3e-8, 0.15]]
        grid = [5e-7, 1.1e-6, 1.5e-6]
        registry = load_registry()
        want = [averaged_force(z, R_SPHERE, RoughnessDistribution(*np.array(entries).T),
                               registry["gold"], registry["copper"], tol=1e-6) for z in grid]
        plain = lifshitz.force_sphere_plane(np.array(grid), R_SPHERE, registry["gold"],
                                            registry["copper"], tol=1e-6)
        nodes = []
        integral = lifshitz._lifshitz

        def counted(*args):
            result = integral(*args)
            nodes.append(result.evaluations)
            return result

        monkeypatch.setattr(lifshitz, "_lifshitz", counted)
        cfg = self._config(tmp_path, materials={"pair": ["gold", "copper"]},
                           roughness={"entries": entries}, z_grid_m=grid)
        assert run(["force", "--config", cfg]) == 0
        assert nodes == [sum(w.evaluations for w in want), plain.evaluations]
        rows = np.loadtxt(tmp_path / "force.csv", delimiter=",", skiprows=1)
        assert rows[:, 3].tolist() == [w.value for w in want]
        assert rows[:, 1].tolist() == plain.value.tolist()
        assert rows[:, 2].tolist() == plain.est_rel_error.tolist()

    def test_one_entry_roughness_is_the_plain_grid(self, tmp_path):
        # A grid without roughness is the one-entry distribution: configuring
        # that distribution only adds the rough column, equal to the plain one.
        grid = {"start": 2e-7, "stop": 2e-6, "points": 5, "spacing": "log"}
        pair = {"pair": ["gold", "copper"]}
        assert run(["force", "--config", self._config(tmp_path, materials=pair,
                                                      z_grid_m=grid)]) == 0
        plain = (tmp_path / "force.csv").read_text().splitlines()
        cfg = self._config(tmp_path, materials=pair, z_grid_m=grid,
                           roughness={"entries": [[0.0, 1.0]]})
        assert run(["force", "--config", cfg]) == 0
        rough = [line.split(",") for line in (tmp_path / "force.csv").read_text().splitlines()]
        assert [",".join(row[:3]) for row in rough] == plain
        assert rough[0][3] == "f_n_rough"
        assert all(row[3] == row[1] for row in rough[1:])

    def test_tol_flag_overrides_config(self, tmp_path):
        cfg = self._config(tmp_path, z_grid_m=[1e-6])
        run(["force", "--config", cfg])
        first = (tmp_path / "force.csv").read_bytes()
        run(["force", "--config", cfg, "--tol", 1e-4])
        loose = np.loadtxt(tmp_path / "force.csv", delimiter=",", skiprows=1)
        run(["force", "--config", cfg])
        tight = np.loadtxt(tmp_path / "force.csv", delimiter=",", skiprows=1)
        assert loose[2] > tight[2]  # bigger reported error at looser tol
        assert loose[2] <= 1e-4 and tight[2] <= 1e-6
        # The flag does not leak into the next call (the parser is shared).
        assert (tmp_path / "force.csv").read_bytes() == first

    def test_grid_spec_object(self, tmp_path):
        cfg = self._config(
            tmp_path, z_grid_m={"start": 2e-7, "stop": 2e-6, "points": 4, "spacing": "log"}
        )
        assert run(["force", "--config", cfg]) == 0
        rows = np.loadtxt(tmp_path / "force.csv", delimiter=",", skiprows=1)
        assert rows.shape == (4, 3)
        np.testing.assert_allclose(rows[:, 0], np.geomspace(2e-7, 2e-6, 4))


class TestPressureCommand:
    def test_pressure_grid(self, tmp_path):
        cfg = write_json(
            tmp_path / "p.json",
            {
                "materials": {"pair": ["gold_drude", "copper_drude"]},
                "z_grid_m": [5e-7],
                "out": str(tmp_path / "p.csv"),
            },
        )
        assert run(["pressure", "--config", cfg]) == 0
        rows = np.loadtxt(tmp_path / "p.csv", delimiter=",", skiprows=1, ndmin=2)
        assert rows[0, 1] == pytest.approx(-1.645109e-2, rel=1e-4)

    def test_tabulated_pair_grid(self, tmp_path):
        cfg = write_json(
            tmp_path / "p.json",
            {
                "materials": {"pair": ["gold", "copper"]},
                "z_grid_m": {"start": 3e-7, "stop": 8e-7, "points": 6,
                             "spacing": "linear"},
                "out": str(tmp_path / "p.csv"),
            },
        )
        assert run(["pressure", "--config", cfg]) == 0
        rows = np.loadtxt(tmp_path / "p.csv", delimiter=",", skiprows=1)
        assert rows.shape == (6, 3)
        assert np.all(rows[:, 1] < 0)
        assert np.all(np.diff(np.abs(rows[:, 1])) < 0)


def test_module_entry_point():
    import subprocess
    import sys

    out = subprocess.run(
        [sys.executable, "-m", "casimir_mto", "--version"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert out.stdout.strip() == "0.1.0"


class TestCalibrateCommand:
    def _dataset(self, tmp_path, voltages=(0.1325, 0.4825, 0.9325)):
        from casimir_mto.electrostatics import make_calibration_samples

        samples = make_calibration_samples(
            50280.0, 0.6325, 294.3e-6, 39.4e-9,
            np.linspace(0.8e-6, 3e-6, 8), voltages,
        )
        path = tmp_path / "cal.csv"
        with open(path, "w") as fh:
            fh.write("z_metal_m,v_applied_v,delta_c_f\n")
            for row in samples:
                fh.write(",".join(f"{x:.17e}" for x in row) + "\n")
        return path

    def test_round_trip(self, tmp_path, capsys):
        data = self._dataset(tmp_path)
        cfg = write_json(
            tmp_path / "cal.json",
            {
                "data": str(data),
                "initial_guess": {"k_n_per_f": 5.2e4, "v0_v": 0.6,
                                  "radius_m": 3e-4, "delta0_m": 3e-8},
                "out": str(tmp_path / "fit.json"),
            },
        )
        assert run(["calibrate", "--config", cfg]) == 0
        report = json.loads((tmp_path / "fit.json").read_text())
        assert report["k_n_per_f"] == pytest.approx(50280.0, rel=1e-6)
        assert report["v0_v"] == pytest.approx(0.6325, rel=1e-6)
        assert "k_n_per_f" in capsys.readouterr().out

    def test_bundled_demo_dataset_recovers_truth(self, tmp_path):
        from casimir_mto.materials import data_dir

        cfg = write_json(
            tmp_path / "cal.json",
            {
                "data": str(data_dir() / "calibration_demo.csv"),
                "out": str(tmp_path / "fit.json"),
            },
        )
        assert run(["calibrate", "--config", cfg]) == 0
        report = json.loads((tmp_path / "fit.json").read_text())
        assert report["k_n_per_f"] == pytest.approx(50280.0, rel=1e-6)
        assert report["radius_m"] == pytest.approx(294.3e-6, rel=1e-6)
        assert report["delta0_m"] == pytest.approx(39.4e-9, rel=1e-6)

    def test_single_voltage_exit_2(self, tmp_path):
        data = self._dataset(tmp_path, voltages=(0.9325,))
        cfg = write_json(tmp_path / "cal.json", {"data": str(data)})
        assert run(["calibrate", "--config", cfg]) == 2

    def test_missing_data_file_exit_1(self, tmp_path):
        cfg = write_json(tmp_path / "cal.json", {"data": str(tmp_path / "absent.csv")})
        assert run(["calibrate", "--config", cfg]) == 1

    @pytest.mark.parametrize("guess", [{}, {"delta0_m": 0.0}], ids=["default", "delta0_0"])
    def test_rank_deficient_design_exit_2(self, tmp_path, capsys, monkeypatch, guess):
        # Femtometer metal separations are nothing beside the contact offset
        # (or the radius): the gaps cannot tell k, R and delta0 apart. The
        # Jacobian at the guess shows it before any LM step.
        from casimir_mto import electrostatics

        def no_fit(*args, **kwargs):
            raise AssertionError("the fit ran")

        monkeypatch.setattr(electrostatics, "least_squares", no_fit)
        command, doc = _calibrate_rows(tmp_path, _csv_rows(_femtometer(3)), initial_guess=guess)
        assert run([command, "--config", write_json(tmp_path / "cal.json", doc)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: calibration design is rank-deficient")

    def test_nonconvergent_fit_exit_3(self, tmp_path, capsys, monkeypatch):
        # A fit that uses up its evaluation budget is a FitError.
        from casimir_mto import electrostatics

        solver = electrostatics.least_squares
        monkeypatch.setattr(electrostatics, "least_squares",
                            lambda fun, x0, **kw: solver(fun, x0, **{**kw, "max_nfev": 3}))
        cfg = write_json(tmp_path / "cal.json", {"data": str(data_dir() / "calibration_demo.csv")})
        assert run(["calibrate", "--config", cfg]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: calibration fit did not converge in 3 evaluations"]

    @pytest.mark.parametrize("bad,message", [
        ("2e-6,nan,1e-14", "calibration sample fields must be finite"),
        ("-2e-6,0.3,1e-14", "z_metal must be > 0"),
        ("0,0.3,1e-14", "z_metal must be > 0"),
    ])
    def test_bad_row_names_its_file_line(self, tmp_path, capsys, bad, message):
        # The bad row is data row 4 (index 3) on file line 7.
        data = tmp_path / "cal.csv"
        data.write_text("# bridge export\nz_metal_m,v_applied_v,delta_c_f\n"
                        "1e-6,0.1,1e-14\n2e-6,0.1,1e-14\n\n1e-6,0.3,1e-14\n"
                        f"{bad}\n3e-6,0.3,1e-14\n-1e-6,nan,1e-14\n", encoding="utf-8")
        cfg = write_json(tmp_path / "cal.json", {"data": str(data)})
        assert run(["calibrate", "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.strip().splitlines() == [f"error: line 7: {message}"]


class TestSweepCommand:
    def test_outputs_and_determinism(self, tmp_path):
        cfg = write_json(
            tmp_path / "sweep.json",
            {
                "materials": {"pair": ["gold_drude", "copper_drude"]},
                "radius_m": R_SPHERE,
                "z_grid_m": {"start": 2.5e-7, "stop": 4.5e-7, "points": 3,
                             "spacing": "linear"},
                "noise": {"freq_noise_rms_hz": 0.03,
                          "separation_noise_rms_m": 3.2e-10},
                "seed": 42,
                "out": str(tmp_path / "sweep.csv"),
            },
        )
        assert run(["sweep", "--config", cfg]) == 0
        raw = (tmp_path / "sweep.csv").read_bytes()
        grads = np.loadtxt(tmp_path / "sweep_gradients.csv", delimiter=",", skiprows=1)
        assert grads.shape == (3, 2)
        assert np.all(grads[:, 1] > 0)
        assert run(["sweep", "--config", cfg]) == 0
        assert (tmp_path / "sweep.csv").read_bytes() == raw
        # Seed flag overrides the config and changes the noise draws.
        assert run(["sweep", "--config", cfg, "--seed", 43]) == 0
        assert (tmp_path / "sweep.csv").read_bytes() != raw

    def test_inversion_error_leaves_no_output(self, tmp_path, capsys):
        # Noise this large pushes a shift outside the linear domain.
        cfg = write_json(tmp_path / "sweep.json", {
            "materials": {"pair": ["ideal", "ideal"]},
            "radius_m": R_SPHERE,
            "z_grid_m": [3e-7, 4e-7],
            "noise": {"freq_noise_rms_hz": 1e4},
            "seed": 1,
            "out": str(tmp_path / "s.csv"),
        })
        assert run(["sweep", "--config", cfg]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not (tmp_path / "s.csv").exists()
        assert not (tmp_path / "s_gradients.csv").exists()

    def test_oscillator_key_at_its_default_changes_nothing(self, tmp_path):
        # Every oscillator default lives in measured_params: naming one key
        # at its value gives the files of no oscillator object at all.
        outputs = []
        for extra in ({}, {"oscillator": {"f0_hz": 687.23}}):
            _, doc = _sweep(tmp_path, noise={"freq_noise_rms_hz": 0.03}, **extra)
            assert run(["sweep", "--config", write_json(tmp_path / "sweep.json", doc)]) == 0
            outputs.append([(tmp_path / name).read_bytes()
                            for name in ("s.csv", "s_gradients.csv")])
        assert outputs[0] == outputs[1]

    def test_bad_seed_rejected(self, tmp_path):
        cfg = write_json(
            tmp_path / "sweep.json",
            {
                "materials": {"pair": ["ideal", "ideal"]},
                "radius_m": R_SPHERE,
                "z_grid_m": [5e-7],
                "seed": -1,
                "out": str(tmp_path / "s.csv"),
            },
        )
        assert run(["sweep", "--config", cfg]) == 2


class TestLimitsCommand:
    def test_limits_csv(self, tmp_path):
        cfg = write_json(
            tmp_path / "limits.json",
            {
                "lambda_grid_m": [1e-7, 2e-7],
                "z_grid_m": [2e-7, 3e-7],
                "residual_bound": {"constant_n": 2e-14},
                "out": str(tmp_path / "limits.csv"),
            },
        )
        assert run(["limits", "--config", cfg]) == 0
        rows = np.loadtxt(tmp_path / "limits.csv", delimiter=",", skiprows=1)
        assert rows.shape == (2, 2)
        assert np.all(rows[:, 1] > 0)
        assert rows[0, 1] > rows[1, 1]  # longer range -> stronger constraint

    def test_bound_file_must_cover_grid(self, tmp_path, capsys):
        bounds = tmp_path / "bounds.csv"
        bounds.write_text("z_m,bound_n\n2.5e-7,1e-14\n6e-7,2e-14\n")
        cfg = write_json(
            tmp_path / "limits.json",
            {
                "lambda_grid_m": [1e-7],
                "z_grid_m": [2e-7, 3e-7],
                "residual_bound": {"file": str(bounds)},
                "out": str(tmp_path / "x.csv"),
            },
        )
        assert run(["limits", "--config", cfg]) == 2
        assert "z_grid_m" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_lambda_times_z_points_are_capped(self, tmp_path, capsys):
        # 10^6 x 10^6 points would run about 22 hours; the cap stops the run
        # before any range is computed.
        grid = {"start": 1e-7, "stop": 1e-6, "points": 1_000_000}
        command, doc = _limits(tmp_path, {"constant_n": 2e-14},
                               lambda_grid_m=grid, z_grid_m=grid)
        start = time.perf_counter()
        assert run([command, "--config", write_json(tmp_path / "limits.json", doc)]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            "error: lambda_grid_m x z_grid_m: 1000000 x 1000000 points, "
            "over the cap of 100000000\n")
        assert not (tmp_path / "x.csv").exists()

    def test_bound_spec_exclusive(self, tmp_path):
        cfg = write_json(
            tmp_path / "limits.json",
            {
                "lambda_grid_m": [1e-7],
                "z_grid_m": [2e-7],
                "residual_bound": {},
                "out": str(tmp_path / "x.csv"),
            },
        )
        assert run(["limits", "--config", cfg]) == 2


class TestMaterialsValidate:
    def test_bundled_registry_valid(self, capsys):
        assert run(["materials", "validate"]) == 0
        out = capsys.readouterr().out
        assert "gold: ok" in out
        assert "5 material(s) valid" in out

    def test_broken_table_fails_only_runs_that_name_it(self, tmp_path, capsys):
        bundled = json.loads((data_dir() / "materials.json").read_text(encoding="utf-8"))
        reg = write_json(tmp_path / "materials.json", {
            "gold_drude": bundled["gold_drude"],
            "copper_drude": bundled["copper_drude"],
            "broken": {"variant": "tabulated", "plasma_ev": 9.0, "relaxation_ev": 0.035,
                       "table": "missing.csv"},
        })
        csv = {}
        for name, registry in (("bundled", {}), ("copy", {"registry": str(reg)})):
            _, doc = _force(tmp_path, out=str(tmp_path / f"{name}.csv"),
                            materials={**registry, "pair": ["gold_drude", "copper_drude"]})
            assert run(["force", "--config", write_json(tmp_path / "run.json", doc)]) == 0
            csv[name] = (tmp_path / f"{name}.csv").read_bytes()
        assert csv["copy"] == csv["bundled"]
        capsys.readouterr()

        _, doc = _force(tmp_path, materials={"registry": str(reg), "pair": ["broken", "gold_drude"]})
        for argv in (["force", "--config", write_json(tmp_path / "run.json", doc)],
                     ["materials", "validate", "--config", reg]):
            assert run(argv) == 1
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and err[0].startswith("error: ") and "missing.csv" in err[0]

    def test_broken_registry_exit_2(self, tmp_path):
        reg = write_json(
            tmp_path / "materials.json",
            {"weird": {"variant": "drude", "plasma_ev": -1, "relaxation_ev": 0.1}},
        )
        assert run(["materials", "validate", "--config", reg]) == 2


def _force(tmp_path, **extra):
    doc = {
        "materials": {"pair": ["ideal", "ideal"]},
        "radius_m": R_SPHERE,
        "z_grid_m": [5e-7],
        "out": str(tmp_path / "f.csv"),
    }
    doc.update(extra)
    return "force", doc


def _pressure(tmp_path, **extra):
    _, doc = _force(tmp_path, **extra)
    del doc["radius_m"]
    return "pressure", doc


def _limits(tmp_path, bound, **extra):
    doc = {
        "lambda_grid_m": [1e-7],
        "z_grid_m": [2e-7],
        "residual_bound": bound,
        "out": str(tmp_path / "x.csv"),
    }
    doc.update(extra)
    return "limits", doc


def _limits_bound_file(tmp_path, text, **extra):
    bounds = tmp_path / "bounds.csv"
    bounds.write_text(text)
    return _limits(tmp_path, {"file": str(bounds)}, **extra)


def _sweep(tmp_path, **extra):
    doc = {
        "materials": {"pair": ["ideal", "ideal"]},
        "radius_m": R_SPHERE,
        "z_grid_m": [3e-7, 4e-7],
        "seed": 1,
        "out": str(tmp_path / "s.csv"),
    }
    doc.update(extra)
    return "sweep", doc


def _registry_force(tmp_path, **entry):
    metal = {"variant": "drude", "plasma_ev": 9.0, "relaxation_ev": 0.035, **entry}
    registry = write_json(tmp_path / "materials.json", {"metal": metal})
    return _force(tmp_path, materials={"registry": str(registry), "pair": ["metal", "metal"]})


def _calibrate_file(tmp_path, body: bytes):
    data = tmp_path / "cal.csv"
    data.write_bytes(body)
    return "calibrate", {"data": str(data)}


def _calibrate_rows(tmp_path, rows, **extra):
    command, doc = _calibrate_file(tmp_path, ("z_metal_m,v_applied_v,delta_c_f\n" + rows).encode())
    return command, {**doc, **extra}


def _csv_rows(rows):
    return "".join(",".join(map(repr, row)) + "\n" for row in rows)


def _femtometer(gaps):
    """Four calibration rows at four voltages on ``gaps`` distinct femtometer gaps."""
    return [(float(f"{1 + i % gaps}e-15"), 0.2 + 0.2 * i, 1e-14) for i in range(4)]


def _heightmap_force(tmp_path, body: bytes, **roughness):
    scan = tmp_path / "scan.txt"
    scan.write_bytes(body)
    return _force(tmp_path, roughness={"heightmap1": str(scan), **roughness})


@pytest.mark.parametrize("make,code", [
    (lambda t: _force(t, radius_m="abc"), 2),
    (lambda t: _force(t, z_grid_m=[5e-7, "x"]), 2),
    (lambda t: _force(t, roughness={"entries": [["x", 1.0]]}), 2),
    (lambda t: _force(t, z_grid_m={"start": 2e-7, "stop": 6e-7, "points": 2.7}), 2),
    (lambda t: _force(t, z_grid_m={"start": 2e-7, "stop": 6e-7, "points": True}), 2),
    (lambda t: _limits_bound_file(t, "z_m,bound_n\n1e-7,1e-14\n1e-6,abc\n"), 1),
    (lambda t: _limits_bound_file(t, "z_m\n1e-7\n1e-6\n"), 1),
    (lambda t: _limits_bound_file(t, "z_m,bound_n\n1e-6,1e-14\n1e-7,1e-14\n"), 2),
    (lambda t: _limits_bound_file(
        t, "z_m,bound_n\n1e-7,1e-14\n1e-6,1e-14\n",
        plate={"core_density_kg_m3": 2330.0, "layers": [["thick", 8960.0]]}), 2),
    (lambda t: _registry_force(t, plasma_ev="abc"), 2),
    (lambda t: _registry_force(t, plasma_ev=None), 2),
    (lambda t: _registry_force(t, variant="tabulated", table=5), 2),
    (lambda t: _registry_force(t, variant="tabulated", splice_ev="abc",
                               table=str(data_dir() / "au_eps2.csv")), 2),
    (lambda t: _force(t, materials={"pair": ["gold_drude", ["x"]]}), 2),
    (lambda t: _force(t, roughness={"entries": [[1e-9, math.nan], [0.0, 1.0]]}), 2),
    (lambda t: _calibrate_rows(t, "1e-6,0.1,1e-14\n2e-6,nan,1e-14\n"), 2),
    (lambda t: _force(t, radius_m=math.inf), 2),
    (lambda t: _limits(t, {"constant_n": math.nan}), 2),
    (lambda t: _sweep(t, noise={"freq_noise_rms_hz": math.nan}), 2),
    (lambda t: _limits_bound_file(t, "z_m,bound_n\n1e-7,nan\n1e-6,1e-14\n"), 2),
    (lambda t: _limits_bound_file(t, "z_m,bound_n\n1e-7,1e-14\nnan,1e-14\n1e-6,1e-14\n"), 2),
    (lambda t: _limits_bound_file(t, "1e-7,1e-14\n1.5e-7,1e-14\n1e-6,1e-14\n"), 1),
    (lambda t: _limits(t, {"constant_n": 1e-14}, lambda_grid_m=[math.inf]), 2),
    (lambda t: _limits_bound_file(t, "z_m,bound_n\n\n"), 1),
    (lambda t: ("force", b'{"out": "\xff"}'), 1),
    (lambda t: _calibrate_file(t, b"z_metal_m,v_applied_v,delta_c_f\n1e-6,0.1,\xff\n"), 1),
    (lambda t: _heightmap_force(t, b"# pixel_pitch_m = 1e-7\n1e-9 \xff\n"), 1),
    (lambda t: _registry_force(t, plasma_ev=math.inf), 2),
    (lambda t: _calibrate_rows(t, ""), 1),
    (lambda t: _force(t, z_grid_m=[1e-300]), 2),
    (lambda t: _force(t, z_grid_m=[1e300]), 2),
    (lambda t: _pressure(t, z_grid_m=[1e-300]), 2),
    (lambda t: _pressure(t, z_grid_m=[1e300]), 2),
    (lambda t: _force(t, z_grid_m=[True]), 2),
    (lambda t: _force(t, z_grid_m=[[1e-7]]), 2),
    (lambda t: _force(t, radius_m=True), 2),
    (lambda t: _force(t, roughness={"entries": [[0.0, True]]}), 2),
    (lambda t: _calibrate_rows(t, "1e-6,0.1,1e300\n2e-6,0.1,1e-14\n1e-6,0.5,1e-14\n"
                                  "2e-6,0.5,1e-14\n1.5e-6,0.9,1e-14\n"), 2),
    (lambda t: _limits(t, {"constant_n": 1e-14}, lambda_grid_m=[1e-300]), 2),
    (lambda t: _limits(t, {"constant_n": 1e-14}, lambda_grid_m=[1e300]), 2),
    (lambda t: _force(t, out=1), 2),
    (lambda t: _force(t, out=None), 2),
    (lambda t: _sweep(t, out=["s.csv"]), 2),
    (lambda t: ("calibrate", {"data": 1}), 2),
    (lambda t: _limits(t, {"file": 1}), 2),
    (lambda t: _force(t, materials={"registry": 1, "pair": ["gold", "gold"]}), 2),
    (lambda t: _force(t, roughness={"heightmap1": 1}), 2),
    (lambda t: _heightmap_force(t, b"# pixel_pitch_m = 1e-7\n1e-9 0.0\n", heightmap2=1), 2),
    # Never a count that really allocates: 1e15 points would need 8 PB.
    (lambda t: _force(t, z_grid_m={"start": 2e-7, "stop": 6e-7, "points": 10**15}), 2),
    (lambda t: _sweep(t, oscillator={"f0_hz": 1e308, "kappa_nm_per_rad": 1e308,
                                     "inertia_kg_m2": 1e-308}), 2),
    (lambda t: _limits(t, {"constant_n": 1e-14},
                       plate={"core_density_kg_m3": 2330.0, "layers": [[1e-9, True]]}), 2),
    (lambda t: _limits(t, {"constant_n": 1e-14},
                       plate={"core_density_kg_m3": 2330.0, "layers": [[True, 8960.0]]}), 2),
    # Flat maps take the exact path, but the bound comes first: never a
    # bin count that really allocates.
    (lambda t: _heightmap_force(t, b"# pixel_pitch_m = 1e-7\n0.0 0.0\n0.0 0.0\n",
                                heightmap2=str(t / "scan.txt"), bins=10**9), 2),
    (lambda t: _force(t, radius_m="294.3e-6"), 2),
    (lambda t: _force(t, z_grid_m=["5e-7", "1e-6"]), 2),
    (lambda t: _registry_force(t, plasma_ev="9.0"), 2),
    (lambda t: _force(t, z_grid_m={"start": 0, "stop": 1e-6, "points": 3, "spacing": "log"}), 2),
    (lambda t: _limits(t, {"constant_n": 1e-14}, lambda_grid_m={
        "start": 1e-7, "stop": -1e-6, "points": 3, "spacing": "log"}), 2),
    (lambda t: _sweep(t, oscillator={"quality_q": 1e4}), 2),
    (lambda t: _sweep(t, oscillator={"coupling_per_kg": -1}), 2),
    (lambda t: _sweep(t, oscillator={"inertia_kg_m2": -1e-17}), 2),
    (lambda t: _sweep(t, oscillator={"coupling_per_kg": 0}), 2),
    (lambda t: _force(t, out=str(t)), 1),
    (lambda t: _sweep(t, oscillator={"kappa_nm_per_rad": 1.79e308, "inertia_kg_m2": 1.0,
                                     "coupling_per_kg": 1.0, "f0_hz": 2.1645e153}), 2),
    (lambda t: _sweep(t, oscillator={"f0_hz": 0}), 2),
    (lambda t: _sweep(t, oscillator={"kappa_nm_per_rad": 0}), 2),
    (lambda t: _sweep(t, oscillator={"inertia_kg_m2": math.nan}), 2),
    (lambda t: _calibrate_rows(t, _csv_rows(_femtometer(1))), 2),
    (lambda t: _calibrate_rows(t, _csv_rows(_femtometer(1)), initial_guess={"delta0_m": 0.0}), 2),
    (lambda t: _sweep(t, oscillator={"f0_hz": 1e308}), 2),
    (lambda t: _sweep(t, oscillator={"f0_hz": 800.0}), 2),
    (lambda t: _sweep(t, oscillator={"f0_hz": 1e200}), 2),
    (lambda t: _heightmap_force(t, b"# pixel_pitch_m = 1e-7\n\n# no rows\n"), 1),
], ids=["radius_m", "grid_list", "roughness_entries", "grid_points_fraction",
        "grid_points_bool", "bound_file_text",
        "bound_file_one_column", "bound_file_decreasing", "layer_row",
        "registry_text_number", "registry_null_number", "registry_table_number",
        "registry_splice_text", "pair_not_a_name",
        "roughness_nan_weight", "calibration_nan_field",
        "radius_inf", "bound_constant_nan", "sweep_noise_nan",
        "bound_file_nan_bound", "bound_file_nan_z", "bound_file_no_header",
        "grid_inf", "bound_file_header_only", "config_not_utf8",
        "calibration_not_utf8", "heightmap_not_utf8", "registry_inf_number",
        "calibration_header_only", "force_grid_tiny", "force_grid_huge",
        "pressure_grid_tiny", "pressure_grid_huge", "grid_bool", "grid_nested",
        "radius_bool", "roughness_bool_weight", "calibration_overflow",
        "limit_zero_force", "limit_lambda_huge", "out_number", "out_null",
        "sweep_out_list", "calibration_data_number", "bound_file_number",
        "registry_number", "heightmap1_number", "heightmap2_number",
        "grid_points_huge", "oscillator_overflow", "layer_density_bool",
        "layer_thickness_bool", "bins_huge", "radius_numeric_text", "grid_numeric_text",
        "registry_numeric_text", "grid_log_zero_start", "grid_log_negative_stop",
        "oscillator_quality_q", "oscillator_negative_coupling",
        "oscillator_negative_inertia", "oscillator_zero_coupling", "out_is_directory",
        "oscillator_omega0_squared_overflow", "oscillator_zero_f0", "oscillator_zero_kappa",
        "oscillator_nan_inertia", "calibration_one_gap", "calibration_one_gap_zero_delta0",
        "oscillator_f0_overflow", "oscillator_f0_inconsistent", "oscillator_f0_huge",
        "heightmap_no_rows"])
def test_bad_input_is_one_error_line(tmp_path, capsys, make, code):
    command, doc = make(tmp_path)
    cfg = tmp_path / "run.json"
    if isinstance(doc, bytes):
        cfg.write_bytes(doc)
    else:
        write_json(cfg, doc)
    assert run([command, "--config", cfg]) == code
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_oscillator_error_names_the_constant_set(tmp_path, capsys):
    # The message names the config key, not the field of OscillatorParams.
    for key in ("kappa_nm_per_rad", "inertia_kg_m2", "coupling_per_kg", "f0_hz"):
        for bad in (0, -1.0):
            command, doc = _sweep(tmp_path, oscillator={key: bad})
            assert run([command, "--config", write_json(tmp_path / "run.json", doc)]) == 2
            assert capsys.readouterr().err == f"error: {key} must be finite and > 0\n"
    # A resonance out of line with sqrt(kappa/inertia), or one whose 2 pi f0
    # overflows, is reported in Hz under f0_hz, on one line of bounded width.
    for f0 in (800.0, 1e200, 1e308):
        command, doc = _sweep(tmp_path, oscillator={"f0_hz": f0})
        assert run([command, "--config", write_json(tmp_path / "run.json", doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: f0_hz {f0:g} Hz ") and err.count("\n") == 1, err
        assert len(err) < 120 and "omega0" not in err, err


# The exit-code table of the README: every package error class carries its code.
_EXIT_CODES = {"ParseError": 1, "DomainError": 2, "ValidationError": 2,
               "ConfigurationError": 2, "IdentifiabilityError": 2,
               "ConvergenceError": 3, "FitError": 3}


def test_every_error_class_carries_its_exit_code():
    classes = inspect.getmembers(errors, lambda obj: inspect.isclass(obj)
                                 and issubclass(obj, errors.ToolkitError))
    assert {name: cls.exit_code for name, cls in classes
            if cls is not errors.ToolkitError} == _EXIT_CODES


@pytest.mark.parametrize("name", sorted(_EXIT_CODES))
def test_main_returns_the_class_exit_code(monkeypatch, capsys, name):
    from casimir_mto import cli

    def fail(args):
        raise getattr(errors, name)("boom")

    monkeypatch.setattr(cli, "_config", fail)
    assert main(["limits", "--config", "run.json"]) == _EXIT_CODES[name]
    assert capsys.readouterr().err.endswith("boom\n")


def test_main_returns_1_on_os_error(monkeypatch, capsys):
    from casimir_mto import cli

    def fail(args):
        raise PermissionError(13, "Permission denied", "run.json")

    monkeypatch.setattr(cli, "_config", fail)
    assert main(["force", "--config", "run.json"]) == 1
    assert capsys.readouterr().err == "error: [Errno 13] Permission denied: 'run.json'\n"


@pytest.mark.parametrize("exc, line", [
    (MemoryError(), "error: MemoryError"),
    (MemoryError("Unable to allocate 7.28 TiB"), "error: Unable to allocate 7.28 TiB"),
])
def test_main_returns_1_on_memory_error(monkeypatch, capsys, exc, line):
    # An allocation failure is one error line with exit 1, not a traceback;
    # a bare MemoryError, which has no message, is named.
    from casimir_mto import cli

    def fail(args):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "limits", (fail, cli._COMMANDS["limits"][1]))
    assert main(["limits", "--config", "run.json"]) == 1
    assert capsys.readouterr().err == line + "\n"


# Registry fuzzing: numbers of every JSON kind, each table-file failure,
# and one name the registry lacks.
_TABLES = {
    "valid.csv": (data_dir() / "au_eps2.csv").read_bytes(),
    "not_utf8.csv": b"energy_ev,eps2\n0.5,\xff\n",
    "header_only.csv": b"energy_ev,eps2\n",
}
_NUMBER = st.one_of(
    st.sampled_from([9.0, 0.035]),  # the valid.csv Drude tail
    st.sampled_from([1e300, 1e80, 1e-300]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([math.inf, -math.inf, math.nan]),
    st.booleans(),
    st.text(max_size=4),
    st.none(),
)
_ENTRY = st.fixed_dictionaries(
    {"variant": st.sampled_from(["perfect_conductor", "drude", "tabulated", "junk"]),
     "plasma_ev": _NUMBER, "relaxation_ev": _NUMBER},
    optional={"splice_ev": _NUMBER, "table": st.sampled_from([*_TABLES, "missing.csv"])},
)


_REGISTRY_AND_PAIR = st.dictionaries(
    st.sampled_from(["a", "b", "c", "d"]), _ENTRY, min_size=1, max_size=4,
).flatmap(lambda reg: st.tuples(
    st.just(reg), st.lists(st.sampled_from([*reg, "unknown"]), min_size=2, max_size=2)))


def _finite_output(text: str) -> bool:
    return not any(word in text.lower() for word in ("nan", "inf"))


@settings(max_examples=60, deadline=None)
@given(case=_REGISTRY_AND_PAIR)
# Energies that overflowed the Drude model or the reflection factors.
@example(case=({"a": {"variant": "drude", "plasma_ev": 1e300, "relaxation_ev": 0.035}},
               ["a", "a"]))
@example(case=({"a": {"variant": "drude", "plasma_ev": 1e80, "relaxation_ev": 0.035}},
               ["a", "a"]))
@example(case=({"a": {"variant": "tabulated", "plasma_ev": 9.0, "relaxation_ev": 1e300,
                      "table": "valid.csv"}}, ["a", "a"]))
def test_fuzzed_registry_is_one_error_line_or_finite_output(case):
    registry, pair = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, body in _TABLES.items():
            (tmp / name).write_bytes(body)
        reg = write_json(tmp / "materials.json", registry)
        _, doc = _force(tmp, materials={"registry": str(reg), "pair": pair},
                        z_grid_m=[3e-7, 1e-6], tol=1e-6)
        for argv in (["force", "--config", write_json(tmp / "run.json", doc)],
                     ["materials", "validate", "--config", reg]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
            assert code in (0, 1, 2, 3), argv
            if code:
                lines = err.getvalue().strip().splitlines()
                assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
            elif argv[0] == "force":
                assert _finite_output((tmp / "f.csv").read_text()), registry
            else:
                assert _finite_output(out.getvalue()), registry


# Run-config fuzzing: each number a normal value or, as often, an extreme;
# grids of at most 3 points; roughness entries of equal weight.
_EXTREMES = st.sampled_from([0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300, -1.0])


def _num(*normal):
    return st.one_of(st.sampled_from(normal), _EXTREMES)


def _grid(*normal):
    return st.lists(_num(*normal), min_size=1, max_size=3)


def _some(**keys):
    return st.fixed_dictionaries({}, optional=keys)


_MATERIALS = st.fixed_dictionaries({"pair": st.lists(
    st.sampled_from(["ideal", "gold_drude", "copper_drude"]), min_size=2, max_size=2)})
_ROUGHNESS = st.fixed_dictionaries({"entries": _grid(0.0, 2e-9, -2e-9).map(
    lambda offsets: [[o, 1.0 / len(offsets)] for o in offsets])})
_Z_GRID = _grid(3e-7, 6e-7, 1e-6)
_RUN_DOCS = {
    "force": ({"materials": _MATERIALS, "radius_m": _num(R_SPHERE), "z_grid_m": _Z_GRID},
              {"quantity": st.sampled_from(["force", "gradient"]), "tol": _num(1e-6),
               "roughness": _ROUGHNESS}),
    "pressure": ({"materials": _MATERIALS, "z_grid_m": _Z_GRID},
                 {"tol": _num(1e-6), "roughness": _ROUGHNESS}),
    "sweep": ({"materials": _MATERIALS, "radius_m": _num(R_SPHERE), "z_grid_m": _Z_GRID},
              {"oscillator": _some(kappa_nm_per_rad=_num(8.6e-10), inertia_kg_m2=_num(4.6e-17),
                                   coupling_per_kg=_num(6.489e8), f0_hz=_num(687.23)),
               "noise": _some(freq_noise_rms_hz=_num(0.03),
                              separation_noise_rms_m=_num(3.2e-10)),
               "integration_time_s": _num(10.0), "tol": _num(1e-6), "roughness": _ROUGHNESS}),
    "limits": ({"lambda_grid_m": _grid(1e-7, 1e-6), "z_grid_m": _grid(2e-7, 5e-7),
                "residual_bound": st.fixed_dictionaries({"constant_n": _num(1e-14)})},
               {"sphere": st.fixed_dictionaries({"core_density_kg_m3": _num(3980.0),
                                                 "radius_m": _num(R_SPHERE)}),
                "plate": st.fixed_dictionaries({"core_density_kg_m3": _num(2330.0)})}),
}
_RUN_DOC = st.sampled_from(sorted(_RUN_DOCS)).flatmap(lambda command: st.tuples(
    st.just(command), st.fixed_dictionaries(_RUN_DOCS[command][0],
                                            optional=_RUN_DOCS[command][1])))
_SWEEP = {"materials": {"pair": ["ideal", "ideal"]}, "radius_m": R_SPHERE,
          "z_grid_m": [3e-7]}


def _finite_csv(path: Path) -> bool:
    rows = path.read_text().splitlines()[1:]
    return bool(rows) and all(math.isfinite(float(x)) for row in rows for x in row.split(","))


@settings(max_examples=200, deadline=None)
@given(case=_RUN_DOC)
@example(case=("sweep", {**_SWEEP, "oscillator": {"coupling_per_kg": -1.0}}))
@example(case=("sweep", {**_SWEEP, "oscillator": {"inertia_kg_m2": -1e-17}}))
@example(case=("sweep", {**_SWEEP, "oscillator": {"coupling_per_kg": 0.0}}))
def test_fuzzed_run_config_is_one_error_line_or_finite_output(case):
    command, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        cfg = write_json(Path(tmp) / "run.json", {**doc, "out": str(out)})
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run([command, "--config", cfg])
        assert code in (0, 1, 2, 3)
        if code:
            lines = err.getvalue().strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
        else:
            written = sorted(Path(tmp).glob("*.csv"))
            assert len(written) == (2 if command == "sweep" else 1)
            assert all(_finite_csv(path) for path in written), doc


# Calibration fuzzing: 0-12 data rows and an initial_guess. A row holds
# plain values (gaps down to the femtometer designs) or, one time in four,
# numbers that are as often an extreme, so most drawn designs reach the fit.
_CAL_VALUES = ((1e-6, 2e-6, 3e-6, 1e-15, 2e-15, 3e-15), (0.1, 0.6, 0.9), (1e-14, 3e-14))
_CAL_ROW = st.integers(0, 3).flatmap(lambda i: st.tuples(*(
    _num(*values) if i == 0 else st.sampled_from(values) for values in _CAL_VALUES)))
_CAL_ROWS = st.lists(_CAL_ROW, max_size=12)
_CAL_GUESS = _some(k_n_per_f=_num(5e4), v0_v=_num(0.6), radius_m=_num(3e-4),
                   delta0_m=_num(3e-8))


def _finite_json(value) -> bool:
    if isinstance(value, dict):
        return all(_finite_json(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite_json(v) for v in value)
    return math.isfinite(value)


# A fit that uses up its evaluations takes about a second: few examples.
@settings(max_examples=40, deadline=None)
@given(rows=_CAL_ROWS, guess=_CAL_GUESS)
@example(rows=_femtometer(1), guess={})
@example(rows=_femtometer(1), guess={"delta0_m": 0.0})
@example(rows=_femtometer(3), guess={})
@example(rows=make_calibration_samples(5.028e4, 0.6325, 294.3e-6, 39.4e-9, (1e-6, 2e-6, 3e-6),
                                      (0.1, 0.6, 0.9), noise_rel=1e-3, seed=1).tolist(), guess={})
def test_fuzzed_calibration_is_one_error_line_or_finite_output(rows, guess):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        command, doc = _calibrate_rows(tmp, _csv_rows(rows), initial_guess=guess,
                                       out=str(tmp / "fit.json"))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run([command, "--config", write_json(tmp / "cal.json", doc)])
        if code:
            assert code in (1, 2, 3)
            lines = err.getvalue().strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
        else:
            assert _finite_output(out.getvalue().replace(str(tmp), "")), rows
            assert _finite_json(json.loads((tmp / "fit.json").read_text())), rows


def _check_run(command, doc, tmp: Path) -> None:
    """Run ``command`` on ``doc``: a failure must be one error line and a
    success must write only finite numbers to ``doc['out']``."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run([command, "--config", write_json(tmp / "run.json", doc)])
    assert code in (0, 1, 2, 3)
    if code:
        lines = err.getvalue().strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    else:
        assert _finite_csv(Path(doc["out"])), doc


def _lines(*lines: bytes) -> bytes:
    return b"".join(line + b"\n" for line in lines)


# Bound-file fuzzing: one to five rows at increasing z_m (which cover the z
# grid [2e-7, 5e-7] now and then), each bound plain or, one time in three,
# broken or extreme, a header mostly right, and up to two stray lines
# anywhere (a comment, a second header, a row of the wrong shape).
_BOUND = st.sampled_from([b"1e-14", b"3e-14"] * 8 + [
    b"5e-324", b"1e300", b"0", b"-1e-14", b"nan", b"inf", b"abc", b"", b"\xff"])
_BOUND_ROWS = st.lists(st.sampled_from([1e-7, 2e-7, 3.5e-7, 5e-7, 1e-6]), unique=True,
                       min_size=1, max_size=5).flatmap(lambda zs: st.tuples(*(
                           _BOUND.map(lambda b, z=z: repr(z).encode() + b"," + b)
                           for z in sorted(zs))))
_STRAY = st.sampled_from([b"", b"# note", b"z_m,bound_n", b"1e-7", b"1e-7,1e-14,1e-14",
                          b"1e-7;1e-14"])
_BOUND_FILE = st.tuples(
    st.sampled_from([b"z_m,bound_n"] * 3 + [b" Z_M , Bound_N ", b"bound_n,z_m"]),
    _BOUND_ROWS, st.lists(st.tuples(st.integers(0, 5), _STRAY), max_size=2))


@settings(max_examples=80, deadline=None)
@given(case=_BOUND_FILE)
def test_fuzzed_bound_file_is_one_error_line_or_finite_output(case):
    header, rows, strays = case
    lines = [header, *rows]
    for at, line in strays:
        lines.insert(at, line)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "bounds.csv").write_bytes(_lines(*lines))
        command, doc = _limits(tmp, {"file": str(tmp / "bounds.csv")},
                               z_grid_m=[2e-7, 5e-7])
        _check_run(command, doc, tmp)


# Height-map fuzzing: one or two maps of up to 4 x 4 nanometre heights,
# and now and then a stray line: blank, a comment, or a row of any length
# that may hold a broken or extreme height. bins in and out of range, never
# one that really allocates (the bound is checked first).
_HEIGHT = st.sampled_from([b"0", b"1e-9", b"-2e-9", b"5e-9", b"-3e-8"])
_ODD_HEIGHT = st.sampled_from([b"1e-320", b"-1e-6", b"1e300", b"nan", b"inf", b"abc", b"\xff"])
_HEIGHT_MAP = st.integers(1, 4).flatmap(lambda cols: st.tuples(
    st.lists(st.lists(_HEIGHT, min_size=cols, max_size=cols).map(b" ".join), max_size=4),
    st.lists(st.tuples(st.integers(0, 4), st.one_of(
        st.sampled_from([b"", b"# pixel_pitch_m = 1e-7"]),
        st.lists(st.one_of(_HEIGHT, _ODD_HEIGHT), min_size=1, max_size=5).map(b"\t".join))),
        max_size=1)))
_BINS = st.sampled_from([None, 1, 3, 21, 1000, 0, -1, 1001, 10**9, 2.5, True])


@settings(max_examples=80, deadline=None)
@given(maps=st.lists(_HEIGHT_MAP, min_size=1, max_size=2), bins=_BINS)
def test_fuzzed_height_maps_are_one_error_line_or_finite_output(maps, bins):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        roughness = {} if bins is None else {"bins": bins}
        for i, (rows, strays) in enumerate(maps, start=1):
            lines = list(rows)
            for at, line in strays:
                lines.insert(at, line)
            (tmp / f"map{i}.txt").write_bytes(_lines(*lines))
            roughness[f"heightmap{i}"] = str(tmp / f"map{i}.txt")
        command, doc = _force(tmp, roughness=roughness, tol=1e-6)
        _check_run(command, doc, tmp)


# A command is offered --seed and --tol only where its config reads the key.
@pytest.mark.parametrize("argv", [
    ["sweep", "--seed", "abc"], [], ["bogus"], ["materials"],
    ["force", "--seed", "1"], ["pressure", "--seed", "1"], ["calibrate", "--tol", "1e-6"],
    ["limits", "--seed", "1"],
], ids=["bad_int", "no_command", "unknown_command", "no_subcommand", "force_seed",
        "pressure_seed", "calibrate_tol", "limits_seed"])
def test_usage_error_is_one_error_line(capsys, argv):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    err = err.strip().splitlines()
    assert out == "" and len(err) == 1 and err[0].startswith("error: casimir-mto")


def test_help_and_version_still_exit(capsys):
    for argv in (["--help"], ["--version"], ["force", "--help"]):
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 0
    out = capsys.readouterr().out
    assert "usage: casimir-mto" in out and "0.1.0" in out


def _registry_file_force(tmp_path, body: bytes):
    registry = tmp_path / "materials.json"
    registry.write_bytes(body)
    return _force(tmp_path, materials={"registry": str(registry), "pair": ["metal", "metal"]})


@pytest.mark.parametrize("make,bad", [
    (lambda t: ("force", b'{"radius_m": 1e-4,\n "out": "\xff"}'), "run.json"),
    (lambda t: _calibrate_file(t, b"z_metal_m,v_applied_v,delta_c_f\n1e-6,0.1,\xff\n"), "cal.csv"),
    (lambda t: _heightmap_force(t, b"# pixel_pitch_m = 1e-7\n1e-9 \xff\n"), "scan.txt"),
    (lambda t: _registry_file_force(t, b'{"metal":\n {"variant": "\xff"}}'), "materials.json"),
], ids=["config", "calibration", "heightmap", "registry"])
def test_non_utf8_file_is_named(tmp_path, capsys, make, bad):
    # With several input files in one run, the error line must say which
    # one holds the bad byte, and on which line (line 2 in every case).
    command, doc = make(tmp_path)
    cfg = tmp_path / "run.json"
    if isinstance(doc, bytes):
        cfg.write_bytes(doc)
    else:
        write_json(cfg, doc)
    assert run([command, "--config", cfg]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"error: line 2: {tmp_path / bad}: not UTF-8")


# Each command's flags, as README states them: help must list exactly these
# and each must parse.
_FLAGS = {
    "force": ["--config", "--out", "--tol"],
    "pressure": ["--config", "--out", "--tol"],
    "calibrate": ["--config", "--out"],
    "sweep": ["--config", "--out", "--seed", "--tol"],
    "limits": ["--config", "--out"],
    "materials validate": ["--config"],
}


@pytest.mark.parametrize("argv,expected", [
    (["sweep", "--config=c.json", "--seed=7", "--tol=1e-7"],
     {"command": "sweep", "config": "c.json", "seed": 7, "tol": 1e-7}),
    (["force", "--conf", "c.json", "--t", "1e-7", "--o=f.csv"],
     {"command": "force", "config": "c.json", "tol": 1e-7, "out": "f.csv"}),
    (["sweep", "--seed", "1", "--tol", "1e-6", "--seed=2", "--tol", "1e-8"],
     {"seed": 2, "tol": 1e-8}),
    (["pressure", "--tol", "-1e-6", "--out", "-"], {"tol": -1e-6, "out": "-"}),
    (["materials", "validate", "--config", "reg.json"],
     {"command": "materials", "config": "reg.json", "out": None, "seed": None, "tol": None}),
    (["materials", "validate"], {"command": "materials", "config": None}),
    (["force", "--cfg", "c.json"], "unrecognized argument: --cfg"),
    (["force", "-c", "c.json"], "unrecognized argument: -c"),
    (["force", "--config"], "argument --config: expected one argument"),
    (["force", "--config", "--out", "f.csv"], "argument --config: expected one argument"),
    (["calibrate", "--out=", "x"], "unrecognized argument: x"),
    (["force", "--config", "c.json", "extra"], "unrecognized argument: extra"),
    (["limits", "--out", "x", "--"], "unrecognized argument: --"),
    (["materials"], "materials: expected a command: validate"),
    (["materials", "--config", "reg.json"], "materials: unrecognized argument: --config"),
    (["--config", "c.json", "force"], "casimir-mto: unrecognized argument: --config"),
    (["sweep", "--seed", "1.5"], "argument --seed: invalid int value: '1.5'"),
    (["force", "--tol=abc"], "argument --tol: invalid float value: 'abc'"),
], ids=["equals", "prefix", "repeated_last_wins", "dash_values", "materials_validate",
        "materials_validate_bare", "unknown_flag", "unknown_short_flag", "no_value_at_end",
        "no_value_before_flag", "empty_value_then_stray", "stray_positional", "double_dash",
        "materials_no_subcommand", "materials_flag_no_subcommand", "flag_before_command",
        "bad_int", "bad_float"])
def test_command_line_forms(capsys, argv, expected):
    from casimir_mto import cli

    if isinstance(expected, str):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.endswith(f"{expected}\n") and len(err.splitlines()) == 1
        return
    handler, args = cli._parse(argv)
    assert handler is cli._COMMANDS[" ".join(w for w in argv[:2] if w[:1] != "-")][0]
    assert {key: getattr(args, key) for key in expected} == expected


def test_ambiguous_prefix_is_a_usage_error(monkeypatch, capsys):
    # No two flags of today's commands share a prefix; a table that had them
    # must not pick one.
    from casimir_mto import cli

    handler, flags = cli._COMMANDS["force"]
    monkeypatch.setitem(cli._COMMANDS, "force", (handler, {**flags, "--count": (int, "n")}))
    assert main(["force", "--co", "3"]) == 2
    assert capsys.readouterr().err == (
        "error: casimir-mto force: ambiguous option: --co could match --config, --count\n")
    assert vars(cli._parse(["force", "--cou", "3"])[1])["count"] == 3


@pytest.mark.parametrize("command", list(_FLAGS))
def test_help_lists_the_flags_that_parse(capsys, command):
    # -h after other flags still prints the command's help; the usage line
    # and the option lines both list exactly the command's flags, and each
    # listed flag parses with a value of its type.
    from casimir_mto import cli

    words = command.split()
    assert list(cli._COMMANDS[command][1]) == _FLAGS[command]
    with pytest.raises(SystemExit) as exc_info:
        main([*words, "--config", "c.json", "-h"])
    assert exc_info.value.code == 0
    usage, *lines = capsys.readouterr().out.splitlines()
    assert usage.startswith(f"usage: casimir-mto {command} [-h] ")
    assert re.findall(r"\[(--[a-z]+) [A-Z]+\]", usage) == _FLAGS[command]
    assert re.findall(r"^  (?:-h, )?(--[a-z]+)", "\n".join(lines), re.M) == [
        "--help", *_FLAGS[command]]
    for flag in _FLAGS[command]:
        handler, args = cli._parse([*words, flag, "7"])
        assert handler is cli._COMMANDS[command][0]
        assert getattr(args, flag[2:]) in ("7", 7, 7.0)


@pytest.mark.parametrize("argv,usage", [
    (["-h"], "casimir-mto [-h] [--version] {force,pressure,calibrate,sweep,limits,materials} ..."),
    (["materials", "--he"], "casimir-mto materials [-h] {validate} ..."),
], ids=["top", "materials"])
def test_help_lists_the_commands(capsys, argv, usage):
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 0
    assert capsys.readouterr().out.splitlines()[0] == f"usage: {usage}"


def test_main_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["casimir-mto", "materials", "validate"])
    assert main() == 0
    assert "material(s) valid" in capsys.readouterr().out


def _fresh_python(script: str, cwd, *flags: str, env: dict | None = None) -> str:
    """Run ``script`` in a new interpreter on this checkout, with ``flags``
    and the variables ``env`` added to the environment; its last stdout line."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, **(env or {}), PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, *flags, "-c", script], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


# Layers and NumPy parts that only some commands run: calibrate, sweep and
# limits import their own layer, and only the build of a tabulated material's
# eps sampler (a table without a shipped state) uses numpy.fft.
_COMMAND_ONLY = ("casimir_mto.electrostatics", "casimir_mto.oscillator",
                 "casimir_mto.yukawa", "numpy.fft")


def test_import_leaves_out_unneeded_modules(tmp_path):
    # Every CLI process pays for what importing the CLI loads: records
    # generate no code (no dataclasses), no command draws from numpy.random
    # (a sweep's substreams are the standard library's), numpy.ma is used
    # by nothing, and each command's own layer loads only when a run needs it.
    unneeded = {"dataclasses", "numpy.random", "numpy.ma", *_COMMAND_ONLY}
    script = (
        "import sys\n"
        "import casimir_mto.cli\n"
        f"print(sorted({unneeded!r} & set(sys.modules)))\n"
    )
    assert _fresh_python(script, tmp_path) == "[]"


def _noisy_sweep(tmp_path) -> str:
    """Config of a tabulated Au/Cu sweep with frequency noise, jitter and
    roughness, writing ``s.csv`` and ``s_gradients.csv`` in ``tmp_path``."""
    return str(write_json(tmp_path / "sweep.json", {
        "materials": {"pair": ["gold", "copper"]},
        "radius_m": R_SPHERE,
        "z_grid_m": [2e-7, 3e-7, 6e-7],
        "noise": {"freq_noise_rms_hz": 0.0316, "separation_noise_rms_m": 3.2e-10},
        "roughness": {"entries": [[-3e-8, 0.25], [0.0, 0.5], [3e-8, 0.25]]},
        "seed": 2718,
        "out": str(tmp_path / "s.csv"),
    }))


def test_sweep_run_loads_no_numpy_random(tmp_path):
    # Importing numpy.random (with secrets, hmac and hashlib) costs about
    # 10 ms, a quarter of a sweep job: a noisy, rough sweep draws from the
    # standard library's random instead.
    script = (
        "import sys\n"
        "from casimir_mto.cli import main\n"
        f"assert main(['sweep', '--config', {_noisy_sweep(tmp_path)!r}]) == 0\n"
        "print('numpy.random' in sys.modules)\n"
    )
    assert _fresh_python(script, tmp_path) == "False"


def test_sweep_files_do_not_depend_on_hash_seed(tmp_path):
    # The benchmark compares output bytes across processes: a substream key
    # that went through hash() would change with PYTHONHASHSEED.
    script = (
        "from casimir_mto.cli import main\n"
        f"print(main(['sweep', '--config', {_noisy_sweep(tmp_path)!r}]))\n"
    )
    outputs = []
    for hash_seed in ("0", "1"):
        assert _fresh_python(script, tmp_path, env={"PYTHONHASHSEED": hash_seed}) == "0"
        outputs.append([(tmp_path / name).read_bytes()
                        for name in ("s.csv", "s_gradients.csv")])
    assert outputs[0] == outputs[1]


def test_force_run_loads_no_package_resources(tmp_path):
    # The bundled data directory is the package's own "data" folder, found
    # without importlib.resources: a tabulated force run loads neither it
    # nor the tempfile module it brings. The child skips ``site`` (-S), whose
    # .pth files may load both, and finds NumPy on an explicit sys.path.
    cfg = write_json(tmp_path / "f.json", {
        "materials": {"pair": ["gold", "copper"]},
        "radius_m": R_SPHERE,
        "z_grid_m": [5e-7],
        "out": str(tmp_path / "f.csv"),
    })
    script = (
        "import sys\n"
        f"sys.path.append({str(Path(np.__file__).resolve().parents[1])!r})\n"
        "from casimir_mto.cli import main\n"
        f"assert main(['force', '--config', {str(cfg)!r}]) == 0\n"
        "print(sorted({'importlib.resources', 'tempfile'} & set(sys.modules)))\n"
    )
    assert _fresh_python(script, tmp_path, "-S") == "[]"


def test_runs_load_no_argparse(tmp_path):
    # The command table parses argv: a force and a calibrate run load neither
    # argparse nor gettext, nor the locale module gettext's first lookup
    # imports. As above, the child skips ``site`` (-S) and finds NumPy on an
    # explicit sys.path.
    force_cfg = write_json(tmp_path / "f.json", {
        "materials": {"pair": ["gold", "copper"]},
        "radius_m": R_SPHERE,
        "z_grid_m": [5e-7],
        "out": str(tmp_path / "f.csv"),
    })
    cal_cfg = write_json(tmp_path / "cal.json", {
        "data": str(data_dir() / "calibration_demo.csv"),
    })
    script = (
        "import sys\n"
        f"sys.path.append({str(Path(np.__file__).resolve().parents[1])!r})\n"
        "from casimir_mto.cli import main\n"
        f"assert main(['force', '--config', {str(force_cfg)!r}]) == 0\n"
        f"assert main(['calibrate', '--config', {str(cal_cfg)!r}]) == 0\n"
        "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
    )
    assert _fresh_python(script, tmp_path, "-S") == "[]"


def test_bundled_pair_runs_load_no_fft_or_hashlib(tmp_path):
    # The bundled Au/Cu samplers ship prebuilt and are found by an exact
    # compare, not a hash: a force and a sweep on the pair build no sampler,
    # so they load neither numpy.fft nor hashlib. As above, the child skips
    # ``site`` (-S) and finds NumPy on an explicit sys.path.
    force_cfg = write_json(tmp_path / "f.json", {
        "materials": {"pair": ["gold", "copper"]},
        "radius_m": R_SPHERE,
        "z_grid_m": [5e-7],
        "out": str(tmp_path / "f.csv"),
    })
    script = (
        "import sys\n"
        f"sys.path.append({str(Path(np.__file__).resolve().parents[1])!r})\n"
        "from casimir_mto.cli import main\n"
        f"assert main(['force', '--config', {str(force_cfg)!r}]) == 0\n"
        f"assert main(['sweep', '--config', {_noisy_sweep(tmp_path)!r}]) == 0\n"
        "print(sorted({'numpy.fft', 'hashlib'} & set(sys.modules)))\n"
    )
    assert _fresh_python(script, tmp_path, "-S") == "[]"


def test_force_runs_load_no_other_command_layers(tmp_path):
    # A force run on Drude or ideal materials loads none of the other
    # commands' layers, nor numpy.fft; a sweep afterwards finds the layer
    # it imports on first use.
    argv = []
    for pair in (["gold_drude", "copper_drude"], ["ideal", "ideal"]):
        cfg = write_json(tmp_path / f"{pair[0]}.json", {
            "materials": {"pair": pair},
            "radius_m": R_SPHERE,
            "z_grid_m": [5e-7],
            "out": str(tmp_path / f"{pair[0]}.csv"),
        })
        argv.append(["force", "--config", str(cfg)])
    sweep_cfg = write_json(tmp_path / "sweep.json", {
        "materials": {"pair": ["gold_drude", "copper_drude"]},
        "radius_m": R_SPHERE,
        "z_grid_m": [3e-7],
        "out": str(tmp_path / "sweep.csv"),
    })
    script = (
        "import sys\n"
        "from casimir_mto.cli import main\n"
        f"assert all(main(a) == 0 for a in {argv!r})\n"
        f"loaded = sorted({set(_COMMAND_ONLY)!r} & set(sys.modules))\n"
        f"assert main(['sweep', '--config', {str(sweep_cfg)!r}]) == 0\n"
        "print(loaded)\n"
    )
    assert _fresh_python(script, tmp_path) == "[]"


def test_runtime_does_not_import_scipy(tmp_path):
    # SciPy is a test-only dependency: a tabulated-pair force run (the
    # eps sampler) and a calibration (the LM fit) must not load it.
    force_cfg = write_json(tmp_path / "force.json", {
        "materials": {"pair": ["gold", "copper"]},
        "radius_m": R_SPHERE,
        "z_grid_m": [5e-7],
        "out": str(tmp_path / "force.csv"),
    })
    cal_cfg = write_json(tmp_path / "cal.json", {
        "data": str(data_dir() / "calibration_demo.csv"),
    })
    script = (
        "import sys\n"
        "from casimir_mto.cli import main\n"
        f"assert main(['force', '--config', {str(force_cfg)!r}]) == 0\n"
        f"assert main(['calibrate', '--config', {str(cal_cfg)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert _fresh_python(script, tmp_path) == "[]"


def test_runtime_does_not_import_numpy_ma(tmp_path):
    # Loading numpy.ma costs 10-15 ms of a process's first fit and nothing
    # here needs it: a calibration with and without v0_v (estimate_v0), a
    # limits run on a bound file, the registry check and a sweep whose
    # roughness rows share nodes must not load it.
    demo = str(data_dir() / "calibration_demo.csv")
    cal_cfg = write_json(tmp_path / "cal.json", {"data": demo})
    guess_cfg = write_json(tmp_path / "guess.json", {
        "data": demo, "initial_guess": {"v0_v": 0.6}})
    command, doc = _limits_bound_file(tmp_path, "z_m,bound_n\n1e-7,1e-14\n1e-6,2e-14\n")
    limits_cfg = write_json(tmp_path / "limits.json", doc)
    sweep_cfg = write_json(tmp_path / "sweep.json", {
        "materials": {"pair": ["gold", "copper"]},
        "radius_m": R_SPHERE,
        "z_grid_m": [2e-7, 6e-7],
        "roughness": {"entries": [[-3e-8, 0.25], [0.0, 0.5], [3e-8, 0.25]]},
        "out": str(tmp_path / "sweep.csv"),
    })
    script = (
        "import sys\n"
        "from casimir_mto.cli import main\n"
        f"assert main(['calibrate', '--config', {str(cal_cfg)!r}]) == 0\n"
        f"assert main(['calibrate', '--config', {str(guess_cfg)!r}]) == 0\n"
        f"assert main(['{command}', '--config', {str(limits_cfg)!r}]) == 0\n"
        "assert main(['materials', 'validate']) == 0\n"
        f"assert main(['sweep', '--config', {str(sweep_cfg)!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    assert _fresh_python(script, tmp_path) == "False"
