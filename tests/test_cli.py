import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from casimir_mto.cli import main
from casimir_mto.constants import CODATA
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

    def test_rough_row_is_one_integral(self, tmp_path, monkeypatch):
        # With a zero offset in the distribution, the plain column is that
        # entry's: every row of the grid shares one stacked call, with the
        # nodes of the rows' averages made one by one.
        from casimir_mto import lifshitz
        from casimir_mto.materials import load_registry
        from casimir_mto.roughness import RoughnessDistribution, averaged_force

        entries = [[-3e-8, 0.15], [-1e-8, 0.2], [0.0, 0.3], [1e-8, 0.2], [3e-8, 0.15]]
        grid = [5e-7, 1.1e-6, 1.5e-6]
        registry = load_registry()
        want = [averaged_force(z, R_SPHERE, RoughnessDistribution(*np.array(entries).T),
                               registry["gold"], registry["copper"], tol=1e-6) for z in grid]
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
        assert nodes == [sum(w.evaluations for w in want)]
        rows = np.loadtxt(tmp_path / "force.csv", delimiter=",", skiprows=1)
        assert rows[:, 3].tolist() == [w.value for w in want]

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

    @staticmethod
    def _femtometer_rows(tmp_path):
        data = tmp_path / "cal.csv"
        rows = ["z_metal_m,v_applied_v,delta_c_f"]
        for i in range(4):
            rows.append(f"1e-15,{0.2 + 0.2 * i},1e-14")
        data.write_text("\n".join(rows) + "\n")
        return data

    def test_nonconvergent_series_exit_3(self, tmp_path, capsys):
        # With the default 30 nm contact offset the gaps stay near 60 nm and
        # the series converges at every evaluation; on sub-femtometer metal
        # separations the LM fit uses up its evaluation budget instead.
        data = self._femtometer_rows(tmp_path)
        cfg = write_json(tmp_path / "cal.json", {"data": str(data)})
        assert run(["calibrate", "--config", cfg]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: calibration fit did not converge")

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


def _calibrate_rows(tmp_path, rows):
    return _calibrate_file(tmp_path, ("z_metal_m,v_applied_v,delta_c_f\n" + rows).encode())


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
        "oscillator_quality_q"])
@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
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
@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
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


def test_parser_is_built_once(tmp_path):
    from casimir_mto import cli

    command, doc = _force(tmp_path)
    cfg = write_json(tmp_path / "f.json", doc)
    cli._build_parser()
    before = cli._build_parser.cache_info()
    assert run([command, "--config", cfg]) == 0
    assert run([command, "--config", cfg]) == 0
    after = cli._build_parser.cache_info()
    assert after.misses == before.misses and after.hits == before.hits + 2


def _fresh_python(script: str, cwd) -> str:
    """Run ``script`` in a new interpreter on this checkout; its last stdout line."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


# Layers and NumPy parts that only some commands run: calibrate, sweep and
# limits import their own layer, and only a tabulated material's eps sampler
# uses numpy.fft.
_COMMAND_ONLY = ("casimir_mto.electrostatics", "casimir_mto.oscillator",
                 "casimir_mto.yukawa", "numpy.fft")


def test_import_leaves_out_unneeded_modules(tmp_path):
    # Every CLI process pays for what importing the CLI loads: records
    # generate no code (no dataclasses), numpy.random (a sweep's seeded
    # stream) and numpy.ma (nothing) load only when a run needs them, and
    # so does each command's own layer.
    unneeded = {"dataclasses", "numpy.random", "numpy.ma", *_COMMAND_ONLY}
    script = (
        "import sys\n"
        "import casimir_mto.cli\n"
        f"print(sorted({unneeded!r} & set(sys.modules)))\n"
    )
    assert _fresh_python(script, tmp_path) == "[]"


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
    # limits run on a bound file and the registry check must not load it.
    demo = str(data_dir() / "calibration_demo.csv")
    cal_cfg = write_json(tmp_path / "cal.json", {"data": demo})
    guess_cfg = write_json(tmp_path / "guess.json", {
        "data": demo, "initial_guess": {"v0_v": 0.6}})
    command, doc = _limits_bound_file(tmp_path, "z_m,bound_n\n1e-7,1e-14\n1e-6,2e-14\n")
    limits_cfg = write_json(tmp_path / "limits.json", doc)
    script = (
        "import sys\n"
        "from casimir_mto.cli import main\n"
        f"assert main(['calibrate', '--config', {str(cal_cfg)!r}]) == 0\n"
        f"assert main(['calibrate', '--config', {str(guess_cfg)!r}]) == 0\n"
        f"assert main(['{command}', '--config', {str(limits_cfg)!r}]) == 0\n"
        "assert main(['materials', 'validate']) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    assert _fresh_python(script, tmp_path) == "False"
