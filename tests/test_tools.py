import fnmatch
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from casimir_mto.materials import _STATE_SIZE

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "src" / "casimir_mto" / "data"


def _stale(tool: str, name: str, fresh: bytes, shipped: bytes) -> str:
    """Why a bundled file differs from its fresh regeneration, and the fix."""
    rerun = f"rerun `python tools/{tool}` and commit the files it writes"
    if name.endswith("_sampler.f8") and len(fresh) == len(shipped):
        # The state file is the inputs of the build (the table's bytes, padded
        # to a multiple of 8, and the key), then the state.
        key = 8 * (len(fresh) // 8 - _STATE_SIZE)
        if fresh[:key] == shipped[:key]:
            return (f"{name}: same inputs, but the built state differs; if only its last "
                    "bits differ, this NumPy's FFT rounds differently from the one that "
                    f"wrote the file (README, sampler paragraph): {rerun}")
    return f"{name} is stale: {rerun}"


@pytest.mark.parametrize("tool, files", [
    ("make_optical_tables.py", ["au_eps2.csv", "copper_sampler.f8", "cu_eps2.csv",
                                "gold_sampler.f8", "materials.json"]),
    ("make_demo_calibration.py", ["calibration_demo.csv"]),
])
def test_tool_regenerates_the_bundled_data(tmp_path, tool, files):
    # The bundled data, the eps samplers' shipped states included, is
    # exactly what its tool writes; --out leaves it alone.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / tool), "--out", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == files
    for name in files:
        fresh, shipped = (tmp_path / name).read_bytes(), (DATA / name).read_bytes()
        assert fresh == shipped, _stale(tool, name, fresh, shipped)


def test_package_data_covers_every_bundled_file():
    # A data file that no package-data pattern matches is left out of a wheel.
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        patterns = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["casimir_mto"]
    unmatched = [p.name for p in sorted(DATA.iterdir())
                 if not any(fnmatch.fnmatch(f"data/{p.name}", pat) for pat in patterns)]
    assert unmatched == []


def test_compare_outputs_finds_this_checkout_identical_to_itself():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "compare_outputs.py"), str(ROOT),
                           "--seed", "11", "--size", "smoke"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == ["sweep: 1 of 1 jobs identical",
                                        "tight_force: 2 of 2 jobs identical",
                                        "analysis: 3 of 3 jobs identical"]


def test_compare_outputs_lists_each_differing_job(tmp_path):
    # Each differing CSV with the same header and rows on both sides also
    # gets its columns' worst relative changes, and over est_rel_error where
    # the file has that column; a text column and a header-only file get none.
    # A differing JSON object with the same keys gets each numeric key's worst
    # relative change, and each fitted value's change over its own sigma.
    spec = importlib.util.spec_from_file_location("compare_outputs",
                                                  ROOT / "tools" / "compare_outputs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    dirs = [tmp_path / "a", tmp_path / "b"]
    grids = ("z_m,f_n,est_rel_error,label\n1e-07,-2.0,1e-06,x\n2e-07,-1.0,2e-06,y\n",
             "z_m,f_n,est_rel_error,label\n1e-07,-2.000001,1e-06,x\n2e-07,-1.0,4e-06,y\n")
    for d, text, grid, slope in zip(dirs, ("1\n", "2\n"), grids, ("4", "5")):
        d.mkdir()
        (d / "same.csv").write_text("0\n")
        (d / "moved.csv").write_text(text)
        (d / "grid.csv").write_text(grid)
        (d / "slope.csv").write_text(f"z_m,g\n1,{slope}\n")
    (dirs[0] / "gone.csv").write_text("0\n")
    fit = {"k_n_per_f": 5e4, "k_sigma": 10.0, "v0_v": 0.6, "v0_sigma": 1e-3, "label": "x",
           "n_samples": 96, "covariance": [[1.0, 2.0], [2.0, 4.0]]}
    moved = {**fit, "k_n_per_f": 50001.0, "v0_sigma": 2e-3, "covariance": [[1.0, 2.0], [2.0, 5.0]]}
    for d, doc, keyed, broken in zip(dirs, (fit, moved), ({"a": 1}, {"b": 1}), ("{", "[")):
        (d / "fit.json").write_text(json.dumps(doc))
        (d / "keys.json").write_text(json.dumps(keyed))
        (d / "broken.json").write_text(broken)
    job_list = [{"name": name, "outputs": outputs} for name, outputs in (
        ("same", ["same.csv"]), ("bytes", ["same.csv", "moved.csv"]), ("missing", ["gone.csv"]),
        ("code", []), ("printed", []), ("values", ["grid.csv", "slope.csv"]),
        ("report", ["fit.json", "keys.json", "broken.json"]))]
    ran = [[{"rc": 0, "stdout": "ok\n"} for _ in job_list] for _ in dirs]
    ran[1][3]["rc"], ran[1][4]["stdout"] = 3, "ok, twice\n"
    assert tool.differences(job_list, ran, dirs) == [
        "bytes: moved.csv", "missing: gone.csv", "code: rc", "printed: stdout",
        "values: grid.csv, slope.csv",
        "values: grid.csv: worst relative change z_m 0, f_n 5e-07, est_rel_error 1; "
        "over est_rel_error z_m 0, f_n 0.5",
        "values: slope.csv: worst relative change z_m 0, g 0.25",
        "report: fit.json, keys.json, broken.json",
        "report: fit.json: worst relative change k_n_per_f 2e-05, k_sigma 0, v0_v 0, "
        "v0_sigma 1, n_samples 0, covariance 0.25; over sigma k_n_per_f 0.1, v0_v 0"]
