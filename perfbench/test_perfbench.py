"""Tests of the benchmark itself: smoke runs, and checks that catch bad outputs."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402


def _bench(script: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(script), *args],
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload,trace", [("sweep", 1), ("tight_force", 0), ("analysis", 1)])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _bench(HERE / "run.py", "--workload", workload, "--seed", "5",
                  "--seconds", "0", "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path / "perfbench" / "run.py", "--workload", "sweep",
                  "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _ideal_job(tmp_path):
    job = next(j for j in jobs.make_jobs("tight_force", 3, tmp_path / "in", "smoke")
               if j["name"] == "force-ideal")
    out = tmp_path / "out"
    out.mkdir()
    return job, out


def _write_force_csv(out: Path, z, f):
    rows = ["z_m,f_n,est_rel_error"] + [f"{a:.17e},{b:.17e},{1e-9:.17e}" for a, b in zip(z, f)]
    (out / "force-ideal.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")


def test_wrong_ideal_row_counts_as_failed(tmp_path):
    job, out = _ideal_job(tmp_path)
    z = job["check"]["z"]
    exact = [jobs.ideal_force(zi) for zi in z]
    _write_force_csv(out, z, exact)
    assert jobs.check_job(job, out, 0, "") is None
    assert jobs.check_job(job, out, 3, "") is not None

    wrong = list(exact)
    wrong[1] *= 1.0 + 1e-6
    _write_force_csv(out, z, wrong)
    reason = jobs.check_job(job, out, 0, "")
    assert reason is not None and "closed form" in reason


def test_perturbed_sweep_csv_counts_as_failed(tmp_path, monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    from casimir_mto import cli

    job = jobs.make_jobs("sweep", 2, tmp_path / "in", "smoke")[0]
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.chdir(out)
    assert cli.main(job["argv"]) == 0
    assert jobs.check_job(job, out, 0, "") is None
    reference = jobs.digest(out / o for o in job["outputs"])
    assert jobs.check_job(job, out, 0, "", reference) is None

    csv = out / "sweep-0.csv"
    original = csv.read_text(encoding="utf-8")
    header, row, *rest = original.splitlines()
    z, f, sigma = row.split(",")

    # A last-digit change is caught only by the repeat-run comparison.
    last = f"{float(f):.17e}"
    bumped = last[:18] + str((int(last[18]) + 1) % 10) + last[19:]
    csv.write_text("\n".join([header, f"{z},{bumped},{sigma}", *rest]) + "\n", encoding="utf-8")
    assert jobs.check_job(job, out, 0, "") is None
    assert "differs" in jobs.check_job(job, out, 0, "", reference)

    # A visible shift breaks the frequency/gradient consistency on its own.
    shifted = float(f) * (1.0 + 1e-6)
    assert not math.isclose(shifted, float(f), rel_tol=1e-7)
    csv.write_text("\n".join([header, f"{z},{shifted:.17e},{sigma}", *rest]) + "\n",
                   encoding="utf-8")
    assert "invert" in jobs.check_job(job, out, 0, "")
