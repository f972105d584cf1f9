"""Repository benchmark: CLI workloads end to end, or traced per layer.

    python3 perfbench/run.py --workload {sweep,tight_force,analysis} \\
        --seed N --seconds S --trace {0,1}

Run from anywhere; the checkout is the parent of this directory, and the
package is imported from its ``src/``. Inputs are made from ``--seed``
(see ``jobs.py``). A round is one fresh interpreter that imports
``casimir_mto.cli`` and runs all of the workload's CLI jobs through
``cli.main``. Rounds repeat until ``--seconds`` have passed (at least
MIN_ROUNDS); every round's outputs are checked, and must be byte-identical
to the first round's.

``--trace 0`` reports the end-to-end metrics: medians over rounds of
set-up time (process start to import done), run time (all jobs) and peak
RSS, plus the share of jobs that passed. ``--trace 1`` alternates untraced
and traced rounds and reports the per-layer metrics and the tracing
overhead. The last line of stdout is the JSON result; the lines before it
give sample counts and provenance.

BLAS and OpenMP are pinned to one thread in every round.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs as workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_ROUNDS = 3          # untraced rounds per run (and traced ones with --trace 1)
MIN_SETUP_SAMPLES = 5   # import-only processes top up the set-up samples
DEADLINE_S = 170.0      # the whole run ends within this

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


class BenchError(Exception):
    """The benchmark cannot run here (no result is printed)."""


def _child_env() -> dict:
    # The package and its materials registry must come from this checkout.
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "CASIMIR_DATA_DIR")}
    env.update(THREAD_ENV)
    return env


class Runner:
    """Starts rounds as child processes and keeps every run's bookkeeping."""

    def __init__(self, work: Path, job_list: list[dict], t_end: float):
        self.work = work
        self.jobs = job_list
        self.plan = work / "plan.json"
        self.plan.write_text(json.dumps(job_list), encoding="utf-8")
        self.t_end = t_end
        self.n = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}

    def _spawn(self, extra: list[str]) -> dict:
        self.n += 1
        result = self.work / f"round-{self.n}.json"
        timeout = self.t_end - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before a round could start")
        cmd = [sys.executable, str(HERE / "child.py"), "--src", str(SRC),
               "--result", str(result)] + extra
        spawned_at = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], env=_child_env(),
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"error": f"round {self.n} timed out after {timeout:.0f} s"}
        if proc.returncode != 0 or not result.exists():
            tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
            return {"error": f"round {self.n} exited {proc.returncode}: {tail}"}
        return json.loads(result.read_text(encoding="utf-8"))

    def import_only(self) -> dict:
        res = self._spawn([])
        if "error" in res:
            raise BenchError(res["error"])
        return res

    def round(self, traced: bool) -> dict | None:
        """Run all jobs in a fresh process, check them; None if the round broke."""
        out = self.work / f"out-{self.n + 1}"
        out.mkdir()
        extra = ["--plan", str(self.plan), "--workdir", str(out)]
        res = self._spawn(extra + (["--trace"] if traced else []))
        self.attempted += len(self.jobs)
        if "error" in res:
            self.failed += len(self.jobs)
            self.failures.append(res["error"])
            shutil.rmtree(out)
            return None
        for job, ran in zip(self.jobs, res["jobs"]):
            reason = workloads.check_job(job, out, ran["rc"], ran["stdout"],
                                         self.digests.get(job["name"]))
            if reason is None and job["name"] not in self.digests:
                self.digests[job["name"]] = workloads.digest(out / o for o in job["outputs"])
            if reason is not None:
                self.failed += 1
                self.failures.append(reason)
        shutil.rmtree(out)
        return res


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _p90(xs):
    """Nearest-rank 90th percentile, or None with fewer than 10 samples beyond it."""
    if len(xs) < 100:
        return None
    return sorted(xs)[int(0.9 * len(xs)) - 1]


def _src_lines() -> int:
    """Lines of hand-written package source (.py, .pyx) under src/."""
    return sum(len(p.read_bytes().splitlines())
               for p in sorted(SRC.rglob("*")) if p.suffix in (".py", ".pyx"))


def _src_sha256() -> str:
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _git_sha() -> str:
    """HEAD of the checkout's own repository; exported checkouts have none."""
    if not (ROOT / ".git").exists():
        return "unavailable"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def _end_to_end(runner: Runner, rounds: list[dict], setups: list[float]) -> tuple[dict, dict]:
    ok_frac = 1.0 - runner.failed / runner.attempted
    metrics = {
        "setup_s": (_median(setups), "s"),
        "run_s": (_median([r["run_s"] for r in rounds]), "s"),
        "peak_rss_mb": (_median([r["peak_rss_mb"] for r in rounds]), "MB"),
        "ok_frac": (ok_frac, "frac"),
    }
    samples = {"setup_s": len(setups), "run_s": len(rounds), "peak_rss_mb": len(rounds),
               "ok_frac": runner.attempted}
    return metrics, samples


def _per_layer(runner: Runner, plain: list[dict], traced: list[dict]) -> tuple[dict, dict]:
    summaries = [r["trace"] for r in traced]
    metrics, samples = {}, {}
    for name, value in summaries[0]["counts"].items():
        if any(s["counts"][name] != value for s in summaries):
            runner.failures.append(f"count {name} differs between rounds with equal inputs")
        metrics[name] = (value, "count")
        samples[name] = len(summaries)
    for name in summaries[0]["times_s"]:
        metrics[name] = (_median([s["times_s"][name] for s in summaries]), "s")
        samples[name] = len(summaries)
    for key, unit_name in (("integral_ms", "lifshitz.integral_ms"),
                           ("fit_ms", "electrostatics.fit_ms")):
        pooled = [x for s in summaries for x in s[key]]
        metrics[f"{unit_name}.p50"] = (_median(pooled), "ms")
        samples[f"{unit_name}.p50"] = len(pooled)
        if unit_name == "lifshitz.integral_ms":
            # 0 when too few samples lie beyond the 90th percentile.
            metrics[f"{unit_name}.p90"] = (_p90(pooled) or 0.0, "ms")
            samples[f"{unit_name}.p90"] = len(pooled)
    metrics["cli.bytes_written"] = (_median([r["bytes_written"] for r in plain]), "bytes")
    metrics["process.cpu_s"] = (_median([r["cpu_s"] for r in plain]), "s")
    metrics["process.run_wall_s"] = (_median([r["run_wall_s"] for r in plain]), "s")
    untraced_run = _median([r["run_s"] for r in plain])
    metrics["trace.overhead_frac"] = (
        _median([r["run_s"] for r in traced]) / untraced_run - 1.0, "frac")
    metrics["code.src_lines"] = (_src_lines(), "lines")
    metrics["failed_frac"] = (runner.failed / runner.attempted, "frac")
    samples.update({"cli.bytes_written": len(plain), "process.cpu_s": len(plain),
                    "process.run_wall_s": len(plain),
                    "trace.overhead_frac": min(len(plain), len(traced))})
    return metrics, samples


def run(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    if not (SRC / "casimir_mto" / "cli.py").is_file():
        raise BenchError(f"no package source at {SRC / 'casimir_mto'}")
    t_start = time.monotonic()
    work = WORK / f"{workload}-{seed}-t{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    job_list = workloads.make_jobs(workload, seed, work / "inputs", size)
    runner = Runner(work, job_list, t_start + DEADLINE_S)

    # Fill the bytecode cache first: a user pays for that once, not per run.
    provenance = runner.import_only()["provenance"]
    min_rounds = MIN_ROUNDS if size == "full" else 2
    plain: list[dict] = []
    traced: list[dict] = []
    t0 = time.monotonic()
    while True:
        enough = len(plain) >= min_rounds and (not trace or len(traced) >= min_rounds)
        if enough and time.monotonic() - t0 >= seconds:
            break
        is_traced = trace and len(traced) < len(plain)
        res = runner.round(is_traced)
        if res is None:
            break
        (traced if is_traced else plain).append(res)
    setups = [(r["setup_s"], r["setup_wall_s"]) for r in plain + traced]
    if size == "full" and res is not None:
        while len(setups) < MIN_SETUP_SAMPLES:
            res = runner.import_only()
            setups.append((res["setup_s"], res["setup_wall_s"]))

    complete = len(plain) >= 1 and (not trace or len(traced) >= 1)
    if trace and complete:
        metrics, samples = _per_layer(runner, plain, traced)
    elif complete:
        metrics, samples = _end_to_end(runner, plain, [s for s, _ in setups])
    else:
        metrics, samples = {}, {}
    provenance.update({
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "rounds": {"untraced": len(plain), "traced": len(traced)},
        "git_sha": _git_sha(), "src_sha256": _src_sha256(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "thread_env": THREAD_ENV,
    })
    unscaled = {"setup_wall_s": _median([w for _, w in setups]),
                "run_wall_s": _median([r["run_wall_s"] for r in plain])}
    return {"metrics": metrics, "samples": samples, "provenance": provenance,
            "unscaled": unscaled,
            "attempted": runner.attempted, "failed": runner.failed,
            "failures": runner.failures,
            "complete": complete}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=sorted(workloads.SIZES),
                    help="job sizes; 'smoke' is for the benchmark's own tests")
    args = ap.parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for name, (value, unit) in out["metrics"].items():
        print(f"{name:32s} {value:>14.6g} {unit:6s} n={out['samples'].get(name, 1)}")
    for reason in out["failures"]:
        print(f"FAILED {reason}")
    print("unscaled medians " + json.dumps(out["unscaled"]))
    print("provenance " + json.dumps(out["provenance"], sort_keys=True))
    result = {
        "correct": out["complete"] and not out["failures"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
