"""Compares the CLI outputs of this checkout and another on the benchmark's jobs.

For each workload in ``perfbench/jobs.py`` the job plan for ``--seed`` is
written once. Each checkout's ``casimir_mto.cli.main`` then runs that plan
in a fresh interpreter, on the checkout's own ``src/``, as one benchmark
round (``perfbench/child.py``). Every job whose exit code, stdout or output
bytes differ between the two is listed; the exit status is 1 if any do,
2 if a round could not run, else 0.

Run from anywhere:  python tools/compare_outputs.py OTHER_CHECKOUT --seed N [--size smoke|full]
"""

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import jobs as workloads  # noqa: E402
import run as bench  # noqa: E402


class RoundFailed(Exception):
    """A checkout's round exited without results."""


def run_plan(checkout: Path, plan: Path, workdir: Path) -> list[dict]:
    """Each job's record (name, rc, stdout) from one round of ``checkout``
    over ``plan``, with the outputs left in ``workdir``."""
    workdir.mkdir(parents=True)
    result = workdir.with_suffix(".json")
    cmd = [sys.executable, str(PERFBENCH / "child.py"), "--src", str(checkout / "src"),
           "--result", str(result), "--plan", str(plan), "--workdir", str(workdir),
           "--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=bench._child_env(), capture_output=True, text=True)
    if proc.returncode != 0 or not result.exists():
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        raise RoundFailed(f"{checkout}: round exited {proc.returncode}: {tail}")
    return json.loads(result.read_text(encoding="utf-8"))["jobs"]


def _bytes(path: Path) -> bytes | None:
    return path.read_bytes() if path.exists() else None


def differences(job_list: list[dict], ran: list[list[dict]], dirs: list[Path]) -> list[str]:
    """A line "job: what differs" for every job whose exit code, stdout or
    output files differ between the two rounds ``ran``, outputs in ``dirs``."""
    found = []
    for job, a, b in zip(job_list, *ran):
        what = [field for field in ("rc", "stdout") if a[field] != b[field]]
        what += [name for name in job["outputs"]
                 if _bytes(dirs[0] / name) != _bytes(dirs[1] / name)]
        if what:
            found.append(f"{job['name']}: {', '.join(what)}")
    return found


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("other", type=Path, metavar="OTHER_CHECKOUT")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    args = ap.parse_args(argv)
    checkouts = (ROOT, args.other.resolve())
    differ = False
    with tempfile.TemporaryDirectory() as tmp:
        for workload in workloads.WORKLOADS:
            work = Path(tmp) / workload
            job_list = workloads.make_jobs(workload, args.seed, work / "inputs", args.size)
            plan = work / "plan.json"
            plan.write_text(json.dumps(job_list), encoding="utf-8")
            dirs = [work / side for side in ("this", "other")]
            try:
                ran = [run_plan(c, plan, d) for c, d in zip(checkouts, dirs)]
            except RoundFailed as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            found = differences(job_list, ran, dirs)
            for line in found:
                print(f"{workload}/{line}")
            print(f"{workload}: {len(job_list) - len(found)} of {len(job_list)} jobs identical")
            differ = differ or bool(found)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
