"""Compares the CLI outputs of this checkout and another on the benchmark's jobs.

For each workload in ``perfbench/jobs.py`` the job plan for ``--seed`` is
written once. Each checkout's ``casimir_mto.cli.main`` then runs that plan
in a fresh interpreter, on the checkout's own ``src/``, as one benchmark
round (``perfbench/child.py``). Every job whose exit code, stdout or output
bytes differ between the two is listed; under it, each differing CSV with
the same header and row count on both sides gets the worst relative change
of each numeric column and, where the file has an ``est_rel_error`` column,
of each other column divided by the larger of the row's two estimates.
Each differing JSON object with the same keys on both sides (the
``calibrate`` reports) gets the worst relative change of each numeric key
and, for a fitted value with a ``<name>_sigma`` key (``k_n_per_f`` and
``k_sigma``), its change divided by the larger of its two sigmas.
The exit status is 1 if any job differs, 2 if a round could not run, else 0.

Run from anywhere:  python tools/compare_outputs.py OTHER_CHECKOUT --seed N [--size smoke|full]
"""

import argparse
import csv
import json
import math
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


def _rows(path: Path) -> list[list[str]]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _ratio(d: float, e: float) -> float:
    return d / e if e else math.inf if d else 0.0


def _change(a: str, b: str) -> float:
    """|b/a - 1| of two CSV fields, 0 where they are equal; ValueError
    unless both are numbers."""
    x, y = float(a), float(b)
    return 0.0 if a == b else _ratio(abs(y - x), abs(x))


def column_changes(a: Path, b: Path) -> str | None:
    """Per numeric column of two CSV files, its worst relative change and,
    with an ``est_rel_error`` column, its worst change over the larger of
    the row's two estimates; None unless both have the same header, the
    same number of rows (at least one) and every row as wide as the header."""
    if a.suffix != ".csv" or _bytes(a) is None or _bytes(b) is None:
        return None
    (head, *rows_a), (head_b, *rows_b) = _rows(a), _rows(b)
    if (head != head_b or not rows_a or len(rows_a) != len(rows_b)
            or any(len(r) != len(head) for r in rows_a + rows_b)):
        return None
    est = head.index("est_rel_error") if "est_rel_error" in head else None
    worst, over = {}, {}
    for j, name in enumerate(head):
        try:
            changes = [_change(ra[j], rb[j]) for ra, rb in zip(rows_a, rows_b)]
            if est is not None and j != est:
                over[name] = max(over.get(name, 0.0), *(
                    _ratio(d, max(float(ra[est]), float(rb[est])))
                    for d, ra, rb in zip(changes, rows_a, rows_b)))
        except ValueError:
            continue  # not a numeric column
        worst[name] = max(worst.get(name, 0.0), *changes)
    return _report(worst, over, "est_rel_error")


def _leaves(value) -> list:
    """The scalars of a JSON value, nested lists flattened in order."""
    return [x for v in value for x in _leaves(v)] if isinstance(value, list) else [value]


def key_changes(a: Path, b: Path) -> str | None:
    """Per numeric key of two JSON objects, its worst relative change over
    all its numbers and, where a ``<name>_sigma`` key exists for the key's
    first ``_``-separated word, its change over the larger of the two sigmas;
    None unless both parse as objects with the same keys."""
    if a.suffix != ".json" or _bytes(a) is None or _bytes(b) is None:
        return None
    try:
        doc_a, doc_b = (json.loads(p.read_text(encoding="utf-8")) for p in (a, b))
    except ValueError:
        return None
    if not (isinstance(doc_a, dict) and isinstance(doc_b, dict)) or doc_a.keys() != doc_b.keys():
        return None
    worst, over = {}, {}
    for key in doc_a:
        leaves_a, leaves_b = _leaves(doc_a[key]), _leaves(doc_b[key])
        if len(leaves_a) != len(leaves_b):
            continue
        try:
            worst[key] = max(_change(x, y) for x, y in zip(leaves_a, leaves_b))
        except (TypeError, ValueError):
            continue  # not a numeric key
        sigma = key.split("_")[0] + "_sigma"
        if sigma in doc_a and sigma != key and len(leaves_a) == 1:
            over[key] = _ratio(abs(float(leaves_b[0]) - float(leaves_a[0])),
                               max(abs(float(doc_a[sigma])), abs(float(doc_b[sigma]))))
    return _report(worst, over, "sigma")


def _report(worst: dict, over: dict, unit: str) -> str:
    """The line of worst relative changes, then of changes over ``unit``."""
    line = "worst relative change " + ", ".join(f"{k} {v:.3g}" for k, v in worst.items())
    if over:
        line += f"; over {unit} " + ", ".join(f"{k} {v:.3g}" for k, v in over.items())
    return line


def differences(job_list: list[dict], ran: list[list[dict]], dirs: list[Path]) -> list[str]:
    """A line "job: what differs" for every job whose exit code, stdout or
    output files differ between the two rounds ``ran``, outputs in ``dirs``,
    then a line "job: file: ..." per differing CSV or JSON object (see
    column_changes and key_changes)."""
    found = []
    for job, a, b in zip(job_list, *ran):
        what = [field for field in ("rc", "stdout") if a[field] != b[field]]
        files = [name for name in job["outputs"]
                 if _bytes(dirs[0] / name) != _bytes(dirs[1] / name)]
        if what + files:
            found.append(f"{job['name']}: {', '.join(what + files)}")
        for name in files:
            pair = dirs[0] / name, dirs[1] / name
            line = column_changes(*pair) or key_changes(*pair)
            if line:
                found.append(f"{job['name']}: {name}: {line}")
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
            same = len(job_list) - len({line.split(": ", 1)[0] for line in found})
            print(f"{workload}: {same} of {len(job_list)} jobs identical")
            differ = differ or bool(found)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
