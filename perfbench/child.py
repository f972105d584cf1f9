"""One benchmark round: a fresh interpreter imports the CLI and runs the jobs.

    python3 perfbench/child.py --src SRC --spawned-at T --result PATH
                               [--plan PLAN --workdir DIR] [--trace]

``--spawned-at`` is the parent's ``time.monotonic()`` just before it
started this process (the clock is system-wide on Linux), so ``setup_s``
covers interpreter start plus ``import casimir_mto.cli``. Without
``--plan`` the round only imports and reports set-up time. Jobs run in
order through ``casimir_mto.cli.main(argv)`` with the CLI's stdout
captured; the parent checks the outputs afterwards.

Times are reported twice: ``*_wall_s`` as measured (speed probes
excluded) and ``*_s`` scaled by the speed probe (see ``speed.py``).
"""

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import speed


def _run_job(cli, argv: list[str]) -> tuple[object, str]:
    """Run one CLI job; returns (exit code or error text, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # the CLI must not raise; report it as a failure
            rc = "raised " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
    return rc, out.getvalue() + err.getvalue()


def _provenance(src: Path) -> dict:
    import numpy
    import scipy

    import casimir_mto

    backend = getattr(casimir_mto, "backend_name", None)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "casimir_mto": getattr(casimir_mto, "__version__", "unknown"),
        "package_file": os.path.relpath(casimir_mto.__file__, src.parent),
        "backend": backend() if callable(backend) else None,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--spawned-at", required=True, type=float)
    ap.add_argument("--result", required=True)
    ap.add_argument("--plan")
    ap.add_argument("--workdir")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    probe = speed.SpeedProbe()
    probe.sample()
    probe.start()
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    cli = importlib.import_module("casimir_mto.cli")
    imported = time.monotonic()
    probe.sample()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"casimir_mto imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    setup_wall, setup_s = probe.scaled(args.spawned_at, imported)
    result = {"setup_s": setup_s, "setup_wall_s": setup_wall,
              "provenance": _provenance(src), "jobs": []}

    if args.plan:
        jobs = json.loads(Path(args.plan).read_text(encoding="utf-8"))
        if args.trace:
            import tracer as tracing
            tracer = tracing.install()
            probe.on_sample = tracer.exclude
        workdir = Path(args.workdir)
        os.chdir(workdir)
        probe.sample()
        for job in jobs:
            a = time.monotonic()
            rc, stdout = _run_job(cli, job["argv"])
            b = time.monotonic()
            probe.sample()
            wall, scaled = probe.scaled(a, b)
            result["jobs"].append({"name": job["name"], "rc": rc, "wall_s": wall,
                                   "scaled_s": scaled, "stdout": stdout})
        result["run_s"] = sum(j["scaled_s"] for j in result["jobs"])
        result["run_wall_s"] = sum(j["wall_s"] for j in result["jobs"])
        usage = resource.getrusage(resource.RUSAGE_SELF)
        result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
        result["cpu_s"] = usage.ru_utime + usage.ru_stime
        result["bytes_written"] = sum(p.stat().st_size for p in workdir.iterdir())
        if args.trace:
            result["trace"] = tracing.summarize(tracer)
    probe.stop()

    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
