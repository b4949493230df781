"""Repository benchmark: run one workload and print its figures.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-slice --seed 1 --seconds 20 --trace 0

Workloads: ``paper-slice``, ``deep-queue-telemetry``, ``serve-conservative``
(see perfbench/README.md).  ``--trace 0`` prints the end-to-end metrics
of BENCHMARK.json, ``--trace 1`` the per-layer metrics of a traced run.

Each run is hermetic: the workload executes in a fresh interpreter whose
working directory is a new temporary directory under ``.bench_runs/``,
with ``REPRO_SWF_DIR`` and ``REPRO_LOG`` removed from its environment,
so no real SWF log, stray result cache or cost file can change what is
measured.  The full record of the run (figures, checks, environment) is
written to ``.bench_runs/result-<workload>-seed<seed>-trace<t>.json``,
a traced run's spans to ``.bench_runs/trace-<workload>-seed<seed>.json``.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = os.path.join(ROOT, ".bench_runs")
#: what the workload needs from the checkout besides this directory
REQUIRED = (
    os.path.join("src", "repro", "__init__.py"),
    os.path.join("experiments", "paper.toml"),
    "BENCHMARK.json",
)
#: environment variables that would change the program's inputs
SCRUBBED_ENV = ("REPRO_SWF_DIR", "REPRO_LOG", "PYTHONPATH", "PYTHONSTARTUP", "PYTHONHOME")
IMPORT_PROBES = 3
#: every run must end within this many seconds
DEADLINE_S = 170.0


def fail(message: str, code: int = 2) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], cwd: str, timeout: float) -> dict:
    """Run ``child.py`` to completion; its last stdout line is JSON."""
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), *args],
        cwd=cwd,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"workload process exceeded {timeout:.0f}s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}:\n{err[-4000:]}")
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError(f"workload process printed nothing:\n{err[-4000:]}")
    return json.loads(lines[-1])


def src_digest() -> str:
    """sha256 over the program's source files, for the run record."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def main(argv: list[str] | None = None) -> int:
    started = perf_counter()
    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        return fail(f"not a repro checkout, missing: {', '.join(missing)}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description="perfbench: one workload run")
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in bench["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    os.makedirs(RUNS, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    trace_out = os.path.join(RUNS, f"trace-{tag}.json")
    workdir = tempfile.mkdtemp(prefix="run-", dir=RUNS)
    try:
        probes = []
        if not args.trace:
            for _ in range(IMPORT_PROBES):
                probe = run_child(
                    ["--import-only", "--workload", args.workload], workdir, 60.0
                )
                probes.append(probe["import_s"])
        child_args = [
            "--root", ROOT,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if args.trace:
            child_args += ["--trace-out", trace_out]
        result = run_child(child_args, workdir, DEADLINE_S - (perf_counter() - started))
    except (RuntimeError, OSError, ValueError) as exc:
        return fail(str(exc), 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values = dict(result["layers"])
    else:
        values = dict(result["metrics"])
        values["setup_s"] = statistics.median(probes) + values.pop("prep_s")
        values["peak_rss_mb"] = result["peak_rss_mb"]
    unknown = sorted(set(units) - set(values))
    if unknown:
        return fail(f"workload produced no value for {', '.join(unknown)}", 1)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    correct = result["failed"] == 0 and result["attempted"] > 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "metrics": metrics,
        "import_probes_s": probes,
        "child": result,
        "hermetic": {
            "fresh_process": True,
            "cwd": "temporary directory under .bench_runs/, removed after the run",
            "env_removed": [k for k in SCRUBBED_ENV if k in os.environ],
            "env_scrubbed": list(SCRUBBED_ENV),
            "PYTHONHASHSEED": "0",
        },
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "src_digest": src_digest(),
        },
        "run_wall_s": perf_counter() - started,
    }
    with open(os.path.join(RUNS, f"result-{tag}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for name, (value, unit, *notes) in result.get("detail_metrics", {}).items():
        print(f"  {name:<18} {value:14.6f} {unit:<6} {' '.join(notes)}")
    for message in result["failures"]:
        print(f"  FAILED: {message}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
