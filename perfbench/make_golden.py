"""Regenerate the golden outputs under perfbench/golden/.

Usage (from the root of a checkout)::

    PYTHONPATH=src python3 perfbench/make_golden.py [--workload NAME]

Campaign workloads: every cell of the workload's population is run cold
through ``run_cells`` and, independently, on its frozen legacy scheduler
twin; the AVEbsld values must agree exactly before they are written,
keyed by spec digest.  Serving: the served schedule of one closed-loop
session must equal a batch replay of the same trace on the current
engine and on ``legacy-conservative``; its rows are written.

Golden values describe one engine: regenerate them only together with a
deliberate ``ENGINE_VERSION`` change.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402
from repro.core.campaign import CACHE_VERSION, run_cells  # noqa: E402
from repro.core.run import run_components_on_trace, run_spec  # noqa: E402
from repro.sim.engine import ENGINE_VERSION  # noqa: E402
from repro.spec import expand_spec_file  # noqa: E402


def campaign_golden(workload: str) -> dict:
    cells = wl.population(workload, expand_spec_file(os.path.join(ROOT, wl.PAPER_SPEC)))
    start = perf_counter()
    result = run_cells(cells, workers=1)
    seconds = perf_counter() - start
    mismatches = []
    for cell in cells:
        legacy = run_spec(wl.legacy_twin(cell)).avebsld
        if legacy != result.score(cell):
            mismatches.append(f"{cell.workload.log} {cell.label}: {result.score(cell)!r} != {legacy!r}")
    if mismatches:
        raise SystemExit("legacy oracle disagrees:\n" + "\n".join(mismatches))
    return {
        "workload": workload,
        "engine_version": ENGINE_VERSION,
        "cache_version": CACHE_VERSION,
        "cold_campaign_s_at_generation": round(seconds, 3),
        "labels": {cell.digest(): f"{cell.workload.log} {cell.label}" for cell in cells},
        "scores": {cell.digest(): result.score(cell) for cell in cells},
    }


def serve_golden() -> dict:
    trace, server, _ = wl.serve_setup(0)
    out = wl.serve_round(server, wl.serve_script(trace, 0, 0), 0)
    if out["responses_ok"] != out["n_requests"]:
        raise SystemExit("served session answered ok:false")
    components = wl.SERVE_COMPONENTS
    for scheduler in (components["scheduler"], "legacy-" + components["scheduler"]):
        batch = run_components_on_trace(
            trace, components["predictor"], components["corrector"], scheduler
        )
        rows = sorted([r.job_id, r.start_time, r.end_time] for r in batch)
        if rows != out["rows"]:
            raise SystemExit(f"served schedule differs from the {scheduler} batch replay")
    return {
        "workload": "serve-conservative",
        "engine_version": ENGINE_VERSION,
        "trace_digest": wl.get_bundle(wl.serve_workload_spec()).digest,
        "rows": out["rows"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, action="append")
    args = parser.parse_args(argv)
    os.environ.pop("REPRO_SWF_DIR", None)
    for workload in args.workload or wl.WORKLOADS:
        runs = os.path.join(ROOT, ".bench_runs")
        os.makedirs(runs, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=runs) as tmp:
            os.chdir(tmp)
            try:
                if workload == "serve-conservative":
                    doc = serve_golden()
                else:
                    doc = campaign_golden(workload)
            finally:
                os.chdir(ROOT)
        path = os.path.join(HERE, "golden", f"{workload}.json")
        with open(path, "w", encoding="utf-8") as fh:
            # one score per line; the long served schedule stays on one line
            json.dump(doc, fh, indent=0 if "scores" in doc else None, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
