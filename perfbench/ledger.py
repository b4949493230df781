"""Summarise benchmark runs and append them to the committed ledger.

Usage (from the root of a checkout, after runs of ``perfbench/run.py``)::

    python3 perfbench/ledger.py [--runs .bench_runs] [--append --note TEXT]

Reads every ``result-*.json`` record under ``--runs``, groups them by
workload, and prints for each end-to-end metric the median, the
quartiles and the spread -- the distance between the first and third
quartile as a share of the median, the figure the benchmark's bounds
are set against -- flagging any spread above a third of its bound.
Traced runs contribute the median of each per-layer metric.

``--append`` adds one row to ``perfbench/ledger.jsonl`` with a host
fingerprint: CPU model, nproc, Python and numpy versions, git commit (if
the checkout is a git repository), the program's source digest,
``ENGINE_VERSION`` and ``CACHE_VERSION``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LEDGER = os.path.join(HERE, "ledger.jsonl")


def load_runs(directory: str) -> list[dict]:
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "result-*.json"))):
        with open(path, encoding="utf-8") as fh:
            runs.append(json.load(fh))
    return runs


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "n": len(values),
    }


def summarise(runs: list[dict], bench: dict) -> dict:
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary: dict[str, dict] = {}
    for run in runs:
        entry = summary.setdefault(
            run["workload"],
            {"seeds": [], "traced_seeds": [], "end_to_end": {}, "per_layer": {},
             "detail_metrics": {}, "correct": True, "attempted": 0, "failed": 0},
        )
        entry["correct"] &= run["correct"]
        entry["attempted"] += run["child"]["attempted"]
        entry["failed"] += run["child"]["failed"]
        section = "per_layer" if run["trace"] else "end_to_end"
        entry["traced_seeds" if run["trace"] else "seeds"].append(run["seed"])
        for name, metric in run["metrics"].items():
            entry[section].setdefault(name, {"unit": metric["unit"], "values": []})
            entry[section][name]["values"].append(metric["value"])
        for name, (value, unit, *notes) in run["child"].get("detail_metrics", {}).items():
            slot = entry["detail_metrics"].setdefault(name, {"unit": unit, "values": []})
            slot["values"].append(value)
            if notes:
                slot["notes"] = notes
    for entry in summary.values():
        for section in ("end_to_end", "per_layer", "detail_metrics"):
            for name, slot in entry[section].items():
                slot.update(spread(slot.pop("values")))
                if name in bounds and section == "end_to_end":
                    slot["bound"] = bounds[name]
    return summary


def print_summary(summary: dict) -> int:
    """Print the table; returns how many spreads exceed a third of their bound."""
    wide = 0
    for workload, entry in summary.items():
        print(f"{workload}: {len(entry['seeds'])} run(s), {len(entry['traced_seeds'])} "
              f"traced, attempted {entry['attempted']}, failed {entry['failed']}")
        for name, slot in entry["end_to_end"].items():
            flag = ""
            if name != "setup_s" and slot["spread"] > slot["bound"] / 3:
                flag = "  <-- spread above bound/3"
                wide += 1
            print(f"  {name:<14} median {slot['median']:12.5f} {slot['unit']:<5} "
                  f"q1 {slot['q1']:12.5f} q3 {slot['q3']:12.5f} "
                  f"spread {slot['spread']:6.3f} (bound {slot['bound']}){flag}")
        for name, slot in entry["detail_metrics"].items():
            print(f"  [{name}] median {slot['median']:.6g} {slot['unit']} "
                  f"{' '.join(slot.get('notes', []))}")
        for name, slot in entry["per_layer"].items():
            print(f"  {name:<26} median {slot['median']:.6g} {slot['unit']}")
    return wide


def fingerprint(runs: list[dict]) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        cpu = platform.processor()
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    child = runs[0]["child"]
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": child.get("numpy"),
        "git_commit": commit,
        "src_digest": runs[0]["host"]["src_digest"],
        "engine_version": child.get("engine_version"),
        "cache_version": child.get("cache_version"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", default=os.path.join(ROOT, ".bench_runs"))
    parser.add_argument("--append", action="store_true")
    parser.add_argument("--note", default="")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    runs = load_runs(args.runs)
    if not runs:
        print(f"no result-*.json under {args.runs}", file=sys.stderr)
        return 1
    summary = summarise(runs, bench)
    wide = print_summary(summary)
    if args.append:
        row = {
            "date": time.strftime("%Y-%m-%d", time.gmtime()),
            "note": args.note,
            "host": fingerprint(runs),
            "run_seconds": sorted({r["seconds"] for r in runs}),
            "workloads": summary,
        }
        with open(LEDGER, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
        print(f"appended a row to {LEDGER}")
    return 1 if wide else 0


if __name__ == "__main__":
    sys.exit(main())
