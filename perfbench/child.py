"""One workload run in a fresh interpreter (started by ``run.py``).

Usage::

    python perfbench/child.py --root DIR --workload NAME --seed N \\
        --seconds S --trace 0|1 [--trace-out FILE]
    python perfbench/child.py --import-only --workload NAME

Prints one JSON object on its last stdout line: the measured figures,
the checks made and the counts behind them.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from statistics import median
from time import perf_counter

import speed

_T0 = perf_counter()


def import_program(workload: str) -> float:
    """Import every ``repro`` module the workload calls; returns seconds."""
    start = perf_counter()
    import repro.core.campaign  # noqa: F401
    import repro.dist.broker  # noqa: F401
    import repro.spec  # noqa: F401

    if workload == "serve-conservative":
        import repro.serve.server  # noqa: F401
    return perf_counter() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def campaign(args, wl, tracer) -> dict:
    golden = wl.load_golden(args.root, args.workload)
    checker = wl.Checker()
    rounds = wl.n_rounds(args.workload, args.seconds)
    setups, colds, warms, durations = [], [], [], []
    seen, unchecked = [], []
    produced: dict[str, float] = {}
    telemetry_passes = 0.0
    baseline = None
    raw_colds = []
    if tracer:
        # the same first round untraced, as the tracing-overhead baseline
        cells, _ = wl.campaign_setup(args.root, args.workload, args.seed, 0, rounds)
        baseline = wl.campaign_round(args.workload, cells, 0)["busy_cold_s"]
        tracer.install()
    for k in range(rounds):
        before = speed.probe()
        cells, setup_s = wl.campaign_setup(
            args.root, args.workload, args.seed, k, rounds, tracer
        )
        setups.append(setup_s * speed.scale(before, speed.probe()))
        out = wl.campaign_round(args.workload, cells, k, tracer)
        colds.append(out["cold_s"])
        raw_colds.append(out["raw_cold_s"])
        warms.append(out["warm_s"])
        durations.extend(out["durations"])
        seen.extend(cells)
        produced.update(out["cold"].scores)
        unchecked.extend(wl.campaign_checks(checker, golden, cells, out))
        if out["telemetry_passes"] is not None:
            telemetry_passes += out["telemetry_passes"]
    if tracer:
        tracer.uninstall()
    oracle = wl.oracle_sample(args.workload, args.seed, seen, unchecked)
    wl.check_oracle(checker, oracle, produced)
    pct, tail_s, beyond = wl.tail(durations)
    result = {
        "rounds": rounds,
        "cells": len(durations),
        "setup_round_s": setups,
        "cold_round_s": colds,
        "raw_cold_round_s": raw_colds,
        "warm_round_s": warms,
        "metrics": {
            "prep_s": median(setups),
            "cold_s": median(colds),
            "warm_s": median(warms),
            "ops_per_s": len(durations) / sum(colds),
            "op_ms_p50": median(durations) * 1e3,
            "op_ms_tail": tail_s * 1e3,
        },
        "detail_metrics": {
            "campaign_s": [median(colds), "s"],
            "cell_s_p50": [median(durations), "s"],
            "cell_s_tail": [tail_s, "s", f"p{pct:g}", f"{beyond} beyond of {len(durations)}"],
            "warm_s": [median(warms), "s"],
        },
        "checker": checker,
        "oracle_cells": [c.label for c in oracle],
        "golden_cells_missing": len(unchecked),
    }
    if tracer:
        result["trace"] = {
            "baseline_cold_s": baseline,
            "traced_cold_s": colds[0],
            "telemetry_passes": telemetry_passes,
        }
    return result


def serve(args, wl, tracer) -> dict:
    golden = wl.load_golden(args.root, args.workload)
    checker = wl.Checker()
    rounds = wl.n_rounds(args.workload, args.seconds)
    setups, colds, warms = [], [], []
    lat = {"submit": [], "query": [], "probe": [], "other": []}
    n_requests = 0
    baseline = None
    raw_colds = []
    if tracer:
        trace, server, _ = wl.serve_setup(0)
        script = wl.serve_script(trace, args.seed, 0)
        baseline = wl.serve_round(server, script, 0)["busy_cold_s"]
        tracer.install()
    for k in range(rounds):
        before = speed.probe()
        trace, server, setup_s = wl.serve_setup(k, tracer)
        setups.append(setup_s * speed.scale(before, speed.probe()))
        script = wl.serve_script(trace, args.seed, k)
        out = wl.serve_round(server, script, k, tracer)
        colds.append(out["cold_s"])
        raw_colds.append(out["raw_cold_s"])
        warms.append(out["warm_s"])
        for kind in lat:
            lat[kind].extend(out[f"{kind}_us"])
        n_requests += out["n_requests"]
        wl.serve_checks(checker, golden, out)
    if tracer:
        tracer.uninstall()
    every = lat["submit"] + lat["query"] + lat["probe"] + lat["other"]
    pct, tail_us, beyond = wl.tail(every)
    q_pct, q_tail, q_beyond = wl.tail(lat["query"])
    result = {
        "rounds": rounds,
        "requests": n_requests,
        "setup_round_s": setups,
        "cold_round_s": colds,
        "raw_cold_round_s": raw_colds,
        "warm_round_s": warms,
        "metrics": {
            "prep_s": median(setups),
            "cold_s": median(colds),
            "warm_s": median(warms),
            "ops_per_s": n_requests / sum(colds),
            "op_ms_p50": median(every) / 1e3,
            "op_ms_tail": tail_us / 1e3,
        },
        "detail_metrics": {
            "serve_req_per_s": [n_requests / sum(colds), "req/s"],
            "submit_us_p50": [median(lat["submit"]), "us"],
            "query_us_p50": [median(lat["query"]), "us"],
            "query_us_p99": [sorted(lat["query"])[wl.rank(len(lat["query"]), 99.0)], "us"],
            "probe_us_p50": [median(lat["probe"]), "us"],
            "request_us_tail": [tail_us, "us", f"p{pct:g}", f"{beyond} beyond of {len(every)}"],
            "query_us_tail": [q_tail, "us", f"p{q_pct:g}", f"{q_beyond} beyond"],
        },
        "checker": checker,
    }
    if tracer:
        result["trace"] = {"baseline_cold_s": baseline, "traced_cold_s": colds[0]}
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="one perfbench workload run")
    parser.add_argument("--root", default=".")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--import-only", action="store_true")
    args = parser.parse_args(argv)

    before = speed.probe()
    import_s = import_program(args.workload)
    import_ref_s = import_s * speed.scale(before, speed.probe())
    if args.import_only:
        print(json.dumps({"import_s": import_ref_s, "raw_import_s": import_s}))
        return 0

    import layers
    import workloads as wl
    from tracing import Tracer

    tracer = Tracer() if args.trace else None
    if args.workload == "serve-conservative":
        result = serve(args, wl, tracer)
    else:
        result = campaign(args, wl, tracer)
    checker = result.pop("checker")
    if tracer:
        result["layers"], checks = layers.layer_metrics(args.workload, tracer, result)
        for ok, message in checks:
            checker.check(ok, message)
        if args.trace_out:
            tracer.write(args.trace_out)
    import numpy
    from repro.core.campaign import CACHE_VERSION
    from repro.sim.engine import ENGINE_VERSION

    result.update(
        {
            "workload": args.workload,
            "engine_version": ENGINE_VERSION,
            "cache_version": CACHE_VERSION,
            "numpy": numpy.__version__,
            "seed": args.seed,
            "raw_import_s": import_s,
            "peak_rss_mb": peak_rss_mb(),
            "child_wall_s": perf_counter() - _T0,
            "attempted": checker.attempted,
            "failed": checker.failed,
            "failures": checker.messages,
        }
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
