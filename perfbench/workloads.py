"""The three benchmark workloads, their inputs and their checks.

Every workload runs a fixed number of *rounds*.  A round first sets up
(expands the spec, materialises and digests the traces, computes static
feature rows, builds the serving session) and then does the measured
work: a cold campaign followed by a warm re-run on its result cache, or
one closed-loop served session followed by a read-only query pass.

Traces and cells are pinned, so the cost of a run does not depend on the
workload seed.  The seed draws the order of the rounds and of the cells
inside them, the hypothetical jobs the serving client probes with, and
the cells checked against the frozen legacy oracle.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
from contextlib import nullcontext
from time import perf_counter

from repro.core.batch import clear_bundle_cache, get_bundle, group_cells
from repro.core.campaign import run_cells
from repro.core.run import run_spec
from repro.obs.telemetry import Telemetry
from repro.serve.server import SessionServer, build_serve_session
from repro.spec import WorkloadSpec, expand_spec_file, scheduler_registry
from repro.workload.archive import stable_seed

import speed

PAPER_SPEC = os.path.join("experiments", "paper.toml")
#: the logs whose traces build the deepest waiting queues
DEEP_LOGS = ("CTC-SP2", "Metacentrum", "SDSC-BLUE")
SLICE_LOG = "KTH-SP2"
SERVE_LOG = "KTH-SP2"
SERVE_JOBS = 2000
SERVE_COMPONENTS = {
    "scheduler": "conservative",
    "predictor": "ave2",
    "corrector": "incremental",
}
#: probe job ids start here, far above any trace job id
PROBE_ID_BASE = 10**9
#: paper-slice rounds: 12 ML cells + 1 other, the slice's own 120:10 mix
ML_PER_CHUNK = 12

#: round cost on the reference host, which sets rounds per --seconds
NOMINAL_ROUND_S = {
    "paper-slice": 4.5,
    "deep-queue-telemetry": 6.5,
    "serve-conservative": 7.0,
}
#: seconds of back-to-back warm re-runs (status passes when serving) per round
WARM_BLOCK_S = 0.4
#: cells per run checked against the frozen legacy scheduler
ORACLE_CELLS = {"paper-slice": 2, "deep-queue-telemetry": 1}

WORKLOADS = tuple(NOMINAL_ROUND_S)


def n_rounds(workload: str, seconds: float) -> int:
    """Rounds that fill ``seconds`` on the reference host (at least 2)."""
    return max(2, round(seconds / NOMINAL_ROUND_S[workload]))


# -- statistics ---------------------------------------------------------------
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)


def rank(n: int, pct: float) -> int:
    """Nearest-rank index of percentile ``pct`` among ``n`` sorted values."""
    return max(0, math.ceil(pct / 100.0 * n) - 1)


def tail(values: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it): the highest percentile of
    the ladder with at least ten samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_LADDER:
        index = rank(n, pct)
        beyond = n - 1 - index
        if beyond >= 10 or pct == TAIL_LADDER[-1]:
            return pct, ordered[index], beyond
    raise AssertionError("unreachable")


# -- checks -------------------------------------------------------------------
class Checker:
    """Counts attempted and failed operations; keeps the first messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.count(1, 0 if ok else 1, message)
        return ok

    def count(self, attempted: int, failed: int, message: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.messages) < 20:
            self.messages.append(message)


def load_golden(root: str, workload: str) -> dict:
    path = os.path.join(root, "perfbench", "golden", f"{workload}.json")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_scores(
    checker: Checker, cells, scores: dict[str, float], golden: dict[str, float], what: str
) -> list:
    """Exact AVEbsld check per cell; returns the cells with no golden value."""
    unchecked = []
    for cell in cells:
        digest = cell.digest()
        got = scores.get(digest)
        expected = golden.get(digest)
        if expected is None:
            unchecked.append(cell)
            continue
        checker.check(
            got == expected,
            f"{what} {cell.workload.log} {cell.label}: AVEbsld {got!r} != golden {expected!r}",
        )
    return unchecked


def legacy_twin(cell):
    """The same cell on the frozen seed-era scheduler implementation."""
    sched = cell.scheduler
    twin = scheduler_registry().normalize(
        {"name": f"legacy-{sched.name}", "params": sched.param_dict}
    )
    return dataclasses.replace(cell, scheduler=twin)


def check_oracle(checker: Checker, cells, scores: dict[str, float]) -> None:
    for cell in cells:
        expected = run_spec(legacy_twin(cell)).avebsld
        got = scores.get(cell.digest())
        checker.check(
            got == expected,
            f"oracle {cell.workload.log} {cell.label}: AVEbsld {got!r} != legacy {expected!r}",
        )


# -- campaign workloads -------------------------------------------------------
def is_ml(cell) -> bool:
    return cell.predictor.name == "ml"


def replica_cells(cells, log: str, replica: int = 0) -> list:
    seed = stable_seed(log) + replica
    return [c for c in cells if c.workload.log == log and c.workload.seed == seed]


def population(workload: str, cells) -> list:
    """The fixed cell set a campaign workload draws its rounds from."""
    if workload == "paper-slice":
        return replica_cells(cells, SLICE_LOG)
    return [c for log in DEEP_LOGS for c in replica_cells(cells, log) if not is_ml(c)]


def round_cells(workload: str, cells, seed: int, k: int, rounds: int) -> list:
    """Round ``k`` (of ``rounds``) under workload seed ``seed``.

    deep-queue-telemetry runs all 30 cells every round.  paper-slice
    splits its 130 cells into ten fixed chunks of 12 ML cells and one
    other -- the slice's own 120:10 mix -- and runs the first ``rounds``
    of them.  Either way every run does the same cells; the seed draws
    the order of the rounds and of the cells inside each round.
    """
    pool = population(workload, cells)
    rng = random.Random(seed)
    if workload == "paper-slice":
        fixed = random.Random(0)
        ml = [c for c in pool if is_ml(c)]
        other = [c for c in pool if not is_ml(c)]
        fixed.shuffle(ml)
        fixed.shuffle(other)
        chunks = [
            ml[i * ML_PER_CHUNK : (i + 1) * ML_PER_CHUNK] + [other[i]] for i in range(len(other))
        ]
        order = list(range(rounds))
        rng.shuffle(order)
        pool = chunks[order[k] % len(chunks)]
    for _ in range(k + 1):
        picked = pool[:]
        rng.shuffle(picked)
    return picked


def campaign_setup(root: str, workload: str, seed: int, k: int, rounds: int, tracer=None):
    """Expand the spec and build every trace artifact the round needs."""
    clear_bundle_cache()
    with tracer.span("bench.setup", k) if tracer else nullcontext():
        start = perf_counter()
        if tracer:
            expand = tracer.hot("spec.expand", expand_spec_file)
        else:
            expand = expand_spec_file
        cells = round_cells(workload, expand(os.path.join(root, PAPER_SPEC)), seed, k, rounds)
        for _key, group in group_cells(cells):
            bundle = get_bundle(group[0].workload)
            _ = bundle.digest
            if any(is_ml(c) for c in group):
                bundle.static_rows()
        elapsed = perf_counter() - start
    return cells, elapsed


def campaign_round(workload: str, cells, k: int, tracer=None) -> dict:
    """One cold campaign plus its warm re-runs, in the temp cwd.

    Times come back raw and in reference seconds (see speed.py): the
    cold campaign and the block of warm re-runs run under a
    ``speed.Sampler``.  A traced round is not sampled; its reference
    times equal the raw ones.
    """
    cache_path = f"cache-round{k}.jsonl"
    if os.path.exists(cache_path):
        os.remove(cache_path)
    live = workload == "deep-queue-telemetry"
    telemetry = Telemetry(component="campaign") if live else None
    sampler = speed.Sampler() if tracer is None else nullcontext()
    with tracer.span("bench.cold", k) if tracer else sampler:
        start = perf_counter()
        cold = run_cells(cells, cache_path=cache_path, workers=1, telemetry=telemetry)
        raw_cold_s = perf_counter() - start
    durations = [cold.durations[c.digest()] for _key, g in group_cells(cells) for c in g]
    if tracer is None:
        cold_s = sampler.reference(start, raw_cold_s)
        # cells ran back to back in group-major order: place each one in
        # time and scale it by the ticks around it
        at = start
        scaled = []
        for seconds in durations:
            scaled.append(sampler.reference(at, seconds))
            at += seconds
        durations = scaled
    else:
        cold_s = raw_cold_s
    # a warm re-run costs well under a millisecond, less than the host's
    # pace can be pinned down over: re-run for a sampled block instead and
    # report the mean
    warm_sampler = speed.Sampler(interval=0.1) if tracer is None else None
    reps = 0
    with tracer.span("bench.warm", k) if tracer else warm_sampler:
        begin = perf_counter()
        while reps < 1 or perf_counter() - begin < WARM_BLOCK_S:
            warm_telemetry = Telemetry(component="campaign") if live else None
            warm = run_cells(cells, cache_path=cache_path, workers=1, telemetry=warm_telemetry)
            reps += 1
        raw_warm_s = perf_counter() - begin
    if warm_sampler is not None:
        raw_warm_s = warm_sampler.reference(begin, raw_warm_s)
    warm_s = raw_warm_s / reps
    return {
        "raw_cold_s": raw_cold_s,
        "busy_cold_s": sampler.busy(start, raw_cold_s) if tracer is None else raw_cold_s,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "durations": durations,
        "cold": cold,
        "warm": warm,
        "telemetry_passes": (
            telemetry.counter_value("engine.sched.passes") if telemetry else None
        ),
    }


def campaign_checks(checker: Checker, golden: dict, cells, out: dict) -> list:
    """Golden checks of one round; returns cells lacking a golden value."""
    scores = golden.get("scores", {})
    cold, warm = out["cold"], out["warm"]
    checker.check(
        len(cold.durations) == len(cells),
        f"cold campaign simulated {len(cold.durations)} of {len(cells)} cells",
    )
    checker.check(
        not warm.durations,
        f"warm re-run simulated {len(warm.durations)} cells instead of 0",
    )
    unchecked = check_scores(checker, cells, cold.scores, scores, "cold")
    check_scores(checker, cells, warm.scores, scores, "warm")
    for cell in unchecked:
        checker.check(
            warm.scores.get(cell.digest()) == cold.scores.get(cell.digest()),
            f"warm {cell.label}: score differs from the cold run",
        )
    return unchecked


def oracle_sample(workload: str, seed: int, run_cells_seen: list, unchecked: list) -> list:
    """Seed-drawn cells for the legacy-oracle check, plus every cell the
    golden file does not cover."""
    rng = random.Random(seed * 7919 + 1)
    distinct = {c.digest(): c for c in run_cells_seen}
    ordered = [distinct[d] for d in sorted(distinct)]
    picked = rng.sample(ordered, min(ORACLE_CELLS[workload], len(ordered)))
    seen = {c.digest() for c in picked}
    picked += [c for c in unchecked if c.digest() not in seen]
    return picked


# -- serve workload -----------------------------------------------------------
def serve_workload_spec() -> WorkloadSpec:
    return WorkloadSpec.make(SERVE_LOG, n_jobs=SERVE_JOBS, seed=stable_seed(SERVE_LOG))


def serve_setup(k: int, tracer=None):
    """Materialise the trace and build a fresh live session."""
    clear_bundle_cache()
    with tracer.span("bench.setup", k) if tracer else nullcontext():
        start = perf_counter()
        bundle = get_bundle(serve_workload_spec())
        _ = bundle.digest
        session = build_serve_session(
            bundle.trace.processors, name="perfbench", **SERVE_COMPONENTS
        )
        if tracer:
            tracer.wrap_session(session)
        server = SessionServer(session)
        elapsed = perf_counter() - start
    return bundle.trace, server, elapsed


def serve_script(trace, seed: int, k: int) -> list[tuple[str, str, str, int]]:
    """Per job: (submit+advance, job_id query, probe query, job id).

    Probes are hypothetical jobs -- a width and a requested time drawn
    from the trace's own jobs, from a random user -- asked about at the
    current session time.
    """
    rng = random.Random(seed * 1_000_003 + k)
    jobs = list(trace)
    script = []
    for index, job in enumerate(jobs):
        shape = rng.choice(jobs)
        probe = {
            "job_id": PROBE_ID_BASE + index,
            "submit_time": job.submit_time,
            "processors": shape.processors,
            "requested_time": shape.requested_time,
            "user": rng.choice(jobs).user,
        }
        script.append(
            (
                json.dumps({"cmd": "submit", "advance": True, "job": dataclasses.asdict(job)}),
                json.dumps({"cmd": "query", "job_id": job.job_id}),
                json.dumps({"cmd": "query", "job": probe}),
                job.job_id,
            )
        )
    return script


def serve_round(server, script, k: int, tracer=None) -> dict:
    """Drive the closed loop: one client, the next request only after the
    previous response is encoded.

    Untraced, the session runs under a ``speed.Sampler`` and every
    request's latency comes back in reference seconds (see speed.py).
    """
    handle = server.handle_line
    dumps = json.dumps

    def exchange(line: str, tag: str) -> dict:
        response = handle(line)
        dumps(response)
        return response

    if tracer:
        exchange = tracer.coarse("serve.request", exchange, lambda args: args[1])
    clock = perf_counter
    #: (kind, start, seconds) of every request
    timed: list[tuple[str, float, float]] = []
    responses_ok = 0
    sampler = speed.Sampler(interval=0.1) if tracer is None else nullcontext()
    with tracer.span("bench.cold", k) if tracer else sampler:
        loop_start = clock()
        for submit, query, hypo, job_id in script:
            start = clock()
            responses_ok += exchange(submit, f"submit:{job_id}")["ok"]
            mid = clock()
            responses_ok += exchange(query, f"query:{job_id}")["ok"]
            mid2 = clock()
            responses_ok += exchange(hypo, f"probe:{job_id}")["ok"]
            end = clock()
            timed.append(("submit", start, mid - start))
            timed.append(("query", mid, mid2 - mid))
            timed.append(("probe", mid2, end - mid2))
        for line in ('{"cmd": "drain"}', '{"cmd": "result"}'):
            start = clock()
            response = exchange(line, "final")
            timed.append(("other", start, clock() - start))
            responses_ok += response["ok"]
        raw_cold_s = clock() - loop_start
        # read-only passes: every job asked about again once it has
        # finished; one pass is too short to pin the host's pace down, so
        # passes repeat for a block and the mean is reported
        status = None
        passes = 0
        warm_start = clock()
        while passes < 1 or clock() - warm_start < WARM_BLOCK_S:
            answers = [
                (job_id, exchange(query, f"status:{job_id}"))
                for _submit, query, _hypo, job_id in script
            ]
            if status is None:
                status = answers
            passes += 1
        raw_warm_s = clock() - warm_start
    rows = response.get("jobs", [])
    latency_us: dict[str, list[float]] = {"submit": [], "query": [], "probe": [], "other": []}
    if tracer is None:
        for kind, start, seconds in timed:
            latency_us[kind].append(sampler.reference(start, seconds) * 1e6)
        cold_s = sampler.reference(loop_start, raw_cold_s)
        warm_s = sampler.reference(warm_start, raw_warm_s) / passes
    else:
        for kind, _start, seconds in timed:
            latency_us[kind].append(seconds * 1e6)
        cold_s, warm_s = raw_cold_s, raw_warm_s / passes
    return {
        "raw_cold_s": raw_cold_s,
        "busy_cold_s": sampler.busy(loop_start, raw_cold_s) if tracer is None else raw_cold_s,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "submit_us": latency_us["submit"],
        "query_us": latency_us["query"],
        "probe_us": latency_us["probe"],
        "other_us": latency_us["other"],
        "n_requests": len(timed),
        "responses_ok": responses_ok,
        "rows": rows,
        "status": status,
    }


def serve_checks(checker: Checker, golden: dict, out: dict) -> None:
    refused = out["n_requests"] - out["responses_ok"]
    checker.count(out["n_requests"], refused, f"{refused} request(s) answered ok:false")
    expected = golden.get("rows")
    if expected is None:
        checker.check(False, "no golden served schedule to compare against")
    else:
        checker.check(
            out["rows"] == expected,
            f"served schedule differs from the batch replay ({len(out['rows'])} rows "
            f"vs {len(expected)})",
        )
    started = {row[0]: row[1] for row in out["rows"]}
    bad = [
        job_id
        for job_id, answer in out["status"]
        if not answer["ok"] or answer["start"] != started.get(job_id)
    ]
    checker.count(
        len(out["status"]), len(bad), f"{len(bad)} status answer(s) disagree with the schedule"
    )
