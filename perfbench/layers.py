"""Per-layer figures of a traced run, and their reconciliation.

``*_us`` are self microseconds per call (a leaf's self time is its whole
time).  The set-up layers and ``obs.self_ms`` are milliseconds per
round, ``core.cache_load_ms`` per cache load, ``core.cell_overhead_ms``
and ``dist.dispatch_overhead_ms`` per cell.  Counts are totals over the
traced rounds; shares are of the traced cold time.  A layer the
workload never calls reads 0.
"""

from __future__ import annotations

SIM_LAYERS = tuple(
    "sim." + name for name in ("feed", "advance_to", "drain", "query", "complete", "result")
)


def layer_metrics(workload: str, tracer, result: dict) -> tuple[dict, list]:
    """(per-layer metrics, [(ok, message)] reconciliation checks)."""
    totals = tracer.totals()

    def calls(layer: str) -> int:
        return int(totals.get(layer, (0, 0.0, 0.0))[0])

    def incl(layer: str) -> float:
        return totals.get(layer, (0, 0.0, 0.0))[1]

    def own(layer: str) -> float:
        return totals.get(layer, (0, 0.0, 0.0))[2]

    def per_call_us(layer: str) -> float:
        n = calls(layer)
        return own(layer) / n * 1e6 if n else 0.0

    rounds = result["rounds"]
    measured = sum(result["cold_round_s"])
    sessions = [s for s in tracer.sessions if s is not None]
    passes = sum(s[0] for s in sessions)
    corrections = sum(s[1] for s in sessions)
    fed = sum(s[2] for s in sessions)
    events = sum(s[3] for s in sessions)
    sim_self = sum(own(layer) for layer in SIM_LAYERS)
    cells = calls("core.cell")
    requests = calls("serve.request")
    trace = result["trace"]
    metrics = {
        "sched.select_us": per_call_us("sched.select"),
        "sched.passes": calls("sched.select"),
        "sched.order_queue_us": per_call_us("sched.order_queue"),
        "sched.order_queue_calls": calls("sched.order_queue"),
        "sched.delta_us": per_call_us("sched.delta"),
        "sched.estimated_starts_us": per_call_us("sched.estimated_starts"),
        "predict.predict_us": per_call_us("predict.predict"),
        "predict.update_us": per_call_us("predict.update"),
        "predict.calls": calls("predict.predict"),
        "predict.estimate_us": per_call_us("predict.estimate"),
        "predict.static_rows_ms": incl("predict.static_rows") / rounds * 1e3,
        "workload.build_ms": incl("workload.build") / rounds * 1e3,
        "workload.digest_ms": incl("workload.digest") / rounds * 1e3,
        "spec.expand_ms": incl("spec.expand") / rounds * 1e3,
        "correct.us": per_call_us("correct"),
        "correct.calls": calls("correct"),
        "sim.self_us_per_event": sim_self / events * 1e6 if events else 0.0,
        "sim.events": events,
        "sim.self_share": sim_self / measured,
        "obs.calls": calls("obs"),
        "obs.self_ms": own("obs") / rounds * 1e3,
        "obs.share": own("obs") / measured,
        "spec.digest_us": per_call_us("spec.digest"),
        "core.cell_token_us": per_call_us("core.cell_token"),
        "core.cache_load_ms": own("core.cache_load") / calls("core.cache_load") * 1e3
        if calls("core.cache_load")
        else 0.0,
        "core.cache_put_us": per_call_us("core.cache_put"),
        "core.cell_overhead_ms": own("core.cell") / cells * 1e3 if cells else 0.0,
        "dist.dispatch_overhead_ms": own("dist.dispatch") / cells * 1e3 if cells else 0.0,
        "serve.self_us": per_call_us("serve.request"),
        "serve.session_us": (
            sum(incl(layer) for layer in SIM_LAYERS) / requests * 1e6 if requests else 0.0
        ),
        "trace.overhead_pct": (trace["traced_cold_s"] - trace["baseline_cold_s"])
        / trace["baseline_cold_s"]
        * 100.0,
    }
    checks = [
        (
            calls("sched.select") == passes,
            f"select_jobs calls {calls('sched.select')} != EngineStats passes {passes}",
        ),
        (
            calls("correct") == corrections,
            f"correct calls {calls('correct')} != total_corrections {corrections}",
        ),
        (
            calls("predict.predict") == fed,
            f"predict calls {calls('predict.predict')} != jobs fed {fed}",
        ),
        (
            len(sessions) == len(tracer.sessions),
            f"{len(tracer.sessions) - len(sessions)} traced session(s) never produced a result",
        ),
        (
            tracer.nesting_violations() == 0,
            f"{tracer.nesting_violations()} span(s) whose children exceed the span",
        ),
    ]
    if workload == "deep-queue-telemetry":
        checks.append(
            (
                calls("sched.select") == trace["telemetry_passes"],
                f"select_jobs calls {calls('sched.select')} != telemetry "
                f"engine.sched.passes {trace['telemetry_passes']}",
            )
        )
    reconciliation = {
        "select_calls": calls("sched.select"),
        "engine_passes": passes,
        "correct_calls": calls("correct"),
        "total_corrections": corrections,
        "predict_calls": calls("predict.predict"),
        "jobs_fed": fed,
        "telemetry_passes": trace.get("telemetry_passes"),
        "sessions": len(tracer.sessions),
        "nesting_violations": tracer.nesting_violations(),
    }
    result["reconciliation"] = reconciliation
    return metrics, checks

