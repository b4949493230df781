"""Timing proxies around the public calls into each layer of ``repro``.

The traced run installs these from outside the program: module functions
and class methods are swapped for timed wrappers, and the scheduler,
predictor and corrector a session is built with are wrapped in proxy
objects that time the calls the engine makes into them.  Nothing under
``src/`` changes, and every wrapper only observes: it calls through with
the same arguments and returns the same value.

Spans nest on one stack.  A span's *self* time is its duration minus the
durations of the spans directly inside it.  Two kinds of span are kept:

* *coarse* spans (a round, a campaign, a dispatch, one cell, one served
  request) are recorded whole -- name, start, end, parent, tag -- and
  written out when the run ends;
* *hot* spans (a scheduling pass, a prediction, a telemetry counter
  bump: thousands per cell) are folded into the per-layer tally
  ``{layer: [calls, inclusive s, self s]}`` of the innermost coarse span,
  which keeps memory flat while self times stay exact.
"""

from __future__ import annotations

import json
from time import perf_counter

#: the session entry points a caller drives; ``step`` is internal to
#: ``drain``/``advance_to`` and stays untimed to keep the proxy cheap.
SESSION_CALLS = ("feed", "advance_to", "drain", "query", "complete", "result")

SCHED_CALLS = {
    "select_jobs": "sched.select",
    "estimated_starts": "sched.estimated_starts",
    "on_submit": "sched.delta",
    "on_start": "sched.delta",
    "on_finish": "sched.delta",
    "on_correction": "sched.delta",
    "on_corrections": "sched.delta",
    "on_machine_change": "sched.delta",
}
PREDICT_CALLS = {
    "predict": "predict.predict",
    "estimate": "predict.estimate",
    "on_start": "predict.update",
    "on_finish": "predict.update",
    "observe": "predict.update",
}
CORRECT_CALLS = {"correct": "correct"}
TELEMETRY_CALLS = (
    "inc", "gauge", "gauge_max", "observe", "span", "event",
    "snapshot", "merge_snapshot",
)


class Tracer:
    """In-memory span recorder with exact self times."""

    def __init__(self) -> None:
        #: one frame per open span: [seconds covered by its children]
        self._frames: list[list[float]] = []
        #: coarse spans: [name, start, end, parent index, tag, self s, tally]
        self.spans: list[list] = []
        self._open: list[int] = []
        #: tally of hot spans outside any coarse span
        self.root_tally: dict[str, list[float]] = {}
        self._tally = self.root_tally
        #: spans whose children covered more than the span itself
        self.overfull = 0
        self._patches: list[tuple[object, str, object]] = []
        #: per session built while tracing, its engine counters when its
        #: result was taken: (scheduling passes, corrections, jobs fed, events)
        self.sessions: list[tuple[int, int, int, int] | None] = []

    # -- spans ---------------------------------------------------------------
    def hot(self, layer: str, fn):
        """``fn`` timed as a hot span of ``layer``."""
        frames = self._frames
        clock = perf_counter

        def timed(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                frames.pop()
                if frames:
                    frames[-1][0] += duration
                own = duration - frame[0]
                if own < 0.0:
                    self.overfull += 1
                entry = self._tally.get(layer)
                if entry is None:
                    self._tally[layer] = [1, duration, own]
                else:
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += own

        return timed

    def coarse(self, layer: str, fn, tag_of=None):
        """``fn`` timed as a recorded span; ``tag_of(args)`` names the
        cell or request it serves."""

        def timed(*args, **kwargs):
            with self.span(layer, tag_of(args) if tag_of else None):
                return fn(*args, **kwargs)

        return timed

    def span(self, layer: str, tag: object = None) -> _CoarseSpan:
        return _CoarseSpan(self, layer, tag)

    # -- patching ------------------------------------------------------------
    def patch(self, owner: object, name: str, wrapper) -> None:
        """Replace ``owner.name`` by ``wrapper(original)`` until uninstall."""
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper(original))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def install(self) -> None:
        """Wrap every layer boundary the workloads cross."""
        import repro.core.campaign as campaign
        import repro.core.run as run
        import repro.predict.features as features
        import repro.sched.conservative as conservative
        import repro.sched.easy as easy
        from repro.dist.broker import LocalBroker
        from repro.obs.telemetry import Telemetry
        from repro.spec.cellspec import CellSpec
        from repro.workload.trace import Trace

        hot = self.hot
        self.patch(easy, "order_queue", lambda f: hot("sched.order_queue", f))
        self.patch(conservative, "order_queue", lambda f: hot("sched.order_queue", f))
        self.patch(run, "build_workload", lambda f: hot("workload.build", f))
        self.patch(Trace, "digest", lambda f: hot("workload.digest", f))
        self.patch(
            features, "compute_static_features", lambda f: hot("predict.static_rows", f)
        )
        self.patch(CellSpec, "digest", lambda f: hot("spec.digest", f))
        self.patch(campaign, "cell_token", lambda f: hot("core.cell_token", f))
        self.patch(campaign.ResultCache, "__init__", lambda f: hot("core.cache_load", f))
        self.patch(campaign.ResultCache, "put", lambda f: hot("core.cache_put", f))
        self.patch(
            run,
            "run_cell_report",
            lambda f: self.coarse("core.cell", f, lambda args: args[0].label),
        )
        self.patch(
            LocalBroker,
            "dispatch",
            lambda f: self.coarse("dist.dispatch", f, lambda args: len(args[1])),
        )
        for name in TELEMETRY_CALLS:
            self.patch(Telemetry, name, lambda f: hot("obs", f))
        real_session = run.SimSession
        tracer = self

        def traced_session(processors, scheduler, predictor, corrector=None, **kw):
            session = real_session(processors, scheduler, predictor, corrector, **kw)
            tracer.wrap_session(session)
            return session

        self.patch(run, "SimSession", lambda _f: traced_session)

    def wrap_session(self, session) -> None:
        """Proxy a live session's components and time its entry points."""
        session.scheduler = LayerProxy(session.scheduler, self, SCHED_CALLS)
        session.predictor = LayerProxy(session.predictor, self, PREDICT_CALLS)
        if session.corrector is not None:
            session.corrector = LayerProxy(session.corrector, self, CORRECT_CALLS)
        for name in SESSION_CALLS:
            setattr(session, name, self.hot("sim." + name, getattr(session, name)))
        real_result = session.result
        key = len(self.sessions)
        self.sessions.append(None)

        def result(*args, **kwargs):
            value = real_result(*args, **kwargs)
            self.sessions[key] = (
                session.stats.n_scheduling_passes,
                value.total_corrections(),
                session.n_jobs,
                session.stats.n_events,
            )
            return value

        session.result = result

    # -- reading -------------------------------------------------------------
    def totals(self) -> dict[str, list[float]]:
        """Per-layer [calls, inclusive s, self s] over every span."""
        merged: dict[str, list[float]] = {}

        def add(layer: str, calls: float, incl: float, own: float) -> None:
            entry = merged.setdefault(layer, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += incl
            entry[2] += own

        for layer, (calls, incl, own) in self.root_tally.items():
            add(layer, calls, incl, own)
        for name, start, end, _parent, _tag, own, tally in self.spans:
            add(name, 1, end - start, own)
            for layer, (calls, incl, inner) in tally.items():
                add(layer, calls, incl, inner)
        return merged

    def nesting_violations(self) -> int:
        """Spans whose children's time exceeds their own duration."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _tag, _own, _tally in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        bad = self.overfull
        for index, (_n, start, end, _p, _t, _own, tally) in enumerate(self.spans):
            inside = child_time[index] + sum(entry[2] for entry in tally.values())
            if inside > (end - start) + 1e-9:
                bad += 1
        return bad

    def write(self, path: str) -> None:
        """Dump the coarse spans and their layer tallies as JSON."""
        origin = self.spans[0][1] if self.spans else 0.0
        doc = {
            "fields": ["name", "start_s", "end_s", "parent", "tag", "self_s", "layers"],
            "layers_fields": ["calls", "inclusive_s", "self_s"],
            "root_layers": self.root_tally,
            "spans": [
                [name, round(start - origin, 7), round(end - origin, 7), parent, tag,
                 round(own, 7), {k: [c, round(i, 7), round(o, 7)] for k, (c, i, o) in tally.items()}]
                for name, start, end, parent, tag, own, tally in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


class _CoarseSpan:
    __slots__ = ("tracer", "layer", "tag", "index", "frame", "saved")

    def __init__(self, tracer: Tracer, layer: str, tag: object) -> None:
        self.tracer = tracer
        self.layer = layer
        self.tag = tag

    def __enter__(self) -> _CoarseSpan:
        tracer = self.tracer
        parent = tracer._open[-1] if tracer._open else -1
        self.index = len(tracer.spans)
        tally: dict[str, list[float]] = {}
        tracer.spans.append([self.layer, 0.0, 0.0, parent, self.tag, 0.0, tally])
        tracer._open.append(self.index)
        self.saved = tracer._tally
        tracer._tally = tally
        self.frame = [0.0]
        tracer._frames.append(self.frame)
        tracer.spans[self.index][1] = perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        end = perf_counter()
        tracer = self.tracer
        record = tracer.spans[self.index]
        record[2] = end
        duration = end - record[1]
        tracer._frames.pop()
        if tracer._frames:
            tracer._frames[-1][0] += duration
        record[5] = duration - self.frame[0]
        if record[5] < 0.0:
            tracer.overfull += 1
        tracer._open.pop()
        tracer._tally = self.saved


class LayerProxy:
    """Forwards everything to ``target``; the named methods are timed."""

    def __init__(self, target: object, tracer: Tracer, calls: dict[str, str]) -> None:
        self._target = target
        for method, layer in calls.items():
            bound = getattr(target, method, None)
            if bound is not None:
                setattr(self, method, tracer.hot(layer, bound))

    def __getattr__(self, name: str):
        return getattr(self._target, name)
