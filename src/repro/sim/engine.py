"""The discrete-event scheduling simulator (batch entry points).

Drives a trace through a scheduler with a predictor and a correction
mechanism -- the "heuristic triple" of the paper.  The engine is the only
component that knows actual runtimes; schedulers see predictions, and
predictors learn only from completions.

The event loop itself lives in :class:`repro.sim.session.SimSession`,
the incremental streaming API; :class:`Simulator` and :func:`simulate`
are thin batch shims that feed a whole trace into a fresh session and
drain it.  The loop semantics (matching pyss and the paper's on-line
setting) are unchanged -- schedules are byte-identical to the pre-session
engine, so ``ENGINE_VERSION`` did not move:

* all events at one timestamp are processed before any scheduling
  decision, in FINISH < EXPIRE < SUBMIT order;
* one scheduling pass runs after each batch of events;
* a running job whose *predicted* end passes without completion triggers
  the correction mechanism, bumping its prediction version; stale expiry
  events are dropped;
* corrections landing on the same timestamp (an EXPIRE *storm*, common
  with aggressive predictors) are applied to the corrector per job but
  reported to the scheduler as **one batch** per timestamp
  (:meth:`repro.sched.base.Scheduler.on_corrections`), so incremental
  availability structures re-sort/rebuild once instead of per job;
* predictions are clamped to ``[min_prediction, requested_time]``; jobs
  reaching their requested time finish there (SWF semantics guarantee
  ``runtime <= requested_time``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..workload.trace import Trace
from .results import SimulationResult
from .session import SimSession

if TYPE_CHECKING:  # imported for type hints only; avoids an import cycle
    from ..correct.base import Corrector
    from ..obs.telemetry import Telemetry
    from ..predict.base import Predictor
    from ..sched.base import Scheduler

__all__ = ["Simulator", "EngineStats", "simulate", "ENGINE_VERSION"]

#: Bumped whenever engine or scheduler semantics could change simulation
#: outcomes; campaign cache keys embed it so stale results never survive
#: an engine change.  Version 2: incremental profile-based scheduling
#: (the session refactor kept schedules byte-identical, so no bump).
ENGINE_VERSION = 2


@dataclass
class EngineStats:
    """Run-level counters (not per-job)."""

    n_events: int = 0
    n_scheduling_passes: int = 0
    n_corrections: int = 0
    max_queue_length: int = 0


class Simulator:
    """One simulation = trace x scheduler x predictor x corrector.

    Batch compatibility wrapper: :meth:`run` feeds the whole trace into a
    fresh :class:`~repro.sim.session.SimSession` and drains it.  Code
    that needs incremental feeding, live queries or machine events should
    hold a session directly.
    """

    def __init__(
        self,
        trace: Trace,
        scheduler: Scheduler,
        predictor: Predictor,
        corrector: Corrector | None = None,
        min_prediction: float = 60.0,
        telemetry: Telemetry | None = None,
    ) -> None:
        if min_prediction <= 0:
            raise ValueError("min_prediction must be positive")
        self.trace = trace
        self.scheduler = scheduler
        self.predictor = predictor
        self.corrector = corrector
        self.min_prediction = float(min_prediction)
        self.telemetry = telemetry
        self.stats = EngineStats()

    def session(self) -> SimSession:
        """A fresh session wired with this simulator's components."""
        session = SimSession(
            self.trace.processors,
            self.scheduler,
            self.predictor,
            self.corrector,
            min_prediction=self.min_prediction,
            trace_name=self.trace.name,
            telemetry=self.telemetry,
        )
        self.stats = session.stats
        return session

    def run(self) -> SimulationResult:
        """Execute the full trace; returns when every job has completed."""
        session = self.session()
        session.feed(self.trace)
        session.drain()
        return session.result()


def simulate(
    trace: Trace,
    scheduler: Scheduler,
    predictor: Predictor,
    corrector: Corrector | None = None,
    min_prediction: float = 60.0,
    telemetry: Telemetry | None = None,
) -> SimulationResult:
    """Convenience wrapper: one batch run over a session."""
    return Simulator(
        trace,
        scheduler,
        predictor,
        corrector=corrector,
        min_prediction=min_prediction,
        telemetry=telemetry,
    ).run()
