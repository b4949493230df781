"""Streaming session API: equivalence with batch, monotonicity, queries,
machine events, external completions, and the batch Simulator wrapper."""

import json

import pytest

from repro.core import EASYPP
from repro.correct import IncrementalCorrector
from repro.predict import (
    ClairvoyantPredictor,
    RecentAveragePredictor,
    RequestedTimePredictor,
)
from repro.sched import make_scheduler
from repro.sim import (
    MachineEvent,
    MonotonicityError,
    SimSession,
    Simulator,
    simulate,
)
from repro.spec import CellSpec, Components, WorkloadSpec
from repro.workload import Trace, get_trace

from tests.helpers import make_job, paper_cells


def schedule_bytes(result) -> bytes:
    """Canonical byte serialisation of a per-job schedule."""
    rows = sorted(
        (r.job_id, r.start_time, r.end_time, r.corrections) for r in result
    )
    return json.dumps(rows).encode("utf-8")


def build(triple: Components) -> tuple:
    """Fresh ``(scheduler, predictor, corrector)`` for one triple."""
    return CellSpec.make(WorkloadSpec.make("KTH-SP2"), *triple).build_components()


def make_session(triple: Components, processors: int) -> SimSession:
    scheduler, predictor, corrector = build(triple)
    return SimSession(processors, scheduler, predictor, corrector)


def stream_trace(session: SimSession, trace: Trace) -> None:
    """Feed a trace the streaming way: one submit-time group at a time,
    advancing the clock to each group's instant before the next feed."""
    group: list = []
    for job in trace:
        if group and job.submit_time != group[0].submit_time:
            session.feed(group)
            session.advance_to(group[0].submit_time)
            group = []
        group.append(job)
    if group:
        session.feed(group)
        session.advance_to(group[0].submit_time)
    session.drain()


@pytest.fixture(scope="module")
def stream_kth() -> Trace:
    return get_trace("KTH-SP2", n_jobs=60)


class TestBatchStreamingEquivalence:
    """A streamed session must be byte-identical to ``Simulator.run()``."""

    # every 16th of the 128-triple campaign matrix, plus the references
    SAMPLE = [
        cell.components
        for cell in paper_cells(logs=["KTH-SP2"], replicas=1)[:128:16]
    ] + [
        Components.make("clairvoyant", None, "easy"),
        Components.make("requested", None, "conservative"),
        Components.make("ave2", "incremental", "conservative"),
    ]

    @pytest.mark.parametrize("triple", SAMPLE, ids=lambda t: t.label)
    def test_streamed_schedule_matches_batch(self, stream_kth, triple):
        scheduler, predictor, corrector = build(triple)
        batch = simulate(stream_kth, scheduler, predictor, corrector)

        session = make_session(triple, stream_kth.processors)
        stream_trace(session, stream_kth)
        assert schedule_bytes(session.result()) == schedule_bytes(batch)

    def test_single_feed_then_drain_matches_batch(self, stream_kth):
        scheduler, predictor, corrector = build(EASYPP)
        batch = simulate(stream_kth, scheduler, predictor, corrector)

        session = make_session(EASYPP, stream_kth.processors)
        assert session.feed(stream_kth) == len(stream_kth)
        session.drain()
        assert schedule_bytes(session.result()) == schedule_bytes(batch)

    def test_step_by_step_matches_batch(self, tiny_trace):
        batch = simulate(
            tiny_trace, make_scheduler("easy"), ClairvoyantPredictor()
        )
        session = SimSession(
            tiny_trace.processors, make_scheduler("easy"), ClairvoyantPredictor()
        )
        session.feed(tiny_trace)
        timestamps = []
        while (t := session.step()) is not None:
            timestamps.append(t)
        assert timestamps == sorted(timestamps)
        assert schedule_bytes(session.result()) == schedule_bytes(batch)


class TestMonotonicity:
    def test_feed_behind_clock_raises(self):
        session = SimSession(4, make_scheduler("easy"), RequestedTimePredictor())
        session.feed(make_job(job_id=1, submit_time=100.0))
        session.advance_to(100.0)
        with pytest.raises(MonotonicityError):
            session.feed(make_job(job_id=2, submit_time=50.0))

    def test_advance_backwards_raises(self):
        session = SimSession(4, make_scheduler("easy"), RequestedTimePredictor())
        session.advance_to(100.0)
        with pytest.raises(MonotonicityError):
            session.advance_to(99.0)

    def test_machine_event_behind_clock_raises(self):
        session = SimSession(4, make_scheduler("easy"), RequestedTimePredictor())
        session.advance_to(10.0)
        with pytest.raises(MonotonicityError):
            session.feed_machine_event(time=5.0, kind="drain", processors=1)

    def test_advance_to_now_is_a_noop(self):
        session = SimSession(4, make_scheduler("easy"), RequestedTimePredictor())
        session.advance_to(10.0)
        assert session.advance_to(10.0) == 0
        assert session.now == 10.0

    def test_clock_advances_even_without_events(self):
        session = SimSession(4, make_scheduler("easy"), RequestedTimePredictor())
        assert session.now == 0.0
        session.advance_to(1000.0)
        assert session.now == 1000.0

    def test_duplicate_job_id_rejected(self):
        session = SimSession(4, make_scheduler("easy"), RequestedTimePredictor())
        session.feed(make_job(job_id=7))
        with pytest.raises(ValueError, match="already fed"):
            session.feed(make_job(job_id=7, submit_time=10.0))


class TestMidStreamFeed:
    def test_feed_after_advance(self):
        """Jobs can arrive while earlier ones run -- the live-session use."""
        session = SimSession(4, make_scheduler("easy"), RequestedTimePredictor())
        session.feed(make_job(job_id=1, submit_time=0.0, runtime=100.0))
        session.advance_to(50.0)
        assert session.machine.is_running(1)
        session.feed(make_job(job_id=2, submit_time=50.0, runtime=100.0))
        session.feed(make_job(job_id=3, submit_time=120.0, runtime=100.0))
        session.drain()
        result = session.result()
        by_id = {r.job_id: r for r in result}
        assert len(result) == 3
        assert by_id[2].start_time == 50.0  # room alongside job 1
        assert by_id[3].start_time == 120.0

    def test_mid_stream_feed_matches_batch(self, stream_kth):
        """Streaming half the trace, draining to the midpoint, then
        feeding the rest still reproduces the batch schedule (every job
        is fed before the clock passes its submit time)."""
        scheduler, predictor, corrector = build(EASYPP)
        batch = simulate(stream_kth, scheduler, predictor, corrector)

        session = make_session(EASYPP, stream_kth.processors)
        jobs = list(stream_kth)
        half = len(jobs) // 2
        session.feed(jobs[:half])
        # advance close to the second half, but not past its first submit
        session.advance_to(jobs[half].submit_time)
        session.feed(jobs[half:])
        session.drain()
        assert schedule_bytes(session.result()) == schedule_bytes(batch)


class TestQueries:
    def test_query_is_side_effect_free(self, stream_kth):
        """Interleaving queries into a streamed run must not change a
        single byte of the schedule."""
        plain = make_session(EASYPP, stream_kth.processors)
        stream_trace(plain, stream_kth)

        probed = make_session(EASYPP, stream_kth.processors)
        probe = make_job(job_id=10**9, submit_time=0.0, runtime=600.0,
                         processors=2, requested_time=1200.0)
        for job in stream_kth:
            probed.feed(job)
            probed.advance_to(job.submit_time)
            probed.query(job_id=job.job_id)  # fed job
            probed.query(probe)  # hypothetical
        probed.drain()
        assert schedule_bytes(probed.result()) == schedule_bytes(plain.result())

    def test_query_states(self):
        session = SimSession(2, make_scheduler("easy"), ClairvoyantPredictor())
        session.feed(
            [
                make_job(job_id=1, submit_time=0.0, runtime=100.0, processors=2,
                         requested_time=100.0),
                make_job(job_id=2, submit_time=0.0, runtime=100.0, processors=2,
                         requested_time=100.0),
            ]
        )
        session.advance_to(0.0)
        running = session.query(job_id=1)
        assert running.state == "running"
        assert running.start_time == 0.0
        waiting = session.query(job_id=2)
        assert waiting.state == "waiting"
        assert waiting.start_time == 100.0  # behind job 1 on a full machine
        assert waiting.wait == 100.0
        session.drain()
        finished = session.query(job_id=2)
        assert finished.state == "finished"
        assert finished.start_time == 100.0

    def test_hypothetical_query(self):
        session = SimSession(2, make_scheduler("easy"), ClairvoyantPredictor())
        session.feed(
            make_job(job_id=1, submit_time=0.0, runtime=100.0, processors=2,
                     requested_time=100.0)
        )
        session.advance_to(0.0)
        ghost = make_job(job_id=99, submit_time=0.0, runtime=60.0, processors=1,
                         requested_time=120.0)
        answer = session.query(ghost)
        assert answer.state == "hypothetical"
        assert answer.start_time == 100.0  # machine is full until then
        assert 99 not in [r.job_id for r in session.result(partial=True)]
        assert session.n_jobs == 1  # the probe was never fed

    def test_query_unsubmitted_job_raises(self):
        session = SimSession(4, make_scheduler("easy"), RequestedTimePredictor())
        session.feed(make_job(job_id=1, submit_time=100.0))
        with pytest.raises(ValueError, match="not yet submitted"):
            session.query(job_id=1)

    def test_query_unknown_job_raises(self):
        session = SimSession(4, make_scheduler("easy"), RequestedTimePredictor())
        with pytest.raises(ValueError, match="never fed"):
            session.query(job_id=42)
        with pytest.raises(ValueError, match="job or a job_id"):
            session.query()

    def test_conservative_clairvoyant_query_is_exact(self):
        """Under conservative backfilling with exact predictions, the
        estimate at submit time IS the start time the batch run produces
        (runtimes >= min_prediction so clamping never bites)."""
        base = get_trace("KTH-SP2", n_jobs=40)
        jobs = [
            job.with_updates(
                runtime=max(job.runtime, 60.0),
                requested_time=max(job.requested_time, 60.0),
            )
            for job in base
        ]
        trace = Trace(jobs, processors=base.processors, name="clamped")
        session = SimSession(
            trace.processors, make_scheduler("conservative"), ClairvoyantPredictor()
        )
        estimates = {}
        for job in trace:
            session.feed(job)
            session.advance_to(job.submit_time)
            estimates[job.job_id] = session.query(job_id=job.job_id).start_time
        session.drain()
        for record in session.result():
            assert estimates[record.job_id] == record.start_time


class TestMachineEvents:
    def test_drain_removes_free_capacity(self):
        session = SimSession(4, make_scheduler("easy"), RequestedTimePredictor())
        session.feed_machine_event(time=0.0, kind="drain", processors=2)
        session.feed(
            make_job(job_id=1, submit_time=0.0, runtime=100.0, processors=3,
                     requested_time=200.0)
        )
        session.advance_to(0.0)
        snap = session.snapshot()
        assert snap.free == 2  # 4 minus the 2 drained; the 3-wide job waits
        assert snap.drained == 2
        assert snap.waiting and snap.waiting[0][0] == 1

    def test_restore_reenables_scheduling(self):
        session = SimSession(4, make_scheduler("easy"), RequestedTimePredictor())
        session.feed_machine_event(time=0.0, kind="drain", processors=2)
        session.feed(
            make_job(job_id=1, submit_time=0.0, runtime=100.0, processors=3,
                     requested_time=200.0)
        )
        session.advance_to(0.0)
        session.feed_machine_event(time=50.0, kind="restore", processors=2)
        session.drain()
        record = session.record(1)
        assert record.start_time == 50.0
        assert session.machine.drained == 0

    def test_drain_wider_than_free_rejected(self):
        session = SimSession(4, make_scheduler("easy"), RequestedTimePredictor())
        session.feed(
            make_job(job_id=1, submit_time=0.0, runtime=100.0, processors=3,
                     requested_time=200.0)
        )
        session.advance_to(0.0)  # job 1 running, 1 processor free
        with pytest.raises(ValueError, match="drain"):
            session.feed_machine_event(time=10.0, kind="drain", processors=2)
            session.advance_to(10.0)

    def test_event_validation(self):
        with pytest.raises(ValueError, match="kind"):
            MachineEvent(time=0.0, kind="explode", processors=1)
        with pytest.raises(ValueError, match="processors"):
            MachineEvent(time=0.0, kind="drain", processors=0)

    def test_conservative_resyncs_on_capacity_change(self):
        """The conservative scheduler's incremental profile must absorb a
        capacity change, not keep planning on the old machine size."""
        session = SimSession(
            4, make_scheduler("conservative"), RequestedTimePredictor()
        )
        session.feed(
            [
                make_job(job_id=1, submit_time=0.0, runtime=100.0, processors=4,
                         requested_time=100.0),
                make_job(job_id=2, submit_time=0.0, runtime=100.0, processors=4,
                         requested_time=100.0),
            ]
        )
        session.advance_to(0.0)
        session.feed_machine_event(time=100.0, kind="drain", processors=2)
        session.drain()
        # job 2 needs 4 processors but 2 are drained: it can never start
        assert not session.record(2).started
        assert session.record(1).finished


class TestExternalCompletion:
    def test_complete_overrides_simulated_runtime(self):
        session = SimSession(4, make_scheduler("easy"), RequestedTimePredictor())
        session.feed(
            make_job(job_id=1, submit_time=0.0, runtime=100.0,
                     requested_time=200.0)
        )
        session.advance_to(0.0)
        record = session.complete(1, time=70.0)
        assert record.finished
        assert record.runtime == 70.0
        assert record.end_time == 70.0
        session.drain()  # the stale simulated FINISH at t=100 is dropped
        assert session.result()[0].end_time == 70.0

    def test_complete_frees_processors_for_waiters(self):
        session = SimSession(4, make_scheduler("easy"), RequestedTimePredictor())
        session.feed(
            [
                make_job(job_id=1, submit_time=0.0, runtime=100.0, processors=4,
                         requested_time=100.0),
                make_job(job_id=2, submit_time=0.0, runtime=50.0, processors=4,
                         requested_time=50.0),
            ]
        )
        session.advance_to(0.0)
        session.complete(1, time=30.0)
        assert session.record(2).start_time == 30.0

    def test_complete_teaches_the_predictor(self):
        predictor = RecentAveragePredictor(2)
        session = SimSession(4, make_scheduler("easy"), predictor,
                             IncrementalCorrector())
        session.feed(
            make_job(job_id=1, submit_time=0.0, runtime=1000.0,
                     requested_time=2000.0, user=5)
        )
        session.advance_to(0.0)
        session.complete(1, time=400.0)
        follow_up = make_job(job_id=2, submit_time=400.0, runtime=1000.0,
                             requested_time=2000.0, user=5)
        probe = session.query(follow_up)
        assert probe.predicted_runtime == 400.0  # learned from the completion

    def test_complete_not_running_raises(self):
        session = SimSession(4, make_scheduler("easy"), RequestedTimePredictor())
        session.feed(make_job(job_id=1, submit_time=10.0, runtime=100.0))
        with pytest.raises(ValueError, match="not running"):
            session.complete(1, time=5.0)

    def test_complete_after_finish_is_idempotent(self):
        session = SimSession(4, make_scheduler("easy"), RequestedTimePredictor())
        session.feed(
            make_job(job_id=1, submit_time=0.0, runtime=100.0,
                     requested_time=200.0)
        )
        session.drain()
        record = session.complete(1, time=150.0)
        assert record.end_time == 100.0  # simulated finish already happened

    def test_observe_completion_updates_predictor_only(self):
        predictor = RecentAveragePredictor(2)
        session = SimSession(4, make_scheduler("easy"), predictor)
        history = make_job(job_id=500, submit_time=0.0, runtime=900.0,
                           requested_time=1800.0, user=9)
        session.observe_completion(history, 900.0)
        assert session.n_jobs == 0  # never entered the schedule
        probe = make_job(job_id=1, submit_time=0.0, runtime=1.0,
                         requested_time=1800.0, user=9)
        assert session.query(probe).predicted_runtime == 900.0


class TestSnapshotAndResult:
    def test_snapshot_fields(self, tiny_trace):
        session = SimSession(
            tiny_trace.processors, make_scheduler("easy"), ClairvoyantPredictor()
        )
        session.feed(tiny_trace)
        session.advance_to(0.0)
        snap = session.snapshot()
        assert snap.now == 0.0
        assert snap.processors == 4
        assert snap.scheduler == "easy"
        assert snap.predictor == "clairvoyant"
        assert snap.corrector == "none"
        assert len(snap.running) + len(snap.waiting) == 3
        assert snap.n_finished == 0
        assert snap.n_pending_events > 0

    def test_partial_result(self, tiny_trace):
        session = SimSession(
            tiny_trace.processors, make_scheduler("easy"), ClairvoyantPredictor()
        )
        session.feed(tiny_trace)
        session.advance_to(90.0)  # job 3 done, jobs 1-2 not yet
        partial = session.result(partial=True)
        assert [r.job_id for r in partial] == [3]
        session.drain()
        assert len(session.result()) == 3


class TestDeprecationShims:
    """The batch :class:`Simulator` wrapper; its event-handler internals
    live on :class:`SimSession` only."""

    def test_unknown_attribute_still_raises_plainly(self, tiny_trace):
        sim = Simulator(tiny_trace, make_scheduler("easy"), ClairvoyantPredictor())
        with pytest.raises(AttributeError):
            sim.definitely_not_an_attribute
        with pytest.raises(AttributeError):
            sim._schedule_pass  # moved to SimSession

    def test_simulator_stats_track_session(self, tiny_trace):
        sim = Simulator(tiny_trace, make_scheduler("easy"), ClairvoyantPredictor())
        result = sim.run()
        assert len(result) == 3
        assert sim.stats.n_events > 0
        assert sim.stats.max_queue_length >= 1
