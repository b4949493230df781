"""End-to-end distributed campaigns: workers + coordinator, including
the acceptance scenario -- a campaign split across >= 2 workers merges
byte-identical to a single-host run, and a worker killed mid-shard plus
a coordinator restart completes with no lost or duplicated cells."""

import os
import threading
import time

import pytest

from repro.core import run_cells
from repro.core.campaign import ResultCache
from repro.dist import (
    FsQueue,
    FsQueueBroker,
    LocalBroker,
    merge_caches,
    resolve_backend,
    run_worker,
)
from repro.spec import CellSpec, WorkloadSpec
from repro.workload import stable_seed

#: Heterogeneous little triple set: plain, corrected, SJBF, clairvoyant.
TRIPLES = [
    ("requested", None, "easy"),
    ("requested", None, "easy-sjbf"),
    ("ave2", "incremental", "easy-sjbf"),
    ("clairvoyant", None, "easy"),
]


def make_cells(n_jobs=80, replicas=2, triples=TRIPLES) -> list[CellSpec]:
    """KTH-SP2 cells in replica-major order."""
    seed = stable_seed("KTH-SP2")
    return [
        CellSpec.make(WorkloadSpec.make("KTH-SP2", n_jobs=n_jobs, seed=seed + r), *t)
        for r in range(replicas)
        for t in triples
    ]


CELLS = make_cells()


def start_worker(queue_dir, worker_id, **kwargs):
    kwargs.setdefault("poll_interval", 0.05)
    kwargs.setdefault("max_idle", 60.0)
    results = {}

    def target():
        results["stats"] = run_worker(queue_dir, worker_id=worker_id, **kwargs)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, results


@pytest.fixture(scope="module")
def single_host(tmp_path_factory):
    """Reference run + canonical cache bytes."""
    tmp = tmp_path_factory.mktemp("single")
    cache = str(tmp / "cache.jsonl")
    result = run_cells(CELLS, cache_path=cache, workers=2)
    canonical = str(tmp / "canonical.jsonl")
    merge_caches([cache], out_path=canonical)
    with open(canonical, "rb") as fh:
        return result, fh.read()


class TestResolveBackend:
    def test_local_default(self):
        assert isinstance(resolve_backend("local", workers=2), LocalBroker)

    def test_broker_instance_passthrough(self, tmp_path):
        broker = FsQueueBroker(str(tmp_path / "q"))
        assert resolve_backend(broker) is broker

    def test_fsqueue_requires_queue_dir(self):
        with pytest.raises(ValueError, match="queue_dir"):
            resolve_backend("fsqueue")

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown campaign backend"):
            resolve_backend("carrier-pigeon")


class TestTwoWorkerCampaign:
    def test_matches_single_host_byte_identical(self, tmp_path, single_host):
        reference, reference_bytes = single_host
        qdir = str(tmp_path / "q")
        cache = str(tmp_path / "cache.jsonl")
        threads = [start_worker(qdir, f"w{i}")[0] for i in range(2)]
        broker = FsQueueBroker(
            qdir, cells_per_shard=1, lease_ttl=60.0, poll_interval=0.05, timeout=300.0
        )
        result = run_cells(CELLS, cache_path=cache, backend=broker)
        for thread in threads:
            thread.join(timeout=60)
        assert result.scores == reference.scores

        canonical = str(tmp_path / "canonical.jsonl")
        merge_caches([cache], out_path=canonical)
        with open(canonical, "rb") as fh:
            assert fh.read() == reference_bytes

        queue = FsQueue(qdir)
        assert queue.todo_ids() == set()
        assert queue.claimed_ids() == set()
        assert queue.has_signal("DONE")

    def test_both_workers_participated(self, tmp_path, single_host):
        qdir = str(tmp_path / "q")
        # warm-bundle cells take milliseconds: poll fast enough that an
        # idle worker cannot sleep through the whole queue
        threads_results = [
            start_worker(qdir, f"w{i}", poll_interval=0.002) for i in range(2)
        ]
        broker = FsQueueBroker(
            qdir, cells_per_shard=1, lease_ttl=60.0, poll_interval=0.05, timeout=300.0
        )
        run_cells(CELLS, backend=broker)
        for thread, _ in threads_results:
            thread.join(timeout=60)
        shards = [results["stats"].shards for _, results in threads_results]
        # 8 single-cell shards across 2 workers; both must claim some
        assert sum(shards) == 8
        assert all(count > 0 for count in shards)


class TestGroupedShardCampaign:
    """Trace-pure (grouped) shards through the fsqueue path must merge
    byte-identical to the single-host canonical cache -- batching is an
    execution detail, never a result detail."""

    def test_grouped_shards_merge_identical_to_single_host(
        self, tmp_path, single_host
    ):
        reference, reference_bytes = single_host
        # the campaign's 8 cells form 2 trace groups (2 replica seeds x
        # 4 triples); cells_per_shard=4 lets the planner emit exactly
        # one trace-pure shard per group
        cells = CELLS
        from repro.dist import plan_shards

        planned = plan_shards(cells, cells_per_shard=4)
        assert len(planned) == 2
        assert all(len(shard.trace_keys) == 1 for shard in planned)

        qdir = str(tmp_path / "q")
        cache = str(tmp_path / "cache.jsonl")
        threads = [start_worker(qdir, f"w{i}")[0] for i in range(2)]
        broker = FsQueueBroker(
            qdir, cells_per_shard=4, lease_ttl=60.0, poll_interval=0.05,
            timeout=300.0,
        )
        result = run_cells(CELLS, cache_path=cache, backend=broker)
        for thread in threads:
            thread.join(timeout=60)
        assert result.scores == reference.scores

        canonical = str(tmp_path / "canonical.jsonl")
        merge_caches([cache], out_path=canonical)
        with open(canonical, "rb") as fh:
            assert fh.read() == reference_bytes


class TestCrashRecovery:
    def test_killed_worker_and_coordinator_restart(self, tmp_path, single_host):
        """A worker dies mid-shard; its lease expires; the campaign is
        finished by another worker under a *restarted* coordinator with
        no lost or duplicated cells."""
        reference, reference_bytes = single_host
        qdir = str(tmp_path / "q")
        cache = str(tmp_path / "cache.jsonl")
        queue = FsQueue.create(qdir, lease_ttl=2.0)

        # Plan and enqueue exactly like a coordinator, then "crash" it:
        # claim one shard as a zombie worker that simulates one cell and
        # disappears without completing or renewing.
        cells = CELLS
        from repro.dist import plan_shards

        for shard in plan_shards(cells, cells_per_shard=4, prefix="g1"):
            queue.enqueue(shard.manifest())
        zombie = queue.claim("zombie")
        assert zombie is not None
        from repro.core import run_cell
        from repro.core.campaign import cell_token
        from repro.spec import CellSpec

        zombie_cell = CellSpec.from_obj(zombie.spec["cells"][0])
        value = run_cell(zombie_cell)
        zombie_cache = ResultCache(queue.result_path(zombie.shard_id, zombie.attempt))
        zombie_cache.put(cell_token(zombie_cell), value)
        zombie_cache.close()
        os.utime(zombie.path, (0, 0))  # heartbeat long dead

        # Restarted coordinator + one healthy worker finish the job.
        thread, results = start_worker(qdir, "healthy")
        broker = FsQueueBroker(
            qdir, cells_per_shard=4, lease_ttl=2.0, poll_interval=0.05, timeout=300.0
        )
        result = run_cells(CELLS, cache_path=cache, backend=broker)
        thread.join(timeout=60)

        assert result.scores == reference.scores
        stats = results["stats"]
        assert stats.shards > 0
        # the zombie's proven cell was harvested, not recomputed
        assert stats.cached_cells >= 1

        canonical = str(tmp_path / "canonical.jsonl")
        _, report = merge_caches([cache], out_path=canonical)
        assert report.duplicates == 0  # canonical cache has no dup cells
        with open(canonical, "rb") as fh:
            assert fh.read() == reference_bytes

    def test_attempts_exhausted_raises(self, tmp_path):
        qdir = str(tmp_path / "q")
        queue = FsQueue.create(qdir, lease_ttl=0.1)
        cells = make_cells(n_jobs=40, replicas=1, triples=TRIPLES[:1])
        # a zombie claims the only shard and never works; with
        # max_attempts=1 the expiry fails the shard immediately
        broker = FsQueueBroker(
            qdir, cells_per_shard=64, lease_ttl=0.1, max_attempts=1,
            poll_interval=0.05, timeout=60.0,
        )

        def zombie_claimer():
            while True:
                lease = queue.claim("zombie")
                if lease is not None:
                    os.utime(lease.path, (0, 0))
                    return

        thread = threading.Thread(target=zombie_claimer, daemon=True)
        thread.start()
        with pytest.raises(RuntimeError, match="exhausted"):
            run_cells(cells, backend=broker)
        thread.join(timeout=10)


class TestSignalHygiene:
    def test_worker_ignores_stale_done_marker(self, tmp_path):
        """A DONE left by a finished campaign predates a newly started
        worker: the worker must keep waiting for the next campaign
        (bounded by max_idle), not exit with reason 'done'."""
        qdir = str(tmp_path / "q")
        queue = FsQueue.create(qdir, lease_ttl=60.0)
        generation = int(queue.read_meta().get("generation", 0))
        queue.signal("DONE", {"generation": generation})
        os.utime(os.path.join(qdir, "DONE"), (1.0, 1.0))  # ancient fs stamp
        stats = run_worker(qdir, worker_id="w0", poll_interval=0.05, max_idle=0.3)
        assert stats.reason == "idle"

    def test_worker_honours_fresh_done_marker(self, tmp_path):
        qdir = str(tmp_path / "q")
        queue = FsQueue.create(qdir, lease_ttl=60.0)
        generation = int(queue.read_meta().get("generation", 0))
        queue.signal("DONE", {"generation": generation})
        stats = run_worker(qdir, worker_id="w0", poll_interval=0.05, max_idle=30.0)
        assert stats.reason == "done"

    def test_worker_ignores_generation_less_done_marker(self, tmp_path):
        """Debris DONE written moments before the worker starts sits
        inside the mtime-freshness grace, but carries no generation: it
        cannot prove it concludes the campaign the coordinator is about
        to enqueue, so the worker keeps waiting."""
        qdir = str(tmp_path / "q")
        queue = FsQueue.create(qdir, lease_ttl=60.0)
        queue.signal("DONE")  # fresh mtime, no generation payload
        stats = run_worker(qdir, worker_id="w0", poll_interval=0.05, max_idle=0.3)
        assert stats.reason == "idle"

    def test_worker_ignores_stop_predating_start(self, tmp_path):
        """A STOP left by a failed campaign predates the worker: it is
        the next coordinator's to clear, not a desertion order."""
        qdir = str(tmp_path / "q")
        queue = FsQueue.create(qdir, lease_ttl=60.0)
        queue.signal("STOP")
        os.utime(os.path.join(qdir, "STOP"), (1.0, 1.0))  # ancient fs stamp
        stats = run_worker(qdir, worker_id="w0", poll_interval=0.05, max_idle=0.3)
        assert stats.reason == "idle"

    def test_worker_honours_stop_posted_after_start(self, tmp_path):
        qdir = str(tmp_path / "q")
        queue = FsQueue.create(qdir, lease_ttl=60.0)
        thread, results = start_worker(qdir, "w0")
        time.sleep(0.2)  # let the worker stamp its start and begin polling
        queue.signal("STOP")
        thread.join(timeout=30)
        assert results["stats"].reason == "stop"

    def test_stale_stop_signal_cleared_on_new_campaign(self, tmp_path, single_host):
        """A failed campaign leaves STOP behind; the next campaign on the
        same queue directory must clear it or workers exit instantly and
        the coordinator hangs."""
        reference, _ = single_host
        qdir = str(tmp_path / "q")
        queue = FsQueue.create(qdir, lease_ttl=60.0)
        queue.signal("STOP")
        queue.signal("DONE")
        thread, results = start_worker(qdir, "w0")
        broker = FsQueueBroker(
            qdir, cells_per_shard=2, lease_ttl=60.0, poll_interval=0.05, timeout=300.0
        )
        result = run_cells(CELLS, backend=broker)
        thread.join(timeout=60)
        assert result.scores == reference.scores
        assert results["stats"].shards > 0


class TestWarmRestart:
    def test_finished_campaign_needs_no_workers(self, tmp_path, single_host):
        """With every cell already in the canonical cache the fsqueue
        backend must not enqueue anything or wait for workers."""
        reference, _ = single_host
        qdir = str(tmp_path / "q")
        cache = str(tmp_path / "cache.jsonl")
        threads = [start_worker(qdir, "w0")[0]]
        broker = FsQueueBroker(
            qdir, cells_per_shard=2, lease_ttl=60.0, poll_interval=0.05, timeout=300.0
        )
        first = run_cells(CELLS, cache_path=cache, backend=broker)
        for thread in threads:
            thread.join(timeout=60)
        # no worker running now: must still return instantly from cache
        again = run_cells(CELLS, cache_path=cache, backend=broker)
        assert again.scores == first.scores == reference.scores

    def test_results_on_disk_survive_coordinator_loss(self, tmp_path, single_host):
        """Worker results that never reached the coordinator's canonical
        cache are harvested by the next coordinator before re-planning."""
        reference, _ = single_host
        qdir = str(tmp_path / "q")
        threads = [start_worker(qdir, "w0")[0]]
        broker = FsQueueBroker(
            qdir, cells_per_shard=2, lease_ttl=60.0, poll_interval=0.05, timeout=300.0
        )
        # first coordinator writes NO canonical cache (simulates dying
        # before its cache hit disk -- results live only in the queue)
        first = run_cells(CELLS, cache_path=None, backend=broker)
        for thread in threads:
            thread.join(timeout=60)
        # second coordinator, fresh cache, no workers: everything must
        # come from the harvested shard results
        second = run_cells(CELLS, cache_path=str(tmp_path / "c2.jsonl"), backend=broker)
        assert second.scores == first.scores == reference.scores
