"""Dispatch backends for the campaign runner.

``run_cells`` plans which cells need simulating and records results;
*how* the pending cells get simulated is a :class:`Broker`:

* :class:`LocalBroker` -- the classic single-host
  :class:`~concurrent.futures.ProcessPoolExecutor` fan-out, refactored
  behind the interface (and still the default);
* :class:`FsQueueBroker` -- the distributed coordinator: shard the
  cells, enqueue them on a :class:`~repro.dist.fsqueue.FsQueue`, let any
  number of ``repro worker`` processes (local or remote hosts sharing
  the directory) drain them, re-queue shards whose leases expire
  (crashed worker == capped automatic retry), harvest per-shard result
  caches incrementally, and finally verify the merged whole.

Both brokers deliver results through the same ``on_result`` callback, so
the caller's caching/progress/resume machinery is backend-agnostic, and
a campaign interrupted under one backend resumes under the other.
"""

from __future__ import annotations

import os
import time
from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor, as_completed

from ..core.batch import DEFAULT_MAX_BATCH, plan_batches, run_batch_report
from ..core.campaign import parse_cache_record
from ..obs import get_logger
from ..obs.telemetry import NOOP, Telemetry
from ..spec import CellSpec
from .fsqueue import DEFAULT_LEASE_TTL, DEFAULT_MAX_ATTEMPTS, FsQueue
from .merge import merge_caches
from .shards import DEFAULT_CELLS_PER_SHARD, load_bench_cost_model, plan_shards

__all__ = ["Broker", "LocalBroker", "FsQueueBroker", "resolve_backend"]

#: on_result(cell_spec, avebsld, wall_seconds | None)
ResultCallback = Callable[..., None]
#: emit(progress_event_dict)
EmitCallback = Callable[[dict], None]

_log = get_logger("dist.coordinator")


class Broker(ABC):
    """Strategy for simulating a batch of campaign cell specs."""

    @abstractmethod
    def dispatch(
        self,
        cells: Sequence[CellSpec],
        on_result: ResultCallback,
        emit: EmitCallback | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        """Simulate every cell, calling ``on_result`` as each finishes.

        ``on_result(spec, score)`` or ``on_result(spec, score, seconds)``
        when the broker measured the cell's wall time.  Must deliver each
        cell exactly once (dedup is the broker's job) and raise if any
        cell cannot be produced.  ``telemetry`` (optional) receives the
        broker's own dispatch counters; brokers that run cells in this
        process tree also fold per-cell engine metrics into it.
        """

    def map_tasks(self, fn: Callable, payloads: Sequence) -> list:
        """Apply a picklable ``fn`` to each payload, preserving order.

        The generic fan-out companion to :meth:`dispatch` for work that
        is not a campaign cell -- today the training rollouts of
        :mod:`repro.learn.rollout`, whose results (gradient vectors) do
        not fit the cell-score result channel.  ``fn`` must be a
        module-level function and each payload plain data, so any
        executor can ship them.  The base implementation runs serially;
        pool-backed brokers override it.  Brokers whose transport cannot
        carry arbitrary payloads (the filesystem queue speaks shard
        manifests only) inherit the serial fallback rather than failing.
        """
        return [fn(payload) for payload in payloads]


class LocalBroker(Broker):
    """Single-host process-pool fan-out (the classic campaign path).

    Cells dispatch in trace-pure batches (:func:`repro.core.batch
    .plan_batches`): one pool submission carries up to ``max_batch``
    same-trace cells, so the child process materialises the shared trace
    bundle once per batch instead of once per cell.  ``max_batch=1``
    restores exact per-cell submission.
    """

    def __init__(
        self, workers: int | None = None, max_batch: int | None = None
    ) -> None:
        self.workers = workers
        self.max_batch = DEFAULT_MAX_BATCH if max_batch is None else max_batch

    def dispatch(
        self,
        cells: Sequence[CellSpec],
        on_result: ResultCallback,
        emit: EmitCallback | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        tele = telemetry if telemetry is not None else NOOP
        with_tel = tele.enabled
        # bench-seeded estimates (the shard planner's model) let the
        # telemetry compare each cell's actual seconds to its estimate
        cost_model = load_bench_cost_model() if with_tel else None

        def deliver(spec: CellSpec, score: float, report: dict) -> None:
            seconds = report.get("seconds")
            if with_tel:
                tele.inc("campaign.cells.simulated")
                if seconds is not None:
                    tele.observe("campaign.cell.seconds", seconds)
                est = cost_model.cell_cost(spec)
                tele.observe("campaign.cell.est_seconds", est)
                snap = report.get("telemetry")
                if snap:
                    tele.merge_snapshot(snap)
                tele.event(
                    "cell",
                    log=spec.workload.log,
                    label=spec.label,
                    seed=spec.workload.seed,
                    seconds=None if seconds is None else round(seconds, 6),
                    est_seconds=round(est, 4),
                    avebsld=score,
                )
            on_result(spec, score, seconds)

        jobs = list(cells)
        workers = self.workers
        if workers is None:
            cpu = os.cpu_count() or 1
            workers = max(1, min(cpu - 1, 16))
        # never batch so coarsely that the pool has fewer batches than
        # workers: a tiny campaign still spreads over every worker
        cap = max(1, min(self.max_batch, -(-len(jobs) // max(1, workers))))
        batches = plan_batches(jobs, max_batch=cap)
        _log.info(
            "local dispatch: %d cell(s) in %d trace-pure batch(es) over "
            "%d worker(s)",
            len(jobs), len(batches), workers,
        )
        if with_tel:
            tele.inc("campaign.batches", len(batches))
        if workers <= 1 or len(jobs) <= 2:
            for batch in batches:
                for spec, score, report in run_batch_report(
                    batch, with_telemetry=with_tel
                ):
                    deliver(spec, score, report)
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(run_batch_report, batch, with_telemetry=with_tel)
                    for batch in batches
                ]
                for future in as_completed(futures):
                    for spec, score, report in future.result():
                        deliver(spec, score, report)

    def map_tasks(self, fn: Callable, payloads: Sequence) -> list:
        """Order-preserving process-pool map (serial for tiny batches)."""
        payloads = list(payloads)
        workers = self.workers
        if workers is None:
            cpu = os.cpu_count() or 1
            workers = max(1, min(cpu - 1, 16))
        workers = min(workers, len(payloads)) if payloads else 1
        if workers <= 1 or len(payloads) <= 2:
            return [fn(payload) for payload in payloads]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, payloads))


class FsQueueBroker(Broker):
    """Fault-tolerant coordinator over a filesystem work queue.

    The coordinator owns planning and bookkeeping only -- it never
    simulates.  Crash-restart safe: a restarted coordinator first
    harvests every result already on disk, re-plans only the remainder
    under a fresh generation prefix, and clears stale ``todo/`` entries
    (in-flight claims of presumed-dead workers are left to the lease
    machinery; their duplicate results dedup by token).
    """

    def __init__(
        self,
        queue_dir: str,
        n_shards: int | None = None,
        cells_per_shard: int = DEFAULT_CELLS_PER_SHARD,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        poll_interval: float = 0.5,
        timeout: float | None = None,
        bench_path: str | None = None,
    ) -> None:
        if not queue_dir:
            raise ValueError("FsQueueBroker needs a queue directory")
        self.queue_dir = queue_dir
        self.n_shards = n_shards
        self.cells_per_shard = cells_per_shard
        self.lease_ttl = lease_ttl
        self.max_attempts = max_attempts
        self.poll_interval = poll_interval
        self.timeout = timeout
        self.bench_path = bench_path

    # -- the coordinator loop -------------------------------------------------
    def dispatch(
        self,
        cells: Sequence[CellSpec],
        on_result: ResultCallback,
        emit: EmitCallback | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        from ..core.campaign import cell_token

        tele = telemetry if telemetry is not None else NOOP
        emit = emit or (lambda event: None)
        queue = FsQueue.create(self.queue_dir, lease_ttl=self.lease_ttl)
        queue.check_versions()
        # a fresh campaign reopens the queue: a stale DONE would make
        # workers exit instantly, a stale STOP (left by a previous
        # failed campaign) would poison the directory forever
        queue.clear_signal("DONE")
        queue.clear_signal("STOP")

        token_map = {cell_token(spec): spec for spec in cells}
        seen: set[str] = set()
        tailer = _ResultTailer(queue)

        def harvest() -> int:
            fresh = 0
            for token, value in tailer.poll():
                if token in seen or token not in token_map:
                    continue
                seen.add(token)
                on_result(token_map[token], value)
                fresh += 1
            if fresh:
                tele.inc("dist.cells.harvested", fresh)
            return fresh

        # A previous coordinator may have died with results on disk that
        # never reached the canonical cache: harvest before planning.
        harvest()
        remaining = [
            token_map[token] for token in token_map if token not in seen
        ]
        if not remaining:
            queue.signal(
                "DONE",
                {"generation": int(queue.read_meta().get("generation", 0))},
            )
            emit({"event": "dist_done", "shards": 0, "cells": 0})
            return

        stale = queue.clear_todo()
        generation = queue.next_generation()
        shards = plan_shards(
            remaining,
            n_shards=self.n_shards,
            cells_per_shard=self.cells_per_shard,
            bench_path=self.bench_path,
            prefix=f"g{generation}",
        )
        for shard in shards:
            queue.enqueue(shard.manifest())
        own = {shard.shard_id for shard in shards}
        tele.inc("dist.shards.enqueued", len(shards))
        tele.inc("dist.cells.enqueued", len(remaining))
        tele.event(
            "enqueue",
            generation=generation,
            shards=len(shards),
            cells=len(remaining),
        )
        _log.info(
            "enqueued %d shard(s) / %d cell(s) on %s (generation %d)",
            len(shards), len(remaining), queue.root, generation,
        )
        emit(
            {
                "event": "enqueue",
                "generation": generation,
                "shards": len(shards),
                "cells": len(remaining),
                "stale_dropped": stale,
                "est_costs": [round(s.est_cost, 2) for s in shards],
            }
        )

        started = time.monotonic()
        while True:
            harvest()
            for shard_id, attempt, disposition in queue.requeue_expired(
                lease_ttl=self.lease_ttl, max_attempts=self.max_attempts
            ):
                requeued = disposition == "requeued"
                tele.inc("dist.requeues" if requeued else "dist.shards.failed")
                _log.warning(
                    "shard %s (attempt %d) lease expired: %s",
                    shard_id, attempt, disposition,
                )
                emit(
                    {
                        "event": "requeue" if requeued else "shard_failed",
                        "shard": shard_id,
                        "attempt": attempt,
                    }
                )
            done = queue.done_ids()
            failed = queue.failed_ids() & own
            if failed:
                queue.signal("STOP")
                raise RuntimeError(
                    f"{len(failed)} shard(s) exhausted their "
                    f"{self.max_attempts} attempts: {sorted(failed)}; "
                    f"see {queue.root}/progress for worker logs"
                )
            if own <= done:
                break
            if (
                self.timeout is not None
                and time.monotonic() - started > self.timeout
            ):
                outstanding = sorted(own - done)
                raise RuntimeError(
                    f"distributed campaign timed out after {self.timeout:.0f}s "
                    f"with {len(outstanding)} shard(s) outstanding: "
                    f"{outstanding[:5]}...  are any `repro worker "
                    f"--queue {queue.root}` processes running?"
                )
            time.sleep(self.poll_interval)

        # Authoritative merge: dedups across attempts, detects value
        # conflicts and version skew loudly, and catches any result the
        # incremental tailer missed.
        merged, report = merge_caches(queue.result_paths(), check_versions=True)
        for token, value in merged.items():
            if token in token_map and token not in seen:
                seen.add(token)
                on_result(token_map[token], value)
        missing = [token for token in token_map if token not in seen]
        if missing:
            raise RuntimeError(
                f"all shards report done but {len(missing)} cell(s) never "
                f"surfaced in {queue.root}/results -- first: {missing[0]!r}"
            )
        queue.signal("DONE", {"generation": generation})
        tele.inc("dist.campaigns.completed")
        tele.event(
            "dist_done",
            shards=len(shards),
            cells=len(remaining),
            merge=report.describe(),
        )
        _log.info(
            "distributed campaign done: %d shard(s), %d cell(s); %s",
            len(shards), len(remaining), report.describe(),
        )
        emit(
            {
                "event": "dist_done",
                "shards": len(shards),
                "cells": len(remaining),
                "merge": report.describe(),
            }
        )


class _ResultTailer:
    """Incrementally read appended lines from every shard result file.

    Remembers a byte offset per file and consumes only complete lines,
    so a worker's in-flight append (no trailing newline yet) is left for
    the next poll instead of being mis-parsed.
    """

    def __init__(self, queue: FsQueue) -> None:
        self.queue = queue
        self._offsets: dict[str, int] = {}

    def poll(self) -> list[tuple[str, float]]:
        out: list[tuple[str, float]] = []
        for path in self.queue.result_paths():
            offset = self._offsets.get(path, 0)
            try:
                size = os.path.getsize(path)
            except OSError:
                continue
            if size <= offset:
                continue
            try:
                with open(path, "rb") as fh:
                    fh.seek(offset)
                    chunk = fh.read(size - offset)
            except OSError:
                continue
            consumed = chunk.rfind(b"\n") + 1
            if consumed == 0:
                continue  # no complete line yet
            self._offsets[path] = offset + consumed
            for line in chunk[:consumed].decode("utf-8", "replace").splitlines():
                line = line.strip()
                if not line:
                    continue
                parsed = parse_cache_record(line)
                if parsed is None:
                    continue  # torn line; the final merge re-validates
                out.append(parsed)
        return out


def resolve_backend(
    backend: Broker | str,
    workers: int | None = None,
    queue_dir: str | None = None,
    **fsqueue_kwargs,
) -> Broker:
    """Turn ``run_cells``'s backend argument into a broker instance.

    Accepts a ready broker, ``"local"`` (uses ``workers``) or
    ``"fsqueue"`` (needs ``queue_dir``; extra kwargs reach
    :class:`FsQueueBroker`).
    """
    if isinstance(backend, Broker):
        return backend
    if backend == "local":
        return LocalBroker(workers=workers)
    if backend == "fsqueue":
        if not queue_dir:
            raise ValueError("backend 'fsqueue' requires queue_dir (--queue)")
        return FsQueueBroker(queue_dir, **fsqueue_kwargs)
    raise ValueError(f"unknown campaign backend {backend!r} (local|fsqueue)")
