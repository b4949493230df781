"""The full experimental campaign (paper Section 6.2).

For every workload log, run every heuristic triple (128 of them) plus the
two clairvoyant references -- over ``replicas`` independent synthetic
trace draws per log, since a simulation-sized synthetic subset is one
sample of a stochastic workload (the paper runs each real log once; see
DESIGN.md for the protocol difference).

The campaign runner is built for throughput and restartability:

* simulations fan out through a pluggable :class:`repro.dist.Broker`:
  the default :class:`~repro.dist.broker.LocalBroker` is a single-host
  :class:`~concurrent.futures.ProcessPoolExecutor` whose results are
  consumed as they complete; ``backend="fsqueue"`` shards the cell
  matrix onto a filesystem work queue that any number of ``repro
  worker`` processes -- on any number of hosts -- drain cooperatively
  (see :mod:`repro.dist`);
* every finished cell is appended immediately to an on-disk JSONL result
  cache keyed by its :func:`cell_token` (cache version, engine version,
  trace digest, spec digest), so a killed campaign resumes where it
  stopped and a finished campaign re-runs with **zero** simulations --
  under either backend;
* progress is streamed to a JSONL file (and optionally stdout) that
  :mod:`repro.core.reporting` can render at any time.

The paper's aggregations (Tables 1, 6 and 7) are methods of
:class:`SpecCampaignResult`, keyed by each cell's normalized
:class:`~repro.spec.Components`; :data:`EASY`, :data:`EASYPP` and
:data:`ELOSS` name the paper's reference triples.
"""

from __future__ import annotations

import json
import os
import time
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import IO, TYPE_CHECKING, Any, NamedTuple

import numpy as np

from ..obs.telemetry import NOOP, Telemetry
from ..sim.engine import ENGINE_VERSION
from ..spec import CellSpec, Components, WorkloadSpec, scheduler_registry
from .batch import bundle_cache, group_cells

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dist.broker import Broker

__all__ = [
    "EASY",
    "EASYPP",
    "ELOSS",
    "SpecCampaignResult",
    "LeaderboardRow",
    "run_cells",
    "trace_digest",
    "workload_digest",
    "cell_token",
    "CACHE_VERSION",
    "ResultCache",
    "iter_cache_records",
    "parse_cache_record",
]

#: Bump when the cache record layout changes.  Engine/workload semantic
#: changes are covered separately: the cache token embeds ENGINE_VERSION
#: and the per-trace content digest; component/engine-knob changes are
#: covered by the CellSpec digest.  Version 5: spec-digest cache keys.
CACHE_VERSION = 5

#: Standard EASY: user estimates, no correction, FCFS backfill order.
EASY = Components.make("requested", None, "easy")
#: EASY++ of Tsafrir et al.: AVE2 prediction, incremental correction, SJBF.
EASYPP = Components.make("ave2", "incremental", "easy-sjbf")
#: The paper's cross-validation winner (Eq. 3 loss), incremental, SJBF.
ELOSS = Components.make("ml:sq-lin-large-area", "incremental", "easy-sjbf")
#: Clairvoyant references (Tables 1 and 6): reported, never competing.
_CLAIRVOYANT_FCFS = Components.make("clairvoyant", None, "easy")
_CLAIRVOYANT_SJBF = Components.make("clairvoyant", None, "easy-sjbf")

def trace_digest(log: str, n_jobs: int, seed: int) -> str:
    """Content digest of the synthetic trace a campaign cell runs on.

    Delegates to the per-process :class:`repro.core.batch.BundleCache`:
    the first call materialises the trace -- the **same** bundle a
    subsequent :func:`~repro.core.run.run_spec` on that workload reuses
    -- and hashes its job arrays, so generator changes or reseeding
    invalidate exactly the affected cache cells and nothing else.
    """
    return bundle_cache().digest_of(
        WorkloadSpec.make(log, n_jobs=n_jobs, seed=seed)
    )


def workload_digest(workload: WorkloadSpec) -> str:
    """Trace content digest for any workload spec.

    Backed by the shared bundle cache (digests survive bundle eviction):
    filtered or machine-resized workloads digest the trace they actually
    produce, so filter/override changes invalidate exactly their own
    cells.
    """
    return bundle_cache().digest_of(workload)


def cell_token(spec: CellSpec) -> str:
    """The cache key / queue identity of one cell.

    ``v<CACHE_VERSION>|e<ENGINE_VERSION>|<log>@<trace digest>|spec:<spec digest>``

    The spec digest covers everything declarative (workload shape,
    components + params, engine knobs); the trace digest covers what the
    generator actually produced, so generator changes invalidate cells
    even though specs are unchanged.
    """
    digest = workload_digest(spec.workload)
    return (
        f"v{CACHE_VERSION}|e{ENGINE_VERSION}|{spec.workload.log}@{digest}"
        f"|spec:{spec.digest()}"
    )


def parse_cache_record(line: str) -> tuple[str, float] | None:
    """One JSONL cache line -> ``(token, value)``, or ``None`` if torn.

    The single parser for the cache record format -- the warm-load path
    (:class:`ResultCache`), the distributed merge
    (:mod:`repro.dist.merge`), the coordinator's incremental result
    tailer and the worker's proven-cell harvest all route through it, so
    tolerance rules cannot drift between them.
    """
    try:
        rec = json.loads(line)
        return str(rec["token"]), float(rec["value"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError):
        return None


def iter_cache_records(path: str) -> tuple[list[tuple[int, str, float]], int]:
    """Read one JSONL cell cache: ``([(lineno, token, value), ...], torn)``.

    Unparseable lines (torn writes, including a truncated final line)
    are skipped and counted, never fatal.
    """
    records: list[tuple[int, str, float]] = []
    torn = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parsed = parse_cache_record(line)
            if parsed is None:
                torn += 1
                continue
            records.append((lineno, parsed[0], parsed[1]))
    return records, torn


class ResultCache:
    """Append-only JSONL cache of simulation outcomes.

    One line per finished cell: ``{"token": ..., "value": ...}``.  Every
    :meth:`put` is written through immediately, so an interrupted
    campaign loses at most the cells still in flight; corrupt or partial
    trailing lines (a crash mid-write) are skipped on load.  Rows from
    other cache or engine versions load but never match a current token.
    """

    def __init__(self, path: str | None) -> None:
        self.path = path
        self._data: dict[str, float] = {}
        self._fh: IO[str] | None = None
        if path and os.path.exists(path):
            records, _torn = iter_cache_records(path)
            for _lineno, token, value in records:
                self._data[token] = value

    def __len__(self) -> int:
        return len(self._data)

    def get(self, token: str) -> float | None:
        return self._data.get(token)

    def put(self, token: str, value: float) -> None:
        self._data[token] = value
        if self.path:
            if self._fh is None:
                directory = os.path.dirname(self.path)
                if directory:
                    os.makedirs(directory, exist_ok=True)
                needs_newline = False
                if os.path.exists(self.path) and os.path.getsize(self.path) > 0:
                    with open(self.path, "rb") as fh:
                        fh.seek(-1, os.SEEK_END)
                        needs_newline = fh.read(1) != b"\n"
                self._fh = open(self.path, "a", encoding="utf-8")
                if needs_newline:
                    # a torn tail line (crash mid-write) must not swallow
                    # the first record we append after it
                    self._fh.write("\n")
            self._fh.write(json.dumps({"token": token, "value": value}) + "\n")
            self._fh.flush()

    def flush(self) -> None:
        if self._fh is not None:
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class ProgressLog:
    """JSONL progress stream consumed by :mod:`repro.core.reporting`.

    The one writer behind every progress stream: the campaign
    coordinator uses it bare, distributed workers
    (:mod:`repro.dist.worker`) tag each event with their ``worker`` id
    and append (their stream outlives claim/restart cycles) -- so the
    streams :func:`repro.core.reporting.format_dist_progress` merges can
    never drift in format.
    """

    def __init__(
        self,
        path: str | None,
        echo: bool = False,
        worker: str | None = None,
        append: bool = False,
    ) -> None:
        self.path = path
        self.echo = echo
        self.worker = worker
        self._fh: IO[str] | None = None
        self._t0 = time.monotonic()
        if path:
            directory = os.path.dirname(path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            self._fh = open(path, "a" if append else "w", encoding="utf-8")

    def emit(self, event: dict) -> None:
        if self.worker is not None:
            event = {**event, "worker": self.worker}
        event = {**event, "elapsed": round(time.monotonic() - self._t0, 3)}
        if self._fh is not None:
            self._fh.write(json.dumps(event) + "\n")
            self._fh.flush()
        if self.echo:
            detail = {
                k: v for k, v in event.items() if k not in ("event", "worker")
            }
            print(f"[{self.worker or 'campaign'}] {event.get('event')}: {detail}")

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class LeaderboardRow(NamedTuple):
    """One :meth:`SpecCampaignResult.leaderboard` line."""

    label: str
    mean_score: float
    n_cells: int
    #: mean wall seconds per simulated cell; None when every cell of the
    #: label came from the cache (nothing was timed this run).
    mean_seconds: float | None


@dataclass
class SpecCampaignResult:
    """Scores of an arbitrary cell-spec campaign, keyed by spec digest."""

    cells: list[CellSpec]
    #: spec digest -> AVEbsld.
    scores: dict[str, float] = field(default_factory=dict)
    #: spec digest -> wall seconds, for cells simulated *this* run
    #: (cache hits cost nothing and are absent).
    durations: dict[str, float] = field(default_factory=dict)

    def score(self, spec: CellSpec) -> float:
        return self.scores[spec.digest()]

    def rows(self) -> list[tuple[CellSpec, float]]:
        """(cell, score) pairs in campaign order."""
        return [(cell, self.scores[cell.digest()]) for cell in self.cells]

    def leaderboard(self) -> list[LeaderboardRow]:
        """Mean score per component-label, best first -- the generic
        report for grids that aren't the paper's triple matrix.  Rows
        carry cell counts and mean per-cell wall time (None for labels
        served entirely from the cache)."""
        by_label: dict[str, list[float]] = {}
        times: dict[str, list[float]] = {}
        for cell, score in self.rows():
            by_label.setdefault(cell.label, []).append(score)
            seconds = self.durations.get(cell.digest())
            if seconds is not None:
                times.setdefault(cell.label, []).append(seconds)
        rows = [
            LeaderboardRow(
                label=label,
                mean_score=float(np.mean(values)),
                n_cells=len(values),
                mean_seconds=(
                    float(np.mean(times[label])) if label in times else None
                ),
            )
            for label, values in by_label.items()
        ]
        return sorted(rows, key=lambda row: row.mean_score)

    # -- the paper's aggregations ---------------------------------------------
    @cached_property
    def _by_log(self) -> dict[str, dict[Components, list[float]]]:
        """log -> component triple -> its cells' scores, in cell order.

        Raises ValueError when one triple's cells on a log differ in
        anything but their seed: the paper aggregations pool replicas
        only, never machine sizes, filters or knob values."""
        index: dict[str, dict[Components, list[float]]] = {}
        shapes: dict[tuple[str, Components], CellSpec] = {}
        for cell, score in self.rows():
            log = cell.workload.log
            seedless = replace(cell, workload=replace(cell.workload, seed=None))
            if shapes.setdefault((log, cell.components), seedless) != seedless:
                raise ValueError(
                    f"{cell.label} on {log}: cells differ in more than their "
                    "seed, so the paper aggregations cannot pool them"
                )
            index.setdefault(log, {}).setdefault(cell.components, []).append(score)
        return index

    @property
    def logs(self) -> tuple[str, ...]:
        """The workload logs, in cell order."""
        return tuple(self._by_log)

    def components(self, include_references: bool = True) -> list[Components]:
        """The component triples present, in cell order; without
        ``include_references`` the clairvoyant ones are dropped."""
        return [
            c
            for c in dict.fromkeys(cell.components for cell in self.cells)
            if include_references or c.predictor.name != "clairvoyant"
        ]

    def mean(self, log: str, components: Sequence[Any]) -> float:
        """Mean AVEbsld of one triple (any registry spelling) over its
        cells on ``log`` (its replicas)."""
        return float(np.mean(self._by_log[log][Components.make(*components)]))

    def learning_range(self, log: str, scheduler: Any) -> tuple[float, float]:
        """(best, worst) mean AVEbsld over the ML triples of one backfill
        variant (60 of them in the paper's matrix)."""
        sched = scheduler_registry().normalize(scheduler)
        values = [
            float(np.mean(scores))
            for c, scores in self._by_log[log].items()
            if c.predictor.name == "ml" and c.scheduler == sched
        ]
        return (float(min(values)), float(max(values)))

    def best(self, logs: Sequence[str] | None = None) -> Components:
        """The non-clairvoyant triple minimising the summed mean AVEbsld
        over ``logs`` (default: all).  Only triples present on every one
        of those logs compete; ties go to the first in cell order."""
        logs = tuple(logs or self.logs)
        candidates = [
            c
            for c in self.components(include_references=False)
            if all(c in self._by_log[log] for log in logs)
        ]
        sums = [
            sum(float(np.mean(self._by_log[log][c])) for log in logs)
            for c in candidates
        ]
        return candidates[int(np.argmin(sums))]

    def table1_rows(self) -> list[tuple[str, float, float, float]]:
        """(log, EASY, EASY-Clairvoyant, reduction%) per log."""
        rows = []
        for log in self.logs:
            easy = self.mean(log, EASY)
            clair = self.mean(log, _CLAIRVOYANT_FCFS)
            rows.append((log, easy, clair, (easy - clair) / easy * 100.0))
        return rows

    def table6_rows(
        self,
    ) -> list[tuple[str, float, float, float, float, tuple, tuple]]:
        """Per log: clairvoyant FCFS/SJBF, EASY, EASY++, learning ranges."""
        return [
            (
                log,
                self.mean(log, _CLAIRVOYANT_FCFS),
                self.mean(log, _CLAIRVOYANT_SJBF),
                self.mean(log, EASY),
                self.mean(log, EASYPP),
                self.learning_range(log, "easy"),
                self.learning_range(log, "easy-sjbf"),
            )
            for log in self.logs
        ]


def run_cells(
    cells: Sequence[CellSpec],
    cache_path: str | None = None,
    workers: int | None = None,
    progress: bool = False,
    progress_path: str | None = None,
    backend: Broker | str = "local",
    queue_dir: str | None = None,
    telemetry: Telemetry | None = None,
) -> SpecCampaignResult:
    """Run (or warm-load) an arbitrary list of cell specs.

    The generic campaign entry point behind ``repro campaign --spec``:
    expansion of an experiment file hands its cells here, the cache and
    every dispatch backend key them by spec digest, and the result comes
    back digest-indexed, with the paper tables as methods of the result.

    ``backend`` selects the dispatch strategy: ``"local"`` (process pool
    on this host, honouring ``workers``), ``"fsqueue"`` (coordinate
    external ``repro worker`` processes over the shared ``queue_dir``),
    or any ready :class:`repro.dist.Broker` instance.  ``progress_path``
    streams JSONL progress events; ``progress=True`` additionally prints
    a line every 50 finished simulations.

    ``telemetry`` collects campaign/dispatch counters and, under the
    local broker, the engine/predictor metrics merged back from every
    simulated cell.
    """
    from ..dist.broker import resolve_backend

    cells = list(cells)
    broker = resolve_backend(backend, workers=workers, queue_dir=queue_dir)
    cache = ResultCache(cache_path)
    plog = ProgressLog(progress_path)
    durations: dict[str, float] = {}
    try:
        scores = _execute_cells(
            cells, cache, plog, broker, progress,
            telemetry=telemetry, durations=durations,
        )
    finally:
        # a failing worker must not leak the cache/progress handles; every
        # cell finished before the failure is already flushed to disk
        plog.close()
        cache.close()
    return SpecCampaignResult(cells=cells, scores=scores, durations=durations)


def _execute_cells(
    cells: Sequence[CellSpec],
    cache: ResultCache,
    plog: ProgressLog,
    broker: Broker,
    progress: bool,
    telemetry: Telemetry | None = None,
    durations: dict[str, float] | None = None,
) -> dict[str, float]:
    """The shared execution core: warm-load from the cache, dispatch the
    remainder through the broker, return spec-digest -> score."""
    tele = telemetry if telemetry is not None else NOOP
    tokens = {spec.digest(): cell_token(spec) for spec in cells}
    scores: dict[str, float] = {}
    pending: list[CellSpec] = []
    for spec in cells:
        value = cache.get(tokens[spec.digest()])
        if value is None:
            pending.append(spec)
        else:
            scores[spec.digest()] = value
    if tele.enabled:
        tele.inc("campaign.cells.total", len(cells))
        tele.inc("campaign.cells.cached", len(cells) - len(pending))
    plog.emit(
        {
            "event": "start",
            "total": len(cells),
            "cached": len(cells) - len(pending),
            "pending": len(pending),
            "logs": list(dict.fromkeys(spec.workload.log for spec in cells)),
        }
    )
    if pending:
        # group-major dispatch order: same-trace cells land adjacently so
        # every backend (serial loop, pool batches, fsqueue shards) shares
        # one materialised trace bundle per group instead of paying the
        # per-cell fixed cost
        pending = [spec for _key, group in group_cells(pending) for spec in group]
        done = 0

        def record(
            spec: CellSpec, score: float, seconds: float | None = None
        ) -> None:
            nonlocal done
            done += 1
            scores[spec.digest()] = score
            cache.put(tokens[spec.digest()], score)
            if seconds is not None and durations is not None:
                durations[spec.digest()] = seconds
            event = {
                "event": "cell",
                "log": spec.workload.log,
                "triple": spec.label,
                "seed": spec.workload.seed,
                "avebsld": score,
                "done": done,
                "total": len(pending),
            }
            if seconds is not None:
                event["seconds"] = round(seconds, 4)
            plog.emit(event)
            if progress and done % 50 == 0:
                print(f"  campaign: {done}/{len(pending)} simulations done")

        with tele.span("campaign.dispatch", pending=len(pending)):
            broker.dispatch(pending, record, emit=plog.emit, telemetry=telemetry)
        cache.flush()
    missing = [spec for spec in cells if spec.digest() not in scores]
    if missing:
        raise RuntimeError(
            f"campaign cache missing {tokens[missing[0].digest()]}"
        )
    plog.emit({"event": "end", "total": len(cells)})
    return scores
