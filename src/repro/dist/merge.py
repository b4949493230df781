"""Merging per-shard JSONL result caches into one canonical cache.

Every worker attempt appends ``{"token": ..., "value": ...}`` lines to
its own shard cache (the same record format as the single-host
:class:`repro.core.campaign.ResultCache`).  Merging is where the
distributed campaign's correctness guarantees concentrate:

* **dedup** -- the same cell may legitimately appear in several files
  (a crashed attempt's partial file plus its retry, or a zombie worker
  racing its re-queued replacement).  Simulations are deterministic, so
  duplicates must carry identical values; they collapse to one line.
* **conflict detection** -- a duplicate token with a *different* value
  means non-deterministic or version-skewed workers; the merge refuses
  loudly (:class:`CellConflictError`) rather than pick a winner.
* **version fencing** -- cache tokens embed ``CACHE_VERSION`` and
  ``ENGINE_VERSION`` (``v5|e2|...``).  Records written by other code
  versions raise :class:`MergeVersionError`; results from semantically
  different engines never co-mingle.  That includes pre-spec (v4,
  tuple-keyed) rows, which are no longer upgraded.
* **torn-tail tolerance** -- a crash mid-append leaves a truncated last
  line; such lines are counted and skipped, never fatal.

The merged output is written atomically, sorted by token -- a canonical
form that is byte-identical however the cells were sharded, raced or
retried, which is exactly what the distributed smoke test asserts
against a single-host run.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from ..core.campaign import iter_cache_records
from ..obs import get_logger

_log = get_logger("dist.merge")

__all__ = [
    "MergeReport",
    "MergeVersionError",
    "CellConflictError",
    "iter_cache_records",
    "merge_caches",
    "write_canonical",
]


class MergeVersionError(RuntimeError):
    """A shard cache record was produced by incompatible code."""


class CellConflictError(RuntimeError):
    """Two shard caches disagree on the value of the same cell."""


@dataclass
class MergeReport:
    """What a merge saw, for logging and assertions."""

    files: int = 0
    records: int = 0
    unique: int = 0
    duplicates: int = 0
    torn_lines: int = 0
    per_file: dict[str, int] = field(default_factory=dict)

    def describe(self) -> str:
        return (
            f"merged {self.files} cache file(s): {self.unique} unique cells "
            f"from {self.records} records ({self.duplicates} duplicate(s), "
            f"{self.torn_lines} torn line(s) skipped)"
        )


def _expand_inputs(inputs: Iterable[str]) -> list[str]:
    """Files stay files; directories expand to their sorted ``*.jsonl``.

    An explicitly named input that does not exist is an error (a typo'd
    path must not silently merge to an empty cache); files discovered by
    directory expansion are only racily guaranteed, so downstream reads
    tolerate their disappearance.
    """
    paths: list[str] = []
    for item in inputs:
        if os.path.isdir(item):
            paths.extend(
                os.path.join(item, name)
                for name in sorted(os.listdir(item))
                if name.endswith(".jsonl")
            )
        elif os.path.exists(item):
            paths.append(item)
        else:
            raise FileNotFoundError(f"merge input {item!r} does not exist")
    return paths


def _check_token_version(
    token: str, path: str, lineno: int, prefix: str | None
) -> None:
    if prefix is not None and not token.startswith(prefix):
        raise MergeVersionError(
            f"{path}:{lineno}: cell token {token!r} does not match this "
            f"code's version prefix {prefix!r}; it was produced by a "
            f"different CACHE_VERSION/ENGINE_VERSION and must not be "
            f"merged (re-run the cells or merge with matching code)"
        )


def merge_caches(
    inputs: Sequence[str],
    out_path: str | None = None,
    check_versions: bool = True,
) -> tuple[dict[str, float], MergeReport]:
    """Merge shard caches; returns ``(cells, report)``.

    ``inputs`` are cache files and/or directories of ``*.jsonl`` shard
    caches.  With ``check_versions`` every token must carry the running
    code's ``v<CACHE_VERSION>|e<ENGINE_VERSION>|`` prefix.
    ``out_path`` (optional) receives the canonical sorted merge, written
    atomically.
    """
    prefix = _version_prefix() if check_versions else None
    cells: dict[str, float] = {}
    first_seen: dict[str, str] = {}
    report = MergeReport()
    for path in _expand_inputs(inputs):
        if not os.path.exists(path):
            continue
        report.files += 1
        records, torn = iter_cache_records(path)
        for lineno, token, value in records:
            _check_token_version(token, path, lineno, prefix)
            if token in cells:
                if cells[token] != value:
                    raise CellConflictError(
                        f"cell {token!r} has conflicting values: "
                        f"{cells[token]!r} (from {first_seen[token]}) vs "
                        f"{value!r} (from {path}:{lineno}); shard caches "
                        f"must come from deterministic same-version runs"
                    )
                report.duplicates += 1
            else:
                cells[token] = value
                first_seen[token] = path
        if torn:
            _log.warning("skipped %d torn line(s) in %s", torn, path)
        report.per_file[path] = len(records)
        report.records += len(records)
        report.torn_lines += torn
    report.unique = len(cells)
    _log.info("%s", report.describe())
    if out_path is not None:
        write_canonical(cells, out_path)
    return cells, report


def write_canonical(cells: dict[str, float], out_path: str) -> None:
    """Write cells sorted by token, atomically (tmp file + rename).

    The byte layout matches :class:`repro.core.campaign.ResultCache`
    appends, so a canonical merge is itself a valid warm cache.
    """
    directory = os.path.dirname(out_path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    tmp = f"{out_path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        for token in sorted(cells):
            fh.write(json.dumps({"token": token, "value": cells[token]}) + "\n")
    os.replace(tmp, out_path)


def _version_prefix() -> str:
    from ..core.campaign import CACHE_VERSION
    from ..sim.engine import ENGINE_VERSION

    return f"v{CACHE_VERSION}|e{ENGINE_VERSION}|"
