"""Versioned, canonically-serializable experiment cell specifications.

A :class:`CellSpec` is the complete, declarative description of one
simulation: the workload (log, size, seed, machine override, filters),
the three heuristic components as parameterized
:class:`~repro.spec.components.ComponentSpec` entries, and the engine
knobs (``min_prediction``, ``tau``).  It is the **single source of
truth** threaded through the whole stack: its content digest is the
campaign cache key and the distributed shard cell identity, and its
canonical JSON form is what shard manifests and experiment files carry.

Canonical encoding rules (``SPEC_VERSION`` 1):

* the JSON object is rendered with sorted keys and compact separators;
* component specs are *normalized* -- legacy string shorthands lowered,
  every registered parameter explicit with defaults filled in -- so two
  spellings of one configuration digest identically;
* floats keep Python's shortest-repr JSON form (stable across CPython
  3.1+ and architectures), and numeric params are pinned to their
  declared type so ``2`` vs ``2.0`` cannot split a digest;
* the workload seed is always resolved to a concrete integer
  (:func:`repro.workload.archive.stable_seed` when omitted).

Bump :data:`SPEC_VERSION` whenever the canonical form itself changes
meaning; digests embed it, so old digests can never collide with new
ones.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, NamedTuple

from .components import (
    ComponentSpec,
    corrector_registry,
    filter_registry,
    predictor_registry,
    scheduler_registry,
)

__all__ = ["SPEC_VERSION", "WorkloadSpec", "Components", "CellSpec", "canonical_json"]

#: Version of the canonical encoding itself (not of any component).
SPEC_VERSION = 1

_DEFAULT_MIN_PREDICTION = 60.0
_DEFAULT_TAU = 10.0


def canonical_json(obj: Any) -> str:
    """The one JSON rendering digests are computed over."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class WorkloadSpec:
    """What trace a cell runs on.

    ``processors`` overrides the synthetic machine size (jobs wider than
    the override are an error -- pair it with the ``max-width`` filter to
    shrink a workload onto a smaller machine).  ``filters`` are applied
    in order, before any ``processors`` override.
    """

    log: str
    n_jobs: int = 2000
    seed: int | None = None
    processors: int | None = None
    filters: tuple[ComponentSpec, ...] = ()

    @classmethod
    def make(
        cls,
        log: str,
        n_jobs: int = 2000,
        seed: int | None = None,
        processors: int | None = None,
        filters: tuple | list = (),
    ) -> WorkloadSpec:
        from ..workload.archive import stable_seed

        if int(n_jobs) <= 0:
            raise ValueError(f"n_jobs must be positive, got {n_jobs}")
        if processors is not None and int(processors) <= 0:
            raise ValueError(f"processors override must be positive, got {processors}")
        registry = filter_registry()
        return cls(
            log=str(log),
            n_jobs=int(n_jobs),
            seed=int(seed) if seed is not None else stable_seed(str(log)),
            processors=int(processors) if processors is not None else None,
            filters=tuple(registry.normalize(f) for f in filters),
        )

    def to_obj(self) -> dict:
        return {
            "log": self.log,
            "n_jobs": self.n_jobs,
            "seed": self.seed,
            "processors": self.processors,
            "filters": [f.to_obj() for f in self.filters],
        }

    @classmethod
    def from_obj(cls, obj: Mapping[str, Any]) -> WorkloadSpec:
        extra = set(obj) - {"log", "n_jobs", "seed", "processors", "filters"}
        if extra:
            raise ValueError(f"unknown workload field(s) {sorted(extra)}")
        if "log" not in obj:
            raise ValueError("workload needs a 'log'")
        return cls.make(
            log=obj["log"],
            n_jobs=obj.get("n_jobs", 2000),
            seed=obj.get("seed"),
            processors=obj.get("processors"),
            filters=tuple(obj.get("filters", ()) or ()),
        )


class Components(NamedTuple):
    """A cell's normalized ``(predictor, corrector, scheduler)`` component
    specs -- the paper's heuristic triple.  Construct via :meth:`make` so
    every spelling of one configuration compares (and hashes) equal."""

    predictor: ComponentSpec
    corrector: ComponentSpec | None
    scheduler: ComponentSpec

    @classmethod
    def make(
        cls,
        predictor: ComponentSpec | str | Mapping[str, Any],
        corrector: ComponentSpec | str | Mapping[str, Any] | None,
        scheduler: ComponentSpec | str | Mapping[str, Any],
    ) -> Components:
        """Normalize any registry spelling; ``None``/``"none"`` means no
        corrector."""
        return cls(
            predictor_registry().normalize(predictor),
            None
            if corrector in (None, "none")
            else corrector_registry().normalize(corrector),
            scheduler_registry().normalize(scheduler),
        )

    @property
    def triple_key(self) -> str | None:
        """The legacy ``pred|corr|sched`` key, or ``None`` when any
        component's parameterization has no legacy string spelling."""
        pred = predictor_registry().legacy_name(self.predictor)
        sched = scheduler_registry().legacy_name(self.scheduler)
        if pred is None or sched is None:
            return None
        if self.corrector is None:
            corr: str | None = "none"
        else:
            corr = corrector_registry().legacy_name(self.corrector)
            if corr is None:
                return None
        return f"{pred}|{corr}|{sched}"

    @property
    def label(self) -> str:
        """Human-facing identity: the legacy triple key when one exists,
        otherwise a compact component summary (non-default params only)."""
        key = self.triple_key
        if key is not None:
            return key
        pred = predictor_registry().describe(self.predictor)
        corr = (
            corrector_registry().describe(self.corrector) if self.corrector else "none"
        )
        sched = scheduler_registry().describe(self.scheduler)
        return f"{pred}|{corr}|{sched}"


@dataclass(frozen=True)
class CellSpec:
    """One fully-specified simulation cell.  Construct via :meth:`make`
    (or :meth:`from_obj`) so every field arrives normalized; the raw
    constructor performs no validation."""

    workload: WorkloadSpec
    predictor: ComponentSpec
    corrector: ComponentSpec | None
    scheduler: ComponentSpec
    min_prediction: float = _DEFAULT_MIN_PREDICTION
    tau: float = _DEFAULT_TAU

    # -- construction ---------------------------------------------------------
    @classmethod
    def make(
        cls,
        workload: WorkloadSpec | Mapping[str, Any],
        predictor: ComponentSpec | str | Mapping[str, Any],
        corrector: ComponentSpec | str | Mapping[str, Any] | None,
        scheduler: ComponentSpec | str | Mapping[str, Any],
        min_prediction: float = _DEFAULT_MIN_PREDICTION,
        tau: float = _DEFAULT_TAU,
    ) -> CellSpec:
        if isinstance(workload, WorkloadSpec):
            # re-normalize even ready specs: a raw-constructed WorkloadSpec
            # may carry an unresolved seed or unnormalized filter entries,
            # and an unnormalized filter would silently split the digest
            workload = WorkloadSpec.make(
                log=workload.log,
                n_jobs=workload.n_jobs,
                seed=workload.seed,
                processors=workload.processors,
                filters=workload.filters,
            )
        else:
            workload = WorkloadSpec.from_obj(workload)
        components = Components.make(predictor, corrector, scheduler)
        if float(min_prediction) <= 0:
            raise ValueError("min_prediction must be positive")
        if float(tau) <= 0:
            raise ValueError("tau must be positive")
        return cls(
            workload,
            *components,
            min_prediction=float(min_prediction),
            tau=float(tau),
        )

    @classmethod
    def from_obj(cls, obj: Mapping[str, Any]) -> CellSpec:
        """Inverse of :meth:`to_obj`; tolerant of missing engine block."""
        extra = set(obj) - {
            "spec_version", "workload", "predictor", "corrector", "scheduler", "engine",
        }
        if extra:
            raise ValueError(f"unknown cell field(s) {sorted(extra)}")
        version = obj.get("spec_version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise ValueError(
                f"cell spec has spec_version {version!r} but this code "
                f"speaks {SPEC_VERSION}"
            )
        for required in ("workload", "predictor", "scheduler"):
            if required not in obj:
                raise ValueError(f"cell spec needs {required!r}")
        engine = dict(obj.get("engine", {}))
        unknown_engine = set(engine) - {"min_prediction", "tau"}
        if unknown_engine:
            raise ValueError(f"unknown engine knob(s) {sorted(unknown_engine)}")
        return cls.make(
            workload=obj["workload"],
            predictor=obj["predictor"],
            corrector=obj.get("corrector"),
            scheduler=obj["scheduler"],
            min_prediction=engine.get("min_prediction", _DEFAULT_MIN_PREDICTION),
            tau=engine.get("tau", _DEFAULT_TAU),
        )

    # -- canonical form -------------------------------------------------------
    def to_obj(self) -> dict:
        return {
            "spec_version": SPEC_VERSION,
            "workload": self.workload.to_obj(),
            "predictor": self.predictor.to_obj(),
            "corrector": self.corrector.to_obj() if self.corrector else None,
            "scheduler": self.scheduler.to_obj(),
            "engine": {"min_prediction": self.min_prediction, "tau": self.tau},
        }

    def canonical(self) -> str:
        return canonical_json(self.to_obj())

    def digest(self) -> str:
        """16-hex content digest; the cache-key / shard-identity core.

        Memoised per instance (frozen dataclass, so the canonical form
        cannot change under the cache).
        """
        cached = self.__dict__.get("_digest")
        if cached is None:
            cached = hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()[:16]
            object.__setattr__(self, "_digest", cached)
        return cached

    # -- component access -----------------------------------------------------
    def build_components(self) -> tuple:
        """Fresh ``(scheduler, predictor, corrector)`` instances."""
        scheduler = scheduler_registry().build(self.scheduler)
        predictor = predictor_registry().build(self.predictor)
        corrector = (
            corrector_registry().build(self.corrector) if self.corrector else None
        )
        return scheduler, predictor, corrector

    @property
    def components(self) -> Components:
        """The ``(predictor, corrector, scheduler)`` specs as one key."""
        return Components(self.predictor, self.corrector, self.scheduler)

    @property
    def triple_key(self) -> str | None:
        """See :attr:`Components.triple_key`."""
        return self.components.triple_key

    @property
    def label(self) -> str:
        """See :attr:`Components.label`."""
        return self.components.label
