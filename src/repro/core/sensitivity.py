"""Sensitivity analyses: how results respond to workload knobs.

The paper evaluates on fixed production logs; with a synthetic substrate
we can additionally *sweep* the workload parameters and check how robust
each scheduling approach is to, e.g., offered load or user-estimate
quality.  These sweeps back the ablation benchmarks and give downstream
users a way to place their own system on the response curves.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from ..metrics.slowdown import average_bounded_slowdown
from ..spec import Components
from ..workload.archive import ARCHIVE, stable_seed
from ..workload.synthetic import WorkloadModel, synthesize
from .run import run_components_on_trace

__all__ = ["SweepPoint", "sweep_offered_load", "sweep_estimate_quality"]


@dataclass(frozen=True)
class SweepPoint:
    """One point of a sensitivity sweep."""

    knob: str
    value: float
    triple_key: str
    avebsld: float


def _evaluate(
    model: WorkloadModel,
    triples: Sequence[Sequence[Any]],
    knob: str,
    value: float,
    seeds: list[int],
) -> list[SweepPoint]:
    points = []
    for triple in triples:
        scores = []
        for seed in seeds:
            trace = synthesize(model, seed=seed)
            result = run_components_on_trace(trace, *triple)
            scores.append(average_bounded_slowdown(result))
        points.append(
            SweepPoint(
                knob=knob,
                value=value,
                triple_key=Components.make(*triple).label,
                avebsld=float(np.mean(scores)),
            )
        )
    return points


def sweep_offered_load(
    triples: Sequence[Sequence[Any]],
    log: str = "KTH-SP2",
    loads: tuple[float, ...] = (0.7, 0.8, 0.9),
    n_jobs: int = 1500,
    replicas: int = 2,
) -> list[SweepPoint]:
    """AVEbsld of each triple (any registry spelling, e.g. ``("ave2",
    "incremental", "easy-sjbf")``) as the offered load rises.

    Every approach degrades super-linearly with load; the gap between
    prediction-based triples and EASY should *grow* with load, because
    backfilling decisions matter more on a tighter machine.
    """
    base = ARCHIVE[log].model.resized(n_jobs)
    seeds = [stable_seed(log) + r for r in range(replicas)]
    points: list[SweepPoint] = []
    for load in loads:
        model = replace(base, offered_load=load)
        points.extend(_evaluate(model, triples, "offered_load", load, seeds))
    return points


def sweep_estimate_quality(
    triples: Sequence[Sequence[Any]],
    log: str = "KTH-SP2",
    margin_scales: tuple[float, ...] = (1.0, 2.0, 4.0),
    n_jobs: int = 1500,
    replicas: int = 2,
) -> list[SweepPoint]:
    """AVEbsld of each triple as user estimates get worse.

    ``margin_scales`` multiplies the population's over-estimation margin
    range.  Requested-time-driven EASY should degrade as estimates
    worsen, while clairvoyant and learned triples should be insensitive
    (that insensitivity is the paper's motivation in Section 2.2).
    """
    base = ARCHIVE[log].model.resized(n_jobs)
    seeds = [stable_seed(log) + r for r in range(replicas)]
    points: list[SweepPoint] = []
    for scale in margin_scales:
        lo, hi = base.estimate_margin_range
        model = replace(base, estimate_margin_range=(lo * scale, hi * scale))
        points.extend(_evaluate(model, triples, "margin_scale", scale, seeds))
    return points
