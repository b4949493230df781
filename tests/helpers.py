"""Shared test factories, importable as ``tests.helpers``.

Kept outside ``conftest.py`` so test modules can import them with a
normal absolute import (``from tests.helpers import make_job``) instead
of the relative ``from ..conftest import ...`` that pytest cannot
resolve for rootdir-anchored test packages.
"""

from __future__ import annotations

import os

from repro.sim.results import JobRecord
from repro.spec import (
    CellSpec,
    WorkloadSpec,
    expand_spec_obj,
    load_spec_file,
    override_campaign,
)
from repro.workload import Job

__all__ = ["PAPER_SPEC", "make_job", "make_record", "paper_cells", "triple_cell"]

PAPER_SPEC = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "experiments", "paper.toml"
)


def triple_cell(
    log: str, triple_key: str, n_jobs: int = 2000, seed: int | None = None, **engine
) -> CellSpec:
    """The cell of a ``pred|corr|sched`` key on a plain synthetic workload
    (``engine`` takes ``min_prediction`` / ``tau``)."""
    workload = WorkloadSpec.make(log, n_jobs=n_jobs, seed=seed)
    return CellSpec.make(workload, *triple_key.split("|"), **engine)


def paper_cells(
    logs: list[str] | None = None,
    n_jobs: int | None = None,
    replicas: int | None = None,
) -> list[CellSpec]:
    """``experiments/paper.toml``'s cells, with its ``[campaign]`` header
    overridden where an argument is given (the CLI flags' semantics)."""
    doc = override_campaign(
        load_spec_file(PAPER_SPEC), logs=logs, n_jobs=n_jobs, replicas=replicas
    )
    return expand_spec_obj(doc, source=PAPER_SPEC)


def make_job(
    job_id: int = 1,
    submit_time: float = 0.0,
    runtime: float = 100.0,
    processors: int = 1,
    requested_time: float | None = None,
    user: int = 1,
    **kwargs,
) -> Job:
    """Job factory with sane defaults (requested defaults to 2x runtime)."""
    if requested_time is None:
        requested_time = 2.0 * runtime
    return Job(
        job_id=job_id,
        submit_time=submit_time,
        runtime=runtime,
        processors=processors,
        requested_time=requested_time,
        user=user,
        **kwargs,
    )


def make_record(
    job_id: int = 1,
    submit_time: float = 0.0,
    runtime: float = 100.0,
    processors: int = 1,
    requested_time: float | None = None,
    predicted_runtime: float | None = None,
    user: int = 1,
) -> JobRecord:
    """JobRecord factory; prediction defaults to the requested time."""
    job = make_job(
        job_id=job_id,
        submit_time=submit_time,
        runtime=runtime,
        processors=processors,
        requested_time=requested_time,
        user=user,
    )
    record = JobRecord(job=job)
    record.predicted_runtime = (
        predicted_runtime if predicted_runtime is not None else job.requested_time
    )
    record.initial_prediction = record.predicted_runtime
    record.raw_prediction = record.predicted_runtime
    return record
