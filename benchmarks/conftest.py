"""Shared fixtures for the benchmark harness.

The expensive inputs (the paper's campaign, ``experiments/paper.toml``,
and the prediction analysis) are computed once per session and cached on
disk under ``benchmarks/.cache/``, so the whole harness re-runs
instantly once the campaign has been simulated.

The harness is headless-CI-safe: every RNG is seeded deterministically,
nothing opens a display, and optional dependencies (e.g. matplotlib for
local plotting experiments) cause a clean skip instead of a collection
error -- use :func:`optional_import` for any such import.

Scale knobs (environment variables; the first two override the spec
file's ``[campaign]`` header):

* ``REPRO_BENCH_JOBS``      -- jobs per synthetic log (default 2000);
* ``REPRO_BENCH_REPLICAS``  -- trace replicas per log (default 5);
* ``REPRO_BENCH_FULL=1``    -- preset for a heavier run (3000 jobs).

Every benchmark writes its rendered table/figure to
``benchmarks/out/<name>.txt`` so the paper-versus-measured record in
EXPERIMENTS.md can be regenerated from artefacts.
"""

from __future__ import annotations

import importlib
import os
import random

import numpy as np
import pytest

from repro.core import analyze_predictions, run_cells
from repro.spec import expand_spec_obj, load_spec_file, override_campaign

_HERE = os.path.dirname(os.path.abspath(__file__))
PAPER_SPEC = os.path.join(_HERE, os.pardir, "experiments", "paper.toml")
CACHE_DIR = os.path.join(_HERE, ".cache")
OUT_DIR = os.path.join(_HERE, "out")

#: Fixed seed for any benchmark that needs ad-hoc randomness.
BENCH_SEED = 20150915  # the paper's conference year/month/day


def optional_import(name: str):
    """Import an optional dependency or skip the requesting module.

    Usage at the top of a benchmark module::

        matplotlib = optional_import("matplotlib")

    Keeps the harness runnable on minimal CI images: a missing optional
    package skips that benchmark instead of failing collection.
    """
    try:
        return importlib.import_module(name)
    except ImportError:
        pytest.skip(f"optional dependency {name!r} not installed", allow_module_level=True)


@pytest.fixture(autouse=True)
def _seed_all_rngs():
    """Reset the global RNGs before every benchmark, for run-to-run and
    machine-to-machine reproducibility (the library itself only uses
    explicitly seeded generators; this guards ad-hoc benchmark code)."""
    random.seed(BENCH_SEED)
    np.random.seed(BENCH_SEED % (2**32))
    yield


def bench_n_jobs() -> int:
    if os.environ.get("REPRO_BENCH_FULL"):
        return int(os.environ.get("REPRO_BENCH_JOBS", "3000"))
    return int(os.environ.get("REPRO_BENCH_JOBS", "2000"))


def bench_replicas() -> int:
    return int(os.environ.get("REPRO_BENCH_REPLICAS", "5"))


def write_artifact(name: str, content: str) -> str:
    """Store a rendered table/figure under benchmarks/out/ and return it."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(content if content.endswith("\n") else content + "\n")
    return content


@pytest.fixture(scope="session")
def campaign():
    """The full 6-log x 130-triple campaign (cached on disk)."""
    n_jobs, replicas = bench_n_jobs(), bench_replicas()
    doc = override_campaign(
        load_spec_file(PAPER_SPEC), n_jobs=n_jobs, replicas=replicas
    )
    stem = os.path.join(CACHE_DIR, f"campaign_n{n_jobs}_r{replicas}")
    return run_cells(
        expand_spec_obj(doc, source=PAPER_SPEC),
        cache_path=stem + ".jsonl",
        progress=True,
        progress_path=stem + ".progress.jsonl",
    )


@pytest.fixture(scope="session")
def curie_prediction_analysis():
    """Prediction replay on the Curie-class log (Table 8, Figs 4-5)."""
    return analyze_predictions(log="Curie", n_jobs=bench_n_jobs())
