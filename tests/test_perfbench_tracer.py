"""The traced benchmark run (``perfbench/tracing.py``) patches names of the
program from outside; this guards that contract from the test suite.

If a patched name moves -- ``repro.core.run.run_cell_report``, the
module-level ``SimSession`` that cell sessions are built through,
``LocalBroker.dispatch``, the queue-ordering functions -- the tracer
either fails to install or stops recording a layer, and this test fails
loudly instead of the traced run silently losing that layer.
"""

from __future__ import annotations

import importlib.util
import os

import repro.core.run as run
import repro.sched.easy as easy
from repro.core import run_cells
from repro.dist.broker import LocalBroker

from tests.helpers import triple_cell

TRACING = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench", "tracing.py"
)


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_every_cell_layer_and_uninstalls():
    originals = {
        "run_cell_report": run.run_cell_report,
        "SimSession": run.SimSession,
        "build_workload": run.build_workload,
        "order_queue": easy.order_queue,
        "dispatch": LocalBroker.__dict__["dispatch"],
    }
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        cell = triple_cell("KTH-SP2", "ave2|incremental|easy-sjbf", n_jobs=60, seed=3)
        result = run_cells([cell], workers=1)
    finally:
        tracer.uninstall()
    assert len(result.scores) == 1
    layers = tracer.totals()
    for layer in ("core.cell", "sim.drain", "sched.select"):
        assert layers.get(layer, [0])[0] > 0, f"tracer recorded no {layer!r}"
    # the one traced session produced its result and its engine counters
    assert len(tracer.sessions) == 1 and tracer.sessions[0] is not None
    assert run.run_cell_report is originals["run_cell_report"]
    assert run.SimSession is originals["SimSession"]
    assert run.build_workload is originals["build_workload"]
    assert easy.order_queue is originals["order_queue"]
    assert LocalBroker.__dict__["dispatch"] is originals["dispatch"]
