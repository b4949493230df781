"""repro: reproduction of "Improving Backfilling by using Machine Learning
to predict Running Times" (Gaussier, Glesser, Reis & Trystram, SC 2015).

Public API tour
---------------

Workloads::

    from repro import get_trace, load_swf, Trace
    trace = get_trace("KTH-SP2", n_jobs=2000)   # calibrated synthetic log

Simulation of one heuristic triple::

    from repro import simulate, EasyScheduler, MLPredictor, E_LOSS
    from repro import IncrementalCorrector
    result = simulate(trace, EasyScheduler("sjbf"), MLPredictor(E_LOSS),
                      IncrementalCorrector())
    print(result.avebsld())

The paper's campaign and analyses -- one declarative spec file, one
runner; the paper's tables are methods of the result::

    from repro import expand_spec_file, leave_one_out, run_cells
    cells = expand_spec_file("experiments/paper.toml")
    campaign = run_cells(cells, cache_path="campaign.jsonl")
    for row in campaign.table1_rows():
        print(row)
    folds = leave_one_out(campaign)

Any scenario grid, not just the paper's, is a spec file too; aggregate
by component triple in any registry spelling::

    from repro import EASY
    campaign.mean("KTH-SP2", EASY)
    campaign.mean("KTH-SP2", ("ave2", "incremental", "easy-sjbf"))

See DESIGN.md for the substitutions this reproduction makes.
"""

from .core import (
    EASY,
    EASYPP,
    ELOSS,
    SpecCampaignResult,
    analyze_predictions,
    average_reductions,
    leave_one_out,
    run_cells,
    run_spec,
    run_spec_result,
    run_components_on_trace,
    selection_consensus,
)
from .correct import (
    Corrector,
    IncrementalCorrector,
    RecursiveDoublingCorrector,
    RequestedTimeCorrector,
    make_corrector,
)
from .metrics import (
    average_bounded_slowdown,
    bounded_slowdowns,
    ecdf,
    mean_absolute_error,
    mean_loss,
    pearson,
)
from .predict import (
    E_LOSS,
    SQUARED_LOSS,
    ClairvoyantPredictor,
    LossSpec,
    MLPredictor,
    NagOptimizer,
    Predictor,
    RecentAveragePredictor,
    RequestedTimePredictor,
    all_loss_specs,
    make_predictor,
)
from .sched import (
    ConservativeScheduler,
    EasyScheduler,
    FcfsScheduler,
    Scheduler,
    make_scheduler,
)
from .sim import (
    EstimatedStart,
    Machine,
    SimSession,
    SimulationResult,
    Simulator,
    simulate,
)
from .spec import (
    SPEC_VERSION,
    CellSpec,
    ComponentSpec,
    Components,
    WorkloadSpec,
    expand_spec_file,
    validate_spec_file,
)
from .workload import (
    ARCHIVE,
    LOG_NAMES,
    Job,
    Trace,
    WorkloadModel,
    get_trace,
    load_swf,
    save_swf,
    synthesize,
)

__version__ = "1.0.0"

__all__ = [
    "EASY",
    "EASYPP",
    "ELOSS",
    "SpecCampaignResult",
    "analyze_predictions",
    "average_reductions",
    "leave_one_out",
    "run_cells",
    "run_spec",
    "run_spec_result",
    "run_components_on_trace",
    "selection_consensus",
    "SPEC_VERSION",
    "CellSpec",
    "ComponentSpec",
    "Components",
    "WorkloadSpec",
    "expand_spec_file",
    "validate_spec_file",
    "Corrector",
    "IncrementalCorrector",
    "RecursiveDoublingCorrector",
    "RequestedTimeCorrector",
    "make_corrector",
    "average_bounded_slowdown",
    "bounded_slowdowns",
    "ecdf",
    "mean_absolute_error",
    "mean_loss",
    "pearson",
    "E_LOSS",
    "SQUARED_LOSS",
    "ClairvoyantPredictor",
    "LossSpec",
    "MLPredictor",
    "NagOptimizer",
    "Predictor",
    "RecentAveragePredictor",
    "RequestedTimePredictor",
    "all_loss_specs",
    "make_predictor",
    "ConservativeScheduler",
    "EasyScheduler",
    "FcfsScheduler",
    "Scheduler",
    "make_scheduler",
    "Machine",
    "SimulationResult",
    "Simulator",
    "simulate",
    "SimSession",
    "EstimatedStart",
    "ARCHIVE",
    "LOG_NAMES",
    "Job",
    "Trace",
    "WorkloadModel",
    "get_trace",
    "load_swf",
    "save_swf",
    "synthesize",
    "__version__",
]
