"""Declarative experiment specification API (the scenario-spec layer).

``repro.spec`` is the single source of truth for *what an experiment
cell is*: a versioned, canonically-serializable :class:`CellSpec` whose
content digest keys the campaign cache and identifies cells on the
distributed queue, backed by a unified parameterized component registry
(predictors, correctors, schedulers, workload filters) and a grid
expander that turns TOML/JSON experiment files into cell lists.
"""

from .cellspec import SPEC_VERSION, CellSpec, Components, WorkloadSpec, canonical_json
from .components import (
    ComponentRegistry,
    ComponentSpec,
    corrector_registry,
    filter_registry,
    predictor_registry,
    registry_for,
    scheduler_registry,
)
from .grid import (
    PAPER_SPEC,
    SpecFileError,
    expand_spec_file,
    expand_spec_obj,
    load_spec_file,
    override_campaign,
    triple_keys_of,
    validate_spec_file,
)

__all__ = [
    "SPEC_VERSION",
    "CellSpec",
    "Components",
    "WorkloadSpec",
    "canonical_json",
    "ComponentRegistry",
    "ComponentSpec",
    "predictor_registry",
    "corrector_registry",
    "scheduler_registry",
    "filter_registry",
    "registry_for",
    "PAPER_SPEC",
    "SpecFileError",
    "load_spec_file",
    "override_campaign",
    "expand_spec_file",
    "expand_spec_obj",
    "validate_spec_file",
    "triple_keys_of",
]
