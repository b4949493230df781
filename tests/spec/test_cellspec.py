"""Canonical encoding and digest stability of CellSpec.

The golden digests pinned here are the cache-key core: they must be
byte-identical on every supported platform and Python (3.10-3.12 in CI),
and any change to the canonical encoding must bump ``SPEC_VERSION`` and
re-pin them deliberately.
"""

import json
import pickle

import pytest

from repro.spec import SPEC_VERSION, CellSpec, WorkloadSpec

from tests.helpers import triple_cell

#: (constructor kwargs template id, expected 16-hex digest).  Golden:
#: re-pin only on a deliberate SPEC_VERSION bump.
GOLDEN = {
    "paper-easy": "ce205acb6c522614",
    "eloss-tuned-engine": "97e7dd32c0a561e4",
    "smallbox-ml": "7b928cd48ca3c08c",
}


def golden_cells():
    return {
        "paper-easy": triple_cell(
            "KTH-SP2", "requested|none|easy", n_jobs=2000, seed=7
        ),
        "eloss-tuned-engine": triple_cell(
            "Curie",
            "ml:sq-lin-large-area|incremental|easy-sjbf",
            n_jobs=1500,
            seed=42,
            min_prediction=30.0,
            tau=5.0,
        ),
        "smallbox-ml": CellSpec.make(
            workload={
                "log": "KTH-SP2",
                "n_jobs": 600,
                "seed": 1,
                "processors": 25,
                "filters": [{"name": "max-width", "params": {"processors": 25}}],
            },
            predictor={
                "name": "ml",
                "params": {
                    "over": "sq", "under": "lin", "weight": "large-area", "eta": 1.0,
                },
            },
            corrector="incremental",
            scheduler={"name": "easy", "params": {"order": "sjbf"}},
        ),
    }


class TestGoldenDigests:
    def test_spec_version_is_one(self):
        # the goldens below encode version 1; a bump must re-pin them
        assert SPEC_VERSION == 1

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_digest_pinned(self, name):
        assert golden_cells()[name].digest() == GOLDEN[name]

    def test_canonical_json_shape(self):
        cell = golden_cells()["paper-easy"]
        assert cell.canonical() == (
            '{"corrector":null,"engine":{"min_prediction":60.0,"tau":10.0},'
            '"predictor":{"name":"requested","params":{}},'
            '"scheduler":{"name":"easy","params":{"order":"fcfs"}},'
            '"spec_version":1,'
            '"workload":{"filters":[],"log":"KTH-SP2","n_jobs":2000,'
            '"processors":null,"seed":7}}'
        )


class TestCanonicalEquivalence:
    def test_spelling_invariance(self):
        """Legacy strings, dicts and explicit params digest identically."""
        via_triple = triple_cell(
            "KTH-SP2", "ave2|incremental|easy-sjbf", n_jobs=100, seed=3
        )
        via_dicts = CellSpec.make(
            workload={"log": "KTH-SP2", "n_jobs": 100, "seed": 3},
            predictor={"name": "ave", "params": {"k": 2}},
            corrector={"name": "incremental"},
            scheduler={"name": "easy", "params": {"order": "sjbf"}},
        )
        assert via_triple.digest() == via_dicts.digest()
        assert via_triple == via_dicts

    def test_components_spelling_invariance(self):
        """Every spelling of one triple is one (hashable) Components key."""
        from repro.spec import Components

        legacy = Components.make("ave2", "incremental", "easy-sjbf")
        explicit = Components.make(
            {"name": "ave", "params": {"k": 2}},
            {"name": "incremental"},
            {"name": "easy", "params": {"order": "sjbf"}},
        )
        assert legacy == explicit and hash(legacy) == hash(explicit)
        assert Components.make("requested", "none", "easy").corrector is None
        cell = triple_cell("KTH-SP2", "ave2|incremental|easy-sjbf", n_jobs=100)
        assert cell.components == legacy
        assert legacy.label == cell.label == "ave2|incremental|easy-sjbf"

    def test_raw_workloadspec_normalizes_like_make(self):
        """A hand-constructed WorkloadSpec with unnormalized filters must
        digest identically to the normalized spelling (one config, one
        cache key)."""
        from repro.spec import ComponentSpec

        raw = WorkloadSpec(
            "KTH-SP2", n_jobs=100, seed=1,
            filters=(ComponentSpec.make("drop-flurries"),),
        )
        a = CellSpec.make(raw, "requested", None, "easy")
        b = CellSpec.make(
            workload={"log": "KTH-SP2", "n_jobs": 100, "seed": 1,
                      "filters": ["drop-flurries"]},
            predictor="requested", corrector=None, scheduler="easy",
        )
        assert a.digest() == b.digest()
        # string filters and an unresolved seed work too
        c = CellSpec.make(
            WorkloadSpec("KTH-SP2", n_jobs=100, filters=("drop-oversized",)),
            "requested", None, "easy",
        )
        assert c.workload.seed is not None
        assert c.workload.filters[0].name == "drop-oversized"

    def test_int_float_param_spelling_invariance(self):
        a = CellSpec.make(
            workload={"log": "KTH-SP2", "n_jobs": 100, "seed": 3},
            predictor={"name": "ml", "params": {
                "over": "sq", "under": "lin", "weight": "constant", "eta": 1}},
            corrector=None,
            scheduler="easy",
        )
        b = CellSpec.make(
            workload={"log": "KTH-SP2", "n_jobs": 100, "seed": 3},
            predictor={"name": "ml", "params": {
                "over": "sq", "under": "lin", "weight": "constant", "eta": 1.0}},
            corrector=None,
            scheduler="easy",
        )
        assert a.digest() == b.digest()

    def test_distinct_params_distinct_digests(self):
        base = dict(
            workload={"log": "KTH-SP2", "n_jobs": 100, "seed": 3},
            predictor="requested",
            corrector=None,
            scheduler="easy",
        )
        a = CellSpec.make(**base)
        b = CellSpec.make(**{**base, "scheduler": "easy-sjbf"})
        c = CellSpec.make(**{**base, "tau": 20.0})
        d = CellSpec.make(**{**base, "workload": {"log": "KTH-SP2", "n_jobs": 101, "seed": 3}})
        assert len({a.digest(), b.digest(), c.digest(), d.digest()}) == 4


class TestRoundTrip:
    def test_obj_round_trip(self):
        for cell in golden_cells().values():
            assert CellSpec.from_obj(cell.to_obj()) == cell
            assert CellSpec.from_obj(json.loads(cell.canonical())) == cell

    def test_pickle_round_trip(self):
        cell = golden_cells()["smallbox-ml"]
        clone = pickle.loads(pickle.dumps(cell))
        assert clone == cell
        assert clone.digest() == cell.digest()

    def test_unknown_field_rejected(self):
        obj = golden_cells()["paper-easy"].to_obj()
        obj["gpu"] = True
        with pytest.raises(ValueError, match="unknown cell field"):
            CellSpec.from_obj(obj)

    def test_future_spec_version_rejected(self):
        obj = golden_cells()["paper-easy"].to_obj()
        obj["spec_version"] = SPEC_VERSION + 1
        with pytest.raises(ValueError, match="spec_version"):
            CellSpec.from_obj(obj)


class TestWorkloadSpec:
    def test_seed_resolves_to_stable_seed(self):
        from repro.workload import stable_seed

        workload = WorkloadSpec.make("KTH-SP2", n_jobs=100)
        assert workload.seed == stable_seed("KTH-SP2")

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            WorkloadSpec.make("KTH-SP2", n_jobs=0)
        with pytest.raises(ValueError):
            WorkloadSpec.make("KTH-SP2", processors=-1)

    def test_triple_key_and_label(self):
        cells = golden_cells()
        assert cells["paper-easy"].triple_key == "requested|none|easy"
        assert cells["paper-easy"].label == "requested|none|easy"
        # tuned eta: no legacy spelling, label falls back to components
        assert cells["smallbox-ml"].triple_key is None
        assert "eta=1.0" in cells["smallbox-ml"].label

    def test_engine_knob_validation(self):
        with pytest.raises(ValueError, match="min_prediction"):
            CellSpec.make(
                workload={"log": "KTH-SP2"},
                predictor="requested",
                corrector=None,
                scheduler="easy",
                min_prediction=0.0,
            )


class TestBuildWorkload:
    def test_filters_and_processors_applied(self):
        from repro.core import build_workload

        workload = WorkloadSpec.make(
            "KTH-SP2",
            n_jobs=80,
            seed=5,
            processors=25,
            filters=({"name": "max-width", "params": {"processors": 25}},),
        )
        trace = build_workload(workload)
        assert trace.processors == 25
        assert all(job.processors <= 25 for job in trace)

    def test_too_small_override_raises_with_hint(self):
        from repro.core import build_workload

        workload = WorkloadSpec.make("KTH-SP2", n_jobs=80, seed=5, processors=1)
        with pytest.raises(ValueError, match="max-width"):
            build_workload(workload)

    def test_run_spec_on_modified_workload(self):
        from repro.core import run_spec

        spec = CellSpec.make(
            workload={
                "log": "KTH-SP2", "n_jobs": 60, "seed": 5, "processors": 25,
                "filters": [{"name": "max-width", "params": {"processors": 25}}],
            },
            predictor="requested",
            corrector=None,
            scheduler="easy",
        )
        outcome = run_spec(spec)
        assert outcome.avebsld >= 1.0
        assert outcome.spec_digest == spec.digest()
