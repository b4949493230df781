"""Shard planning: balance, determinism, bench-seeded cost model."""

import json

import pytest

from repro.dist import CellCostModel, load_bench_cost_model, plan_shards
from repro.dist.shards import DEFAULT_CELLS_PER_SHARD
from repro.spec import CellSpec

from tests.helpers import triple_cell


def cell(log, key, seed, n_jobs=500):
    return triple_cell(log, key, n_jobs=n_jobs, seed=seed)


def cells_for(n, logs=("KTH-SP2", "Curie"), seed0=100, n_jobs=500):
    keys = [
        "requested|none|easy",
        "ave2|incremental|easy-sjbf",
        "clairvoyant|none|easy",
    ]
    return [
        cell(logs[i % len(logs)], keys[i % len(keys)], seed0 + i, n_jobs)
        for i in range(n)
    ]


class TestCostModel:
    def test_corrected_triples_cost_more(self):
        model = CellCostModel()
        plain = model.cell_cost(cell("KTH-SP2", "requested|none|easy", 1, 1000))
        corrected = model.cell_cost(cell("KTH-SP2", "ave2|incremental|easy", 1, 1000))
        assert corrected > plain

    def test_cost_scales_with_jobs(self):
        model = CellCostModel()
        assert model.cell_cost(cell("KTH-SP2", "requested|none|easy", 1, 2000)) == (
            2 * model.cell_cost(cell("KTH-SP2", "requested|none|easy", 1, 1000))
        )

    def test_unknown_scheduler_uses_worst_weight(self):
        model = CellCostModel()
        exotic = model.cell_cost(cell("KTH-SP2", "requested|none|multifactor", 1, 100))
        assert exotic == max(model.scheduler_weights.values()) * 100

    def test_parameterized_scheduler_keys_match_bench_names(self):
        # easy(order=sjbf) must hit the "easy-sjbf" bench weight however
        # the spec was spelled
        model = CellCostModel(
            scheduler_weights={"easy": 1.0, "easy-sjbf": 7.0, "conservative": 2.0}
        )
        spec = CellSpec.make(
            workload={"log": "KTH-SP2", "n_jobs": 100},
            predictor="requested",
            corrector=None,
            scheduler={"name": "easy", "params": {"order": "sjbf"}},
        )
        assert model.cell_cost(spec) == 7.0 * 100


class TestBenchSeeding:
    def test_loads_weights_from_bench_report(self, tmp_path):
        report = {
            "scenarios": [
                {"scenario": "easy/wide", "profile_seconds": 1.0,
                 "trace": {"n_jobs": 1000}},
                {"scenario": "easy-sjbf/wide", "profile_seconds": 2.0,
                 "trace": {"n_jobs": 1000}},
                {"scenario": "easy-sjbf/corrections", "profile_seconds": 8.0,
                 "trace": {"n_jobs": 1000}},
                {"scenario": "conservative/narrow", "profile_seconds": 3.0,
                 "trace": {"n_jobs": 1000}},
            ]
        }
        path = tmp_path / "BENCH_engine.json"
        path.write_text(json.dumps(report))
        model = load_bench_cost_model(str(path))
        assert model.source == str(path)
        assert model.scheduler_weights["easy"] == 0.001
        assert model.scheduler_weights["easy-sjbf"] == 0.002
        assert model.scheduler_weights["conservative"] == 0.003
        assert model.correction_factor == 4.0  # 8.0 / 2.0

    def test_missing_file_falls_back_to_defaults(self, tmp_path):
        model = load_bench_cost_model(str(tmp_path / "nope.json"))
        assert model.source == "defaults"

    def test_corrupt_file_falls_back_to_defaults(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert load_bench_cost_model(str(path)).source == "defaults"

    def test_unusable_scenario_warns_and_falls_back(
        self, tmp_path, caplog, monkeypatch
    ):
        """Regression: a scenario with missing/zero n_jobs or seconds
        used to be dropped silently, degrading LPT balance with no clue
        why.  It must warn naming the scenario and keep the default
        weight for it."""
        import logging

        # setup_logging() (run by CLI tests) stops propagation at the
        # "repro" logger; re-enable it so caplog sees the warning
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
        report = {
            "scenarios": [
                {"scenario": "easy/wide", "profile_seconds": 1.0,
                 "trace": {"n_jobs": 0}},
                {"scenario": "easy-sjbf/wide", "profile_seconds": 2.0,
                 "trace": {"n_jobs": 1000}},
                {"scenario": "conservative/narrow", "profile_seconds": 0,
                 "trace": {"n_jobs": 1000}},
            ]
        }
        path = tmp_path / "BENCH_engine.json"
        path.write_text(json.dumps(report))
        with caplog.at_level("WARNING", logger="repro.dist.shards"):
            model = load_bench_cost_model(str(path))
        dropped = [rec.message for rec in caplog.records]
        assert any("easy/wide" in msg for msg in dropped)
        assert any("conservative/narrow" in msg for msg in dropped)
        default = CellCostModel()
        # the unusable scenarios keep their calibrated defaults...
        assert model.scheduler_weights["easy"] == default.scheduler_weights["easy"]
        assert (
            model.scheduler_weights["conservative"]
            == default.scheduler_weights["conservative"]
        )
        # ...while the good one still seeds from the report
        assert model.scheduler_weights["easy-sjbf"] == 0.002

    def test_repo_bench_report_parses(self):
        # the CI artifact (when present) must keep seeding the planner
        import os

        if not os.path.exists("BENCH_engine.json"):
            pytest.skip("no BENCH_engine.json in this checkout (CI builds it)")
        model = load_bench_cost_model("BENCH_engine.json")
        assert model.source.endswith("BENCH_engine.json")
        assert model.correction_factor >= 1.0


class TestPlanShards:
    def test_partition_is_exact(self):
        cells = cells_for(50)
        shards = plan_shards(cells, n_shards=7)
        flat = [c for shard in shards for c in shard.cells]
        assert sorted(c.digest() for c in flat) == sorted(c.digest() for c in cells)
        assert len({c.digest() for c in flat}) == len(cells)

    def test_default_granularity(self):
        shards = plan_shards(cells_for(100))
        expected = (100 + DEFAULT_CELLS_PER_SHARD - 1) // DEFAULT_CELLS_PER_SHARD
        assert len(shards) == expected

    def test_deterministic(self):
        a = plan_shards(cells_for(64), n_shards=5)
        b = plan_shards(cells_for(64), n_shards=5)
        assert a == b

    def test_balanced_loads(self):
        model = CellCostModel()
        shards = plan_shards(cells_for(90), n_shards=6, cost_model=model)
        costs = [shard.est_cost for shard in shards]
        # LPT guarantees max <= 4/3 * optimum; sanity-check a loose bound
        assert max(costs) <= 2.0 * min(costs)

    def test_more_shards_than_cells_collapses(self):
        shards = plan_shards(cells_for(3), n_shards=10)
        assert len(shards) == 3
        assert all(len(shard.cells) == 1 for shard in shards)

    def test_empty_cells(self):
        assert plan_shards([]) == []

    def test_prefix_in_shard_ids(self):
        shards = plan_shards(cells_for(4), n_shards=2, prefix="g7")
        assert all(shard.shard_id.startswith("g7-") for shard in shards)

    def test_manifest_carries_specs_and_versions(self):
        from repro.core.campaign import CACHE_VERSION
        from repro.sim.engine import ENGINE_VERSION
        from repro.spec import SPEC_VERSION

        shard = plan_shards(cells_for(4, n_jobs=123), n_shards=1)[0]
        manifest = shard.manifest()
        assert manifest["cache_version"] == CACHE_VERSION
        assert manifest["engine_version"] == ENGINE_VERSION
        assert manifest["spec_version"] == SPEC_VERSION
        # cells travel in canonical spec form and round-trip exactly
        rebuilt = [CellSpec.from_obj(obj) for obj in manifest["cells"]]
        assert rebuilt == list(shard.cells)
        assert all(obj["workload"]["n_jobs"] == 123 for obj in manifest["cells"])

    def test_mixed_workload_sizes_weighted(self):
        # per-cell n_jobs (impossible under the old shard-level config)
        big = cell("KTH-SP2", "requested|none|easy", 1, n_jobs=4000)
        small = cell("KTH-SP2", "requested|none|easy", 2, n_jobs=100)
        model = CellCostModel()
        assert model.cell_cost(big) == 40 * model.cell_cost(small)


class TestTraceGrouping:
    """Same-trace cells must land adjacently in one shard (batch unlock)."""

    def shared_trace_cells(self):
        """2 trace identities x 4 triples = the shape of a real campaign."""
        keys = [
            "requested|none|easy",
            "requested|none|easy-sjbf",
            "ave2|incremental|easy-sjbf",
            "clairvoyant|none|easy",
        ]
        return [
            cell("KTH-SP2", key, seed, n_jobs=200)
            for seed in (1, 2)
            for key in keys
        ]

    def test_shards_are_trace_pure_when_balance_allows(self):
        shards = plan_shards(self.shared_trace_cells(), cells_per_shard=4)
        assert len(shards) == 2
        for shard in shards:
            assert len(shard.trace_keys) == 1
            workload_objs = {
                json.dumps(c.workload.to_obj(), sort_keys=True)
                for c in shard.cells
            }
            assert len(workload_objs) == 1

    def test_manifest_carries_trace_keys(self):
        from repro.core.batch import workload_key

        shards = plan_shards(self.shared_trace_cells(), cells_per_shard=4)
        for shard in shards:
            manifest = shard.manifest()
            assert manifest["trace_keys"] == list(shard.trace_keys)
            assert manifest["trace_keys"] == [
                workload_key(shard.cells[0].workload)
            ]

    def test_oversized_group_splits_but_stays_grouped(self):
        cells = self.shared_trace_cells()  # 2 groups of 4
        shards = plan_shards(cells, n_shards=4)
        assert len(shards) == 4
        # every shard still holds cells of exactly one trace
        assert all(len(shard.trace_keys) == 1 for shard in shards)
        flat = [c.digest() for shard in shards for c in shard.cells]
        assert sorted(flat) == sorted(c.digest() for c in cells)

    def test_singleton_groups_degrade_to_classic_lpt(self):
        """Distinct-trace campaigns (the pre-batching shape) must plan
        exactly as before: chunking cannot change singleton-group LPT."""
        shards = plan_shards(cells_for(30), n_shards=4)
        assert len(shards) == 4
        assert all(len(shard.trace_keys) == len(shard.cells) for shard in shards)
        costs = [shard.est_cost for shard in shards]
        assert max(costs) <= 2.0 * min(costs)
