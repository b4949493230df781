"""Unit tests for the campaign runner (small configurations)."""

import pytest

from repro.core import EASY, EASYPP, run_cells, run_spec
from repro.core.campaign import ResultCache, SpecCampaignResult, cell_token
from repro.spec import CellSpec, WorkloadSpec

from tests.helpers import paper_cells


@pytest.fixture(scope="module")
def small_campaign(tmp_path_factory):
    """One tiny log, one replica; cached so all tests share the cost."""
    cache = tmp_path_factory.mktemp("cache") / "campaign.json"
    cells = paper_cells(logs=["KTH-SP2"], n_jobs=250, replicas=1)
    return run_cells(cells, cache_path=str(cache), workers=8), cache, cells


def _cell(components=EASY, log="KTH-SP2", n_jobs=100, seed=None) -> CellSpec:
    return CellSpec.make(WorkloadSpec.make(log, n_jobs=n_jobs, seed=seed), *components)


class TestRunTriple:
    def test_outcome_fields(self):
        outcome = run_spec(_cell(n_jobs=150))
        assert outcome.avebsld >= 1.0
        assert 0.0 < outcome.utilization <= 1.0
        assert outcome.corrections == 0  # requested time never under-predicts

    def test_deterministic(self):
        a = run_spec(_cell(EASYPP, n_jobs=150))
        b = run_spec(_cell(EASYPP, n_jobs=150))
        assert a.avebsld == b.avebsld


class TestCampaign:
    def test_all_triples_scored(self, small_campaign):
        result, _, _ = small_campaign
        assert result.logs == ("KTH-SP2",)
        assert len(result.components()) == 130  # 128 + 2 clairvoyant references
        assert len(result.scores) == 130  # one replica each
        assert all(v >= 1.0 for v in result.scores.values())

    def test_table1_rows(self, small_campaign):
        result, _, _ = small_campaign
        rows = result.table1_rows()
        assert len(rows) == 1
        log, easy, clair, reduction = rows[0]
        assert log == "KTH-SP2"
        assert easy >= 1.0 and clair >= 1.0
        assert easy == result.mean("KTH-SP2", ("requested", "none", "easy"))

    def test_mean_takes_any_spelling(self, small_campaign):
        result, _, _ = small_campaign
        explicit = (
            {"name": "ave", "params": {"k": 2}},
            "incremental",
            {"name": "easy", "params": {"order": "sjbf"}},
        )
        assert result.mean("KTH-SP2", explicit) == result.mean("KTH-SP2", EASYPP)
        with pytest.raises(KeyError):  # a valid triple the campaign lacks
            result.mean("KTH-SP2", ("requested", None, "conservative"))
        with pytest.raises(KeyError):  # a log the campaign lacks
            result.mean("Curie", EASYPP)

    def test_table6_rows(self, small_campaign):
        result, _, _ = small_campaign
        (log, cf, cs, easy, easypp, rng_f, rng_s) = result.table6_rows()[0]
        assert rng_f[0] <= rng_f[1]
        assert rng_s[0] <= rng_s[1]
        assert easypp == result.mean(log, EASYPP)

    def test_learning_range_over_60_triples(self, small_campaign):
        result, _, _ = small_campaign
        best, worst = result.learning_range("KTH-SP2", "easy-sjbf")
        ml_sjbf = [
            result.mean("KTH-SP2", c)
            for c in result.components()
            if c.predictor.name == "ml" and c.scheduler == EASYPP.scheduler
        ]
        assert len(ml_sjbf) == 60
        assert (best, worst) == (min(ml_sjbf), max(ml_sjbf))
        # any registry spelling of the scheduler selects the same variant
        assert result.learning_range(
            "KTH-SP2", {"name": "easy", "params": {"order": "sjbf"}}
        ) == (best, worst)

    def test_best_triple_minimises_sum(self, small_campaign):
        result, _, _ = small_campaign
        best = result.best()
        candidates = result.components(include_references=False)
        assert best in candidates and best.predictor.name != "clairvoyant"
        scores = [result.mean("KTH-SP2", c) for c in candidates]
        assert result.mean("KTH-SP2", best) == pytest.approx(min(scores))

    def test_score_vector(self, small_campaign):
        result, _, cells = small_campaign
        keys = result.components(include_references=False)
        assert len(keys) == 128
        # one replica: each triple's mean is exactly its one cell's score
        by_components = {cell.components: result.score(cell) for cell in cells}
        assert [result.mean("KTH-SP2", k) for k in keys] == [
            by_components[k] for k in keys
        ]

    def test_cache_reused(self, small_campaign):
        result, cache, cells = small_campaign
        # second run must be served from cache (no new entries appended)
        before = cache.read_text()
        again = run_cells(cells, cache_path=str(cache), workers=1)
        after = cache.read_text()
        assert before == after
        assert again.scores == result.scores

    def test_cache_token_distinguishes_inputs(self):
        base = cell_token(_cell(n_jobs=100, seed=1))
        assert base != cell_token(_cell(n_jobs=200, seed=1))
        assert base != cell_token(_cell(log="CTC-SP2", n_jobs=100, seed=1))
        assert base != cell_token(_cell(n_jobs=100, seed=2))

    def test_cache_token_embeds_trace_digest_and_engine_version(self):
        from repro.core import trace_digest
        from repro.sim.engine import ENGINE_VERSION

        token = cell_token(_cell(n_jobs=100, seed=7))
        assert trace_digest("KTH-SP2", 100, 7) in token
        assert f"e{ENGINE_VERSION}" in token
        # different seeds draw different traces, so the digests differ too
        assert trace_digest("KTH-SP2", 100, 7) != trace_digest("KTH-SP2", 100, 8)


class TestPoolingReplicasOnly:
    """The paper aggregations average a triple's replicas on a log, never
    cells that also differ in machine size, filters or knob values."""

    @staticmethod
    def _result(processors=(None,), taus=(10.0,)) -> SpecCampaignResult:
        cells = [
            CellSpec.make(
                WorkloadSpec.make("KTH-SP2", n_jobs=60, seed=seed, processors=procs),
                *EASY,
                tau=tau,
            )
            for procs in processors
            for tau in taus
            for seed in (1, 2)
        ]
        scores = {cell.digest(): float(i + 1) for i, cell in enumerate(cells)}
        return SpecCampaignResult(cells=cells, scores=scores)

    def test_replicas_are_pooled(self):
        assert self._result().mean("KTH-SP2", EASY) == 1.5

    @pytest.mark.parametrize("axis", [{"processors": (64, 100)}, {"taus": (5.0, 10.0)}])
    def test_a_second_axis_is_refused(self, axis):
        result = self._result(**axis)
        with pytest.raises(ValueError, match="more than their seed"):
            result.mean("KTH-SP2", EASY)
        with pytest.raises(ValueError):
            result.table1_rows()
        # the generic report still covers the grid
        assert [row.n_cells for row in result.leaderboard()] == [4]


class TestDiskCache:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "c.json"
        cache = ResultCache(str(path))
        cache.put("k", 1.5)
        cache.flush()
        again = ResultCache(str(path))
        assert again.get("k") == 1.5

    def test_missing_returns_none(self, tmp_path):
        cache = ResultCache(str(tmp_path / "missing.json"))
        assert cache.get("k") is None

    def test_corrupt_file_ignored(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        cache = ResultCache(str(path))
        assert cache.get("k") is None

    def test_none_path_noop(self):
        cache = ResultCache(None)
        cache.put("k", 1.0)
        cache.flush()  # must not raise
        assert cache.get("k") == 1.0
