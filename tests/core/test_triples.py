"""Unit tests for the paper's triple matrix and its component triples."""

import pytest

from repro.core import EASY, EASYPP, ELOSS
from repro.correct import IncrementalCorrector
from repro.predict import MLPredictor, RequestedTimePredictor
from repro.sched import EasyScheduler
from repro.spec import CellSpec, Components, WorkloadSpec, triple_keys_of

from tests.helpers import paper_cells


@pytest.fixture(scope="module")
def paper_triples() -> list[Components]:
    """The distinct component triples of ``experiments/paper.toml``."""
    return list(dict.fromkeys(cell.components for cell in paper_cells()))


def _campaign(triples):
    return [t for t in triples if t.predictor.name != "clairvoyant"]


class TestEnumeration:
    def test_exactly_128_triples(self, paper_triples):
        """The paper: 'the experimental campaign runs 128 simulations'."""
        triples = _campaign(paper_triples)
        assert len(triples) == 128
        assert len({t.label for t in triples}) == 128

    def test_composition(self, paper_triples):
        names = [t.predictor.name for t in _campaign(paper_triples)]
        assert names.count("requested") == 2  # 2 schedulers, no correction
        assert names.count("ave") == 6  # 3 correctors x 2 schedulers
        assert names.count("ml") == 120  # 20 losses x 3 correctors x 2 schedulers

    def test_no_clairvoyant_in_campaign(self, paper_triples):
        assert paper_triples[:128] == _campaign(paper_triples)

    def test_references(self, paper_triples):
        refs = paper_triples[128:]
        assert len(refs) == 2
        assert all(t.predictor.name == "clairvoyant" for t in refs)

    def test_named_triples_in_campaign(self, paper_triples):
        triples = set(_campaign(paper_triples))
        assert {EASY, EASYPP, ELOSS} <= triples


class TestTripleMechanics:
    def test_key_round_trip(self, paper_triples):
        # every paper triple keeps its legacy label, in matrix order
        assert [t.label for t in paper_triples] == triple_keys_of(paper_cells())
        for triple in paper_triples[:10]:
            assert Components.make(*triple.label.split("|")) == triple

    def test_bad_key_rejected(self):
        with pytest.raises(KeyError, match="unknown predictor"):
            Components.make("warp-drive", None, "easy")

    @pytest.mark.parametrize(
        "key", ["|none|easy", "requested||easy", "requested|none|", "||"]
    )
    def test_empty_component_rejected(self, key):
        with pytest.raises(KeyError, match="unknown"):
            Components.make(*key.split("|"))

    def test_lowering_to_cell_components(self):
        pred, corr, sched = ELOSS
        assert pred.name == "ml"
        assert pred.param_dict["weight"] == "large-area"
        assert corr.name == "incremental"
        assert sched.param_dict["order"] == "sjbf"
        assert EASY.corrector is None
        cell = CellSpec.make(WorkloadSpec.make("KTH-SP2"), *ELOSS)
        assert cell.components == ELOSS
        assert cell.label == ELOSS.label == "ml:sq-lin-large-area|incremental|easy-sjbf"

    def test_build_easy(self):
        scheduler, predictor, corrector = EASY.build()
        assert isinstance(scheduler, EasyScheduler)
        assert scheduler.backfill_order == "fcfs"
        assert isinstance(predictor, RequestedTimePredictor)
        assert corrector is None

    def test_build_eloss_winner(self):
        scheduler, predictor, corrector = ELOSS.build()
        assert isinstance(scheduler, EasyScheduler)
        assert scheduler.backfill_order == "sjbf"
        assert isinstance(predictor, MLPredictor)
        assert predictor.loss.key == "sq-lin-large-area"
        assert isinstance(corrector, IncrementalCorrector)

    def test_build_returns_fresh_state(self):
        s1, p1, c1 = EASYPP.build()
        s2, p2, c2 = EASYPP.build()
        assert s1 is not s2
        assert p1 is not p2

    def test_describe_special_names(self):
        from repro.cli import _DESCRIPTIONS  # what `repro sim` prints

        assert "EASY" in _DESCRIPTIONS[EASY]
        assert "EASY++" in _DESCRIPTIONS[EASYPP]
        assert "winner" in _DESCRIPTIONS[ELOSS]
