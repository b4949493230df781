"""Unit tests for leave-one-out triple selection."""

import pytest

from repro.core import (
    EASY,
    EASYPP,
    SpecCampaignResult,
    average_reductions,
    leave_one_out,
    run_cells,
    selection_consensus,
)
from repro.spec import CellSpec, Components, WorkloadSpec

from tests.helpers import paper_cells

LOGS = ("KTH-SP2", "CTC-SP2", "SDSC-SP2")


def fabricated_result(winner_key: str, logs=LOGS) -> SpecCampaignResult:
    """Hand-scored paper matrix where ``winner_key`` dominates everywhere."""
    cells = paper_cells(logs=list(logs), n_jobs=10, replicas=1)
    order = list(dict.fromkeys(cell.components for cell in cells))
    result = SpecCampaignResult(cells=cells)
    for cell in cells:
        base = 50.0 + 3.0 * order.index(cell.components)
        base += 10.0 * logs.index(cell.workload.log)
        if cell.label == winner_key:
            base = 5.0
        if cell.components == EASY:
            base = 100.0
        if cell.components == EASYPP:
            base = 60.0
        result.scores[cell.digest()] = base
    return result


class TestLeaveOneOut:
    def test_selects_dominant_triple_in_every_fold(self):
        winner = "ml:sq-lin-large-area|incremental|easy-sjbf"
        rows = leave_one_out(fabricated_result(winner))
        assert len(rows) == 3
        assert all(row.selected.label == winner for row in rows)

    def test_scores_reported_on_held_out_log(self):
        winner = "ml:sq-lin-large-area|incremental|easy-sjbf"
        rows = leave_one_out(fabricated_result(winner))
        for row in rows:
            assert row.cv_score == 5.0
            assert row.easy_score == 100.0
            assert row.easypp_score == 60.0

    def test_reductions(self):
        winner = "ml:sq-lin-large-area|incremental|easy-sjbf"
        rows = leave_one_out(fabricated_result(winner))
        assert rows[0].reduction_vs_easy == pytest.approx(95.0)
        assert rows[0].reduction_vs_easypp == pytest.approx(55.0 / 60.0 * 100.0)
        vs_easy, vs_easypp = average_reductions(rows)
        assert vs_easy == pytest.approx(95.0)

    def test_consensus(self):
        winner = "ml:lin-lin-constant|doubling|easy"
        rows = leave_one_out(fabricated_result(winner))
        triple, folds = selection_consensus(rows)
        assert triple == Components.make("ml:lin-lin-constant", "doubling", "easy")
        assert folds == 3

    def test_clairvoyant_never_selected(self):
        """The references are upper bounds, not deployable triples."""
        rows = leave_one_out(fabricated_result("nonexistent-key"))
        assert all(row.selected.predictor.name != "clairvoyant" for row in rows)

    def test_single_log_rejected(self):
        result = fabricated_result("x", logs=("KTH-SP2",))
        with pytest.raises(ValueError):
            leave_one_out(result)

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            selection_consensus([])
        with pytest.raises(ValueError):
            average_reductions([])


class TestPartialCampaign:
    """Leave-one-out over a result that holds only part of the matrix."""

    TRIPLES = [
        ("requested", None, "easy"),
        ("ave2", "incremental", "easy-sjbf"),
        ("ml:sq-lin-large-area", "incremental", "easy-sjbf"),
        ("ml:sq-sq-constant", "incremental", "easy-sjbf"),
        ("clairvoyant", None, "easy-sjbf"),
    ]

    def test_partial_matrix_selects_a_present_non_clairvoyant_triple(self):
        logs = ("KTH-SP2", "CTC-SP2")
        cells = [
            CellSpec.make(WorkloadSpec.make(log, n_jobs=120), *triple)
            for triple in self.TRIPLES
            for log in logs
        ]
        result = run_cells(cells, workers=1)
        rows = leave_one_out(result)
        assert [row.log for row in rows] == list(logs)
        present = {Components.make(*t) for t in self.TRIPLES}
        for row in rows:
            assert row.selected in present
            assert row.selected.predictor.name != "clairvoyant"
            assert row.cv_score == result.mean(row.log, row.selected)

    def test_only_triples_on_every_training_log_compete(self):
        winner = Components.make("ml:sq-lin-large-area", "incremental", "easy-sjbf")
        full = fabricated_result(winner.label)
        # the would-be winner is missing from one log
        cells = [
            cell for cell in full.cells
            if not (cell.workload.log == "CTC-SP2" and cell.components == winner)
        ]
        partial = SpecCampaignResult(cells=cells, scores=full.scores)
        assert partial.best(logs=("KTH-SP2", "SDSC-SP2")) == winner
        # lowest fabricated score after the winner, EASY and EASY++
        runner_up = Components.make("requested", None, "easy-sjbf")
        assert partial.best(logs=("KTH-SP2", "CTC-SP2")) == runner_up
