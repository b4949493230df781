"""Ablation benchmarks for the design choices DESIGN.md calls out.

Not paper artefacts, but decompositions of the winning triple's gain:

1. backfill order (FCFS vs SJBF) at fixed prediction technique;
2. correction mechanism at fixed predictor;
3. loss asymmetry (symmetric squared vs E-Loss) at fixed context.

All numbers come from the shared campaign, so this file is cheap.
"""

from __future__ import annotations

import numpy as np

from repro.core.reporting import format_table

from conftest import write_artifact


def _mean_over_logs(campaign, triple: tuple) -> float:
    return float(np.mean([campaign.mean(log, triple) for log in campaign.logs]))


def test_ablation_backfill_order(campaign, benchmark):
    """SJBF vs FCFS scan order, holding the prediction technique fixed."""
    rows = []
    for predictor, corrector in [
        ("clairvoyant", None),
        ("requested", None),
        ("ave2", "incremental"),
        ("ml:sq-lin-large-area", "incremental"),
    ]:
        fcfs = _mean_over_logs(campaign, (predictor, corrector, "easy"))
        sjbf = _mean_over_logs(
            campaign, (predictor, corrector, "easy-sjbf")
        )
        rows.append((predictor, fcfs, sjbf, f"{(fcfs - sjbf) / fcfs * 100:.0f}%"))
    table = format_table(
        ["Predictor", "FCFS order", "SJBF order", "SJBF gain"],
        rows,
        title="Ablation: backfill order (mean AVEbsld over all logs)",
    )
    print("\n" + write_artifact("ablation_order.txt", table))

    # SJBF must help when predictions are accurate (clairvoyant row).
    clair_row = rows[0]
    assert clair_row[2] < clair_row[1], "SJBF must beat FCFS under clairvoyance"

    benchmark(lambda: [_mean_over_logs(campaign, ("clairvoyant", None, s))
                       for s in ("easy", "easy-sjbf")])


def test_ablation_correction_mechanism(campaign, benchmark):
    """Correction choice at fixed predictor (AVE2 and the E-Loss model)."""
    rows = []
    for predictor in ("ave2", "ml:sq-lin-large-area"):
        scores = {
            corrector: _mean_over_logs(
                campaign, (predictor, corrector, "easy-sjbf")
            )
            for corrector in ("requested", "incremental", "doubling")
        }
        rows.append(
            (predictor, scores["requested"], scores["incremental"], scores["doubling"])
        )
    table = format_table(
        ["Predictor", "Requested", "Incremental", "Doubling"],
        rows,
        title="Ablation: correction mechanism (mean AVEbsld, EASY-SJBF)",
    )
    print("\n" + write_artifact("ablation_correction.txt", table))

    # All three corrections must produce finite, valid schedules.
    for row in rows:
        assert all(np.isfinite(v) and v >= 1.0 for v in row[1:])

    benchmark(lambda: _mean_over_logs(
        campaign, ("ave2", "incremental", "easy-sjbf")))


def test_ablation_loss_asymmetry(campaign, benchmark):
    """Symmetric squared loss vs the asymmetric E-Loss, same context."""
    symmetric = ("ml:sq-sq-constant", "incremental", "easy-sjbf")
    eloss = ("ml:sq-lin-large-area", "incremental", "easy-sjbf")
    rows = []
    for log in campaign.logs:
        rows.append(
            (log, campaign.mean(log, symmetric), campaign.mean(log, eloss))
        )
    sym_mean = float(np.mean([r[1] for r in rows]))
    eloss_mean = float(np.mean([r[2] for r in rows]))
    rows.append(("MEAN", sym_mean, eloss_mean))
    table = format_table(
        ["Log", "squared (sym.)", "E-Loss (asym.)"],
        rows,
        title="Ablation: loss asymmetry (AVEbsld, Incremental + EASY-SJBF)",
    )
    note = (
        "\nNote: on the paper's production logs the asymmetric E-Loss wins; "
        "on these synthetic draws the symmetric squared loss is often "
        "stronger.  Which loss wins is log-dependent (that is exactly the "
        "paper's Figure 3 finding), so this ablation records the direction "
        "rather than asserting it.  EXPERIMENTS.md discusses the deviation."
    )
    print("\n" + write_artifact("ablation_loss.txt", table + note))

    # Both losses must still deliver the headline property: better than
    # EASY on average.
    easy_mean = _mean_over_logs(campaign, ("requested", None, "easy"))
    assert eloss_mean < easy_mean
    assert sym_mean < easy_mean

    benchmark(lambda: campaign.mean("Curie", eloss))
