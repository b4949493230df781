"""Table 6 -- AVEbsld overview of every approach on every log.

Paper layout: per log, the clairvoyant references (FCFS / SJBF backfill
order), standard EASY, EASY++, and the best-worst range over the 60
learning triples of each backfill order.

Shapes to reproduce:

* Clairvoyant EASY-SJBF (nearly) always outperforms its competitors;
* the best learning triple is obtained with SJBF and beats EASY;
* learning ranges are wide (the worst learned models are bad), which is
  why triple *selection* (Table 7) matters.
"""

from __future__ import annotations

import numpy as np

from repro.core.reporting import format_table

from conftest import write_artifact

#: Paper's Table 6 (Clairvoyant FCFS, SJBF; EASY; EASY++; learning ranges).
PAPER_TABLE6 = {
    "KTH-SP2": (71.7, 49.8, 92.6, 63.5, (62.6, 93.2), (51.4, 74.5)),
    "CTC-SP2": (37.2, 17.6, 49.6, 85.8, (25.5, 163.5), (16.3, 134.7)),
    "SDSC-SP2": (70.5, 56.8, 87.9, 79.4, (70.9, 102.3), (69.7, 194.8)),
    "SDSC-BLUE": (30.6, 13.2, 36.5, 21.0, (16.5, 48.0), (12.6, 47.8)),
    "Curie": (69.9, 12.1, 202.1, 193.5, (26.3, 9348.8), (24.3, 4010.0)),
    "Metacentrum": (81.7, 67.2, 97.6, 87.2, (86.3, 98.1), (81.5, 89.8)),
}


def test_table6(campaign, benchmark):
    rows = campaign.table6_rows()
    rendered = []
    for log, clair_fcfs, clair_sjbf, easy, easypp, rng_f, rng_s in rows:
        rendered.append(
            (
                log,
                clair_fcfs,
                clair_sjbf,
                easy,
                easypp,
                f"{rng_f[0]:.1f} - {rng_f[1]:.1f}",
                f"{rng_s[0]:.1f} - {rng_s[1]:.1f}",
            )
        )
    table = format_table(
        ["Trace", "Clairv FCFS", "Clairv SJBF", "EASY", "EASY++",
         "Learning FCFS", "Learning SJBF"],
        rendered,
        title="Table 6: AVEbsld overview (measured; paper layout)",
    )
    paper_rows = [
        (log, v[0], v[1], v[2], v[3], f"{v[4][0]:.1f} - {v[4][1]:.1f}",
         f"{v[5][0]:.1f} - {v[5][1]:.1f}")
        for log, v in PAPER_TABLE6.items()
    ]
    paper_table = format_table(
        ["Trace", "Clairv FCFS", "Clairv SJBF", "EASY", "EASY++",
         "Learning FCFS", "Learning SJBF"],
        paper_rows,
        title="Paper's Table 6 (for comparison)",
    )
    print("\n" + write_artifact("table6.txt", table + "\n\n" + paper_table))

    # Shape 1: Clairvoyant SJBF is the best column on (nearly) every log.
    wins = 0
    for _log, clair_fcfs, clair_sjbf, easy, easypp, _rng_f, _rng_s in rows:
        if clair_sjbf <= min(clair_fcfs, easy) and clair_sjbf <= easypp * 1.25:
            wins += 1
    assert wins >= 4, f"Clairvoyant SJBF best-in-class on only {wins}/6 logs"

    # Shape 2: on every log the best learning triple (SJBF order) beats EASY.
    for log, _cf, _cs, easy, _pp, _rf, rng_s in rows:
        assert rng_s[0] < easy, f"{log}: best learning triple must beat EASY"

    # Shape 3 (the paper's Sec 6.3.1 claim): the best approach is always a
    # predictive-corrective one -- the best learning triple matches or
    # beats EASY++ on (nearly) every log.
    best_beats_easypp = sum(
        1 for _log, _cf, _cs, _e, easypp, _rf, rng_s in rows if rng_s[0] <= easypp * 1.05
    )
    assert best_beats_easypp >= 4, (
        f"best learning triple competitive with EASY++ on only "
        f"{best_beats_easypp}/6 logs"
    )

    # Shape 4: learning ranges are wide (worst >= 1.5x best) on most logs --
    # picking the wrong loss/correction really hurts, hence Table 7.
    wide = sum(1 for row in rows if row[6][1] >= 1.5 * row[6][0])
    assert wide >= 4

    # Benchmark: aggregating the 128-triple score table for all logs.
    def aggregate():
        return campaign.table6_rows()

    benchmark(aggregate)


def test_campaign_has_exactly_128_triples(campaign, benchmark):
    """The paper: 'the experimental campaign runs 128 simulations' per log."""
    keys = campaign.components(include_references=False)
    assert len(keys) == 128

    def score_vector(log):
        return np.array([campaign.mean(log, k) for k in keys])

    for log in campaign.logs:
        vector = score_vector(log)
        assert vector.shape == (128,)
        assert np.isfinite(vector).all()
        assert (vector >= 1.0).all()

    benchmark(lambda: score_vector("Curie"))
