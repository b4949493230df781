"""Checks that the benchmark's own checks catch what they must.

Usage (from the root of a checkout)::

    PYTHONPATH=src python3 perfbench/selftest.py

* a golden AVEbsld nudged by one ulp is reported as a failure, the true
  value passes;
* a cell with no golden value falls to the legacy-oracle check, which
  passes the true score and fails a wrong one;
* a served schedule with one start moved is reported as a failure;
* traced spans give self times that add up: a parent's self time is its
  duration minus its children's, and no child outgrows its parent.

Exits 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import math
import os
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402
from repro.core.campaign import run_cells  # noqa: E402
from repro.spec import expand_spec_file  # noqa: E402
from tracing import Tracer  # noqa: E402


def expect(label: str, checker: wl.Checker, failed: int) -> bool:
    ok = checker.failed == failed
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {checker.failed} failure(s), expected {failed}")
    return ok


def campaign_checks() -> list[bool]:
    cells = expand_spec_file(os.path.join(ROOT, wl.PAPER_SPEC))
    cell = wl.population("deep-queue-telemetry", cells)[0]
    golden = wl.load_golden(ROOT, "deep-queue-telemetry")["scores"]
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_runs")) as tmp:
        result = run_cells([cell], cache_path=os.path.join(tmp, "c.jsonl"), workers=1)
    scores = result.scores
    results = []

    checker = wl.Checker()
    wl.check_scores(checker, [cell], scores, golden, "cold")
    results.append(expect("true golden value", checker, 0))

    tampered = dict(golden)
    tampered[cell.digest()] = math.nextafter(golden[cell.digest()], math.inf)
    checker = wl.Checker()
    wl.check_scores(checker, [cell], scores, tampered, "cold")
    results.append(expect("golden value nudged by one ulp", checker, 1))

    checker = wl.Checker()
    unchecked = wl.check_scores(checker, [cell], scores, {}, "cold")
    picked = wl.oracle_sample("deep-queue-telemetry", 0, [], unchecked)
    wl.check_oracle(checker, picked, scores)
    results.append(expect("no golden value, oracle on the true score", checker, 0))

    checker = wl.Checker()
    wrong = {cell.digest(): scores[cell.digest()] * 1.5}
    wl.check_oracle(checker, picked, wrong)
    results.append(expect("no golden value, oracle on a wrong score", checker, 1))
    return results


def serve_checks() -> list[bool]:
    rows = wl.load_golden(ROOT, "serve-conservative")["rows"]
    out = {"n_requests": 10, "responses_ok": 10, "rows": rows, "status": []}
    checker = wl.Checker()
    wl.serve_checks(checker, {"rows": rows}, out)
    results = [expect("served rows equal to golden", checker, 0)]
    moved = [list(row) for row in rows]
    moved[len(moved) // 2][1] += 1.0
    checker = wl.Checker()
    wl.serve_checks(checker, {"rows": rows}, dict(out, rows=moved))
    results.append(expect("one served start moved", checker, 1))
    checker = wl.Checker()
    wl.serve_checks(checker, {"rows": rows}, dict(out, responses_ok=7))
    results.append(expect("three ok:false answers", checker, 3))
    return results


def tracer_checks() -> list[bool]:
    tracer = Tracer()
    leaf = tracer.hot("leaf", lambda: time.sleep(0.002))

    def middle() -> None:
        leaf()
        leaf()
        time.sleep(0.001)

    outer = tracer.coarse("outer", tracer.hot("middle", middle))
    outer()
    totals = tracer.totals()
    calls, incl, own = totals["middle"]
    leaf_incl = totals["leaf"][1]
    span_self = totals["outer"][2]
    ok = (
        calls == 1
        and totals["leaf"][0] == 2
        and math.isclose(own, incl - leaf_incl, rel_tol=1e-9)
        and own >= 0.001
        and 0.0 <= span_self < incl
        and tracer.nesting_violations() == 0
    )
    print(f"{'ok  ' if ok else 'FAIL'} span self times: middle {own * 1e3:.3f} ms self "
          f"of {incl * 1e3:.3f} ms, leaves {leaf_incl * 1e3:.3f} ms")
    return [ok]


def main() -> int:
    os.environ.pop("REPRO_SWF_DIR", None)
    os.makedirs(os.path.join(ROOT, ".bench_runs"), exist_ok=True)
    results = campaign_checks() + serve_checks() + tracer_checks()
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
