#!/usr/bin/env python
"""CI gate for the checked-in experiment spec files.

1. runs ``repro spec validate`` on every ``experiments/*.toml``;
2. runs ``repro spec expand --format keys`` on each (exercises the full
   CLI path, including the TOML fallback parser on Python 3.10);
3. asserts that ``experiments/paper.toml`` expands to **exactly** the
   committed golden list ``scripts/paper_golden.json``: its 130 ordered
   triple labels (the paper's 128 triples, then the 2 clairvoyant
   references) and the ordered spec digests of all 2340 cells, so an
   added, dropped, reordered or re-keyed cell fails;
4. asserts that ``experiments/sweeps.toml`` exercises the list-sweep
   syntax: 3 tau values x (1 + 2-eta-sweep) predictors = 9 cells.

Exits non-zero on any failure.  Usage::

    python scripts/check_specs.py [--experiments DIR]
"""

from __future__ import annotations

import argparse
import glob
import os
import json
import subprocess
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.abspath(os.path.join(_HERE, "..", "src"))
GOLDEN = os.path.join(_HERE, "paper_golden.json")

#: The paper's matrix: 128 triples + 2 references, 6 logs x 3 replicas.
N_LABELS = 130
N_CELLS = 2340


def run_cli(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def compare_golden(golden: dict, labels: list[str], digests: list[str]) -> list[str]:
    """Why the expansion differs from the golden list (empty if equal).

    Both lists must match entry for entry, in order, and the golden list
    itself must still pin the whole paper matrix.
    """
    failures = []
    if len(golden["labels"]) != N_LABELS or len(golden["digests"]) != N_CELLS:
        failures.append(
            f"golden list pins {len(golden['labels'])} label(s) and "
            f"{len(golden['digests'])} digest(s), not {N_LABELS} and {N_CELLS}"
        )
    for what, got in (("labels", labels), ("digests", digests)):
        want = golden[what]
        if got != want:
            index = next(
                (i for i, (a, b) in enumerate(zip(got, want, strict=False)) if a != b),
                min(len(got), len(want)),
            )
            failures.append(
                f"paper.toml {what} differ from the golden list at index "
                f"{index} ({len(got)} expanded, {len(want)} golden)"
            )
    return failures


def _entries(stdout: str) -> list[str]:
    return [
        line for line in stdout.splitlines()
        if line and not line.startswith(("#", "..."))
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--experiments", default="experiments")
    args = parser.parse_args(argv)

    spec_files = sorted(glob.glob(os.path.join(args.experiments, "*.toml")))
    if not spec_files:
        print(f"FAIL: no spec files under {args.experiments}/", file=sys.stderr)
        return 1

    failures = 0
    print(f"[check-specs] validating {len(spec_files)} spec file(s)")
    proc = run_cli("spec", "validate", *spec_files)
    print(proc.stdout, end="")
    if proc.returncode != 0:
        print(f"FAIL: repro spec validate exited {proc.returncode}\n{proc.stderr}",
              file=sys.stderr)
        failures += 1

    for path in spec_files:
        proc = run_cli("spec", "expand", path, "--format", "keys")
        if proc.returncode != 0:
            print(f"FAIL: repro spec expand {path} exited {proc.returncode}\n"
                  f"{proc.stderr}", file=sys.stderr)
            failures += 1
            continue
        keys = _entries(proc.stdout)
        print(f"[check-specs] {path}: {len(keys)} unique triple key(s)")
        if os.path.basename(path) == "paper.toml":
            proc_cells = run_cli("spec", "expand", path, "--format", "cells")
            # each cell line ends with "[<spec digest>]"
            digests = [
                line.rsplit("[", 1)[-1].rstrip("]")
                for line in _entries(proc_cells.stdout)
            ]
            with open(GOLDEN, encoding="utf-8") as fh:
                golden = json.load(fh)
            problems = compare_golden(golden, keys, digests)
            for problem in problems:
                print(f"FAIL: {problem}", file=sys.stderr)
            failures += len(problems)
            if not problems:
                print(
                    f"[check-specs] paper.toml == the golden {N_LABELS} "
                    f"labels and {N_CELLS} cell digests, exactly"
                )
        if os.path.basename(path) == "sweeps.toml":
            proc_cells = run_cli("spec", "expand", path, "--format", "json")
            cells = [
                line for line in proc_cells.stdout.splitlines()
                if line.startswith("{")
            ]
            # 3 tau values x (requested + 2 swept ml etas) x 1 log x 1 seed
            if len(cells) != 9:
                print(
                    f"FAIL: sweeps.toml expanded to {len(cells)} cell(s), "
                    f"expected 9 (tau x eta sweep)", file=sys.stderr,
                )
                failures += 1
            else:
                print("[check-specs] sweeps.toml == 9 swept cells, exactly")

    if failures:
        print(f"[check-specs] {failures} failure(s)", file=sys.stderr)
        return 1
    print("[check-specs] all spec files OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
