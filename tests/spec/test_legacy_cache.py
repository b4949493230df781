"""Legacy (v4 tuple-keyed) cache rows next to spec-keyed rows.

The CACHE_VERSION 5 bump re-keyed every cell by spec digest.  v4 rows
are no longer served or upgraded: a cache file holding them still loads,
but they never answer a current token, and merging them is refused.
"""

import json

import pytest

from repro.core.campaign import CACHE_VERSION, ResultCache, cell_token, trace_digest
from repro.sim.engine import ENGINE_VERSION
from repro.spec import CellSpec, WorkloadSpec

N_JOBS = 60
SEED = 7
SPEC = CellSpec.make(
    WorkloadSpec.make("KTH-SP2", n_jobs=N_JOBS, seed=SEED), "requested", None, "easy"
)


def legacy_token(log="KTH-SP2", triple_key="requested|none|easy", seed=SEED):
    """A token exactly as CACHE_VERSION 4 wrote it."""
    digest = trace_digest(log, N_JOBS, seed)
    return (
        f"v4|e{ENGINE_VERSION}|{log}@{digest}|{triple_key}"
        f"|n={N_JOBS}|s={seed}|mp=60|tau=10"
    )


def write_legacy_cache(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for token, value in rows:
            fh.write(json.dumps({"token": token, "value": value}) + "\n")


class TestResultCacheLegacyRows:
    def test_current_row_wins_over_legacy_row(self, tmp_path):
        new_token = cell_token(SPEC)
        path = tmp_path / "mixed.jsonl"
        write_legacy_cache(path, [(legacy_token(), 1.0), (new_token, 2.0)])
        assert ResultCache(str(path)).get(new_token) == 2.0
        # ...in either file order
        write_legacy_cache(path, [(new_token, 2.0), (legacy_token(), 1.0)])
        assert ResultCache(str(path)).get(new_token) == 2.0
        # and a v4 row alone never answers for the current cell
        write_legacy_cache(path, [(legacy_token(), 1.0)])
        assert ResultCache(str(path)).get(new_token) is None


class TestMergeUpgradeLegacy:
    def test_merge_rejects_legacy_by_default(self, tmp_path):
        from repro.dist import merge_caches
        from repro.dist.merge import MergeVersionError

        path = tmp_path / "old.jsonl"
        write_legacy_cache(path, [(legacy_token(), 1.0)])
        with pytest.raises(MergeVersionError):
            merge_caches([str(path)])


class TestCellTokenProperties:
    def test_token_embeds_spec_digest_and_versions(self):
        token = cell_token(SPEC)
        assert token.startswith(f"v{CACHE_VERSION}|e{ENGINE_VERSION}|KTH-SP2@")
        assert token.endswith(f"|spec:{SPEC.digest()}")

    def test_non_plain_workload_digest_differs(self):
        plain = CellSpec.make(
            workload={"log": "KTH-SP2", "n_jobs": 60, "seed": 7},
            predictor="requested", corrector=None, scheduler="easy",
        )
        filtered = CellSpec.make(
            workload={
                "log": "KTH-SP2", "n_jobs": 60, "seed": 7,
                "filters": [{"name": "max-width", "params": {"processors": 25}}],
            },
            predictor="requested", corrector=None, scheduler="easy",
        )
        assert cell_token(plain) != cell_token(filtered)
        # the filtered trace digest reflects the filtered jobs
        plain_digest = cell_token(plain).split("@")[1].split("|")[0]
        filtered_digest = cell_token(filtered).split("@")[1].split("|")[0]
        assert plain_digest != filtered_digest
