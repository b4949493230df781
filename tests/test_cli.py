"""Unit tests for the command-line interface."""

import os
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main
from repro.spec import PAPER_SPEC
from repro.workload import load_swf

from tests.helpers import triple_cell


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_log_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sim", "--log", "NOPE"])


class TestLogsCommand:
    def test_prints_table4(self, capsys):
        assert main(["logs"]) == 0
        out = capsys.readouterr().out
        for name in ("KTH-SP2", "Curie", "Metacentrum"):
            assert name in out
        assert "80640" in out  # Curie's CPU count


class TestSynthCommand:
    def test_writes_swf(self, tmp_path, capsys):
        out_path = tmp_path / "t.swf"
        assert main(["synth", str(out_path), "--log", "KTH-SP2", "--n-jobs", "80"]) == 0
        trace, report = load_swf(out_path)
        assert len(trace) == 80
        assert "wrote" in capsys.readouterr().out

    def test_omitted_seed_is_derived_and_printed(self, tmp_path, capsys):
        """Every run must be reproducible from its own output: with
        --seed omitted the derived seed is printed, and re-running with
        that seed writes a byte-identical trace."""
        from repro.workload import stable_seed

        first = tmp_path / "a.swf"
        assert main(["synth", str(first), "--log", "Curie", "--n-jobs", "60"]) == 0
        out = capsys.readouterr().out
        derived = stable_seed("Curie")
        assert f"seed {derived}" in out
        assert "derived from log name" in out

        second = tmp_path / "b.swf"
        assert main([
            "synth", str(second), "--log", "Curie", "--n-jobs", "60",
            "--seed", str(derived),
        ]) == 0
        out = capsys.readouterr().out
        assert "from --seed" in out
        assert first.read_bytes() == second.read_bytes()


class TestSimCommand:
    def test_easy_run(self, capsys):
        code = main([
            "sim", "--log", "KTH-SP2", "--n-jobs", "200",
            "--predictor", "requested", "--scheduler", "easy",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "AVEbsld" in out
        assert "EASY (standard)" in out

    def test_ml_run_with_correction(self, capsys):
        code = main([
            "sim", "--log", "Curie", "--n-jobs", "200",
            "--predictor", "ml:sq-lin-large-area",
            "--corrector", "incremental", "--scheduler", "easy-sjbf",
        ])
        assert code == 0
        assert "winner" in capsys.readouterr().out

    def test_omitted_seed_is_derived_and_printed(self, capsys):
        from repro.workload import stable_seed

        assert main(["sim", "--log", "KTH-SP2", "--n-jobs", "120"]) == 0
        out = capsys.readouterr().out
        assert f"seed       : {stable_seed('KTH-SP2')} (derived from log name)" in out

    def test_explicit_seed_reproduces(self, capsys):
        args = ["sim", "--log", "KTH-SP2", "--n-jobs", "120", "--seed", "77"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "seed       : 77 (from --seed)" in first
        assert main(args) == 0
        assert capsys.readouterr().out == first


MINI_SPEC = """
[campaign]
name = "cli-mini"
logs = ["KTH-SP2"]
n_jobs = 60
replicas = 1

[[grid]]
predictor = ["requested"]
corrector = ["none"]
scheduler = ["easy", "easy-sjbf"]
"""


class TestSpecCommands:
    def test_validate_ok(self, tmp_path, capsys):
        path = tmp_path / "mini.toml"
        path.write_text(MINI_SPEC)
        assert main(["spec", "validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "2 cell(s)" in out

    def test_validate_reports_failures_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.toml"
        bad.write_text("[campaign]\nlogs = [\"KTH-SP2\"]\n[[grid]]\npredictor = [\"warp-drive\"]\nscheduler = [\"easy\"]\n")
        assert main(["spec", "validate", str(bad)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_expand_keys(self, tmp_path, capsys):
        path = tmp_path / "mini.toml"
        path.write_text(MINI_SPEC)
        assert main(["spec", "expand", str(path), "--format", "keys"]) == 0
        out = capsys.readouterr().out
        assert "requested|none|easy" in out
        assert "requested|none|easy-sjbf" in out

    def test_expand_checked_in_paper_spec(self, capsys):
        assert main([
            "spec", "expand", "experiments/paper.toml",
            "--format", "keys", "--limit", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "requested|none|easy" in out
        assert "130 unique triple key(s)" in out

    def test_campaign_with_spec_file(self, tmp_path, capsys):
        path = tmp_path / "mini.toml"
        path.write_text(MINI_SPEC)
        cache = tmp_path / "cache.jsonl"
        assert main([
            "campaign", "--spec", str(path), "--cache", str(cache), "--workers", "1",
        ]) == 0
        out = capsys.readouterr().out
        # not the full paper matrix -> leaderboard fallback
        assert "Scenario leaderboard" in out
        assert "mean s/cell" in out  # timing column from this run's durations
        assert cache.exists()


class TestVersionAndMetrics:
    def test_version_reports_all_version_fences(self, capsys):
        from repro import __version__
        from repro.core.campaign import CACHE_VERSION
        from repro.sim.engine import ENGINE_VERSION

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert f"repro {__version__}" in out
        assert f"engine v{ENGINE_VERSION}" in out
        assert f"cache v{CACHE_VERSION}" in out

    def test_sim_telemetry_then_metrics_render(self, tmp_path, capsys):
        tele_dir = tmp_path / "tele"
        assert main([
            "sim", "--log", "KTH-SP2", "--n-jobs", "60",
            "--telemetry", str(tele_dir),
        ]) == 0
        capsys.readouterr()
        assert (tele_dir / "metrics-sim.json").exists()
        assert (tele_dir / "metrics-sim.prom").exists()
        assert main(["metrics", str(tele_dir)]) == 0
        out = capsys.readouterr().out
        assert "== sim ==" in out
        assert "engine.events.submit" in out

    def test_metrics_prom_and_json_formats(self, tmp_path, capsys):
        tele_dir = tmp_path / "tele"
        assert main([
            "sim", "--log", "KTH-SP2", "--n-jobs", "60",
            "--telemetry", str(tele_dir),
        ]) == 0
        capsys.readouterr()
        assert main(["metrics", str(tele_dir), "--format", "prom"]) == 0
        assert "repro_engine_events_submit_total" in capsys.readouterr().out
        assert main(["metrics", str(tele_dir), "--format", "json"]) == 0
        import json as jsonlib

        snaps = jsonlib.loads(capsys.readouterr().out)
        assert snaps[0]["component"] == "sim"

    def test_metrics_diff_between_two_runs(self, tmp_path, capsys):
        before, after = tmp_path / "before", tmp_path / "after"
        for directory, n_jobs in ((before, "40"), (after, "80")):
            assert main([
                "sim", "--log", "KTH-SP2", "--n-jobs", n_jobs,
                "--telemetry", str(directory),
            ]) == 0
        capsys.readouterr()
        assert main(["metrics", str(before), str(after)]) == 0
        out = capsys.readouterr().out
        assert "== sim (delta) ==" in out
        assert "engine.events.submit" in out and "+40" in out

    def test_metrics_empty_directory_fails(self, tmp_path, capsys):
        assert main(["metrics", str(tmp_path)]) == 1
        assert "no metrics-" in capsys.readouterr().out

    def test_campaign_telemetry_covers_engine_and_campaign(self, tmp_path, capsys):
        path = tmp_path / "mini.toml"
        path.write_text(MINI_SPEC)
        tele_dir = tmp_path / "tele"
        assert main([
            "campaign", "--spec", str(path), "--workers", "1",
            "--telemetry", str(tele_dir),
        ]) == 0
        capsys.readouterr()
        import json as jsonlib

        snap = jsonlib.loads((tele_dir / "metrics-campaign.json").read_text())
        assert snap["counters"]["campaign.cells.simulated"] == 2
        assert snap["counters"]["engine.cells"] == 2  # folded in from the cells
        assert "campaign.cell.seconds" in snap["histograms"]
        # the dispatch span also landed in the trace stream
        trace_lines = (tele_dir / "trace-campaign.jsonl").read_text().splitlines()
        kinds = {jsonlib.loads(line)["kind"] for line in trace_lines}
        assert "span" in kinds and "cell" in kinds


class TestDistCommands:
    def test_worker_requires_queue(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker"])

    def test_campaign_fsqueue_requires_queue(self):
        with pytest.raises(SystemExit, match="--queue"):
            main([
                "campaign", "--backend", "fsqueue",
                "--logs", "KTH-SP2", "--n-jobs", "50", "--replicas", "1",
            ])

    def test_worker_drains_prepared_queue(self, tmp_path, capsys):
        """A worker pointed at a pre-enqueued queue completes the shard
        and exits on the idle budget."""
        from repro.dist import FsQueue, plan_shards

        queue = FsQueue.create(str(tmp_path / "q"), lease_ttl=60.0)
        cells = [triple_cell("KTH-SP2", "requested|none|easy", n_jobs=60)]
        for shard in plan_shards(cells, n_shards=1):
            queue.enqueue(shard.manifest())
        code = main([
            "worker", "--queue", str(tmp_path / "q"),
            "--worker-id", "t1", "--poll", "0.05", "--max-idle", "0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "1 shard(s), 1 simulated cell(s)" in out
        assert queue.done_ids() == {"shard-0000"}

    def test_merge_command(self, tmp_path, capsys):
        import json as jsonlib

        from repro.core.campaign import CACHE_VERSION
        from repro.sim.engine import ENGINE_VERSION

        token = f"v{CACHE_VERSION}|e{ENGINE_VERSION}|x"
        src = tmp_path / "shard.jsonl"
        src.write_text(jsonlib.dumps({"token": token, "value": 1.0}) + "\n")
        out = tmp_path / "merged.jsonl"
        assert main(["merge", "--out", str(out), str(src)]) == 0
        assert "1 unique cells" in capsys.readouterr().out
        assert out.exists()

    def test_merge_upgrade_legacy_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit):
            main([
                "merge", "--upgrade-legacy", "--out", str(tmp_path / "m.jsonl"),
                str(tmp_path),
            ])


class TestCampaignDefaults:
    def test_flags_override_the_paper_spec_and_share_its_cache(
        self, tmp_path, capsys, monkeypatch
    ):
        """``repro campaign`` runs experiments/paper.toml by default; the
        flags only override its [campaign] header, so an explicit --spec
        of the same matrix is served from the same cache rows."""
        cache = tmp_path / "cache.jsonl"
        args = ["--logs", "KTH-SP2", "--n-jobs", "60", "--replicas", "1",
                "--cache", str(cache), "--workers", "2"]
        assert main(["campaign", *args]) == 0
        out = capsys.readouterr().out
        assert "(paper-sc15): 130 cell(s)" in out
        assert "Campaign overview (paper Table 6 layout)" in out
        rows = cache.read_text()

        import repro.core.run as run_mod

        def boom(_spec, with_telemetry=False):
            raise AssertionError("a warm campaign must not simulate")

        monkeypatch.setattr(run_mod, "run_cell_report", boom)
        assert main(["campaign", "--spec", "experiments/paper.toml", *args]) == 0
        assert cache.read_text() == rows


    def test_paper_tables_refuse_a_mixed_grid(self, tmp_path, capsys):
        """Every paper reference is present, but each at two tau values:
        Table 6 would pool the thresholds, so the leaderboard is printed."""
        spec = tmp_path / "tau.toml"
        spec.write_text(
            '[campaign]\nlogs = ["KTH-SP2"]\nn_jobs = 40\nreplicas = 1\n'
            "tau = [5.0, 10.0]\n"
            '[[grid]]\npredictor = ["requested", "clairvoyant"]\n'
            'corrector = ["none"]\nscheduler = ["easy", "easy-sjbf"]\n'
            '[[grid]]\npredictor = ["ave2", "ml:sq-lin-large-area"]\n'
            'corrector = ["incremental"]\nscheduler = ["easy", "easy-sjbf"]\n'
        )
        assert main(["campaign", "--spec", str(spec), "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "Scenario leaderboard" in out
        assert "Table 6" not in out


class TestTableCommands:
    def test_table4(self, capsys):
        assert main(["table", "--which", "4"]) == 0
        assert "Table 4" in capsys.readouterr().out

    def test_table1_runs_outside_the_checkout(self, tmp_path):
        """The paper's matrix ships inside the package, and an unrelated
        ``experiments/paper.toml`` in the working directory is ignored."""
        package = os.path.dirname(os.path.abspath(repro.__file__))
        assert os.path.dirname(PAPER_SPEC).startswith(package)
        (tmp_path / "experiments").mkdir()
        (tmp_path / "experiments" / "paper.toml").write_text("not a spec = [\n")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "table", "--which", "1",
             "--n-jobs", "60", "--replicas", "1", "--workers", "2"],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": os.path.dirname(package)},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "EASY-Clairvoyant" in proc.stdout
        assert "Metacentrum" in proc.stdout

    def test_table1_small(self, tmp_path, capsys):
        cache = tmp_path / "cache.json"
        code = main([
            "table", "--which", "1", "--n-jobs", "150", "--replicas", "1",
            "--cache", str(cache),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "EASY-Clairvoyant" in out
        assert cache.exists()

    def test_table8_small(self, capsys):
        assert main(["table", "--which", "8", "--n-jobs", "300"]) == 0
        out = capsys.readouterr().out
        assert "AVE2" in out
        assert "E-Loss" in out
