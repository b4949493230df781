"""Command-line interface.

Subcommands::

    repro logs                       # list the archive logs (Table 4)
    repro synth --log Curie out.swf  # write a synthetic SWF file
    repro sim --log KTH-SP2 --predictor ml:sq-lin-large-area \\
              --corrector incremental --scheduler easy-sjbf
    repro campaign --n-jobs 1500 --replicas 2 --cache camp.json
    repro campaign --spec experiments/paper.toml --cache camp.json
    repro campaign --backend fsqueue --queue /shared/q --cache camp.json
    repro spec validate experiments/*.toml   # check experiment files
    repro spec expand experiments/paper.toml # list the expanded cells
    repro train --log KTH-SP2 --epochs 4     # train + checkpoint a policy
    repro eval --policy DIGEST --log KTH-SP2 # rank it vs heuristics
    repro serve --processors 1024    # live JSONL session (README: Serving mode)
    repro worker --queue /shared/q   # drain shards from a queue dir
    repro merge --out merged.jsonl /shared/q/results
    repro check [--json] [--rules ...]   # static invariant checker
    repro table --which 1|6|7|8      # print a paper table reproduction
    repro metrics RUN_DIR            # render telemetry snapshots
    repro metrics BEFORE_DIR AFTER_DIR   # counter deltas between two runs

``sim``, ``campaign``, ``worker`` and ``serve`` accept ``--telemetry
DIR``: counters/histograms land in ``DIR/metrics-<component>.json`` (+
Prometheus text) and spans in ``DIR/trace-<component>.jsonl``; render
with ``repro metrics DIR``.  ``-v``/``-vv`` (or ``REPRO_LOG=INFO``)
raises the log level.  ``python -m repro`` works as well as the
installed ``repro`` script.
"""

from __future__ import annotations

import argparse
import os
import sys

from .core import (
    EASY,
    EASYPP,
    ELOSS,
    analyze_predictions,
    average_reductions,
    leave_one_out,
    run_cells,
    run_spec,
    selection_consensus,
    table8_rows,
)
from .core.reporting import format_leaderboard, format_percent, format_table
from .spec import PAPER_SPEC
from .workload import LOG_NAMES, get_trace, save_swf, stable_seed, table4_rows

__all__ = ["main", "build_parser"]

#: ``repro sim`` names the paper's reference triples.
_DESCRIPTIONS = {
    EASY: "EASY (standard)",
    EASYPP: "EASY++ (Tsafrir et al.)",
    ELOSS: "E-Loss learning + Incremental + EASY-SJBF (paper's winner)",
}

_TELEMETRY_HELP = (
    "write counters/histograms and a span trace into this directory "
    "(render with `repro metrics DIR`)"
)


def _version_string() -> str:
    from . import __version__
    from .core.campaign import CACHE_VERSION
    from .sim.engine import ENGINE_VERSION
    from .spec import SPEC_VERSION

    return (
        f"repro {__version__} (engine v{ENGINE_VERSION}, "
        f"cache v{CACHE_VERSION}, spec v{SPEC_VERSION})"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Improving Backfilling by using Machine "
            "Learning to predict Running Times' (SC 2015)"
        ),
    )
    parser.add_argument("--version", action="version", version=_version_string())
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="log INFO (-v) or DEBUG (-vv); REPRO_LOG=LEVEL works too",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("logs", help="list the archive logs (paper Table 4)")

    p_synth = sub.add_parser("synth", help="write a synthetic SWF trace")
    p_synth.add_argument("output", help="output .swf path")
    p_synth.add_argument("--log", required=True, choices=LOG_NAMES)
    p_synth.add_argument("--n-jobs", type=int, default=2000)
    p_synth.add_argument("--seed", type=int, default=None)

    p_sim = sub.add_parser("sim", help="run one heuristic triple on one log")
    p_sim.add_argument("--log", required=True, choices=LOG_NAMES)
    p_sim.add_argument("--n-jobs", type=int, default=2000)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--predictor", default="requested")
    p_sim.add_argument("--corrector", default="none")
    p_sim.add_argument("--scheduler", default="easy")
    p_sim.add_argument("--tau", type=float, default=10.0)
    p_sim.add_argument("--telemetry", default=None, metavar="DIR", help=_TELEMETRY_HELP)

    p_camp = sub.add_parser(
        "campaign",
        help="run the paper's 128-triple campaign, or any experiment spec file",
    )
    p_camp.add_argument(
        "--spec",
        default=PAPER_SPEC,
        help="run the cells expanded from this experiment spec file "
        "(TOML/JSON; default: the paper's matrix, experiments/paper.toml, "
        "which ships with the package)",
    )
    p_camp.add_argument("--logs", nargs="*", default=None, help="override the spec's logs")
    p_camp.add_argument("--n-jobs", type=int, default=None, help="override its n_jobs")
    p_camp.add_argument("--replicas", type=int, default=None, help="override its replicas")
    p_camp.add_argument("--cache", default=None, help="JSONL result-cache path")
    p_camp.add_argument("--workers", type=int, default=None)
    p_camp.add_argument(
        "--progress-log",
        default=None,
        help="stream JSONL progress events here (render with core.format_progress)",
    )
    p_camp.add_argument(
        "--backend",
        choices=["local", "fsqueue"],
        default="local",
        help="dispatch: this host's process pool, or coordinate "
        "`repro worker` processes over a shared queue directory",
    )
    p_camp.add_argument(
        "--queue", default=None, help="fsqueue: the shared queue directory"
    )
    p_camp.add_argument(
        "--shards", type=int, default=None,
        help="fsqueue: fixed shard count (default: ~16 cells per shard)",
    )
    p_camp.add_argument(
        "--lease-ttl", type=float, default=300.0,
        help="fsqueue: seconds without heartbeat before a shard is re-queued",
    )
    p_camp.add_argument(
        "--max-attempts", type=int, default=3,
        help="fsqueue: attempts per shard before the campaign fails",
    )
    p_camp.add_argument(
        "--dist-timeout", type=float, default=None,
        help="fsqueue: give up after this many seconds without completion",
    )
    p_camp.add_argument("--telemetry", default=None, metavar="DIR", help=_TELEMETRY_HELP)

    p_serve = sub.add_parser(
        "serve",
        help="long-running simulation session speaking JSONL on stdin/stdout",
    )
    p_serve.add_argument(
        "--processors", type=int, required=True, help="machine size to serve"
    )
    p_serve.add_argument("--scheduler", default="easy-sjbf")
    p_serve.add_argument("--predictor", default="ave2")
    p_serve.add_argument("--corrector", default="incremental")
    p_serve.add_argument("--min-prediction", type=float, default=60.0)
    p_serve.add_argument("--name", default="serve", help="session/trace label")
    p_serve.add_argument("--telemetry", default=None, metavar="DIR", help=_TELEMETRY_HELP)

    p_worker = sub.add_parser(
        "worker", help="claim and simulate shards from a campaign queue"
    )
    p_worker.add_argument("--queue", required=True, help="the shared queue directory")
    p_worker.add_argument("--worker-id", default=None, help="default: <host>-<pid>")
    p_worker.add_argument("--poll", type=float, default=0.5, help="claim poll seconds")
    p_worker.add_argument(
        "--max-idle", type=float, default=None,
        help="exit after this many idle seconds (default: wait for DONE/STOP)",
    )
    p_worker.add_argument(
        "--max-shards", type=int, default=None, help="exit after completing N shards"
    )
    p_worker.add_argument(
        "--telemetry", default=None, metavar="DIR", help=_TELEMETRY_HELP
    )

    p_merge = sub.add_parser(
        "merge", help="merge shard result caches into one canonical cache"
    )
    p_merge.add_argument(
        "inputs", nargs="+",
        help="shard cache files and/or directories of *.jsonl (e.g. QUEUE/results)",
    )
    p_merge.add_argument("--out", required=True, help="canonical merged cache path")
    p_merge.add_argument(
        "--no-version-check", action="store_true",
        help="accept cells from other CACHE_VERSION/ENGINE_VERSION codes (unsafe)",
    )

    p_spec = sub.add_parser(
        "spec", help="validate / expand declarative experiment spec files"
    )
    spec_sub = p_spec.add_subparsers(dest="spec_command", required=True)
    p_validate = spec_sub.add_parser(
        "validate", help="parse, expand and registry-check spec files"
    )
    p_validate.add_argument("files", nargs="+", help="experiment .toml/.json files")
    p_expand = spec_sub.add_parser(
        "expand", help="print the cells a spec file expands to"
    )
    p_expand.add_argument("file", help="experiment .toml/.json file")
    p_expand.add_argument(
        "--format", choices=["cells", "keys", "json"], default="cells",
        help="cells: one line per cell; keys: unique legacy triple keys; "
        "json: canonical cell objects",
    )
    p_expand.add_argument(
        "--limit", type=int, default=None, help="print at most N entries"
    )

    p_train = sub.add_parser(
        "train",
        help="train a backfilling policy (REINFORCE) and checkpoint it",
    )
    p_train.add_argument("--log", default="KTH-SP2", choices=LOG_NAMES)
    p_train.add_argument("--n-jobs", type=int, default=500)
    p_train.add_argument(
        "--replicas", type=int, default=2,
        help="training trace seeds: stable_seed(log) + 0..N-1",
    )
    p_train.add_argument(
        "--train-seeds", type=int, nargs="*", default=None,
        help="pin the training trace seeds explicitly (overrides --replicas)",
    )
    p_train.add_argument("--epochs", type=int, default=4)
    p_train.add_argument(
        "--episodes", type=int, default=8, help="sampled episodes per epoch"
    )
    p_train.add_argument("--lr", type=float, default=0.05)
    p_train.add_argument("--temperature", type=float, default=1.0)
    p_train.add_argument(
        "--seed", type=int, default=0, help="master seed for action noise"
    )
    p_train.add_argument("--predictor", default="ave2")
    p_train.add_argument("--corrector", default="incremental")
    p_train.add_argument("--min-prediction", type=float, default=60.0)
    p_train.add_argument("--tau", type=float, default=10.0)
    p_train.add_argument(
        "--store", default=None,
        help="checkpoint directory (default: $REPRO_CHECKPOINT_DIR or ./checkpoints)",
    )
    p_train.add_argument(
        "--workers", type=int, default=None, help="parallel rollout workers"
    )
    p_train.add_argument("--json", action="store_true", help="machine-readable summary")
    p_train.add_argument("--telemetry", default=None, metavar="DIR", help=_TELEMETRY_HELP)

    p_eval = sub.add_parser(
        "eval",
        help="rank a trained policy against heuristic baselines (leaderboard)",
    )
    p_eval.add_argument("--policy", required=True, help="checkpoint digest to evaluate")
    p_eval.add_argument(
        "--store", default=None,
        help="checkpoint directory (default: $REPRO_CHECKPOINT_DIR or ./checkpoints)",
    )
    p_eval.add_argument("--log", default="KTH-SP2", choices=LOG_NAMES)
    p_eval.add_argument("--n-jobs", type=int, default=500)
    p_eval.add_argument(
        "--seeds", type=int, nargs="*", default=None,
        help="evaluation trace seeds (default: one held-out seed per --replicas)",
    )
    p_eval.add_argument(
        "--replicas", type=int, default=1,
        help="without --seeds: evaluate on stable_seed(log)+offset..+offset+N-1",
    )
    p_eval.add_argument(
        "--holdout-offset", type=int, default=2,
        help="without --seeds: first evaluation seed is stable_seed(log)+OFFSET "
        "(keep it >= the training replicas so evaluation is held out)",
    )
    p_eval.add_argument("--predictor", default="ave2")
    p_eval.add_argument("--corrector", default="incremental")
    p_eval.add_argument("--min-prediction", type=float, default=60.0)
    p_eval.add_argument("--tau", type=float, default=10.0)
    p_eval.add_argument(
        "--baselines", nargs="*", default=["easy", "easy-sjbf"],
        help="heuristic schedulers to rank against",
    )
    p_eval.add_argument("--cache", default=None, help="JSONL result-cache path")
    p_eval.add_argument("--workers", type=int, default=None)
    p_eval.add_argument("--json", action="store_true", help="machine-readable leaderboard")
    p_eval.add_argument("--telemetry", default=None, metavar="DIR", help=_TELEMETRY_HELP)

    p_metrics = sub.add_parser(
        "metrics", help="render telemetry snapshots written by --telemetry DIR"
    )
    p_metrics.add_argument(
        "dirs", nargs="+", metavar="DIR",
        help="one snapshot directory to render, or two to diff (before after)",
    )
    p_metrics.add_argument(
        "--format", choices=["text", "prom", "json"], default="text",
        help="single-directory rendering: human text, Prometheus "
        "exposition, or raw snapshot JSON",
    )

    p_check = sub.add_parser(
        "check",
        help="run the static invariant checker (determinism/durability/"
        "cache-identity rules; README: Static analysis & invariants)",
    )
    p_check.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to check (default: src)",
    )
    p_check.add_argument(
        "--rules", default=None, metavar="IDS",
        help="comma-separated rule ids to run (default: the whole battery)",
    )
    p_check.add_argument(
        "--json", action="store_true",
        help="machine-readable report on stdout (schema: analysis.report)",
    )
    p_check.add_argument(
        "--list-rules", action="store_true",
        help="print the rule battery (id, scope, title) and exit",
    )
    p_check.add_argument(
        "--update-frozen", action="store_true",
        help="regenerate the FRZ001 digest file after a deliberate, "
        "oracle-proven semantics change (or an ENGINE_VERSION bump)",
    )

    p_table = sub.add_parser("table", help="print a paper table reproduction")
    p_table.add_argument("--which", required=True, choices=["1", "4", "6", "7", "8"])
    p_table.add_argument(
        "--n-jobs", type=int, default=None,
        help="override experiments/paper.toml's n_jobs (table 8: default 2000)",
    )
    p_table.add_argument(
        "--replicas", type=int, default=None, help="override its replicas"
    )
    p_table.set_defaults(spec=PAPER_SPEC)
    p_table.add_argument("--cache", default=None)
    p_table.add_argument("--workers", type=int, default=None)
    return parser


def _cmd_logs() -> int:
    rows = table4_rows()
    print(
        format_table(
            ["Name", "Year", "# CPUs", "# Jobs", "Duration"],
            rows,
            title="Workload logs (paper Table 4; published metadata)",
        )
    )
    return 0


def _resolve_seed(args: argparse.Namespace) -> tuple[int, bool]:
    """The run's seed and whether it was derived (``--seed`` omitted).

    Derived seeds use :func:`repro.workload.stable_seed`, the same
    default the campaign uses -- and are *printed*, so every CLI run is
    reproducible from its own output.
    """
    if args.seed is not None:
        return args.seed, False
    return stable_seed(args.log), True


def _telemetry_from_args(args: argparse.Namespace, component: str):
    """``(telemetry, dir)`` from ``--telemetry DIR``, or ``(None, None)``.

    The registry traces into ``DIR/trace-<component>.jsonl`` as it runs;
    call :func:`_finish_telemetry` to land the counter snapshot.
    """
    directory = getattr(args, "telemetry", None)
    if not directory:
        return None, None
    from .obs import JsonlTraceSink, Telemetry

    os.makedirs(directory, exist_ok=True)
    trace = JsonlTraceSink(os.path.join(directory, f"trace-{component}.jsonl"))
    return Telemetry(component=component, trace=trace), directory


def _finish_telemetry(telemetry, directory: str | None) -> None:
    if telemetry is None or directory is None:
        return
    path = telemetry.write(directory)
    telemetry.close()
    print(f"telemetry written to {path}", file=sys.stderr)


def _cmd_synth(args: argparse.Namespace) -> int:
    seed, derived = _resolve_seed(args)
    trace = get_trace(args.log, n_jobs=args.n_jobs, seed=seed)
    save_swf(trace, args.output)
    stats = trace.stats()
    origin = "derived from log name; pass --seed to override" if derived else "from --seed"
    print(f"seed {seed} ({origin})")
    print(f"wrote {args.output}: {stats.describe()}")
    return 0


def _cmd_sim(args: argparse.Namespace) -> int:
    from .spec import CellSpec, WorkloadSpec

    seed, derived = _resolve_seed(args)
    spec = CellSpec.make(
        WorkloadSpec.make(args.log, n_jobs=args.n_jobs, seed=seed),
        args.predictor,
        args.corrector,
        args.scheduler,
        tau=args.tau,
    )
    telemetry, tele_dir = _telemetry_from_args(args, "sim")
    try:
        outcome = run_spec(spec, telemetry=telemetry)
    finally:
        _finish_telemetry(telemetry, tele_dir)
    origin = "derived from log name" if derived else "from --seed"
    print(f"log        : {outcome.log}")
    print(f"seed       : {outcome.seed} ({origin})")
    print(f"triple     : {_DESCRIPTIONS.get(spec.components, spec.label)}")
    print(f"AVEbsld    : {outcome.avebsld:.2f}")
    print(f"utilization: {outcome.utilization:.3f}")
    print(f"corrections: {outcome.corrections}")
    print(f"max queue  : {outcome.max_queue_length}")
    return 0


def _backend_from_args(args: argparse.Namespace):
    backend = getattr(args, "backend", "local")
    if backend == "fsqueue":
        from .dist import FsQueueBroker

        if not args.queue:
            raise SystemExit("campaign --backend fsqueue requires --queue DIR")
        backend = FsQueueBroker(
            args.queue,
            n_shards=args.shards,
            lease_ttl=args.lease_ttl,
            max_attempts=args.max_attempts,
            timeout=args.dist_timeout,
        )
    return backend


def _campaign_cells(args: argparse.Namespace) -> tuple[str, list]:
    """``(name, cells)`` of ``args.spec`` (default: the paper's matrix),
    with ``--logs``/``--n-jobs``/``--replicas`` overriding its
    ``[campaign]`` header when given."""
    from .spec import expand_spec_obj, load_spec_file, override_campaign

    doc = override_campaign(
        load_spec_file(args.spec),
        logs=getattr(args, "logs", None),
        n_jobs=args.n_jobs,
        replicas=args.replicas,
    )
    name = str(doc["campaign"].get("name", os.path.basename(args.spec)))
    return name, expand_spec_obj(doc, source=args.spec)


def _run_campaign_cells(args: argparse.Namespace, cells: list, telemetry=None):
    return run_cells(
        cells,
        cache_path=args.cache,
        workers=args.workers,
        progress=True,
        progress_path=getattr(args, "progress_log", None),
        backend=_backend_from_args(args),
        telemetry=telemetry,
    )


def _print_table6(result) -> None:
    rows = []
    for log, clair_fcfs, clair_sjbf, easy, easypp, rng_f, rng_s in result.table6_rows():
        rows.append(
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
    print(
        format_table(
            ["Trace", "Clairv FCFS", "Clairv SJBF", "EASY", "EASY++", "Learn FCFS", "Learn SJBF"],
            rows,
            title="Campaign overview (paper Table 6 layout)",
        )
    )


def _cmd_campaign(args: argparse.Namespace) -> int:
    """``repro campaign``: run a spec file's cells (default: the paper's)."""
    name, cells = _campaign_cells(args)
    print(f"spec {args.spec} ({name}): {len(cells)} cell(s)")
    telemetry, tele_dir = _telemetry_from_args(args, "campaign")
    try:
        result = _run_campaign_cells(args, cells, telemetry=telemetry)
    finally:
        _finish_telemetry(telemetry, tele_dir)
    try:
        _print_table6(result)
    except (KeyError, ValueError):
        # no paper references (EASY, EASY++, clairvoyant, ML) on some log
        print(
            format_leaderboard(
                result.leaderboard(), title=f"Scenario leaderboard ({name})"
            )
        )
    return 0


def _cmd_spec(args: argparse.Namespace) -> int:
    from .spec import triple_keys_of, validate_spec_file

    if args.spec_command == "validate":
        failures = 0
        for path in args.files:
            try:
                name, cells = validate_spec_file(path)
            except Exception as exc:  # noqa: BLE001 - report every bad file
                print(f"FAIL {path}: {exc}")
                failures += 1
                continue
            legacy = sum(1 for c in cells if c.triple_key is not None)
            print(
                f"ok   {path} ({name}): {len(cells)} cell(s), "
                f"{legacy} with a legacy triple spelling"
            )
        return 1 if failures else 0

    name, cells = validate_spec_file(args.file)
    if args.format == "keys":
        entries = triple_keys_of(cells)
    elif args.format == "json":
        entries = [cell.canonical() for cell in cells]
    else:
        entries = [
            f"{cell.workload.log} n={cell.workload.n_jobs} "
            f"s={cell.workload.seed} {cell.label} [{cell.digest()}]"
            for cell in cells
        ]
    shown = entries if args.limit is None else entries[: args.limit]
    for entry in shown:
        print(entry)
    if len(shown) < len(entries):
        print(f"... ({len(entries) - len(shown)} more)")
    print(f"# {name}: {len(cells)} cell(s), {len(triple_keys_of(cells))} unique triple key(s)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: JSONL protocol loop over one live SimSession."""
    from .serve import build_serve_session, serve_loop

    telemetry, tele_dir = _telemetry_from_args(args, "serve")
    session = build_serve_session(
        processors=args.processors,
        scheduler=args.scheduler,
        predictor=args.predictor,
        corrector=args.corrector,
        min_prediction=args.min_prediction,
        name=args.name,
        telemetry=telemetry,
    )
    print(
        f"serving m={args.processors} scheduler={args.scheduler} "
        f"predictor={args.predictor} corrector={args.corrector}; "
        "one JSON request per line (see README 'Serving mode')",
        file=sys.stderr,
    )
    try:
        stats = serve_loop(session, sys.stdin, sys.stdout, telemetry=telemetry)
    finally:
        _finish_telemetry(telemetry, tele_dir)
    print(
        f"serve session closed: {stats.n_requests} request(s), "
        f"{stats.n_submitted} submitted, {stats.n_queries} query(ies), "
        f"{stats.n_errors} error(s)",
        file=sys.stderr,
    )
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from .dist import run_worker

    stats = run_worker(
        args.queue,
        worker_id=args.worker_id,
        poll_interval=args.poll,
        max_idle=args.max_idle,
        max_shards=args.max_shards,
        echo=True,
        telemetry_dir=args.telemetry,
    )
    print(
        f"worker {stats.worker_id} exiting ({stats.reason}): "
        f"{stats.shards} shard(s), {stats.cells} simulated cell(s), "
        f"{stats.cached_cells} served from earlier attempts, "
        f"{stats.abandoned} abandoned lease(s)"
    )
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    from .dist import merge_caches

    _cells, report = merge_caches(
        args.inputs,
        out_path=args.out,
        check_versions=not args.no_version_check,
    )
    print(report.describe())
    print(f"wrote {args.out}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    """``repro train``: REINFORCE a backfill policy, save the checkpoint."""
    import json

    from .dist import LocalBroker
    from .learn import TrainConfig, resolve_store, train

    config = TrainConfig(
        log=args.log,
        n_jobs=args.n_jobs,
        replicas=args.replicas,
        train_seeds=tuple(args.train_seeds) if args.train_seeds else None,
        epochs=args.epochs,
        episodes=args.episodes,
        lr=args.lr,
        temperature=args.temperature,
        seed=args.seed,
        predictor=args.predictor,
        corrector=args.corrector,
        min_prediction=args.min_prediction,
        tau=args.tau,
    )
    telemetry, tele_dir = _telemetry_from_args(args, "train")
    try:
        result = train(
            config, broker=LocalBroker(workers=args.workers), telemetry=telemetry
        )
    finally:
        _finish_telemetry(telemetry, tele_dir)
    path = result.checkpoint.save(args.store)
    if args.json:
        print(
            json.dumps(
                {
                    "digest": result.digest,
                    "path": path,
                    "best_epoch": result.best_epoch,
                    "train_avebsld": result.train_avebsld,
                    "init_avebsld": result.init_avebsld,
                    "history": result.history,
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    print(f"checkpoint : {result.digest}")
    print(f"saved to   : {path} (store: {resolve_store(args.store)})")
    print(f"train seeds: {list(config.resolved_train_seeds())}")
    print(
        f"AVEbsld    : {result.train_avebsld:.3f} trained "
        f"(init {result.init_avebsld:.3f}, best epoch {result.best_epoch})"
    )
    if result.history:
        rows = [
            (
                h["epoch"],
                f"{h['mean_return']:.2f}",
                f"{h['greedy_avebsld']:.3f}",
                f"{h['entropy']:.3f}",
                f"{h['grad_norm']:.3f}",
            )
            for h in result.history
        ]
        print(
            format_table(
                ["epoch", "mean return", "greedy AVEbsld", "entropy", "|grad|"],
                rows,
                title="Training history",
            )
        )
    print(
        f"evaluate with: repro eval --policy {result.digest} --log {args.log}"
        + (f" --store {args.store}" if args.store else "")
    )
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    """``repro eval``: leaderboard of a trained policy vs heuristics."""
    import json
    import os

    from .learn import DEFAULT_STORE_ENV, evaluate_policy
    from .workload.archive import stable_seed as _stable

    if args.store:
        # resolve the store via the environment, not the spec params, so
        # the learned cells' cache identity stays store-location-free
        os.environ[DEFAULT_STORE_ENV] = args.store
    if args.seeds:
        seeds = [int(s) for s in args.seeds]
    else:
        base = _stable(args.log) + args.holdout_offset
        seeds = [base + r for r in range(args.replicas)]
    telemetry, tele_dir = _telemetry_from_args(args, "eval")
    try:
        result = evaluate_policy(
            args.policy,
            args.log,
            seeds=seeds,
            n_jobs=args.n_jobs,
            predictor=args.predictor,
            corrector=args.corrector,
            min_prediction=args.min_prediction,
            tau=args.tau,
            baselines=args.baselines,
            cache_path=args.cache,
            workers=args.workers,
            telemetry=telemetry,
        )
    finally:
        _finish_telemetry(telemetry, tele_dir)
    board = result.leaderboard()
    if args.json:
        print(
            json.dumps(
                {
                    "policy": args.policy,
                    "log": args.log,
                    "seeds": seeds,
                    "leaderboard": [
                        {
                            "label": row.label,
                            "mean_avebsld": row.mean_score,
                            "n_cells": row.n_cells,
                            "mean_seconds": row.mean_seconds,
                        }
                        for row in board
                    ],
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    print(f"policy {args.policy} on {args.log} seeds {seeds}")
    print(
        format_leaderboard(
            board, title=f"Learned vs heuristic ({args.log})"
        )
    )
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """``repro metrics DIR [DIR2]``: render or diff telemetry snapshots."""
    import json

    from .obs import diff_snapshots, format_snapshots, load_snapshots
    from .obs.sinks import prom_text

    if len(args.dirs) > 2:
        raise SystemExit("metrics takes one directory, or two to diff")
    if len(args.dirs) == 2:
        baseline = load_snapshots(args.dirs[0])
        current = load_snapshots(args.dirs[1])
        if not baseline and not current:
            print(f"no metrics-*.json snapshots under {args.dirs[0]} or {args.dirs[1]}")
            return 1
        print(diff_snapshots(baseline, current))
        return 0
    snapshots = load_snapshots(args.dirs[0])
    if not snapshots:
        print(f"no metrics-*.json snapshots under {args.dirs[0]}")
        return 1
    if args.format == "prom":
        print("\n".join(prom_text(snap) for snap in snapshots))
    elif args.format == "json":
        print(json.dumps(snapshots, indent=2, sort_keys=True))
    else:
        print(format_snapshots(snapshots))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    """``repro check``: the static invariant checker (repro.analysis)."""
    from .analysis import (
        CheckConfig,
        format_json,
        format_text,
        resolve_rules,
        run_check,
        write_frozen,
    )
    from .analysis.core import FileRule, find_root

    if args.list_rules:
        for rule in resolve_rules(None):
            kind = "file" if isinstance(rule, FileRule) else "project"
            scope = ", ".join(rule.paths)
            print(f"{rule.id}  [{kind}]  {rule.title}  ({scope})")
        return 0
    select = None
    if args.rules:
        select = tuple(
            part.strip() for part in args.rules.split(",") if part.strip()
        )
    root = find_root(args.paths[0] if args.paths else ".")
    if args.update_frozen:
        path = write_frozen(root)
        print(f"frozen digests regenerated: {path}", file=sys.stderr)
    try:
        rules = resolve_rules(select)
        findings, files = run_check(
            args.paths, root=root, config=CheckConfig(select=select)
        )
    except KeyError as exc:
        raise SystemExit(f"repro check: {exc.args[0]}") from None
    if args.json:
        print(format_json(findings, len(files), rules))
    else:
        print(format_text(findings, len(files), rules))
    return 1 if findings else 0


def _cmd_table(args: argparse.Namespace) -> int:
    if args.which == "4":
        return _cmd_logs()
    if args.which == "8":
        analysis, _result, procs = analyze_predictions(n_jobs=args.n_jobs or 2000)
        rows = [
            (name, round(mae), f"{eloss:.3g}")
            for name, mae, eloss in table8_rows(analysis, procs)
        ]
        print(
            format_table(
                ["Prediction Technique", "MAE (s)", "Mean E-Loss"],
                rows,
                title="Prediction error vs E-Loss (paper Table 8)",
            )
        )
        return 0

    result = _run_campaign_cells(args, _campaign_cells(args)[1])
    if args.which == "1":
        rows = [
            (log, easy, clair, format_percent(red))
            for log, easy, clair, red in result.table1_rows()
        ]
        print(
            format_table(
                ["Log", "EASY", "EASY-Clairvoyant", "decrease"],
                rows,
                title="EASY vs clairvoyant EASY (paper Table 1)",
            )
        )
    elif args.which == "6":
        _print_table6(result)
    elif args.which == "7":
        rows = leave_one_out(result)
        consensus, folds = selection_consensus(rows)
        table = [
            (
                row.log,
                f"{row.cv_score:.1f} {format_percent(row.reduction_vs_easy)}",
                f"{row.easy_score:.1f}",
                f"{row.easypp_score:.1f} {format_percent(row.reduction_vs_easypp)}",
            )
            for row in rows
        ]
        print(
            format_table(
                ["Log", "C-V Heuristic triple", "EASY", "EASY++"],
                table,
                title="Cross-validated triple selection (paper Table 7)",
            )
        )
        vs_easy, vs_easypp = average_reductions(rows)
        print(
            f"\nconsensus triple: {consensus.label} "
            f"(selected in {folds}/{len(rows)} folds)"
        )
        print(f"average reduction vs EASY  : {vs_easy:.0f}% (paper: 28%)")
        print(f"average reduction vs EASY++: {vs_easypp:.0f}% (paper: 11%)")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    from .obs import setup_logging

    setup_logging(verbosity=args.verbose)
    if args.command == "logs":
        return _cmd_logs()
    if args.command == "synth":
        return _cmd_synth(args)
    if args.command == "sim":
        return _cmd_sim(args)
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "worker":
        return _cmd_worker(args)
    if args.command == "merge":
        return _cmd_merge(args)
    if args.command == "spec":
        return _cmd_spec(args)
    if args.command == "train":
        return _cmd_train(args)
    if args.command == "eval":
        return _cmd_eval(args)
    if args.command == "metrics":
        return _cmd_metrics(args)
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "table":
        return _cmd_table(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
