"""Command-line interface.

Usage (installed as a module)::

    python -m repro info
    python -m repro run "{A''.A1.CHILDREN} on COLUMNS CONTEXT ABCD FILTER (D.DD1)"
    python -m repro compare --tests test4,test7
    python -m repro figures
    python -m repro serve --simulate --clients 32 --window 25
    python -m repro select-views --budget 4

Every subcommand builds the paper's ABCD database (scaled by ``--scale``)
unless documented otherwise.

Exit codes are uniform across subcommands: ``0`` success, ``1`` a run
that completed but failed its check (benchmark regression, correctness
divergence, simulation shortfall), ``2`` a usage error (argparse uses the
same convention for unparseable arguments).
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Sequence

from .bench.harness import (
    AlgorithmRow,
    SharingRow,
    run_algorithm_comparison,
    run_figure,
)
from .bench.reporting import format_table
from .core.explain import explain_plan
from .engine.view_selection import greedy_select_views, materialize_selection
from .mdx import translate_mdx
from .workload.paper_queries import (
    ALL_PAPER_TESTS,
    PAPER_FIGURES,
    PAPER_TESTS,
    paper_queries,
)
from .workload.paper_schema import build_paper_database

from .core.optimizer import OPTIMIZERS

ALGORITHMS = tuple(OPTIMIZERS)


class CliError(Exception):
    """A usage error: printed to stderr, exits with code 2."""


def _add_scale(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        type=float,
        default=0.01,
        help="fraction of the paper's 2M-row base table (default 0.01)",
    )
    parser.add_argument(
        "--profile",
        metavar="FILE",
        default=None,
        help="run under a fitted calibration profile (see `repro calibrate "
        "--fit`): its cost rates replace the hand-set defaults for both "
        "planning and the simulated clock; for `calibrate --fit` this is "
        "instead the path the fitted profile is written to",
    )


def _load_profile(path: str):
    """Load a calibration profile or die with a usage error naming it."""
    from .calibrate.profile import CalibrationProfile

    try:
        return CalibrationProfile.load(path)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _build_db(args: argparse.Namespace):
    """The database per the common flags: the paper's at ``--scale`` (or,
    for ``run``, the one saved under ``--database``), under ``--profile``."""
    if getattr(args, "database", None):
        from .engine.persist import load_database

        db = load_database(args.database)
    else:
        db = build_paper_database(scale=args.scale)
    if getattr(args, "profile", None):
        db.apply_profile(_load_profile(args.profile))
    return db


def _read_mdx(args: argparse.Namespace) -> str:
    """The MDX text of ``run`` / ``explain``: ``--file`` or the positional."""
    if args.file:
        with open(args.file) as handle:
            return handle.read()
    if args.mdx:
        return args.mdx
    raise CliError("provide MDX text or --file")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Simultaneous Optimization and "
        "Evaluation of Multiple Dimensional Queries' (SIGMOD 1998)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="build the paper database and show it")
    _add_scale(info)
    info.add_argument(
        "--save", metavar="DIR",
        help="persist the built database to a directory",
    )

    run = sub.add_parser("run", help="optimize + execute one MDX expression")
    _add_scale(run)
    run.add_argument("mdx", nargs="?", help="MDX text (or use --file)")
    run.add_argument("--file", help="read the MDX expression from a file")
    run.add_argument(
        "--database", metavar="DIR",
        help="load a saved database instead of building the paper's",
    )
    run.add_argument(
        "--algorithm", default="gg", choices=ALGORITHMS,
        help="optimizer (default gg)",
    )
    run.add_argument(
        "--explain", action="store_true",
        help="print the global plan before executing",
    )
    run.add_argument(
        "--analyze", action="store_true",
        help="print EXPLAIN ANALYZE (estimated vs measured cost per class) "
        "after executing",
    )
    run.add_argument(
        "--trace", metavar="FILE",
        help="trace the batch and write the span tree as JSON "
        "(FILE ending in .chrome.json gets Chrome-trace events instead)",
    )
    run.add_argument(
        "--limit", type=int, default=10,
        help="max result rows to print per query (default 10)",
    )
    run.add_argument(
        "--pivot", action="store_true",
        help="lay the results out on the MDX axes (grid per PAGES member)",
    )
    run.add_argument(
        "--paranoia", action="store_true",
        help="differentially validate the plan and every result against "
        "the brute-force reference evaluator (slow; fails loudly on any "
        "divergence)",
    )

    compare = sub.add_parser(
        "compare", help="Table 2: compare the optimization algorithms"
    )
    _add_scale(compare)
    compare.add_argument(
        "--tests",
        default=",".join(PAPER_TESTS),
        help="comma-separated subset of: " + ", ".join(PAPER_TESTS),
    )
    compare.add_argument(
        "--paranoia", action="store_true",
        help="differentially validate every algorithm's plan and results "
        "against the brute-force reference evaluator (slow)",
    )

    figures = sub.add_parser(
        "figures", help="Figures 10-12: the three shared operators"
    )
    _add_scale(figures)

    explain = sub.add_parser(
        "explain",
        help="show the chosen plan for an MDX expression "
        "(--analyze also executes it and renders est-vs-actual per class)",
    )
    _add_scale(explain)
    explain.add_argument("mdx", nargs="?", help="MDX text (or use --file)")
    explain.add_argument("--file", help="read the MDX expression from a file")
    explain.add_argument(
        "--algorithm", default="gg", choices=ALGORITHMS,
        help="optimizer (default gg)",
    )
    explain.add_argument(
        "--analyze", action="store_true",
        help="execute the plan and annotate every class and component query "
        "with estimated vs measured cost (EXPLAIN ANALYZE)",
    )

    calibrate = sub.add_parser(
        "calibrate",
        help="cost-model calibration: run Tests 1-7 under every algorithm, "
        "report per-class Q-error quantiles and plan misrankings",
    )
    _add_scale(calibrate)
    calibrate.add_argument(
        "--tests", default=None,
        help="comma-separated subset of: " + ", ".join(ALL_PAPER_TESTS),
    )
    calibrate.add_argument(
        "--fit", action="store_true",
        help="fit CostRates coefficients from the sweep's recorded actuals "
        "(deterministic least squares, see docs/cost_model.md); with "
        "--profile FILE the fitted profile is written there",
    )
    calibrate.add_argument(
        "--report", action="store_true",
        help="with --fit: print the full before/after comparison "
        "(per-algorithm plan quality, misrankings under both rate sets) "
        "instead of just the fitted-rates summary",
    )
    calibrate.add_argument(
        "--label", default="paper",
        help="label stamped into the fitted profile (default 'paper')",
    )

    bench = sub.add_parser(
        "bench",
        help="persistent benchmark telemetry: --record writes "
        "BENCH_<label>.json; --compare gates it against a baseline "
        "(exit 1 on regression)",
    )
    _add_scale(bench)
    bench.add_argument(
        "--record", action="store_true",
        help="run the paper workload and persist a structured run record",
    )
    bench.add_argument(
        "--compare", action="store_true",
        help="compare the latest record against --baseline (or the "
        "default record path) and exit nonzero on any regression",
    )
    bench.add_argument(
        "--label", default="paper",
        help="record label; the default path is BENCH_<label>.json "
        "(default 'paper')",
    )
    bench.add_argument(
        "--baseline", metavar="FILE",
        help="baseline record to compare against "
        "(default: BENCH_<label>.json)",
    )
    bench.add_argument(
        "--output", metavar="FILE",
        help="where --record writes the record "
        "(default: BENCH_<label>.json in the current directory)",
    )
    bench.add_argument(
        "--tests", default=None,
        help="restrict the calibration sweep to a comma-separated subset "
        "of: " + ", ".join(ALL_PAPER_TESTS),
    )
    bench.add_argument(
        "--no-figures", action="store_true",
        help="skip the Figures 10-12 sharing sweeps (faster)",
    )
    bench.add_argument(
        "--leaderboard", action="store_true",
        help="render the committed BENCH_*.json records as a markdown "
        "leaderboard (standalone: no database is built)",
    )
    bench.add_argument(
        "--dir", metavar="DIR", default=None,
        help="directory --leaderboard scans for BENCH_*.json "
        "(default: current directory)",
    )

    serve = sub.add_parser(
        "serve",
        help="concurrent query service: micro-batch overlapping requests "
        "from simulated clients and report the sharing win",
        description="Drive the repro.serve subsystem under simulated "
        "concurrent load: N client threads submit overlapping MDX-derived "
        "query batches, the scheduler coalesces everything inside the "
        "batching window into one multi-query plan, and the report "
        "compares the batched simulated cost against serving each request "
        "alone.  Exits 1 if batching failed to beat serial execution.",
    )
    _add_scale(serve)
    serve.add_argument(
        "--simulate", action="store_true",
        help="run the simulated-load harness (required; a network front "
        "end is out of scope)",
    )
    serve.add_argument(
        "--clients", type=int, default=32,
        help="number of concurrent simulated clients (default 32)",
    )
    serve.add_argument(
        "--requests", type=int, default=3,
        help="requests each client issues (default 3)",
    )
    serve.add_argument(
        "--window", type=float, default=25.0, metavar="MS",
        help="micro-batching window in milliseconds (default 25)",
    )
    serve.add_argument(
        "--workers", type=int, default=4,
        help="threads executing a merged plan's classes (default 4)",
    )
    serve.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="scatter-gather execution over N hash partitions of the "
        "data (default 1 = unsharded); results are verified identical "
        "to the serial baseline",
    )
    serve.add_argument(
        "--shard-dim", default=None, metavar="DIM",
        help="dimension whose key partitions the data across shards "
        "(default: the schema's first dimension)",
    )
    serve.add_argument(
        "--overlap", type=float, default=0.75,
        help="probability a request comes from the shared expression pool "
        "(default 0.75)",
    )
    serve.add_argument(
        "--seed", type=int, default=0,
        help="workload seed (default 0)",
    )
    serve.add_argument(
        "--algorithm", default="gg", choices=ALGORITHMS,
        help="optimizer for each micro-batch (default gg)",
    )
    serve.add_argument(
        "--cache", action="store_true",
        help="attach the semantic result cache, so repeated expressions "
        "bypass planning entirely",
    )
    serve.add_argument(
        "--arrivals", action="store_true",
        help="let clients race the running scheduler instead of "
        "pre-loading the burst (latency depends on thread timing)",
    )
    serve.add_argument(
        "--no-verify", action="store_true",
        help="skip cross-checking every response against serial execution",
    )
    serve.add_argument(
        "--faults", metavar="SPEC", default=None,
        help="deterministic fault plan armed during the service run, e.g. "
        "'storage.scan:table=ABCD,nth=1;index.lookup:p=0.05' "
        "(see docs/resilience.md for the grammar)",
    )
    serve.add_argument(
        "--fault-seed", type=int, default=0, metavar="N",
        help="seed for probabilistic fault triggers (default 0)",
    )
    serve.add_argument(
        "--retries", type=int, default=3, metavar="N",
        help="max execution attempts per micro-batch before degraded "
        "replanning (default 3)",
    )
    serve.add_argument(
        "--backoff", type=float, default=50.0, metavar="MS",
        help="base retry backoff on the simulated clock (default 50)",
    )
    serve.add_argument(
        "--no-degrade", action="store_true",
        help="disable per-query raw-table fallback; still-failing queries "
        "are quarantined instead",
    )
    serve.add_argument(
        "--flight-recorder", metavar="FILE", default=None,
        help="dump the service's flight recorder (the last N batch traces "
        "plus fault/retry/quarantine events) to FILE as JSON after the "
        "run; the same path receives an automatic dump if a batch fails "
        "wholesale (see docs/observability.md)",
    )
    serve.add_argument(
        "--recorder-size", type=int, default=32, metavar="N",
        help="flight-recorder ring capacity in entries (default 32; "
        "0 disables recording and per-batch tracing)",
    )
    serve.add_argument(
        "--stats-json", metavar="FILE", default=None,
        help="write the full metrics registry (serve.stage.* latency "
        "breakdowns included) as a versioned JSON snapshot after the run",
    )

    metrics_cmd = sub.add_parser(
        "metrics",
        help="run a small workload and expose the metrics registry as "
        "Prometheus text or a JSON snapshot",
        description="Execute one paper test's queries to populate the "
        "metrics registry, then render it in the Prometheus text "
        "exposition format (default) or as the versioned JSON snapshot.  "
        "Either way the output is parsed back and checked against the "
        "registry before the command exits (exit 1 on disagreement).",
    )
    _add_scale(metrics_cmd)
    metrics_cmd.add_argument(
        "--format", choices=("prometheus", "json"), default="prometheus",
        help="exposition format (default prometheus)",
    )
    metrics_cmd.add_argument(
        "--output", metavar="FILE", default=None,
        help="write the exposition to a file instead of stdout",
    )
    metrics_cmd.add_argument(
        "--test", default="test4",
        help="paper test whose queries populate the registry "
        "(default test4); one of: " + ", ".join(ALL_PAPER_TESTS),
    )
    metrics_cmd.add_argument(
        "--algorithm", default="gg", choices=ALGORITHMS,
        help="optimizer for the workload (default gg)",
    )

    report_cmd = sub.add_parser(
        "report", help="run every paper experiment; emit a markdown report"
    )
    _add_scale(report_cmd)
    report_cmd.add_argument(
        "--output", metavar="FILE", help="write the report to a file"
    )

    select = sub.add_parser(
        "select-views", help="greedy (HRU) materialized-view selection"
    )
    _add_scale(select)
    select.add_argument(
        "--budget", type=int, default=5,
        help="number of views to select (default 5)",
    )
    select.add_argument(
        "--materialize", action="store_true",
        help="also materialize the selection and show the resulting catalog",
    )
    return parser


def _cmd_info(args: argparse.Namespace) -> int:
    db = _build_db(args)
    print(f"schema: {db.schema.name}; base rows: "
          f"{db.catalog.get('ABCD').n_rows}")
    rows = []
    for name, n_rows, n_pages in db.table_report():
        entry = db.catalog.get(name)
        indexed = ", ".join(
            f"{db.schema.dimensions[d].name}@{lv}"
            for d, lv in sorted(entry.indexes)
        )
        rows.append((name, n_rows, n_pages, indexed or "-"))
    print(format_table(["table", "rows", "pages", "indexes"], rows))
    if args.save:
        from .engine.persist import save_database

        root = save_database(db, args.save)
        print(f"\nsaved to {root}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    mdx = _read_mdx(args)
    db = _build_db(args)
    db.paranoia = args.paranoia
    if args.paranoia:
        print("paranoia: validating plans and cross-checking every result "
              "against the reference evaluator")
    if args.pivot:
        from .mdx.pivot import evaluate_pivot

        pivot = evaluate_pivot(db, mdx, algorithm=args.algorithm)
        print(pivot.render())
        print(f"\n({len(pivot.queries)} component query(ies), "
              f"{pivot.sim_ms:.1f} sim-ms)")
        return 0
    from contextlib import nullcontext

    with db.trace() if args.trace else nullcontext():
        queries = translate_mdx(db.schema, mdx, tracer=db.tracer)
        print(f"{len(queries)} component group-by query(ies):")
        for query in queries:
            print("  " + query.describe(db.schema))
        plan = db.optimize(queries, args.algorithm)
        if args.explain:
            print()
            print(explain_plan(db, plan))
        report = db.execute(plan)
    if args.trace:
        from .obs.export import write_chrome_trace, write_trace

        if args.trace.endswith(".chrome.json"):
            write_chrome_trace(db.last_trace, args.trace)
        else:
            write_trace(db.last_trace, args.trace)
        print(f"\ntrace written to {args.trace}")
    print()
    print(report.summary())
    if args.analyze:
        print()
        print(explain_plan(db, plan, report))
    for query in queries:
        result = report.result_for(query)
        print(f"\n{query.display_name()}: {result.n_groups} group(s)")
        for names, value in result.to_named_rows(db.schema)[: args.limit]:
            print(f"  {', '.join(names):40s} {value:14.2f}")
        if result.n_groups > args.limit:
            print(f"  ... {result.n_groups - args.limit} more")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    names = _parse_tests(args.tests, PAPER_TESTS)
    db = _build_db(args)
    db.paranoia = args.paranoia
    if args.paranoia:
        print("paranoia: validating plans and cross-checking every result "
              "against the reference evaluator")
    qs = paper_queries(db.schema)
    for test_name in names:
        ids = PAPER_TESTS[test_name]
        rows = run_algorithm_comparison(
            db, [qs[i] for i in ids], ALGORITHMS
        )
        print()
        print(
            format_table(
                AlgorithmRow.HEADERS,
                [r.cells() for r in rows],
                title=f"{test_name} (Queries {ids})",
            )
        )
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    db = _build_db(args)
    for key, spec in PAPER_FIGURES.items():
        print()
        print(
            format_table(
                SharingRow.HEADERS,
                [r.cells() for r in run_figure(db, key)],
                title=spec.title,
            )
        )
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    """``run``'s plan-and-print, executing only to ``--analyze``."""
    mdx = _read_mdx(args)
    db = _build_db(args)
    plan = db.optimize(translate_mdx(db.schema, mdx), args.algorithm)
    print(explain_plan(db, plan))
    if args.analyze:
        print()
        print(explain_plan(db, plan, db.execute(plan)))
    return 0


def _parse_tests(
    spec: Optional[str], known: Dict[str, List[int]] = ALL_PAPER_TESTS
) -> Optional[List[str]]:
    """A comma-separated ``--tests`` value as names of ``known`` — the table
    the sweep underneath accepts — or a usage error listing it."""
    if spec is None:
        return None
    names = [t.strip() for t in spec.split(",") if t.strip()]
    unknown = [t for t in names if t not in known]
    if unknown:
        raise CliError(f"unknown tests {unknown}; choose from {list(known)}")
    return names


def _cmd_serve(args: argparse.Namespace) -> int:
    from .engine.result_cache import attach_cache
    from .serve import ServeConfig, SimulationConfig, run_simulation

    if not args.simulate:
        raise CliError("pass --simulate (the only serve mode available)")
    if args.clients <= 0 or args.requests <= 0:
        raise CliError("--clients and --requests must be positive")
    if args.flight_recorder and args.recorder_size == 0:
        raise CliError(
            "--flight-recorder needs a nonzero --recorder-size "
            "(0 disables recording)"
        )
    fault_plan = None
    if args.faults:
        from .faults import parse_fault_plan

        try:
            fault_plan = parse_fault_plan(args.faults, seed=args.fault_seed)
        except ValueError as exc:
            raise CliError(f"bad --faults spec: {exc}") from exc
    try:
        serve = ServeConfig(
            window_ms=args.window,
            # The whole pre-loaded burst may ride one batch.
            max_batch_requests=args.clients * args.requests,
            n_workers=args.workers,
            algorithm=args.algorithm,
            max_attempts=args.retries,
            backoff_base_ms=args.backoff,
            degrade=not args.no_degrade,
            shards=args.shards,
            shard_dim=args.shard_dim,
            flight_recorder=args.recorder_size,
            flight_recorder_path=args.flight_recorder,
        )
    except ValueError as exc:
        raise CliError(f"bad serve configuration: {exc}") from exc
    db = _build_db(args)
    if args.shard_dim is not None and args.shard_dim not in [
        dim.name for dim in db.schema.dimensions
    ]:
        raise CliError(
            f"unknown --shard-dim {args.shard_dim!r}; choose from "
            f"{[dim.name for dim in db.schema.dimensions]}"
        )
    if args.cache:
        attach_cache(db)
    config = SimulationConfig(
        n_clients=args.clients,
        requests_per_client=args.requests,
        seed=args.seed,
        overlap=args.overlap,
        preload=not args.arrivals,
        verify=not args.no_verify,
        faults=fault_plan,
        serve=serve,
    )
    print(
        f"simulating {config.n_clients} client(s) x "
        f"{config.requests_per_client} request(s), window "
        f"{serve.window_ms:g} ms, {serve.n_workers} worker(s), "
        f"algorithm {serve.algorithm}"
        + (f", {serve.shards} shard(s)" if serve.shards > 1 else "")
        + (" (result cache attached)" if args.cache else "")
        + (f" (faults armed: {fault_plan.describe()})" if fault_plan else "")
    )
    report = run_simulation(db, config)
    print()
    print(report.render())
    if args.flight_recorder and report.recorder is not None:
        path = report.recorder.dump(args.flight_recorder)
        print(
            f"\nflight recorder ({len(report.recorder)} entry(ies), "
            f"{report.recorder.n_recorded} recorded) -> {path}"
        )
    if args.stats_json:
        from .obs.expose import write_metrics_json

        print(f"metrics snapshot -> {write_metrics_json(args.stats_json)}")
    if (
        fault_plan is None
        and args.shards == 1
        and report.batched_sim_ms >= report.serial_sim_ms
    ):
        # Under injected faults the batched cost legitimately includes
        # retries and degraded replans; under sharding, every shard pays
        # its own dimension hash builds (the price of the parallelism).
        # The sharing gate applies only to the plain batched path.
        print(
            "\nbatched execution did not beat serial execution; widen the "
            "window or raise --overlap",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json

    from .obs.expose import (
        metrics_snapshot,
        parse_prometheus,
        render_prometheus,
        snapshot_agrees,
    )
    from .obs.metrics import default_registry

    if args.test not in ALL_PAPER_TESTS:
        raise CliError(
            f"unknown test {args.test!r}; choose from {list(ALL_PAPER_TESTS)}"
        )
    db = _build_db(args)
    qs = paper_queries(db.schema)
    queries = [qs[i] for i in ALL_PAPER_TESTS[args.test]]
    plan = db.optimize(queries, args.algorithm)
    db.execute(plan)

    registry = default_registry()
    flat = registry.as_dict()
    if args.format == "json":
        snapshot = metrics_snapshot(registry)
        if not snapshot_agrees(snapshot, flat):
            print(
                "error: JSON snapshot disagrees with the registry dump",
                file=sys.stderr,
            )
            return 1
        text = json.dumps(snapshot, indent=2, allow_nan=False) + "\n"
    else:
        text = render_prometheus(registry)
        parsed = parse_prometheus(text)  # raises ValueError on bad lines
        from .obs.expose import sanitize_name

        missing = {
            sanitize_name(name) for name in flat
        } - set(parsed)
        if missing:
            print(
                f"error: exposition lost metric(s): {sorted(missing)}",
                file=sys.stderr,
            )
            return 1
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text)
        print(
            f"{len(flat)} metric(s) ({args.format}) -> {args.output}"
        )
    else:
        print(text, end="")
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from .calibrate import fit_database, run_calibration

    if args.report and not args.fit:
        raise CliError("--report requires --fit")
    if args.fit:
        # --profile names the OUTPUT here, so build the database on its
        # hand-set default rates rather than loading the file.
        db = build_paper_database(scale=args.scale)
        outcome = fit_database(
            db,
            tests=_parse_tests(args.tests),
            label=args.label,
            scale=args.scale,
        )
        print(
            outcome.render_report() if args.report
            else outcome.render_summary()
        )
        if args.profile:
            path = outcome.profile.save(args.profile)
            print(f"\ncalibration profile '{args.label}' -> {path}")
        return 0
    db = _build_db(args)
    report = run_calibration(db, tests=_parse_tests(args.tests))
    print(report.render())
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench.history import (
        RunRecord,
        compare_records,
        default_record_path,
        record_run,
    )

    if args.leaderboard:
        from .bench.leaderboard import load_records, render_leaderboard

        if args.record or args.compare:
            raise CliError(
                "--leaderboard renders committed records and cannot be "
                "combined with --record/--compare"
            )
        try:
            records = load_records(args.dir)
        except ValueError as exc:  # includes json.JSONDecodeError
            raise CliError(f"unreadable benchmark record: {exc}") from exc
        if not records:
            where = args.dir or "."
            raise CliError(
                f"no BENCH_*.json records in {where}; record one first "
                f"with `repro bench --record`"
            )
        table = render_leaderboard(records)
        if args.output:
            from pathlib import Path

            Path(args.output).write_text(table + "\n")
            print(f"leaderboard ({len(records)} record(s)) -> {args.output}")
        else:
            print(table)
        return 0
    if not args.record and not args.compare:
        raise CliError("pass --record, --compare, and/or --leaderboard")
    default_path = default_record_path(args.label)
    baseline = None
    if args.compare:
        # Load before --record overwrites the default path, so a combined
        # --record --compare gates against the *previous* record.
        baseline_path = args.baseline or default_path
        try:
            baseline = RunRecord.load(baseline_path)
        except FileNotFoundError:
            raise CliError(
                f"no baseline at {baseline_path}; record one first "
                f"with `repro bench --record`"
            ) from None
        except ValueError as exc:  # includes json.JSONDecodeError
            raise CliError(
                f"baseline {baseline_path} is not a readable benchmark "
                f"record: {exc}"
            ) from exc
    latest = record_run(
        label=args.label,
        scale=args.scale,
        tests=_parse_tests(args.tests),
        figures=not args.no_figures,
        profile=_load_profile(args.profile) if args.profile else None,
    )
    if args.record:
        path = args.output or default_path
        latest.save(path)
        print(f"recorded benchmark run '{args.label}' -> {path}")
    if args.compare:
        print(f"comparing against baseline {baseline_path} "
              f"(recorded {baseline.created_at or 'unknown'})")
        result = compare_records(latest, baseline)
        if result.fingerprint_mismatch is not None:
            # A baseline from a different schema/scale/rates is a usage
            # error, not a regression: exit 2, like any other bad input.
            raise CliError(
                f"baseline {baseline_path} is incomparable: "
                f"{result.fingerprint_mismatch}"
            )
        print(result.render())
        if not result.passed:
            return 1
    return 0


def _cmd_select_views(args: argparse.Namespace) -> int:
    db = _build_db(args)
    n_base = db.catalog.get("ABCD").n_rows
    selection = greedy_select_views(db.schema, n_base, n_views=args.budget)
    print(
        format_table(
            ["step", "view", "est rows", "benefit (rows saved)"],
            [
                (i + 1, step.view.name(db.schema), step.estimated_rows,
                 step.benefit)
                for i, step in enumerate(selection.steps)
            ],
            title=f"Greedy view selection (budget {args.budget}, "
            f"base {n_base} rows)",
        )
    )
    if args.materialize:
        created = materialize_selection(db, selection)
        print(f"\nmaterialized: {created}")
        print(format_table(
            ["table", "rows", "pages"], db.table_report()
        ))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .bench.paper_report import generate_report

    text = generate_report(scale=args.scale, output=args.output)
    if args.output:
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


_COMMANDS = {
    "info": _cmd_info,
    "run": _cmd_run,
    "compare": _cmd_compare,
    "figures": _cmd_figures,
    "explain": _cmd_explain,
    "calibrate": _cmd_calibrate,
    "metrics": _cmd_metrics,
    "bench": _cmd_bench,
    "serve": _cmd_serve,
    "report": _cmd_report,
    "select-views": _cmd_select_views,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code (0 success, 1 failed
    check, 2 usage error)."""
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
