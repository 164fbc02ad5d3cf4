"""Command-line interface.

Usage (installed as a module)::

    python -m repro info
    python -m repro run "{A''.A1.CHILDREN} on COLUMNS CONTEXT ABCD FILTER (D.DD1)"
    python -m repro report --tests test4,test7 --no-figures
    python -m repro serve --clients 32 --window 25
    python -m repro select-views --budget 4

Every subcommand builds the paper's ABCD database (scaled by ``--scale``)
unless documented otherwise.  One subcommand per job: ``run`` is the only
one that takes MDX (``--explain`` renders the plan without executing it),
and ``report`` the only one that prints the paper's tables.

A ``repro serve`` flag that sets a config field has that field's default
(:data:`_SERVE_FLAGS`), and its help renders it: no default is written
twice.

Exit codes are uniform across subcommands: ``0`` success, ``1`` a run
that completed but failed its check (a benchmark record that does not
reproduce, correctness divergence, simulation shortfall), ``2`` a usage error (argparse uses the
same convention for unparseable arguments).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from typing import Dict, List, Optional, Sequence

from .bench.reporting import format_table
from .calibrate.profile import CalibrationProfile
from .core.explain import explain_plan
from .document import DocumentError, read_text
from .engine.view_selection import greedy_select_views, materialize_selection
from .mdx import MdxResolutionError, MdxSyntaxError, translate_mdx
from .serve import SimulationConfig, run_simulation, simulation_service
from .core.optimizer import OPTIMIZERS
from .workload.paper_queries import ALL_PAPER_TESTS, PAPER_TESTS, paper_queries
from .workload.paper_schema import build_paper_database

ALGORITHMS = tuple(OPTIMIZERS)

#: ``repro serve``'s own flags in ``--help`` order: ``(flag, field, argparse
#: options, help)``.  A flag with a field sets that field of
#: :class:`SimulationConfig` or :class:`ServeConfig`, and its default is the
#: field's — a ServeConfig field's as the simulation's own service states
#: it (:func:`simulation_service`: the window and the batch cap).
_SERVE_FLAGS = (
    ("--clients", "n_clients", {"metavar": "CLIENTS"},
     "number of concurrent simulated clients (default %(default)s)"),
    ("--requests", "requests_per_client", {"metavar": "REQUESTS"},
     "requests each client issues (default %(default)s)"),
    ("--window", "window_ms", {"metavar": "MS"},
     "micro-batching window in milliseconds (default %(default)g)"),
    ("--overlap", "overlap", {"metavar": "OVERLAP"},
     "probability a request comes from the shared expression pool (default "
     "%(default)s)"),
    ("--seed", "seed", {"metavar": "SEED"},
     "workload seed (default %(default)s)"),
    ("--algorithm", "algorithm", {"choices": ALGORITHMS},
     "optimizer for each micro-batch (default %(default)s)"),
    ("--cache", None, {"action": "store_true"},
     "attach the semantic result cache, so repeated expressions bypass "
     "planning entirely"),
    ("--arrivals", None, {"action": "store_true"},
     "let clients race the running scheduler instead of pre-loading the "
     "burst (latency depends on thread timing)"),
    ("--no-verify", None, {"action": "store_true"},
     "skip cross-checking every response against serial execution"),
    ("--faults", None, {"metavar": "SPEC"},
     "deterministic fault plan armed during the service run, e.g. "
     "'storage.scan:table=ABCD,nth=1;index.lookup:p=0.05' (see "
     "docs/resilience.md for the grammar)"),
    ("--fault-seed", None, {"type": int, "default": 0, "metavar": "N"},
     "seed for probabilistic fault triggers (default 0)"),
    ("--retries", "max_attempts", {"metavar": "N"},
     "max execution attempts per micro-batch before degraded replanning "
     "(default %(default)s)"),
    ("--backoff", "backoff_base_ms", {"metavar": "MS"},
     "base retry backoff on the simulated clock (default %(default)g)"),
    ("--no-degrade", None, {"action": "store_true"},
     "disable per-query raw-table fallback; still-failing queries are "
     "quarantined instead"),
    ("--flight-recorder", "flight_recorder_path", {"metavar": "FILE"},
     "dump the service's flight recorder (the last N batch traces plus "
     "fault/retry/quarantine events) to FILE as JSON after the run; the "
     "same path receives an automatic dump if a batch fails wholesale (see "
     "docs/observability.md)"),
    ("--recorder-size", "flight_recorder", {"metavar": "N"},
     "flight-recorder ring capacity in entries (default %(default)s; 0 "
     "disables recording and per-batch tracing)"),
    ("--stats-json", None, {"metavar": "FILE"},
     "write the full metrics registry (serve.stage.* latency breakdowns "
     "included) as a versioned JSON snapshot after the run"),
)


class CliError(Exception):
    """A usage error: printed to stderr, exits with code 2."""


def _checked(convert, ok, wanted: str):
    """An argparse ``type``: ``convert`` the text and refuse it, as a usage
    error, unless ``ok`` holds for the value."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {wanted} (got {text!r})")
        return value

    return parse


_scale = _checked(float, lambda v: math.isfinite(v) and v > 0.0, "a finite number > 0")
_count = _checked(int, lambda v: v >= 0, "an integer >= 0")
#: ``bench --label`` names the record file ``BENCH_<label>.json``.
_label = _checked(
    str, lambda v: not any(s and s in v for s in (os.sep, os.altsep)),
    "a name with no path separator",
)


def _add_scale(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        type=_scale,
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


def _add_algorithm(parser: argparse.ArgumentParser, what: str) -> None:
    parser.add_argument(
        "--algorithm", default="gg", choices=ALGORITHMS,
        help=f"{what} (default %(default)s)",
    )


def _build_db(args: argparse.Namespace):
    """The database per the common flags: the paper's at ``--scale`` (or,
    for ``run``, the one saved under ``--database``), under ``--profile``,
    and for ``run`` / ``report`` under ``--paranoia``."""
    if getattr(args, "database", None):
        from .engine.persist import load_database

        db = load_database(args.database)
    else:
        db = build_paper_database(scale=args.scale)
    if args.profile:
        db.apply_profile(CalibrationProfile.load(args.profile))
    if getattr(args, "paranoia", False):
        db.paranoia = True
        print("paranoia: validating plans and cross-checking every result "
              "against the reference evaluator")
    return db


def _read_mdx(args: argparse.Namespace) -> str:
    """The MDX text of ``run``: ``--file`` or the positional."""
    if args.file:
        return read_text(args.file, "MDX file")
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
    _add_algorithm(run, "optimizer")
    shown = run.add_mutually_exclusive_group()
    shown.add_argument(
        "--explain", action="store_true",
        help="print the component queries and the global plan, then exit "
        "without executing",
    )
    shown.add_argument(
        "--analyze", action="store_true",
        help="execute, then print EXPLAIN ANALYZE (estimated vs measured "
        "cost per class and component query) before the results",
    )
    run.add_argument(
        "--trace", metavar="FILE",
        help="trace the batch and write the span tree as JSON "
        "(FILE ending in .chrome.json gets Chrome-trace events instead)",
    )
    run.add_argument(
        "--limit", type=_count, default=10,
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
        "BENCH_<label>.json; --check RECORD re-runs a record and exits 1 "
        "unless every value reproduces exactly",
    )
    _add_scale(bench)
    bench.add_argument(
        "--record", action="store_true",
        help="run the paper workload and persist a structured run record",
    )
    bench.add_argument(
        "--check", metavar="RECORD",
        help="re-run RECORD with its own scale, tests and figures (under "
        "--profile if it was recorded under one) and exit 1 unless every "
        "value reproduces exactly",
    )
    bench.add_argument(
        "--label", type=_label, default="paper",
        help="record label; the default path is BENCH_<label>.json "
        "(default 'paper')",
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
    owners = (SimulationConfig(), simulation_service(1))
    for flag, name, options, text in _SERVE_FLAGS:
        if name is not None:
            default = next(getattr(o, name) for o in owners if hasattr(o, name))
            options = dict(options, dest=name, default=default)
            if default is not None:
                options.setdefault("type", type(default))
        serve.add_argument(flag, help=text, **options)

    metrics_cmd = sub.add_parser(
        "metrics",
        help="run a small workload and print the metrics registry as a "
        "JSON snapshot",
        description="Execute one paper test's queries to populate the "
        "metrics registry, then write it as the versioned JSON snapshot "
        "(the shape `repro serve --stats-json` writes).",
    )
    _add_scale(metrics_cmd)
    metrics_cmd.add_argument(
        "--output", metavar="FILE", default=None,
        help="write the snapshot to a file instead of stdout",
    )
    metrics_cmd.add_argument(
        "--test", default="test4",
        help="paper test whose queries populate the registry "
        "(default test4); one of: " + ", ".join(ALL_PAPER_TESTS),
    )
    _add_algorithm(metrics_cmd, "optimizer for the workload")

    report_cmd = sub.add_parser(
        "report",
        help="the paper's tables as markdown: Table 1, Figures 10-12 and "
        "Table 2 under every registered optimizer",
    )
    _add_scale(report_cmd)
    report_cmd.add_argument(
        "--tests", default=",".join(PAPER_TESTS),
        help="Table 2 for this comma-separated subset of: "
        + ", ".join(PAPER_TESTS),
    )
    report_cmd.add_argument(
        "--no-figures", action="store_true",
        help="skip the Figures 10-12 sharing sweeps (faster)",
    )
    report_cmd.add_argument(
        "--paranoia", action="store_true",
        help="differentially validate every algorithm's plan and results "
        "against the brute-force reference evaluator (slow)",
    )
    report_cmd.add_argument(
        "--output", metavar="FILE", help="write the report to a file"
    )

    select = sub.add_parser(
        "select-views", help="greedy (HRU) materialized-view selection"
    )
    _add_scale(select)
    select.add_argument(
        "--budget", type=_count, default=5,
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
    try:
        return _run_mdx(args, db, mdx)
    except (MdxSyntaxError, MdxResolutionError) as exc:
        raise CliError(f"bad MDX: {exc}") from exc


def _run_mdx(args: argparse.Namespace, db, mdx: str) -> int:
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
        report = None if args.explain else db.execute(plan)
    if args.trace:
        from .obs.export import write_chrome_trace, write_trace

        if args.trace.endswith(".chrome.json"):
            write_chrome_trace(db.last_trace, args.trace)
        else:
            write_trace(db.last_trace, args.trace)
        print(f"\ntrace written to {args.trace}")
    print()
    if report is None:
        print(explain_plan(db, plan))
        return 0
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

    fault_plan = None
    if args.faults:
        from .faults import parse_fault_plan

        try:
            fault_plan = parse_fault_plan(args.faults, seed=args.fault_seed)
        except ValueError as exc:
            raise CliError(f"bad --faults spec: {exc}") from exc
    given = {n: getattr(args, n) for _, n, _, _ in _SERVE_FLAGS if n}
    load_fields = {f.name for f in dataclasses.fields(SimulationConfig)}
    try:
        serve = simulation_service(
            args.n_clients * args.requests_per_client,
            degrade=not args.no_degrade,
            **{k: v for k, v in given.items() if k not in load_fields},
        )
        config = SimulationConfig(
            preload=not args.arrivals,
            verify=not args.no_verify,
            faults=fault_plan,
            serve=serve,
            **{k: v for k, v in given.items() if k in load_fields},
        )
    except ValueError as exc:
        raise CliError(f"bad serve configuration: {exc}") from exc
    db = _build_db(args)
    if args.cache:
        attach_cache(db)
    print(
        f"simulating {config.n_clients} client(s) x "
        f"{config.requests_per_client} request(s), window "
        f"{serve.window_ms:g} ms, "
        f"algorithm {serve.algorithm}"
        + (" (result cache attached)" if args.cache else "")
        + (f" (faults armed: {fault_plan.describe()})" if fault_plan else "")
    )
    report = run_simulation(db, config)
    print()
    print(report.render())
    if serve.flight_recorder_path and report.recorder is not None:
        path = report.recorder.dump(serve.flight_recorder_path)
        print(
            f"\nflight recorder ({len(report.recorder)} entry(ies), "
            f"{report.recorder.n_recorded} recorded) -> {path}"
        )
    if args.stats_json:
        from .obs.metrics import write_metrics_json

        print(f"metrics snapshot -> {write_metrics_json(args.stats_json)}")
    if fault_plan is None and report.stats.sim_ms_total >= report.serial_sim_ms:
        # Under injected faults the batched cost legitimately includes
        # retries and degraded replans; the sharing gate applies only to
        # the plain batched path.
        print(
            "\nbatched execution did not beat serial execution; widen the "
            "window or raise --overlap",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json

    from .obs.metrics import metrics_snapshot, write_metrics_json

    names = _parse_tests(args.test)
    if len(names) != 1:
        raise CliError(f"--test takes one paper test (got {args.test!r})")
    db = _build_db(args)
    qs = paper_queries(db.schema)
    queries = [qs[i] for i in ALL_PAPER_TESTS[names[0]]]
    plan = db.optimize(queries, args.algorithm)
    db.execute(plan)
    if args.output:
        print(f"metrics snapshot -> {write_metrics_json(args.output)}")
    else:
        print(json.dumps(metrics_snapshot(), indent=2, allow_nan=False))
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
        check_record,
        default_record_path,
        describe_differences,
        record_run,
    )

    profile = CalibrationProfile.load(args.profile) if args.profile else None
    if args.check:
        if args.record or args.tests or args.no_figures or args.output:
            raise CliError(
                "--check re-runs a record with its own scale, tests and "
                "figures; it takes no --record, --tests, --no-figures or "
                "--output"
            )
        differences = check_record(RunRecord.load(args.check), profile)
        if differences:
            print(f"{args.check} does not reproduce: "
                  f"{describe_differences(differences)}")
            return 1
        print(f"{args.check} reproduces exactly")
        return 0
    if not args.record:
        raise CliError("pass --record or --check RECORD")
    record = record_run(
        label=args.label,
        scale=args.scale,
        tests=_parse_tests(args.tests),
        figures=not args.no_figures,
        profile=profile,
    )
    path = record.save(args.output or default_record_path(args.label))
    print(f"recorded benchmark run '{args.label}' -> {path}")
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

    tests = _parse_tests(args.tests, PAPER_TESTS)
    text = generate_report(
        _build_db(args), tests=tests, figures=not args.no_figures,
        output=args.output,
    )
    print(f"report written to {args.output}" if args.output else text)
    return 0


_COMMANDS = {
    "info": _cmd_info,
    "run": _cmd_run,
    "calibrate": _cmd_calibrate,
    "metrics": _cmd_metrics,
    "bench": _cmd_bench,
    "serve": _cmd_serve,
    "report": _cmd_report,
    "select-views": _cmd_select_views,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code (0 success, 1 failed
    check, 2 usage error — a bad flag, or a file that does not load)."""
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (CliError, DocumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
