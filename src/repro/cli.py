"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list-estimators``
    Show every registered estimator name.
``generate``
    Write a synthetic Zipfian column (the §6 generator) to a ``.npy``
    or text file.
``estimate``
    Sample a column from a file and print one or more estimators'
    distinct-count estimates (with GEE-family confidence intervals).
``exhibit``
    Regenerate one of the paper's tables/figures (``fig1`` ... ``fig16``,
    ``table1``, ``table2``, ``theorem1``) and print or CSV-export it.
``bound``
    Evaluate the Theorem 1 lower bound, or invert it: how many rows must
    be examined to permit a target accuracy.
``plan``
    Bracket the sample size for a target error: Theorem 1's necessary
    rows vs GEE's Theorem 2 sufficient rows.
``report``
    Regenerate every paper exhibit into a directory (rendered text plus
    one CSV per exhibit).
``sweep``
    Run one exhibit as a crash-safe supervised sweep: every completed
    grid point is checkpointed to a journal, so a killed run can be
    resumed with ``--resume`` and produces the byte-identical CSV the
    uninterrupted run would have (see ``docs/robustness.md``).
``sql``
    Run a micro-SQL statement (``SELECT COUNT(DISTINCT c) FROM t
    [SAMPLE p%] [USING est] [WHERE ...]``) against CSV tables loaded
    with ``--load name=path``.
``lint``
    Run reprolint, the project's static analyzer, over source paths
    (default ``src``); exits nonzero when findings remain.
``trace``
    Render the span tree of a telemetry run (``REPRO_TELEMETRY=1``
    JSONL) with total/self times per span; ``--chrome out.json``
    exports Chrome trace-event JSON (Perfetto / ``about:tracing``)
    and ``--flame [out.folded]`` exports folded flamegraph stacks.
``stats``
    Show the counters, gauges, histogram quantiles (p50/p90/p95/p99),
    span aggregates, and manifest of a telemetry run.
``perfdiff``
    Diff two perf reports (``BENCH_perf.json``) or telemetry runs and
    exit nonzero when a metric grew past ``--threshold``.

Global flags: ``--log-level {debug,info,warning,error}`` (or ``-v`` /
``-vv``) control the ``repro`` package logger; any command run with
``REPRO_TELEMETRY=1`` flushes its recorded run to the telemetry
directory (``REPRO_TELEMETRY_DIR``, default ``telemetry/``) on success.

Examples
--------
::

    python -m repro generate --rows 1000000 --z 1 --duplication 10 --out col.npy
    python -m repro estimate col.npy --fraction 0.01 --estimator GEE AE
    python -m repro exhibit fig2
    python -m repro bound --rows 1000000 --target-error 2
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

import numpy as np

from repro.core import (
    available_estimators,
    lower_bound_error,
    make_estimator,
    minimum_sample_size_for_error,
)
from repro.data import zipf_column
from repro.errors import InvalidParameterError, ReproError, SweepGapError
from repro.experiments import EXPERIMENTS, run_experiment
from repro.sampling import UniformWithoutReplacement

__all__ = ["main", "build_parser"]

_log = logging.getLogger("repro.cli")

_LOG_LEVELS = ("debug", "info", "warning", "error")


def _configure_logging(level_name: str, verbosity: int) -> None:
    """Attach a stderr handler to the ``repro`` package logger.

    Library modules log to the package logger, which carries only a
    ``NullHandler`` (rule R801 keeps ``print`` out of library code); the
    CLI is where diagnostics become visible.  The handler is recreated
    on every ``main()`` call so it follows ``sys.stderr`` redirection
    (e.g. pytest's capsys), and ``-v``/``-vv`` can only lower the
    threshold set by ``--log-level``.
    """
    level = getattr(logging, level_name.upper())
    if verbosity >= 2:
        level = min(level, logging.DEBUG)
    elif verbosity == 1:
        level = min(level, logging.INFO)
    logger = logging.getLogger("repro")
    for handler in list(logger.handlers):
        if getattr(handler, "_repro_cli", False):
            logger.removeHandler(handler)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    setattr(handler, "_repro_cli", True)
    logger.addHandler(handler)
    logger.setLevel(level)


def _finalize_telemetry(args: argparse.Namespace) -> None:
    """Flush a ``REPRO_TELEMETRY=1`` run to the telemetry directory.

    Writes ``<command>.jsonl`` (manifest embedded as the first record)
    plus a standalone ``<command>.manifest.json`` next to it; a no-op
    when recording is off or nothing was recorded.  Histogram summaries
    (count + p50/p90/p95/p99 per name) land in the manifest's ``extra``
    under ``quantiles``.
    """
    from repro.obs import OBS, build_manifest, telemetry_dir, write_manifest

    if not OBS.enabled or OBS.is_empty:
        return
    command = args.command or "run"
    extra = dict(getattr(args, "_telemetry_extra", None) or {})
    quantiles = {
        name: histogram.summary()
        for name, histogram in OBS.histograms().items()
        if histogram.count
    }
    if quantiles:
        extra["quantiles"] = quantiles
    manifest = build_manifest(
        seed=getattr(args, "seed", None),
        command=command,
        extra=extra or None,
    )
    out_dir = telemetry_dir()
    run_path = OBS.write_run(out_dir / f"{command}.jsonl", manifest=manifest)
    write_manifest(out_dir / f"{command}.manifest.json", manifest)
    _log.info("telemetry run written to %s", run_path)


def _load_column(path: str, csv_column: str | None = None) -> np.ndarray:
    """Load a column from ``.npy``, ``.csv`` (with --column), or text."""
    from repro.data.io import load_column

    return load_column(path, column=csv_column).values


# -- argument validation ------------------------------------------------
# argparse only checks types; value ranges are checked here so a bad
# ``--rows -5`` exits 2 with one logged line instead of a numpy traceback
# from deep inside a generator.


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidParameterError(message)


def _validate_seed(seed: int) -> None:
    _require(seed >= 0, f"--seed must be >= 0, got {seed}")


def _validate_gamma(gamma: float) -> None:
    _require(0.0 < gamma < 1.0, f"--gamma must be in (0, 1), got {gamma:g}")


def _cmd_list_estimators(_args: argparse.Namespace) -> int:
    for name in available_estimators():
        print(name)
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.data.io import save_column

    _require(args.rows >= 1, f"--rows must be >= 1, got {args.rows}")
    _require(args.z >= 0, f"--z must be >= 0, got {args.z:g}")
    _require(
        args.duplication >= 1, f"--duplication must be >= 1, got {args.duplication}"
    )
    _validate_seed(args.seed)
    rng = np.random.default_rng(args.seed)
    column = zipf_column(
        args.rows, z=args.z, duplication=args.duplication, rng=rng
    )
    save_column(column.values, args.out)
    print(
        f"wrote {column.n_rows:,} rows, {column.distinct_count:,} distinct "
        f"values to {args.out}"
    )
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    _require(
        0.0 < args.fraction <= 1.0,
        f"--fraction must be in (0, 1], got {args.fraction:g}",
    )
    _validate_seed(args.seed)
    values = _load_column(args.column, csv_column=args.csv_column)
    rng = np.random.default_rng(args.seed)
    sampler = UniformWithoutReplacement()
    profile = sampler.profile(values, rng, fraction=args.fraction)
    n = values.size
    print(
        f"n={n:,} rows, sampled r={profile.sample_size:,} "
        f"(d={profile.distinct:,}, f1={profile.f1:,})"
    )
    for name in args.estimator:
        result = make_estimator(name).estimate(profile, n)
        line = f"{name:>12}: {result.value:,.0f}"
        if result.interval is not None:
            line += (
                f"   [{result.interval.lower:,.0f}, {result.interval.upper:,.0f}]"
            )
        print(line)
    if args.exact:
        from repro.db import exact_distinct_sort

        print(f"{'exact':>12}: {exact_distinct_sort(values):,} (full scan)")
    return 0


def _cmd_exhibit(args: argparse.Namespace) -> int:
    _validate_seed(args.seed)
    table = run_experiment(args.id, seed=args.seed)
    if args.csv:
        table.write_csv(args.csv)
        print(f"wrote {args.csv}")
    else:
        print(table.render())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments import config
    from repro.experiments.executor import sweep_context
    from repro.resilience import RetryPolicy

    _validate_seed(args.seed)
    _require(args.retries >= 0, f"--retries must be >= 0, got {args.retries}")
    if args.timeout is not None:
        _require(args.timeout > 0, f"--timeout must be positive, got {args.timeout:g}")
    # Resumable sweeps need worker-count-invariant per-point streams; the
    # legacy protocol threads one generator through the whole sweep and
    # cannot skip completed points bit-identically.
    if config.seed_mode() == "legacy":
        raise InvalidParameterError(
            "repro sweep requires spawned seeding; unset REPRO_SEED_MODE=legacy"
        )
    os.environ["REPRO_SEED_MODE"] = "spawn"
    journal_path = Path(args.journal or f"sweeps/{args.id}.journal.jsonl")
    policy = RetryPolicy(retries=args.retries, timeout=args.timeout)
    args._telemetry_extra = {
        "exhibit": args.id,
        "journal": str(journal_path),
        "resumed": bool(args.resume),
    }
    try:
        with sweep_context(journal=journal_path, resume=args.resume, policy=policy):
            table = run_experiment(args.id, seed=args.seed)
    except SweepGapError as error:
        _log.error("sweep incomplete: %s", error)
        _log.error(
            "completed points remain journaled in %s; re-run with --resume "
            "to fill only the gaps",
            journal_path,
        )
        return 1
    if args.csv:
        table.write_csv(args.csv)
        print(f"wrote {args.csv}")
    else:
        print(table.render())
    if not args.keep_journal:
        journal_path.unlink(missing_ok=True)
        _log.info("sweep complete; removed journal %s", journal_path)
    return 0


def _cmd_bound(args: argparse.Namespace) -> int:
    _require(args.rows >= 1, f"--rows must be >= 1, got {args.rows}")
    _validate_gamma(args.gamma)
    if args.sample_size is not None:
        _require(
            1 <= args.sample_size <= args.rows,
            f"--sample-size must be in [1, --rows], got {args.sample_size}",
        )
    if args.target_error is not None:
        _require(
            args.target_error >= 1.0,
            f"--target-error is a ratio error >= 1, got {args.target_error:g}",
        )
        needed = minimum_sample_size_for_error(
            args.rows, args.target_error, gamma=args.gamma
        )
        print(
            f"guaranteeing ratio error <= {args.target_error:g} with "
            f"confidence {1 - args.gamma:.0%} requires examining at least "
            f"{needed:,} of {args.rows:,} rows ({needed / args.rows:.2%})"
        )
        return 0
    if args.sample_size is None:
        raise ReproError("provide --sample-size or --target-error")
    floor = lower_bound_error(args.rows, args.sample_size, gamma=args.gamma)
    print(
        f"examining {args.sample_size:,} of {args.rows:,} rows: no estimator "
        f"can guarantee ratio error below {floor:.3f} "
        f"(with probability {args.gamma:g})"
    )
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.core.planner import plan_sample_size

    _require(args.rows >= 1, f"--rows must be >= 1, got {args.rows}")
    _require(
        args.target_error >= 1.0,
        f"--target-error is a ratio error >= 1, got {args.target_error:g}",
    )
    _validate_gamma(args.gamma)
    plan = plan_sample_size(args.rows, args.target_error, gamma=args.gamma)
    print(
        f"target ratio error {plan.target_error:g} on a {plan.population_size:,}-row "
        f"column (confidence {1 - plan.gamma:.0%}):"
    )
    print(
        f"  necessary (Theorem 1) : {plan.necessary_rows:>12,} rows "
        f"({plan.necessary_fraction:.2%}) — below this, no estimator can"
    )
    print(
        f"  sufficient (GEE)      : {plan.sufficient_rows:>12,} rows "
        f"({plan.sufficient_fraction:.2%}) — at this, GEE guarantees it"
    )
    if plan.full_scan_needed:
        print("  note: the sufficient bound is a full scan for this target")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.resilience import atomic_write

    _validate_seed(args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    exhibits = args.only if args.only else sorted(EXPERIMENTS)
    summary_lines = []
    for exhibit_id in exhibits:
        table = run_experiment(exhibit_id, seed=args.seed)
        table.write_csv(out_dir / f"{exhibit_id}.csv")
        rendered = table.render()
        atomic_write(out_dir / f"{exhibit_id}.txt", rendered)
        summary_lines.append(f"### {exhibit_id}\n{rendered}")
        print(f"wrote {exhibit_id} ({table.title})")
    atomic_write(out_dir / "REPORT.txt", "\n".join(summary_lines))
    from repro.obs import build_manifest, write_manifest

    write_manifest(
        out_dir / "manifest.json",
        build_manifest(seed=args.seed, command="report", extra={"exhibits": exhibits}),
    )
    print(f"report written to {out_dir}/")
    return 0


def _cmd_sql(args: argparse.Namespace) -> int:
    from repro.data.io import load_csv_table
    from repro.db import Catalog, Table
    from repro.db.sql import execute_sql

    catalog = Catalog()
    for spec in args.load:
        if "=" not in spec:
            raise ReproError(f"--load expects name=path, got {spec!r}")
        table_name, path = spec.split("=", 1)
        catalog.register(Table(name=table_name, columns=load_csv_table(path)))
    rng = np.random.default_rng(args.seed)
    result = execute_sql(catalog, args.statement, rng)
    if result.kind == "groupby":
        for group, count in sorted(result.groups.items()):
            print(f"{group}\t{count}")
        print(f"({len(result.groups)} groups)")
        return 0
    line = f"{result.value:,.0f}"
    if result.estimator and result.estimator != "exact":
        line += f"   (estimated by {result.estimator} from {result.rows_read:,} rows"
        if result.interval is not None:
            line += (
                f"; interval [{result.interval.lower:,.0f}, "
                f"{result.interval.upper:,.0f}]"
            )
        line += ")"
    else:
        line += f"   (exact, {result.rows_read:,} rows scanned)"
    print(line)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import (
        all_rules,
        lint_paths,
        load_baseline,
        render_json,
        render_prove,
        render_sarif,
        render_text,
    )
    from repro.analysis.baseline import write_baseline
    from repro.analysis.explain import explain_all, explain_rule
    from repro.analysis.rules.suppressions import STALE_SUPPRESSION_CODE

    if args.explain:
        if args.explain.lower() == "all":
            print(explain_all())
        else:
            print(explain_rule(args.explain))
        return 0
    if args.list_rules:
        for code, rule_class in all_rules().items():
            print(f"{code}  {rule_class.name:24s} {rule_class.description}")
        return 0
    select = list(args.select) if args.select else None
    if args.stale_pragmas and select and STALE_SUPPRESSION_CODE not in select:
        # --select narrows the run; --stale-pragmas opts R701 back in.
        select.append(STALE_SUPPRESSION_CODE)
    ignore = list(args.ignore) if args.ignore else None
    if args.stale_pragmas and ignore and STALE_SUPPRESSION_CODE in ignore:
        ignore.remove(STALE_SUPPRESSION_CODE)
    baseline = load_baseline(args.baseline) if args.baseline else None
    report = lint_paths(
        args.paths,
        select=select,
        ignore=ignore,
        baseline=baseline,
        prove=args.prove,
    )
    if args.write_baseline:
        entries = write_baseline(args.write_baseline, report)
        print(f"wrote {entries} baseline entr{'y' if entries == 1 else 'ies'} to {args.write_baseline}")
        return 0
    renderers = {"json": render_json, "sarif": render_sarif, "text": render_text}
    print(renderers[args.format](report))
    if args.prove and args.format == "text":
        print()
        print(render_prove(report))
    return report.exit_code


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import load_run, render_trace

    run = load_run(args.run)
    exported = False
    if args.chrome:
        from repro.obs.export import write_chrome_trace

        out = write_chrome_trace(args.chrome, run)
        print(f"wrote Chrome trace to {out}")
        exported = True
    if args.flame is not None:
        from repro.obs.export import folded_stacks, write_folded

        if args.flame == "-":
            sys.stdout.write(folded_stacks(run))
        else:
            out = write_folded(args.flame, run)
            print(f"wrote folded stacks to {out}")
        exported = True
    if not exported:
        print(render_trace(run, min_fraction=args.min_fraction))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.obs import load_run, render_stats

    run = load_run(args.run)
    print(render_stats(run))
    return 0


def _cmd_perfdiff(args: argparse.Namespace) -> int:
    from repro.obs.perfdiff import diff_metrics, load_metrics, render_diff

    diff = diff_metrics(
        load_metrics(args.before),
        load_metrics(args.after),
        threshold=args.threshold,
        min_value=args.min_value,
    )
    print(render_diff(diff))
    return 1 if diff.regressions else 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distinct-values estimation (PODS 2000 reproduction).",
    )
    parser.add_argument(
        "--log-level",
        default="warning",
        choices=_LOG_LEVELS,
        help="threshold for the repro package logger (default: warning)",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="increase log verbosity (-v: info, -vv: debug)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "list-estimators", help="show registered estimator names"
    ).set_defaults(func=_cmd_list_estimators)

    generate = sub.add_parser("generate", help="write a synthetic Zipf column")
    generate.add_argument("--rows", type=int, default=1_000_000)
    generate.add_argument("--z", type=float, default=1.0)
    generate.add_argument("--duplication", type=int, default=1)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", required=True, help=".npy or text path")
    generate.set_defaults(func=_cmd_generate)

    estimate = sub.add_parser("estimate", help="estimate distinct values of a column")
    estimate.add_argument(
        "column", help=".npy, .csv (with --csv-column), or one-value-per-line text"
    )
    estimate.add_argument(
        "--csv-column", help="column name when the input is a CSV file"
    )
    estimate.add_argument("--fraction", type=float, default=0.01)
    estimate.add_argument(
        "--estimator",
        nargs="+",
        default=["GEE", "AE"],
        choices=list(available_estimators()),
    )
    estimate.add_argument("--seed", type=int, default=0)
    estimate.add_argument(
        "--exact", action="store_true", help="also run the exact full scan"
    )
    estimate.set_defaults(func=_cmd_estimate)

    exhibit = sub.add_parser("exhibit", help="regenerate a paper table/figure")
    exhibit.add_argument("id", choices=sorted(EXPERIMENTS))
    exhibit.add_argument("--seed", type=int, default=0)
    exhibit.add_argument("--csv", help="write CSV here instead of printing")
    exhibit.set_defaults(func=_cmd_exhibit)

    sweep = sub.add_parser(
        "sweep",
        help="run an exhibit as a crash-safe, resumable supervised sweep",
    )
    sweep.add_argument("id", choices=sorted(EXPERIMENTS))
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--csv", help="write CSV here instead of printing")
    sweep.add_argument(
        "--journal",
        help="checkpoint journal path (default: sweeps/<id>.journal.jsonl)",
    )
    sweep.add_argument(
        "--resume",
        action="store_true",
        help="skip grid points already checkpointed in the journal",
    )
    sweep.add_argument(
        "--retries",
        type=int,
        default=2,
        help="extra attempts per grid point after a failure (default: 2)",
    )
    sweep.add_argument(
        "--timeout",
        type=float,
        help="progress timeout in seconds; hung workers are replaced",
    )
    sweep.add_argument(
        "--keep-journal",
        action="store_true",
        help="keep the journal after a fully successful sweep",
    )
    sweep.set_defaults(func=_cmd_sweep)

    bound = sub.add_parser("bound", help="Theorem 1 lower-bound calculator")
    bound.add_argument("--rows", type=int, required=True)
    bound.add_argument("--sample-size", type=int)
    bound.add_argument("--target-error", type=float)
    bound.add_argument("--gamma", type=float, default=0.5)
    bound.set_defaults(func=_cmd_bound)

    plan = sub.add_parser(
        "plan", help="bracket the sample size for a target error"
    )
    plan.add_argument("--rows", type=int, required=True)
    plan.add_argument("--target-error", type=float, required=True)
    plan.add_argument("--gamma", type=float, default=0.5)
    plan.set_defaults(func=_cmd_plan)

    report = sub.add_parser(
        "report", help="regenerate every paper exhibit into a directory"
    )
    report.add_argument("--out", required=True, help="output directory")
    report.add_argument("--seed", type=int, default=0)
    report.add_argument(
        "--only", nargs="*", choices=sorted(EXPERIMENTS), help="subset of exhibits"
    )
    report.set_defaults(func=_cmd_report)

    sql = sub.add_parser("sql", help="run a micro-SQL statement on CSV tables")
    sql.add_argument("statement", help="the SQL text")
    sql.add_argument(
        "--load",
        action="append",
        default=[],
        metavar="NAME=PATH",
        help="register a CSV file as a table (repeatable)",
    )
    sql.add_argument("--seed", type=int, default=0)
    sql.set_defaults(func=_cmd_sql)

    lint = sub.add_parser(
        "lint", help="run reprolint, the project static analyzer"
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text", dest="format"
    )
    lint.add_argument(
        "--prove",
        action="store_true",
        help="run the interval prover over @requires/@ensures contracts "
        "and print a clause-by-clause verdict table",
    )
    lint.add_argument(
        "--stale-pragmas",
        action="store_true",
        dest="stale_pragmas",
        help="force the stale-suppression rule (R701) on, even under "
        "--select/--ignore",
    )
    lint.add_argument(
        "--select",
        action="append",
        metavar="CODE",
        help="run only these rule codes (repeatable)",
    )
    lint.add_argument(
        "--ignore",
        action="append",
        metavar="CODE",
        help="skip these rule codes (repeatable)",
    )
    lint.add_argument(
        "--baseline", metavar="FILE", help="absorb findings listed in this baseline"
    )
    lint.add_argument(
        "--write-baseline",
        metavar="FILE",
        help="write current findings as a baseline and exit 0",
    )
    lint.add_argument(
        "--list-rules", action="store_true", help="list rule codes and exit"
    )
    lint.add_argument(
        "--explain",
        metavar="CODE",
        help="print a rule's rationale, example, and fix, then exit "
        "('all' prints every rule)",
    )
    lint.set_defaults(func=_cmd_lint)

    trace = sub.add_parser(
        "trace", help="render the span tree of a telemetry run"
    )
    trace.add_argument("run", help="telemetry JSONL file (from a REPRO_TELEMETRY=1 run)")
    trace.add_argument(
        "--min-fraction",
        type=float,
        default=0.0,
        help="hide spans below this share of their root's time (e.g. 0.01)",
    )
    trace.add_argument(
        "--chrome",
        metavar="OUT",
        help="write Chrome trace-event JSON (Perfetto / about:tracing) here",
    )
    trace.add_argument(
        "--flame",
        nargs="?",
        const="-",
        metavar="OUT",
        help="write folded flamegraph stacks here (stdout if no path given)",
    )
    trace.set_defaults(func=_cmd_trace)

    stats = sub.add_parser(
        "stats",
        help="show counters, gauges, quantiles, and the manifest of a "
        "telemetry run",
    )
    stats.add_argument("run", help="telemetry JSONL file")
    stats.set_defaults(func=_cmd_stats)

    perfdiff = sub.add_parser(
        "perfdiff",
        help="diff two perf reports or telemetry runs; exit 1 on regression",
    )
    perfdiff.add_argument(
        "before", help="baseline BENCH_perf.json or telemetry JSONL"
    )
    perfdiff.add_argument(
        "after", help="candidate BENCH_perf.json or telemetry JSONL"
    )
    perfdiff.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="fractional growth that counts as a regression (default: 0.25)",
    )
    perfdiff.add_argument(
        "--min-value",
        type=float,
        default=0.0,
        dest="min_value",
        help="ignore metrics below this absolute value on both sides "
        "(noise floor for smoke-scale micro-timings)",
    )
    perfdiff.set_defaults(func=_cmd_perfdiff)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(args.log_level, args.verbose)
    try:
        code = args.func(args)
    except ReproError as error:
        _log.error("error: %s", error)
        return 2
    if code == 0:
        _finalize_telemetry(args)
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
