"""The ``python -m repro`` command line.

Subcommands:

* ``analyze`` — run the whole pipeline (parse → typecheck → path-matrix
  analysis → ADDS validation → loop classification → transforms →
  machine-simulated speedup) over source files and/or a named corpus,
  in parallel, with on-disk memoization and fault tolerance (per-task
  deadlines, crash retry, poison-task quarantine — see docs/robustness.md).
* ``fuzz``    — differentially fuzz the executors: generate seeded random
  programs, run each through the reference interpreter, the machine
  simulator and every applicable transform output, and diff the results.
* ``corpus``  — list the programs of the built-in corpora.
* ``cache``   — show (``info``), integrity-check (``verify``), break down
  per-stage (``stats``), or clear the content-addressed artifact store.
* ``quarantine`` — list or replay poison-task quarantine records.

Exit codes: 0 all-ok; 1 semantic failures in the report (analysis errors,
heap mismatches); 2 usage errors; 3 unrecoverable worker-pool loss;
4 completed with driver-level failures (timeouts / crashes / quarantines —
partial results were produced and reported).

Examples::

    python -m repro analyze --corpus builtin --jobs 4
    python -m repro analyze examples/corpus/list_sum.ptr --format json
    python -m repro analyze --corpus paper --task-timeout 60 --max-retries 3
    python -m repro analyze --corpus paper --inject-faults 'crash:rate=0.1,seed=7'
    python -m repro corpus
    python -m repro cache stats
    python -m repro cache verify --evict
    python -m repro quarantine --replay .repro-cache/quarantine/foo.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro.driver.batch import (
    FAILURE_STATUSES,
    BatchDriver,
    BatchExecutionError,
    BatchReport,
)
from repro.driver.cache import canonical_json
from repro.driver.corpus import CORPORA, corpus_named, load_source_file
from repro.driver.executor import WorkerPoolError, default_jobs
from repro.driver.faults import FAULTS_ENV_VAR, FaultSpecError, parse_fault_spec
from repro.driver.pipeline import PipelineOptions

DEFAULT_CACHE_DIR = ".repro-cache"

#: default per-task deadline for ``analyze`` (seconds); ``--task-timeout 0``
#: disables the watchdog entirely
DEFAULT_TASK_TIMEOUT_S = 300.0

#: exit code for "the batch completed, but a fault cost some functions,
#: simulations or programs their results" — partial results exist
EXIT_PARTIAL = 4


def _at_least(bound: int):
    """An argparse ``type``: an integer no smaller than ``bound``, so that
    an out-of-range value is a usage error (exit 2), never a silent clamp
    or a run that cannot do what was asked."""

    def parse(text: str) -> int:
        value = int(text)
        if value < bound:
            raise argparse.ArgumentTypeError(f"must be at least {bound}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Whole-program batch driver for the ADDS/path-matrix pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="analyze programs end to end")
    analyze.add_argument("paths", nargs="*", help="toy-language source files (.ptr)")
    analyze.add_argument(
        "--corpus",
        choices=sorted(CORPORA),
        help="also analyze a named built-in corpus",
    )
    analyze.add_argument(
        "--jobs",
        type=_at_least(1),
        default=default_jobs(),
        help=(
            "worker processes (default: cpu count capped at 8, here "
            f"{default_jobs()}; 1 runs inline with no worker pool)"
        ),
    )
    analyze.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help=f"on-disk result cache directory (default {DEFAULT_CACHE_DIR})",
    )
    analyze.add_argument("--no-cache", action="store_true", help="disable memoization")
    analyze.add_argument(
        "--no-simulate", action="store_true", help="skip the machine-simulation stage"
    )
    analyze.add_argument(
        "--task-timeout",
        type=float,
        default=DEFAULT_TASK_TIMEOUT_S,
        metavar="SECONDS",
        help=(
            "per-task deadline: tasks running longer are killed and marked "
            f"status=timeout (default {DEFAULT_TASK_TIMEOUT_S:.0f}; "
            "0 or negative disables the watchdog)"
        ),
    )
    analyze.add_argument(
        "--max-retries",
        type=_at_least(0),
        default=2,
        help=(
            "deaths (worker crashes and timeouts alike) one suspect survives, "
            "each followed by a retry with exponential backoff; at the next "
            "death a crashing function is quarantined and a hanging one "
            "marked timeout (default 2)"
        ),
    )
    analyze.add_argument(
        "--max-respawns",
        type=_at_least(0),
        default=None,
        help=(
            "total worker replacements tolerated before the pool is declared "
            "unrecoverable (exit 3); default: unbounded"
        ),
    )
    analyze.add_argument(
        "--quarantine-dir",
        default=None,
        metavar="DIR",
        help=(
            "where replayable poison-task records are written "
            "(default: <cache-dir>/quarantine; with --no-cache, records are "
            "not written unless this is given)"
        ),
    )
    analyze.add_argument(
        "--inject-faults",
        default=None,
        metavar="SPEC",
        help=(
            "deterministic fault injection for chaos testing, e.g. "
            "'crash:rate=0.1,seed=7;hang:function=scale' (see docs/robustness.md)"
        ),
    )
    analyze.add_argument(
        "--no-adds", action="store_true", help="ignore ADDS declarations (conservative)"
    )
    analyze.add_argument(
        "--pes", type=_at_least(1), default=4, help="simulated processors (default 4)"
    )
    analyze.add_argument("--entry", default="main", help="entry function (default main)")
    analyze.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )
    analyze.add_argument(
        "--output", help="also write the JSON report to this file (compact JSON)"
    )
    analyze.add_argument(
        "--full", action="store_true", help="paper-sized stress corpus instead of quick"
    )

    fuzz = sub.add_parser(
        "fuzz",
        help="differentially fuzz the executors (interpreter vs. machine-sim "
        "vs. transformed programs)",
    )
    fuzz.add_argument(
        "--seeds", type=int, default=200, help="number of programs to generate"
    )
    fuzz.add_argument("--start", type=int, default=0, help="first seed (default 0)")
    fuzz.add_argument(
        "--pes", type=_at_least(1), default=3, help="simulated processors (default 3)"
    )
    fuzz.add_argument(
        "--unroll-factor", type=_at_least(2), default=3, help="unroll factor (default 3)"
    )
    fuzz.add_argument(
        "--shrink",
        action="store_true",
        help="minimize each divergent program before reporting",
    )
    fuzz.add_argument(
        "--save-failures",
        metavar="DIR",
        help="write a replayable JSON record per divergent seed into DIR",
    )
    fuzz.add_argument(
        "--replay",
        metavar="PATH",
        help="re-run stored failure record(s) (a JSON file or a directory) "
        "instead of generating programs",
    )
    fuzz.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )

    corpus = sub.add_parser("corpus", help="list the built-in corpus programs")
    corpus.add_argument("--name", default="builtin", choices=sorted(CORPORA))

    cache = sub.add_parser(
        "cache", help="inspect, integrity-check, or clear the result cache"
    )
    cache.add_argument(
        "action",
        nargs="?",
        choices=("info", "verify", "stats"),
        default="info",
        help=(
            "info: entry count (default); verify: checksum every entry; "
            "stats: per-stage artifact counts and bytes, and the last run's "
            "reuse and per-stage store traffic"
        ),
    )
    cache.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR)
    cache.add_argument("--clear", action="store_true", help="delete all cached results")
    cache.add_argument(
        "--evict",
        action="store_true",
        help="with verify: also remove the corrupt entries found",
    )

    quarantine = sub.add_parser(
        "quarantine", help="list or replay poison-task quarantine records"
    )
    quarantine.add_argument(
        "--dir",
        default=str(Path(DEFAULT_CACHE_DIR) / "quarantine"),
        help="quarantine record directory (default <cache-dir>/quarantine)",
    )
    quarantine.add_argument(
        "--replay",
        metavar="PATH",
        help="re-run the recorded analysis inline (a record file or a "
        "directory of records); a truly poison task will crash this process "
        "— that is the point",
    )
    return parser


# -- report rendering ---------------------------------------------------------
def render_text(report: BatchReport) -> str:
    lines: list[str] = []
    for program in report.programs:
        lines.append(f"== {program.name} ==")
        if program.error:
            lines.append(f"  ERROR: {program.error}")
            continue
        waves = len(program.schedule)
        summaries = [f["summary"] for f in program.functions.values() if f.get("summary")]
        read_only = sum(
            not s["data_fields_written"] and not s["pointer_fields_written"] for s in summaries
        )
        shape = sum(s["rearranges_shape"] for s in summaries)
        lines.append(
            f"  {len(program.functions)} function(s), {waves} bottom-up wave(s), "
            f"{read_only} read-only, {shape} shape-changing"
        )
        for name in sorted(program.functions):
            func = program.functions[name]
            status = func.get("status", "ok")
            if status in FAILURE_STATUSES:
                lines.append(f"  {name}: {status.upper()}: {func.get('fault', '')}")
                continue
            analysis = func.get("analysis", {})
            if analysis.get("error"):
                lines.append(f"  {name}: analysis failed: {analysis['error']}")
                continue
            valid = analysis.get("abstraction_valid", {})
            broken = sorted(t for t, ok in valid.items() if not ok)
            verdict = f"violations for {', '.join(broken)}" if broken else "abstraction valid"
            lines.append(
                f"  {name}: {analysis.get('iterations', '?')} sweep(s), {verdict}"
            )
            for loop in func.get("loops", []):
                transforms = [
                    t for t, o in loop.get("transforms", {}).items() if o.get("applied")
                ]
                extra = f" [{', '.join(transforms)}]" if transforms else ""
                lines.append(
                    f"    loop@{loop.get('line')}: {loop.get('classification')}{extra}"
                )
        sim = program.simulation
        if sim is not None:
            if sim.get("status") == "simulated":
                match = "heaps match" if sim.get("heaps_match") else "HEAP MISMATCH"
                lines.append(
                    f"  simulated on {sim['pes']} PEs: speedup {sim['speedup']:.2f}x "
                    f"over {len(sim['transformed_functions'])} transformed function(s), "
                    f"{match}"
                )
            else:
                detail = f" ({sim['error']})" if sim.get("error") else ""
                lines.append(f"  simulation: {sim.get('status')}{detail}")
        lines.append("")
    lines.append(
        f"{len(report.programs)} program(s), {report.function_count()} function(s) "
        f"({report.jobs} job(s), {report.effective_jobs} effective, "
        f"{report.elapsed_s:.2f}s)"
    )
    inc = report.incremental
    lines.append(
        "incremental: "
        f"{inc['reused']} reused ({inc['firewalled']} firewalled), "
        f"{inc['recomputed']} recomputed, {inc['dirty']} dirty, "
        f"{inc['fixpoints_run']} fixpoint(s) run, "
        f"{inc['programs_unchanged']} program(s) served unchanged"
    )
    resilience, store = report.resilience, report.store
    if resilience.any_faults() or store["evictions"] or store["io_retries"]:
        lines.append(
            "resilience: "
            f"{resilience.retries} retrie(s), {resilience.timeouts} timeout(s), "
            f"{resilience.worker_crashes} worker crash(es), "
            f"{resilience.worker_respawns} respawn(s), "
            f"{resilience.quarantined} quarantined, "
            f"{store['evictions']} cache eviction(s), "
            f"{store['io_retries']} cache I/O retrie(s)"
        )
    failed = report.failed_functions()
    if failed:
        lines.append(
            "failed: "
            + ", ".join(f"{prog}/{fn} ({status})" for prog, fn, status in failed)
        )
    if report.profile is not None:
        totals = report.profile["totals"]
        lines.append(
            f"profile: {totals['tasks']} task(s) — "
            f"queue-wait {totals['queue_wait_s']:.3f}s, "
            f"analyze {totals['analyze_s']:.3f}s, "
            f"transfer {totals['transfer_s']:.3f}s "
            f"({totals['overhead_fraction']:.1%} overhead)"
        )
    return "\n".join(lines)


# -- subcommands --------------------------------------------------------------
def _cmd_analyze(args: argparse.Namespace) -> int:
    items = []
    for path in args.paths:
        try:
            items.append(load_source_file(path))
        except OSError as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            return 2
    if args.corpus:
        items.extend(corpus_named(args.corpus, full=args.full))
    if not items:
        print("error: no inputs (pass source files and/or --corpus)", file=sys.stderr)
        return 2

    if args.inject_faults is not None:
        try:
            parse_fault_spec(args.inject_faults)
        except FaultSpecError as exc:
            print(f"error: bad --inject-faults spec: {exc}", file=sys.stderr)
            return 2
        # workers (fork and spawn both) inherit the environment
        os.environ[FAULTS_ENV_VAR] = args.inject_faults

    cache_dir = None if args.no_cache else args.cache_dir
    quarantine_dir = args.quarantine_dir
    if quarantine_dir is None and cache_dir is not None:
        quarantine_dir = str(Path(cache_dir) / "quarantine")

    options = PipelineOptions(
        use_adds=not args.no_adds,
        pes=args.pes,
        entry=args.entry,
    )
    driver = BatchDriver(
        jobs=args.jobs,
        cache_dir=cache_dir,
        options=options,
        simulate=not args.no_simulate,
        task_timeout=args.task_timeout if args.task_timeout > 0 else None,
        max_retries=args.max_retries,
        max_respawns=args.max_respawns,
        quarantine_dir=quarantine_dir,
    )
    try:
        report = driver.analyze_corpus(items)
    except (BatchExecutionError, WorkerPoolError) as exc:
        # the pool itself is gone (not just some tasks): nothing trustworthy
        # to report, so this stays a hard failure, never a hang
        print(f"error: batch execution failed: {exc}", file=sys.stderr)
        return 3

    report_dict = report.to_dict()
    if args.output:
        # unindented, so that the C encoder writes it; stdout stays indented
        with open(args.output, "w") as handle:
            handle.write(canonical_json(report_dict))
    if args.format == "json":
        print(json.dumps(report_dict, indent=2, sort_keys=True))
    else:
        print(render_text(report))
    if _report_partial(report):
        return EXIT_PARTIAL
    return 1 if _report_failed(report) else 0


def _report_partial(report: BatchReport) -> bool:
    """Driver-level degradation: some functions carry a failure status
    (timeout/quarantined), or a simulation or a whole program was lost to a
    fault.  The batch completed and partial results were reported — exit
    :data:`EXIT_PARTIAL`, distinct from both semantic failure (1) and
    unrecoverable pool loss (3)."""
    if report.failed_functions():
        return True
    return any(
        (p.simulation is not None and p.simulation.get("status") in FAILURE_STATUSES)
        or (p.error is not None and p.error.split(" ", 1)[0] in FAILURE_STATUSES)
        for p in report.programs
    )


def _report_failed(report: BatchReport) -> bool:
    """Anything the batch could not fully process: parse errors, failed
    per-function analyses, simulation errors, heap mismatches.  The CI smoke
    job relies on this — a silently degraded pipeline must not exit 0."""
    for program in report.programs:
        if program.error:
            return True
        for func in program.functions.values():
            if func.get("analysis", {}).get("error"):
                return True
        sim = program.simulation
        if sim is not None and (
            sim.get("status") in ("error", "limit") or sim.get("heaps_match") is False
        ):
            return True
    return False


def _cmd_fuzz(args: argparse.Namespace) -> int:
    import pathlib

    from repro.fuzz import harness

    if args.replay:
        target = pathlib.Path(args.replay)
        paths = sorted(target.glob("*.json")) if target.is_dir() else [target]
        if not paths:
            print(f"error: no regression records under {target}", file=sys.stderr)
            return 2
        report = harness.FuzzReport()
        for path in paths:
            case = harness.replay_regression(
                path, pes=args.pes, unroll_factor=args.unroll_factor
            )
            report.cases.append(case)
            print(f"{path.name}: {case.summary()}")
    else:
        def progress(case) -> None:
            if case.status in (harness.DIVERGENCE, harness.INVALID):
                print(case.summary(), file=sys.stderr)

        report = harness.run_campaign(
            range(args.start, args.start + args.seeds),
            pes=args.pes,
            unroll_factor=args.unroll_factor,
            shrink=args.shrink,
            on_case=progress,
        )
        if args.save_failures:
            for case in report.failures:
                path = harness.save_regression(case, args.save_failures)
                print(f"saved {path}", file=sys.stderr)

    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.describe())
    return 1 if report.failures else 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    for item in corpus_named(args.name):
        functions = item.source.count("function ") + item.source.count("procedure ")
        print(f"{item.name:<28} ~{functions:>3} function(s)  {item.description}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.driver.cache import ResultCache

    cache = ResultCache(args.cache_dir)
    if args.clear:
        removed = cache.clear()
        print(f"removed {removed} cached result(s) from {args.cache_dir}")
        return 0
    if args.action == "verify":
        audit = cache.verify(evict=args.evict)
        for entry in audit["corrupt"]:
            print(f"corrupt: {entry['file']}: {entry['error']}")
        print(
            f"{args.cache_dir}: {audit['checked']} entr(ies) checked, "
            f"{audit['ok']} ok, {len(audit['corrupt'])} corrupt, "
            f"{audit['evicted']} evicted"
        )
        # corrupt entries still on disk are a problem; evicted ones are fixed
        return 1 if len(audit["corrupt"]) > audit["evicted"] else 0
    if args.action == "stats":
        return _cache_stats(cache, args.cache_dir)
    print(f"{args.cache_dir}: {cache.entry_count()} cached result(s)")
    return 0


def _cache_stats(cache, cache_dir: str) -> int:
    from repro.driver.cache import RETIRED_STAGES, STAGES

    total_count = 0
    total_bytes = 0
    rows = []
    for stage in STAGES + RETIRED_STAGES:
        count = cache.entry_count(stage)
        size = cache.disk_usage(stage)
        total_count += count
        total_bytes += size
        if count:
            rows.append((stage, count, size))
    print(f"{cache_dir}: {total_count} artifact(s), {total_bytes} byte(s)")
    for stage, count, size in rows:
        print(f"  {stage:<10} {count:>6} artifact(s)  {size:>10} byte(s)")
    ledger = cache.read_ledger()
    if ledger is None:
        print("last run: no ledger (run analyze with this cache first)")
        return 0
    # the ledger is the last run's ``stats``
    inc = ledger.get("incremental", {})
    reused = inc.get("reused", 0)
    firewalled = inc.get("firewalled", 0)
    fw_rate = f"{firewalled / reused:.1%}" if reused else "n/a"
    print(
        f"last run: {reused} reused, {firewalled} firewalled "
        f"(firewall rate {fw_rate}), {inc.get('recomputed', 0)} recomputed, "
        f"{inc.get('fixpoints_run', 0)} fixpoint(s), "
        f"{inc.get('programs_unchanged', 0)} program(s) served unchanged"
    )
    traffic = ledger.get("store", {}).get("stages", {})
    for stage in STAGES:
        if stage in traffic:
            counts = traffic[stage]
            print(
                f"  {stage:<10} {counts['hits']:>6} hit(s) {counts['misses']:>6} miss(es) "
                f"{counts['writes']:>6} write(s)"
            )
    return 0


def _cmd_quarantine(args: argparse.Namespace) -> int:
    from repro.driver.faults import load_quarantine_record, replay_quarantine_record

    if args.replay:
        target = Path(args.replay)
        paths = sorted(target.glob("*.json")) if target.is_dir() else [target]
        if not paths:
            print(f"error: no quarantine records under {target}", file=sys.stderr)
            return 2
        errors = 0
        for path in paths:
            try:
                outcomes = replay_quarantine_record(path)
            except (ValueError, OSError) as exc:
                print(f"{path.name}: unreadable record ({exc})")
                errors += 1
                continue
            for name, outcome in sorted(outcomes.items()):
                print(f"{path.name}: {name}: {outcome}")
                if outcome != "ok":
                    errors += 1
        return 1 if errors else 0

    directory = Path(args.dir)
    records = sorted(directory.glob("*.json")) if directory.exists() else []
    if not records:
        print(f"{directory}: no quarantine records")
        return 0
    for path in records:
        try:
            record = load_quarantine_record(path)
        except (ValueError, OSError) as exc:
            print(f"{path.name}: unreadable record ({exc})")
            continue
        print(
            f"{path.name}: {record.get('program')}: "
            f"{', '.join(record.get('functions', []))} — {record.get('description')}"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "fuzz":
        return _cmd_fuzz(args)
    if args.command == "corpus":
        return _cmd_corpus(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "quarantine":
        return _cmd_quarantine(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover
