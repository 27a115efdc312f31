"""End-to-end benchmark of ``repro analyze``: one command, four workloads.

Run every workload (or the ones named) and print each metric with its unit::

    python3 benchmarks/e2e/run.py [--workload NAME]... [--seed N] [--seconds S]
    python3 benchmarks/e2e/run.py --trace        # per-layer metrics instead

Compare two sets of results (files or directories of result files) against
the bounds in ``BENCHMARK.json``::

    python3 benchmarks/e2e/run.py compare BASE NEW

Each run writes a JSON result under ``.e2e/results/`` (``--out`` to choose),
and a traced run a Chrome trace-event file next to it.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics, or with ``--trace`` the per-layer
ones).  The exit code is 0 whenever a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

if __name__ == "__main__":
    # import this directory as the package ``e2e`` so that its trace.py
    # cannot shadow the standard library's ``trace`` module
    sys.path[0] = str(HERE.parent)
    sys.path.insert(1, str(ROOT / "src"))

from e2e.workloads import (  # noqa: E402
    DEFAULT_SEED,
    WEB_SIZE,
    WORKLOADS,
    Bench,
    end_to_end,
    per_layer,
)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


# -- running -------------------------------------------------------------------
def _parse_args(argv: list[str], spec: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument(
        "--workload", action="append", choices=WORKLOADS,
        help="workload to run (repeatable; default: all four)",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=float(spec["run_seconds"]),
        help="run length; fixes the number of reps and edits (default %(default)s)",
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
        help="trace the layers and report per-layer metrics",
    )
    parser.add_argument("--out", help="result file (default: .e2e/results/...)")
    parser.add_argument(
        "--web-size", type=int, default=WEB_SIZE,
        help="functions in the call web (smaller for smoke runs)",
    )
    return parser.parse_args(argv)


def _fmt(value: float) -> str:
    return f"{value:.6g}" if abs(value) < 1e6 else f"{value:.0f}"


def _print_table(name: str, args, out, metrics: dict, section: list[dict]) -> None:
    mode = "traced" if args.trace else "untraced"
    print(f"== {name}: seed {args.seed}, {args.seconds:g} s, {mode} ==")
    print(f"  {'metric':<38} {'value':>12}  {'unit':<6} {'n':>4}  better  bound")
    for entry in section:
        if entry["name"] not in metrics:
            print(f"  {entry['name']:<38} {'absent':>12}")
            continue
        value, n = metrics[entry["name"]]
        bound = f"{entry['bound']:g}" if "bound" in entry else "-"
        better = entry.get("better", "-")
        print(
            f"  {entry['name']:<38} {_fmt(value):>12}  {entry['unit']:<6} {n:>4}  "
            f"{better:<6}  {bound}"
        )
    for kind, values in sorted(out.samples.items()):
        if values:
            print(
                f"  samples {kind:<30} n={len(values):<4} min={min(values):.4f} s  "
                f"p50={statistics.median(values):.4f} s  total={sum(values):.3f} s"
            )
    if out.fixpoints_by_stage:
        stages = ", ".join(f"{k} {v}" for k, v in out.fixpoints_by_stage.most_common())
        print(f"  fixpoints by stage (all traced ops): {stages}")
    if out.absent:
        print(f"  absent trace targets: {', '.join(sorted(out.absent))}")
    failed = len(out.failures)
    print(f"  failed_fraction {failed / out.attempted:.6g} ({failed} of {out.attempted} checks)")
    for failure in out.failures[:20]:
        print(f"    FAILED {failure}")


def run(argv: list[str]) -> int:
    spec = load_spec()
    args = _parse_args(argv, spec)
    try:
        import repro.driver.cli  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import repro from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = args.workload or list(WORKLOADS)
    results: dict = {}
    events: list[dict] = []
    correct, attempted, failed = True, 0, 0
    line_metrics: dict = {}
    for index, name in enumerate(names):
        bench = Bench(ROOT, name, args.seed, args.seconds, bool(args.trace), args.web_size)
        out = bench.run()
        metrics = per_layer(out) if args.trace else end_to_end(out)
        _print_table(name, args, out, metrics, section)
        for event in out.events:
            event["pid"] += 1000 * index
        events += out.events
        attempted += out.attempted
        failed += len(out.failures)
        correct = correct and not out.failures
        units = {entry["name"]: entry["unit"] for entry in section}
        for metric, (value, _) in metrics.items():
            if metric in units:
                key = metric if len(names) == 1 else f"{name}/{metric}"
                line_metrics[key] = {"value": value, "unit": units[metric]}
        results[name] = {
            "correct": not out.failures,
            "attempted": out.attempted,
            "failed": len(out.failures),
            "failures": out.failures[:100],
            "metrics": {
                m: {"value": v, "n": n, "unit": units.get(m)} for m, (v, n) in metrics.items()
            },
            "samples": {k: v for k, v in out.samples.items() if v},
            "fixpoints_by_stage": dict(out.fixpoints_by_stage),
            "absent_targets": sorted(out.absent),
        }

    path = Path(args.out) if args.out else ROOT / ".e2e" / "results" / (
        f"e2e-{time.strftime('%Y%m%d-%H%M%S')}-{os.getpid()}-seed{args.seed}"
        f"{'-trace' if args.trace else ''}.json"
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    record = {
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "host_cpus": os.cpu_count(),
        "python": sys.version.split()[0],
        "workloads": results,
    }
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    print(f"result: {path}")
    if args.trace:
        trace_path = path.with_suffix(".trace.json")
        trace_path.write_text(
            json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}, separators=(",", ":"))
        )
        print(f"trace: {trace_path}")
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": line_metrics}
        )
    )
    return 0


# -- comparing -------------------------------------------------------------------
def _collect(target: str) -> tuple[dict[tuple[str, str], list[float]], Counter]:
    """Every metric value by (workload, metric), and failed / attempted
    check counts by workload, over the result files of ``target``."""
    path = Path(target)
    files = (
        sorted(p for p in path.glob("*.json") if not p.name.endswith(".trace.json"))
        if path.is_dir()
        else [path]
    )
    values: dict[tuple[str, str], list[float]] = {}
    checks: Counter = Counter()
    for file in files:
        record = json.loads(file.read_text())
        for workload, result in record["workloads"].items():
            checks[workload, "failed"] += result["failed"]
            checks[workload, "attempted"] += result["attempted"]
            for metric, entry in result["metrics"].items():
                values.setdefault((workload, metric), []).append(entry["value"])
    return values, checks


def _spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median) if median else float("inf")


def compare(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py compare",
        description="Apply BENCHMARK.json's bounds to every (metric, workload) pair.",
    )
    parser.add_argument("base", help="result file or directory of result files")
    parser.add_argument("new", help="result file or directory of result files")
    args = parser.parse_args(argv)
    (base, base_checks), (new, new_checks) = _collect(args.base), _collect(args.new)
    bad = 0
    print(
        f"{'workload':<16} {'metric':<15} {'base':>10} {'new':>10} {'change':>8} "
        f"{'spread':>7} {'bound':>6}  verdict"
    )
    # a failed check in NEW beyond BASE's share fails the comparison: the
    # timings of a run whose outputs are wrong mean nothing
    for workload in sorted({w for w, _ in base_checks}):
        fa = base_checks[workload, "failed"] / base_checks[workload, "attempted"]
        if not new_checks[workload, "attempted"]:
            print(f"{workload:<16} {'failed_fraction':<15} {_fmt(fa):>10} {'-':>10}  missing")
            bad += 1
            continue
        fb = new_checks[workload, "failed"] / new_checks[workload, "attempted"]
        verdict = "regressed" if fb > fa else "ok"
        bad += verdict == "regressed"
        print(
            f"{workload:<16} {'failed_fraction':<15} {_fmt(fa):>10} {_fmt(fb):>10} "
            f"{'':>8} {'':>7} {0:>6}  {verdict}"
        )
    for entry in load_spec()["end_to_end"]:
        metric, bound = entry["name"], entry["bound"]
        sign = 1 if entry["better"] == "lower" else -1
        for workload in sorted({w for w, m in base if m == metric}):
            a, b = base[workload, metric], new.get((workload, metric))
            if not b:
                median = _fmt(statistics.median(a))
                print(f"{workload:<16} {metric:<15} {median:>10} {'-':>10}  missing")
                bad += 1
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma if ma else 0.0
            worse = sign * change
            spread = max(_spread(a), _spread(b))
            all_better = all(sign * (y - x) < 0 for x in a for y in b)
            if spread > bound and not all_better:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regressed"
                bad += 1
            else:
                verdict = "ok"
            print(
                f"{workload:<16} {metric:<15} {_fmt(ma):>10} {_fmt(mb):>10} "
                f"{change:>+8.1%} {spread:>7.1%} {bound:>6g}  {verdict}"
            )
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return compare(argv[1:])
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
