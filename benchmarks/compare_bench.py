#!/usr/bin/env python3
"""Diff two ``BENCH_*.json`` snapshots and fail on performance regressions.

Usage::

    python benchmarks/compare_bench.py OLD.json NEW.json [--threshold 0.2]
                                       [--key worklist_s]
    python benchmarks/compare_bench.py --check-scaling .bench/BENCH_driver.json
                                       [--min-ratio 1.0]
    python benchmarks/compare_bench.py --check-incremental .bench/BENCH_incremental.json
                                       [--min-speedup 10.0]
    python benchmarks/compare_bench.py --counts BENCH_pathmatrix.json .bench/BENCH_pathmatrix.json
    python benchmarks/compare_bench.py --counts BENCH_incremental.json .bench/BENCH_incremental.json

**Diff mode** (two positional snapshots): scenarios are matched by name.  A
scenario regresses when its timing key in NEW exceeds OLD by more than
``threshold`` (default 20%).  Scenarios present in only one file are
reported but do not fail the comparison.

**Scaling mode** (``--check-scaling``): reads one ``BENCH_driver.json``
snapshot and fails when the recorded ``parallel_4_vs_serial`` throughput
ratio falls below the floor.  The floor is host-aware: on a multi-core host
the parallel driver must at least match serial (floor 1.0); on a
single-core host the parallel scenarios measure pure scheduling/IPC
overhead, so the floor relaxes to 0.85 — parallel may pay a few percent,
never a collapse.  ``--min-ratio`` overrides the floor explicitly.

**Incremental mode** (``--check-incremental``): reads one
``BENCH_incremental.json`` snapshot and fails unless (a) each single-edit
scenario re-ran exactly one analysis — the summary-digest firewall held —
and (b) the recorded edit-vs-cold speedups clear the floor (default 10x).

**Counts mode** (``--counts COMMITTED NEW``): compares every integer field
(work counts such as ``worklist_blocks_transferred``) of each scenario found
in both snapshots, and every integer one level down in an object field
(``incremental.fixpoints_run``); floats (timings, ratios) and bools are
ignored.  A count that rose fails.  A count that fell fails too, so that
the change which made the gain commits the new snapshot as the baseline.
Scenarios found in only one file are listed but do not fail.

Exit status: 0 when no regression, 1 on regression, 2 on usage/parse
errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: floor for parallel_4/serial throughput on a multi-core host
MULTI_CORE_FLOOR = 1.0
#: floor on a single-core host, where workers only add overhead
SINGLE_CORE_FLOOR = 0.85
#: the scaling ratio the CI gate judges
SCALING_KEY = "parallel_4_vs_serial"

#: floor for the single-edit-vs-cold speedup of the incremental engine
MIN_EDIT_SPEEDUP = 10.0
#: the single-edit scenarios the incremental gate judges
EDIT_SCENARIOS = ("edit_leaf", "edit_root")


def load(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read benchmark file {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def scenarios_by_name(payload: dict) -> dict[str, dict]:
    return {row["scenario"]: row for row in payload.get("scenarios", [])}


def scaling_floor(payload: dict, min_ratio: float | None) -> float:
    if min_ratio is not None:
        return min_ratio
    host_cpus = payload.get("host_cpus") or 1
    return MULTI_CORE_FLOOR if host_cpus > 1 else SINGLE_CORE_FLOOR


def check_scaling(payload: dict, min_ratio: float | None) -> int:
    scaling = payload.get("scaling")
    if not scaling:
        print("error: snapshot has no 'scaling' section (schema < 2?)", file=sys.stderr)
        return 2
    ratio = scaling.get(SCALING_KEY)
    if ratio is None:
        print(f"error: snapshot has no {SCALING_KEY!r} ratio", file=sys.stderr)
        return 2
    floor = scaling_floor(payload, min_ratio)
    host_cpus = payload.get("host_cpus") or 1
    print(f"host_cpus: {host_cpus}   floor: {floor:.2f}")
    for name in sorted(scaling):
        print(f"  {name:<24} {scaling[name]:.3f}x")
    if ratio < floor:
        print(
            f"\nFAIL: {SCALING_KEY} = {ratio:.3f}x is below the "
            f"{floor:.2f}x floor — the parallel driver is slower than it "
            f"is allowed to be on this host"
        )
        return 1
    print(f"\nOK: {SCALING_KEY} = {ratio:.3f}x >= {floor:.2f}x")
    return 0


def check_incremental(payload: dict, min_speedup: float | None) -> int:
    floor = MIN_EDIT_SPEEDUP if min_speedup is None else min_speedup
    speedup = payload.get("speedup")
    if not speedup:
        print("error: snapshot has no 'speedup' section", file=sys.stderr)
        return 2
    scenarios = scenarios_by_name(payload)
    failures: list[str] = []
    for name in EDIT_SCENARIOS:
        row = scenarios.get(name)
        if row is None:
            print(f"error: snapshot has no {name!r} scenario", file=sys.stderr)
            return 2
        executed = row.get("analyses_executed")
        ratio = speedup.get(f"{name}_vs_cold")
        print(
            f"  {name:<12} {executed} analysis(es) re-run, "
            f"{ratio:.1f}x vs cold" if ratio is not None else f"  {name}: no ratio"
        )
        if executed != 1:
            failures.append(
                f"{name}: {executed} analyses re-ran after a single edit "
                f"(the summary firewall did not hold)"
            )
        if ratio is None or ratio < floor:
            failures.append(
                f"{name}: {ratio if ratio is not None else 'missing'}x "
                f"vs cold is below the {floor:.1f}x floor"
            )
    if failures:
        print(f"\nFAIL: {len(failures)} incremental gate violation(s):")
        for line in failures:
            print(f"  - {line}")
        return 1
    print(f"\nOK: single-edit re-analysis holds the {floor:.1f}x floor")
    return 0


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def counts(row: dict) -> dict[str, int]:
    """A scenario row's integer fields, with those of its object fields
    under ``field.key``."""
    found: dict[str, int] = {}
    for key, value in row.items():
        if _is_count(value):
            found[key] = value
        elif isinstance(value, dict):
            for inner, count in value.items():
                if _is_count(count):
                    found[f"{key}.{inner}"] = count
    return found


def check_counts(committed: dict, new: dict) -> int:
    old_rows = scenarios_by_name(committed)
    new_rows = scenarios_by_name(new)
    rose: list[str] = []
    fell: list[str] = []
    compared = 0
    for name in sorted(old_rows.keys() & new_rows.keys()):
        old_counts, new_counts = counts(old_rows[name]), counts(new_rows[name])
        for key in sorted(old_counts.keys() & new_counts.keys()):
            old_n, new_n = old_counts[key], new_counts[key]
            compared += 1
            if new_n != old_n:
                line = f"{name}: {key} {old_n} -> {new_n}"
                (rose if new_n > old_n else fell).append(line)
    for name in sorted(old_rows.keys() - new_rows.keys()):
        print(f"{name}: only in the committed snapshot")
    for name in sorted(new_rows.keys() - old_rows.keys()):
        print(f"{name}: only in the new snapshot")
    if rose:
        print(f"\nFAIL: {len(rose)} count(s) rose:")
        for line in rose:
            print(f"  - {line}")
    if fell:
        print(
            f"\nFAIL: {len(fell)} count(s) fell; commit the new snapshot as the "
            "baseline so the gain is recorded:"
        )
        for line in fell:
            print(f"  - {line}")
    if rose or fell:
        return 1
    print(f"OK: {compared} count(s) equal the committed snapshot")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("old", nargs="?", help="baseline BENCH_*.json")
    parser.add_argument("new", nargs="?", help="candidate BENCH_*.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.2,
        help="allowed relative slowdown before failing (default 0.2 = 20%%)",
    )
    parser.add_argument(
        "--key",
        default="worklist_s",
        help="per-scenario timing key to compare (default: worklist_s)",
    )
    parser.add_argument(
        "--check-scaling",
        metavar="SNAPSHOT",
        help="check the parallel-vs-serial scaling ratio of one driver snapshot",
    )
    parser.add_argument(
        "--min-ratio",
        type=float,
        default=None,
        help="override the host-aware scaling floor (with --check-scaling)",
    )
    parser.add_argument(
        "--check-incremental",
        metavar="SNAPSHOT",
        help="check the single-edit speedup of one incremental snapshot",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help=(
            "override the edit-vs-cold speedup floor (with "
            f"--check-incremental; default {MIN_EDIT_SPEEDUP:.0f})"
        ),
    )
    parser.add_argument(
        "--counts",
        nargs=2,
        metavar=("COMMITTED", "NEW"),
        help="fail unless every integer work count of NEW equals COMMITTED's",
    )
    args = parser.parse_args(argv)

    if args.counts:
        if args.old or args.new:
            print("error: --counts takes its two snapshots itself", file=sys.stderr)
            return 2
        committed, new = args.counts
        return check_counts(load(committed), load(new))
    if args.check_scaling:
        if args.old or args.new:
            print("error: --check-scaling takes no OLD/NEW snapshots", file=sys.stderr)
            return 2
        return check_scaling(load(args.check_scaling), args.min_ratio)
    if args.check_incremental:
        if args.old or args.new:
            print(
                "error: --check-incremental takes no OLD/NEW snapshots",
                file=sys.stderr,
            )
            return 2
        return check_incremental(load(args.check_incremental), args.min_speedup)
    if not args.old or not args.new:
        print("error: diff mode needs OLD and NEW snapshots", file=sys.stderr)
        return 2

    old = scenarios_by_name(load(args.old))
    new = scenarios_by_name(load(args.new))

    regressions: list[str] = []
    added: list[str] = []
    removed: list[str] = []
    print(f"{'scenario':<16} {'old':>10} {'new':>10} {'delta':>8}")
    for name in sorted(old.keys() | new.keys()):
        old_row, new_row = old.get(name), new.get(name)
        if old_row is None or new_row is None:
            # benchmarks present in only one snapshot (a PR added or retired
            # one) are informational, never a comparison failure
            if old_row is None:
                added.append(name)
                print(f"{name:<16} {'added (new benchmark)':>30}")
            else:
                removed.append(name)
                print(f"{name:<16} {'removed (not in new)':>30}")
            continue
        old_t, new_t = old_row.get(args.key), new_row.get(args.key)
        if old_t is None or new_t is None:
            print(f"{name:<16} {'key ' + args.key + ' missing':>30}")
            continue
        delta = (new_t - old_t) / old_t if old_t else 0.0
        marker = ""
        if delta > args.threshold:
            marker = "  REGRESSION"
            regressions.append(f"{name}: {old_t:.4f}s -> {new_t:.4f}s ({delta:+.1%})")
        print(f"{name:<16} {old_t:>9.4f}s {new_t:>9.4f}s {delta:>+7.1%}{marker}")

    if added:
        print(f"\nadded: {', '.join(added)}")
    if removed:
        print(f"removed: {', '.join(removed)}")
    if regressions:
        print(
            f"\nFAIL: {len(regressions)} scenario(s) slower by more than "
            f"{args.threshold:.0%} on {args.key!r}:"
        )
        for line in regressions:
            print(f"  - {line}")
        return 1
    print(f"\nOK: no scenario slower by more than {args.threshold:.0%} on {args.key!r}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
