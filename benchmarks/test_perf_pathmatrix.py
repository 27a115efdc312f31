"""Performance benchmark: worklist engine vs. the seed round-robin engine.

Times fixpoint solving on generated stress programs (wide matrices with many
live pointer variables; deep CFGs with nested loops and branches) for both
fixpoint engines and asserts the worklist+interned engine achieves at least a
3x median speedup.  Results are written to ``.bench/BENCH_pathmatrix.json``
(git-ignored); the committed ``BENCH_pathmatrix.json`` at the repository
root is the trajectory, refreshed by copying the fresh file over it.
Compare two snapshots with ``python benchmarks/compare_bench.py OLD.json
NEW.json``.

Set ``REPRO_FULL=1`` for the larger workloads.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path

import pytest

from repro.bench.stress import deep_program, wide_program
from repro.pathmatrix import PathMatrixAnalysis, baseline_roundrobin


def full_runs_requested() -> bool:
    return os.environ.get("REPRO_FULL", "0") not in ("", "0", "false")

REPO_ROOT = Path(__file__).resolve().parents[1]
#: a fresh snapshot, untracked; refresh the committed one with a plain copy
BENCH_PATH = REPO_ROOT / ".bench" / "BENCH_pathmatrix.json"

#: required median speedup of the worklist engine over the baseline
SPEEDUP_TARGET = 3.0


def _scenarios():
    if full_runs_requested():
        return [
            ("wide_50", wide_program(50), "stress"),
            ("wide_100", wide_program(100), "stress"),
            ("wide_200", wide_program(200), "stress"),
            ("deep_6x30", deep_program(6, 8, 30), "deep"),
            ("deep_8x40", deep_program(8, 6, 40), "deep"),
            ("deep_10x50", deep_program(10, 6, 50), "deep"),
        ]
    return [
        ("wide_50", wide_program(50), "stress"),
        ("wide_100", wide_program(100), "stress"),
        ("deep_6x30", deep_program(6, 8, 30), "deep"),
        ("deep_8x40", deep_program(8, 6, 40), "deep"),
    ]


def _time_solver(solve, function: str, repeats: int):
    times = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = solve(function)
        times.append(time.perf_counter() - start)
    assert result is not None
    return statistics.median(times), result


@pytest.fixture(scope="module")
def measurements():
    repeats = 5 if full_runs_requested() else 3
    rows = []
    for name, program, function in _scenarios():
        analysis = PathMatrixAnalysis(program)
        rr_time, rr_result = _time_solver(
            lambda fn: baseline_roundrobin(analysis, fn), function, repeats
        )
        wl_time, wl_result = _time_solver(analysis.analyze_function, function, repeats)
        # both engines must agree everywhere before a timing is trusted
        for idx, matrix in rr_result.exit_matrices.items():
            assert wl_result.exit_matrices[idx].equivalent(matrix), (
                f"{name}: solvers disagree at block {idx}"
            )
        rows.append(
            {
                "scenario": name,
                "function": function,
                "cfg_blocks": len(rr_result.cfg.blocks),
                "cfg_statements": rr_result.cfg.statement_count(),
                "pointer_vars": len(rr_result.ctx.pointer_vars),
                "roundrobin_s": rr_time,
                "worklist_s": wl_time,
                "speedup": rr_time / wl_time if wl_time > 0 else float("inf"),
                "roundrobin_blocks_transferred": rr_result.blocks_transferred,
                "worklist_blocks_transferred": wl_result.blocks_transferred,
                "roundrobin_iterations": rr_result.iterations,
                "worklist_iterations": wl_result.iterations,
            }
        )
    return rows


def test_worklist_engine_speedup(measurements):
    speedups = [row["speedup"] for row in measurements]
    median_speedup = statistics.median(speedups)
    detail = ", ".join(f"{r['scenario']}={r['speedup']:.2f}x" for r in measurements)
    assert median_speedup >= SPEEDUP_TARGET, (
        f"median speedup {median_speedup:.2f}x below target {SPEEDUP_TARGET}x ({detail})"
    )


def test_worklist_never_does_more_transfers(measurements):
    for row in measurements:
        assert (
            row["worklist_blocks_transferred"] <= row["roundrobin_blocks_transferred"]
        ), row["scenario"]


def test_emit_bench_json(measurements):
    payload = {
        "schema": 1,
        "suite": "pathmatrix_fixpoint",
        "mode": "full" if full_runs_requested() else "quick",
        "speedup_target": SPEEDUP_TARGET,
        "median_speedup": statistics.median(r["speedup"] for r in measurements),
        "scenarios": measurements,
    }
    BENCH_PATH.parent.mkdir(exist_ok=True)
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    written = json.loads(BENCH_PATH.read_text())
    assert written["scenarios"], "benchmark file must record at least one scenario"
