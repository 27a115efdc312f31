"""Throughput benchmark for the whole-program batch driver.

Times five configurations over the ``bench`` corpus (the built-in corpus
plus a ~200-function call web, so scheduling actually matters)
and writes ``.bench/BENCH_driver.json`` (git-ignored; the committed
``BENCH_driver.json`` at the repository root is refreshed by copying it):

* ``cold_serial``      — jobs=1, fresh cache (the inline, no-pool path),
* ``warm_serial``      — jobs=1 over the cold run's cache (pure cache read),
* ``cold_parallel_2/4/8`` — persistent worker pool, fresh cache each.

Every cold scenario gets its own empty cache directory.  The serial run
must execute exactly one analysis per *distinct* function — corpus
functions that are content-identical across programs (same body, types,
and callee closure, e.g. the ``insert`` shared by the two tree examples)
are served from the just-written shared ``report`` artifact instead of
re-solved.  A pooled run shares a duplicate the same way only when its
first computation lands before another program's task reaches it, so it
analyzes every distinct function at least once and each duplicate at most
once more.  The warm run must execute zero analyses.  All configurations
must produce identical per-function reports (the pooled runs are
bit-identical to serial).

Wall-clock numbers are recorded, not gated (CI machines vary); the snapshot
records ``host_cpus`` so scaling ratios can be judged in context — on a
single-core container the parallel scenarios measure pure overhead and land
near 1.0x.  ``python benchmarks/compare_bench.py --check-scaling
.bench/BENCH_driver.json`` gates on that ratio host-awarely.

Set ``REPRO_FULL=1`` for the paper-sized corpus.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.driver.batch import BatchDriver
from repro.driver.corpus import corpus_named
from repro.driver.executor import preferred_start_method


def full_runs_requested() -> bool:
    return os.environ.get("REPRO_FULL", "0") not in ("", "0", "false")


REPO_ROOT = Path(__file__).resolve().parents[1]
#: a fresh snapshot, untracked; refresh the committed one with a plain copy
BENCH_PATH = REPO_ROOT / ".bench" / "BENCH_driver.json"

PARALLEL_JOBS = (2, 4, 8)


def _run(items, jobs, cache_dir):
    started = time.perf_counter()
    batch = BatchDriver(jobs=jobs, cache_dir=cache_dir).analyze_corpus(items)
    elapsed = time.perf_counter() - started
    return batch, elapsed


def _row(scenario, jobs, batch, elapsed, functions):
    row = {
        "scenario": scenario,
        "jobs": jobs,
        "elapsed_s": elapsed,
        "functions": functions,
        "functions_per_s": functions / elapsed if elapsed else float("inf"),
        "analyses_executed": batch.incremental["recomputed"],
        "cache_hits": batch.incremental["reused"],
    }
    stats = batch.to_dict()["stats"]
    row["start_method"] = stats.get("start_method")
    if stats.get("profile"):
        row["profile_totals"] = stats["profile"]["totals"]
    return row


def _content_duplicate_count(items) -> int:
    """Functions sharing all analysis-relevant content (declaration text,
    types, callee closure) with an earlier corpus function — the staged
    serial engine serves these from the shared ``report`` artifact instead
    of re-solving them."""
    from repro.driver.cache import function_digests
    from repro.driver.pipeline import PipelineOptions
    from repro.lang.parser import parse_program
    from repro.lang.split import split_declarations

    seen: set[str] = set()
    duplicates = 0
    for item in items:
        program = parse_program(item.source)
        texts = {
            d.name: d.text for d in split_declarations(item.source) if d.kind == "function"
        }
        digests = function_digests(program, PipelineOptions().key(), texts)
        for digest in digests.values():
            if digest in seen:
                duplicates += 1
            seen.add(digest)
    return duplicates


@pytest.fixture(scope="module")
def measurements(tmp_path_factory):
    items = corpus_named("bench", full=full_runs_requested())

    serial_cache = tmp_path_factory.mktemp("cache-serial")
    cold, cold_s = _run(items, 1, serial_cache)
    warm, warm_s = _run(items, 1, serial_cache)
    functions = cold.function_count()

    rows = [
        _row("cold_serial", 1, cold, cold_s, functions),
        _row("warm_serial", 1, warm, warm_s, functions),
    ]
    parallel_runs = {}
    for jobs in PARALLEL_JOBS:
        # a fresh, empty cache per scenario: cold means cold
        batch, elapsed = _run(items, jobs, tmp_path_factory.mktemp(f"cache-p{jobs}"))
        parallel_runs[jobs] = batch
        rows.append(_row(f"cold_parallel_{jobs}", jobs, batch, elapsed, functions))
    return {
        "items": items,
        "cold": cold,
        "warm": warm,
        "parallel_runs": parallel_runs,
        "rows": rows,
        "duplicates": _content_duplicate_count(items),
    }


def test_corpus_is_substantial(measurements):
    assert len(measurements["items"]) >= 8
    assert measurements["cold"].function_count() >= 200
    assert not any(p.error for p in measurements["cold"].programs)


def test_cold_runs_execute_every_function_exactly_once(measurements):
    """A cold run over an empty cache solves each *distinct* function once.
    The serial run serves content-identical duplicates from the ``report``
    artifacts written moments earlier; a pooled run serves one only when
    the program that computes it first has already stored it."""
    functions = measurements["cold"].function_count()
    duplicates = measurements["duplicates"]
    for row in measurements["rows"]:
        if not row["scenario"].startswith("cold_"):
            continue
        if row["scenario"] == "cold_serial":
            assert row["cache_hits"] == duplicates, row["scenario"]
            assert row["analyses_executed"] == functions - duplicates, row["scenario"]
        else:
            assert row["analyses_executed"] + row["cache_hits"] == functions, row["scenario"]
            assert functions - duplicates <= row["analyses_executed"], row["scenario"]


def test_warm_run_is_fully_cached(measurements):
    warm = measurements["warm"]
    cold = measurements["cold"]
    assert warm.incremental["recomputed"] == 0
    assert warm.incremental["reused"] == cold.function_count()
    # and the cache returns exactly what the cold run computed
    for cold_p, warm_p in zip(cold.programs, warm.programs):
        assert cold_p.functions == warm_p.functions


def test_parallel_runs_match_serial(measurements):
    cold = measurements["cold"]
    for jobs, parallel in measurements["parallel_runs"].items():
        for cold_p, par_p in zip(cold.programs, parallel.programs):
            assert cold_p.functions == par_p.functions, (jobs, cold_p.name)
            assert cold_p.simulation == par_p.simulation, (jobs, cold_p.name)


def test_warm_run_is_faster_than_cold(measurements):
    rows = {r["scenario"]: r for r in measurements["rows"]}
    # reading small JSON files must beat re-running hundreds of fixpoints;
    # the margin is enormous in practice, so this is safe to gate on
    assert rows["warm_serial"]["elapsed_s"] < rows["cold_serial"]["elapsed_s"]


def test_emit_bench_json(measurements):
    rows = measurements["rows"]
    by_name = {r["scenario"]: r for r in rows}
    serial_rate = by_name["cold_serial"]["functions_per_s"]
    scaling = {
        f"parallel_{jobs}_vs_serial": by_name[f"cold_parallel_{jobs}"]["functions_per_s"]
        / serial_rate
        for jobs in PARALLEL_JOBS
    }
    payload = {
        "schema": 2,
        "suite": "driver_batch",
        "mode": "full" if full_runs_requested() else "quick",
        "host_cpus": os.cpu_count() or 1,
        "start_method": preferred_start_method(),
        "corpus_programs": len(measurements["items"]),
        "corpus_functions": measurements["cold"].function_count(),
        "scenarios": rows,
        "scaling": scaling,
    }
    BENCH_PATH.parent.mkdir(exist_ok=True)
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    written = json.loads(BENCH_PATH.read_text())
    assert written["scenarios"], "benchmark file must record at least one scenario"
    assert written["scaling"], "benchmark file must record scaling ratios"
