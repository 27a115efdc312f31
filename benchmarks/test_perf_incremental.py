"""Incremental re-analysis benchmark for the staged engine.

Times four single-process scenarios over the ``bench`` corpus (the built-in
corpus plus the ~200-function call web) against ONE persistent artifact
store, the way an editor-driven workflow would use it, and writes
``.bench/BENCH_incremental.json`` (git-ignored; the committed
``BENCH_incremental.json`` at the repository root is refreshed by copying
it):

* ``cold``      — empty store, everything is computed and recorded,
* ``warm_noop`` — the same sources again (pure report probes),
* ``edit_leaf`` — one summary-preserving edit (an unused ``var`` padding
  declaration) in the call web's most-depended-upon function: its whole
  transitive caller cone is *firewalled* behind the unchanged summary
  digest, so exactly one fixpoint re-runs,
* ``edit_root`` — the same edit in a function nobody calls (the other
  extreme: nothing to firewall, still exactly one fixpoint).

Edits are cumulative (leaf first, then root on top), so each run's dirty
set against the previous manifest is exactly one function.  Each row
records the run's ``incremental`` counters and, in ``store``, the records
it read, found missing and wrote (one store file per program) and the
bytes it read and wrote, which ``compare_bench.py --counts`` gates against
the committed snapshot.

The edited program's report is checked bit-for-bit against a from-scratch
(no cache) analysis of the edited source — incrementality must never
change an answer.  ``python benchmarks/compare_bench.py
--check-incremental .bench/BENCH_incremental.json`` gates the recorded
edit-vs-cold speedups against a 10x floor (docs/performance.md, Edits,
records the measured ratios).

Set ``REPRO_FULL=1`` for the paper-sized corpus.
"""

from __future__ import annotations

import gc
import json
import os
import time
from pathlib import Path

import pytest

from repro.driver.batch import BatchDriver
from repro.driver.corpus import CorpusItem, corpus_named
from repro.lang.callgraph import call_graph, reachable
from repro.lang.parser import parse_program


def full_runs_requested() -> bool:
    return os.environ.get("REPRO_FULL", "0") not in ("", "0", "false")


REPO_ROOT = Path(__file__).resolve().parents[1]
#: a fresh snapshot, untracked; refresh the committed one with a plain copy
BENCH_PATH = REPO_ROOT / ".bench" / "BENCH_incremental.json"

#: the corpus item carrying the large call web the edits land in
WEB_NAME = "stress/callweb_200"


def _dependents(source: str) -> dict[str, set[str]]:
    """function -> the functions that transitively call it."""
    callees = call_graph(parse_program(source))
    callers: dict[str, set[str]] = {name: set() for name in callees}
    for caller, called in callees.items():
        for callee in called:
            callers[callee].add(caller)
    return {name: reachable(callers, [name]) for name in callees}


def _pad(source: str, function: str) -> str:
    """Insert an unused ``var`` declaration at the top of ``function`` —
    a body change whose effect summary, preservation verdict, and return
    type are all unchanged."""
    needle = f"function {function}(h)\n{{\n"
    assert needle in source, function
    return source.replace(needle, needle + "  var __pad;\n", 1)


def _run(items, cache_dir):
    # collect the test process's garbage before the clock starts: a full
    # collection of pytest's heap and the earlier scenarios' reports (about
    # 40 ms on a 2-vCPU VM) otherwise lands inside whichever scenario
    # crosses the threshold, and a `repro analyze` process, whose heap is
    # its own run, never pays it
    gc.collect()
    started = time.perf_counter()
    batch = BatchDriver(jobs=1, cache_dir=cache_dir, simulate=False).analyze_corpus(
        items
    )
    return batch, time.perf_counter() - started


def _row(scenario, batch, elapsed):
    records = batch.store["stages"].get("program", {"hits": 0, "misses": 0, "writes": 0})
    return {
        "scenario": scenario,
        "elapsed_s": elapsed,
        "analyses_executed": batch.incremental["recomputed"],
        "cache_hits": batch.incremental["reused"],
        "incremental": batch.incremental,
        # the store files the run read, found missing and wrote: one
        # record per program; and their bytes
        "store": {
            "records_read": records["hits"],
            "records_missing": records["misses"],
            "records_written": records["writes"],
            "bytes_read": batch.store["bytes_read"],
            "bytes_written": batch.store["bytes_written"],
        },
    }


@pytest.fixture(scope="module")
def measurements(tmp_path_factory):
    base_items = corpus_named("bench", full=full_runs_requested())
    web = next(it for it in base_items if it.name == WEB_NAME)
    dependents = _dependents(web.source)
    leaf = max(dependents, key=lambda fn: (len(dependents[fn]), fn))
    roots = [fn for fn in sorted(dependents) if not dependents[fn]]
    assert roots, "call web has no root function"
    root = roots[0]

    def with_web(source):
        return [
            CorpusItem(name=it.name, source=source, description=it.description)
            if it.name == WEB_NAME
            else it
            for it in base_items
        ]

    leaf_source = _pad(web.source, leaf)
    root_source = _pad(leaf_source, root)  # cumulative: leaf edit stays

    store = tmp_path_factory.mktemp("incremental-store")
    cold, cold_s = _run(base_items, store)
    warm, warm_s = _run(base_items, store)
    edit_leaf, leaf_s = _run(with_web(leaf_source), store)
    edit_root, root_s = _run(with_web(root_source), store)

    # the reference answer for the final (doubly edited) web program
    scratch, _ = _run([CorpusItem(name=WEB_NAME, source=root_source)], None)

    return {
        "items": base_items,
        "leaf": leaf,
        "leaf_dependents": len(dependents[leaf]),
        "root": root,
        "cold": cold,
        "warm": warm,
        "edit_leaf": edit_leaf,
        "edit_root": edit_root,
        "scratch": scratch,
        "rows": [
            _row("cold", cold, cold_s),
            _row("warm_noop", warm, warm_s),
            _row("edit_leaf", edit_leaf, leaf_s),
            _row("edit_root", edit_root, root_s),
        ],
    }


def test_cold_run_analyzes_the_whole_corpus(measurements):
    cold = measurements["cold"]
    assert cold.function_count() >= 200
    assert not any(p.error for p in cold.programs)
    # no program reads another's record: every function is analyzed once
    assert cold.incremental["recomputed"] == cold.function_count()
    assert cold.incremental["dirty"] == cold.function_count()


def test_noop_rerun_is_fully_firewalled(measurements):
    warm = measurements["warm"]
    assert warm.incremental["recomputed"] == 0
    assert warm.incremental["dirty"] == 0
    assert warm.incremental["fixpoints_run"] == 0
    assert warm.incremental["reused"] == warm.function_count()


def test_single_leaf_edit_runs_exactly_one_fixpoint(measurements):
    """The headline property: editing one deeply-depended-upon function
    re-solves that function alone; every transitive caller is served from
    cache because the callee's summary digest did not move."""
    report = measurements["edit_leaf"]
    inc = report.incremental
    assert inc["dirty"] == 1
    assert inc["recomputed"] == 1
    # the caller cone exists and was firewalled, not just absent
    assert measurements["leaf_dependents"] >= 10
    assert inc["firewalled"] >= measurements["leaf_dependents"]


def test_single_root_edit_runs_exactly_one_fixpoint(measurements):
    report = measurements["edit_root"]
    assert report.incremental["dirty"] == 1
    assert report.incremental["recomputed"] == 1


def test_incremental_report_matches_from_scratch(measurements):
    """Bit-identity: the doubly-edited web program's incremental report
    equals a no-cache analysis of the same source."""
    incremental = next(
        p for p in measurements["edit_root"].programs if p.name == WEB_NAME
    )
    (scratch,) = measurements["scratch"].programs
    assert incremental.functions == scratch.functions


def test_emit_bench_json(measurements):
    rows = measurements["rows"]
    by_name = {r["scenario"]: r for r in rows}
    cold_s = by_name["cold"]["elapsed_s"]
    speedup = {
        f"{name}_vs_cold": cold_s / by_name[name]["elapsed_s"]
        if by_name[name]["elapsed_s"]
        else float("inf")
        for name in ("warm_noop", "edit_leaf", "edit_root")
    }
    payload = {
        "schema": 1,
        "suite": "driver_incremental",
        "mode": "full" if full_runs_requested() else "quick",
        "host_cpus": os.cpu_count() or 1,
        "corpus_programs": len(measurements["items"]),
        "corpus_functions": measurements["cold"].function_count(),
        "edit": {
            "leaf": measurements["leaf"],
            "leaf_dependents": measurements["leaf_dependents"],
            "root": measurements["root"],
        },
        "scenarios": rows,
        "speedup": speedup,
    }
    BENCH_PATH.parent.mkdir(exist_ok=True)
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    written = json.loads(BENCH_PATH.read_text())
    assert written["speedup"]["edit_leaf_vs_cold"] > 1.0
    assert written["speedup"]["edit_root_vs_cold"] > 1.0
