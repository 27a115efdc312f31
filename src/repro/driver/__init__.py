"""Whole-program batch driver (``python -m repro``).

Scales the per-function analysis core across whole programs and corpora:

* :mod:`repro.driver.callgraph` — call graphs, SCCs, bottom-up parallel
  schedules (the order the paper validates Barnes–Hut in),
* :mod:`repro.driver.cache`     — on-disk memoization keyed by function AST
  + transitive callee summary digests,
* :mod:`repro.driver.corpus`    — the built-in program corpus (paper
  examples, ``examples/corpus/*.ptr``, stress generators),
* :mod:`repro.driver.pipeline`  — the per-function report and the
  whole-program simulation stage,
* :mod:`repro.driver.executor`  — the self-healing persistent worker pool
  (per-task deadlines, targeted kill-and-respawn, sacrificial runs),
* :mod:`repro.driver.faults`    — deterministic fault injection and
  poison-task quarantine records (see ``docs/robustness.md``),
* :mod:`repro.driver.batch`     — the orchestrator packing call-graph
  components into chunks for the pool, with retry/bisection/quarantine
  policy,
* :mod:`repro.driver.cli`       — the ``python -m repro`` front end.
"""

from repro.driver.batch import BatchDriver, BatchReport, ProgramReport
from repro.driver.cache import ResultCache, function_digests, program_digest
from repro.driver.callgraph import (
    CallGraph,
    bottom_up_waves,
    build_call_graph,
    strongly_connected_components,
)
from repro.driver.corpus import (
    CorpusItem,
    builtin_corpus,
    corpus_named,
    load_source_file,
    paper_corpus,
    stress_corpus,
)
from repro.driver.pipeline import (
    PipelineOptions,
    function_report,
    simulate_program,
)

__all__ = [
    "BatchDriver",
    "BatchReport",
    "ProgramReport",
    "ResultCache",
    "function_digests",
    "program_digest",
    "CallGraph",
    "build_call_graph",
    "strongly_connected_components",
    "bottom_up_waves",
    "CorpusItem",
    "builtin_corpus",
    "corpus_named",
    "paper_corpus",
    "stress_corpus",
    "load_source_file",
    "PipelineOptions",
    "function_report",
    "simulate_program",
]
