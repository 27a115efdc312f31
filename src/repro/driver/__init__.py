"""Whole-program batch driver (``python -m repro``).

Scales the per-function analysis core across whole programs and corpora:

* :mod:`repro.driver.cache`     — the on-disk artifact store, keyed by
  declaration text + callee summary digests,
* :mod:`repro.driver.corpus`    — the built-in program corpus (paper
  examples, ``examples/corpus/*.ptr``, stress generators),
* :mod:`repro.driver.stages`    — the staged incremental engine, which
  walks each program's call-graph components bottom-up (the order the
  paper validates Barnes–Hut in, from :mod:`repro.lang.callgraph`), and
  ``run_program``, the one per-program call every ``--jobs`` makes,
* :mod:`repro.driver.pipeline`  — the per-function report and the
  whole-program simulation stage,
* :mod:`repro.driver.executor`  — the self-healing persistent worker pool
  (per-task deadlines, targeted kill-and-respawn),
* :mod:`repro.driver.faults`    — deterministic fault injection and
  poison-task quarantine records (see ``docs/robustness.md``),
* :mod:`repro.driver.batch`     — the orchestrator: programs inline or one
  pool task each, with the per-suspect retry/quarantine policy (every
  retry is one more pool task),
* :mod:`repro.driver.cli`       — the ``python -m repro`` front end.
"""

from repro.driver.batch import BatchDriver, BatchReport, ProgramReport
from repro.driver.cache import ResultCache, program_digest
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
    "program_digest",
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
