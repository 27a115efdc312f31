"""Parallelizing and optimizing transformations driven by ADDS + path matrices.

The paper demonstrates one transformation in detail — strip-mining a pointer
traversal loop across the processors of a shared-memory machine (section
4.3.3) — and cites two more enabled by the same analysis: loop unrolling
[HG92] and software pipelining [HHN92].  This package implements all three,
plus the loop dependence test that gates them:

* :mod:`repro.transform.dependence` — decides whether a traversal loop's
  iterations are independent, using the path-matrix alias oracle,
* :mod:`repro.transform.stripmine` — the BHL1/BHL2 transformation: each
  parallel step processes ``PEs`` consecutive list nodes, relying on
  speculative traversability to skip the NULL checks,
* :mod:`repro.transform.unroll` — unrolls a traversal loop by a factor k,
* :mod:`repro.transform.pipeline` — software-pipelines a traversal loop into
  a prologue / steady-state kernel / epilogue,
* :mod:`repro.transform.report` — human-readable transformation reports.

Each transformation has a read-only ``check_*`` twin that raises exactly the
error the transformation would raise and returns its notes, without copying
the program.
"""

from repro.transform.dependence import (
    DependenceTest,
    LoopClassification,
    classify_loop,
)
from repro.transform.stripmine import (
    StripMineResult,
    StripMinedProgram,
    check_strip_mine,
    strip_mine_loop,
    strip_mine_program,
)
from repro.transform.unroll import UnrollResult, check_unroll, unroll_loop
from repro.transform.pipeline import (
    PipelineResult,
    check_software_pipeline,
    software_pipeline_loop,
)
from repro.transform.report import TransformationReport

__all__ = [
    "DependenceTest",
    "LoopClassification",
    "classify_loop",
    "StripMineResult",
    "check_strip_mine",
    "strip_mine_loop",
    "StripMinedProgram",
    "strip_mine_program",
    "UnrollResult",
    "check_unroll",
    "unroll_loop",
    "PipelineResult",
    "check_software_pipeline",
    "software_pipeline_loop",
    "TransformationReport",
]
