"""General path matrix analysis (paper section 3.3).

The path matrix ``PM`` estimates, at every program point, the relationship
between every pair of live pointer variables.  ``PM[r][s]`` records an
explicit path or alias, if any, from the node pointed to by ``r`` to the node
pointed to by ``s``:

* ``=``        — definite alias (same node),
* ``=?``       — possible alias,
* ``f`` / ``f+`` — a path of exactly one / one-or-more ``f`` links,
* *empty*      — no known path; in particular **not** aliases.

The analysis is *general* in the sense of the paper: it handles structures
that are DAG-like or cyclic by consulting the ADDS declaration — acyclic
fields use the precise rules of Hendren's original path matrix analysis,
while unknown-direction fields fall back to conservative approximations.
It fulfils two roles (paper 3.3): capturing the current shape for
**abstraction validation**, and answering **alias queries** for the
transformation passes.

Modules:

* :mod:`repro.pathmatrix.paths`    — path/alias relation values,
* :mod:`repro.pathmatrix.matrix`   — the :class:`PathMatrix` container,
* :mod:`repro.pathmatrix.rules`    — pointer transfer rules per statement,
* :mod:`repro.pathmatrix.analysis` — CFG fixed point + loop analysis,
* :mod:`repro.pathmatrix.validation` — abstraction validation bookkeeping,
* :mod:`repro.pathmatrix.interproc` — call-site handling via side-effect summaries,
* :mod:`repro.pathmatrix.alias`    — the alias-query API used by transformations,
* :mod:`repro.pathmatrix.baseline` — the fully conservative baseline,
* :mod:`repro.pathmatrix.klimited` — a k-limited storage-graph baseline [JM81].
"""

import importlib

from repro.pathmatrix.paths import Relation, PathEntry, EMPTY_ENTRY
from repro.pathmatrix.matrix import PathMatrix, cellwise_equivalent
from repro.pathmatrix.validation import Violation, ValidationState
from repro.pathmatrix.rules import (
    TransferContext,
    apply_block,
    apply_statement,
    statement_touches_matrix,
)
from repro.pathmatrix.interproc import FunctionSummary, summarize_program
from repro.pathmatrix.analysis import (
    AnalysisError,
    AnalysisResult,
    PathMatrixAnalysis,
    analyze_function,
    analyze_loop_dependence,
    LoopDependenceReport,
)
from repro.pathmatrix.alias import AliasOracle, AliasAnswer
from repro.pathmatrix.worklist import SolveStats, solve_roundrobin, solve_worklist

#: the baselines' names and their submodules, imported on first access (PEP
#: 562): only the precision figures and the reference tests use them, so
#: importing the analysis does not load them
_BASELINES = {
    "ConservativeOracle": "baseline",
    "baseline_roundrobin": "baseline",
    "conservative_matrix": "baseline",
    "KLimitedAnalysis": "klimited",
    "KLimitedOracle": "klimited",
    "StorageGraph": "klimited",
}

__all__ = [
    "Relation",
    "PathEntry",
    "EMPTY_ENTRY",
    "PathMatrix",
    "cellwise_equivalent",
    "Violation",
    "ValidationState",
    "TransferContext",
    "apply_block",
    "apply_statement",
    "statement_touches_matrix",
    "AnalysisError",
    "SolveStats",
    "solve_worklist",
    "solve_roundrobin",
    "baseline_roundrobin",
    "FunctionSummary",
    "summarize_program",
    "AnalysisResult",
    "PathMatrixAnalysis",
    "analyze_function",
    "analyze_loop_dependence",
    "LoopDependenceReport",
    "AliasOracle",
    "AliasAnswer",
    "ConservativeOracle",
    "conservative_matrix",
    "KLimitedAnalysis",
    "KLimitedOracle",
    "StorageGraph",
]


def __getattr__(name: str):
    module = _BASELINES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
