"""Regenerate the paper's in-text analysis artifacts (experiments E3–E6).

The paper has no data plots; its "figures" are data-structure drawings and
worked path matrices embedded in the text.  Each function here recomputes one
of those artifacts from the actual analysis implementation and returns both a
machine-checkable summary and a printable rendering:

* :func:`polynomial_pathmatrix_figure` — the section 3.3.2 example: the
  conservative matrix vs. the ADDS-informed matrices for the
  coefficient-scaling loop,
* :func:`bhl1_pathmatrix_figure` — the section 4.3.2 matrix for BHL1 of the
  Barnes–Hut program,
* :func:`precision_comparison` — Figures 1/2 behaviourally: how the three
  analyses (conservative, k-limited, ADDS+GPM) compare on the traversal-
  independence question and on pairwise alias precision,
* :func:`validation_trace_figure` — the section 3.3.1 subtree-move example:
  the abstraction is broken after the first statement and valid again after
  the second.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.adds.library import merged_into
from repro.lang.pretty import unparse
from repro.nbody.toy_program import BHL1_FUNCTION, barnes_hut_toy_program
from repro.pathmatrix.analysis import PathMatrixAnalysis, analyze_loop_dependence
from repro.pathmatrix.baseline import ConservativeOracle, conservative_matrix_for
from repro.pathmatrix.klimited import KLimitedAnalysis, KLimitedOracle
from repro.pathmatrix.matrix import PathMatrix
from repro.pathmatrix.rules import apply_statement
from repro.pathmatrix.alias import AliasOracle


#: the polynomial-scaling program of section 3.3.2
POLYNOMIAL_SCALE_SRC = """
function scale(head, c)
{ var p;
  p = head;
  while p <> NULL
  { p->coef = p->coef * c;
    p = p->next;
  }
  return head;
}
"""


@dataclass
class PathMatrixFigure:
    """The reproduced matrices plus the claims they support."""

    title: str
    conservative: PathMatrix
    with_adds_entry: PathMatrix
    with_adds_after_body: PathMatrix
    claims: dict[str, bool] = field(default_factory=dict)

    def render(self) -> str:
        lines = [f"== {self.title} ==", "", "conservative (no structure information):"]
        lines.append(self.conservative.to_table())
        lines.append("")
        lines.append("with the ADDS declaration — at the loop header (fixed point):")
        lines.append(self.with_adds_entry.to_table())
        lines.append("")
        lines.append("with the ADDS declaration — after one loop body (primed analysis):")
        lines.append(self.with_adds_after_body.to_table())
        lines.append("")
        for claim, ok in self.claims.items():
            lines.append(f"  [{'ok' if ok else 'FAIL'}] {claim}")
        return "\n".join(lines)


def polynomial_pathmatrix_figure() -> PathMatrixFigure:
    """Reproduce the worked example of section 3.3.2."""
    program = merged_into(POLYNOMIAL_SCALE_SRC, "ListNode")
    conservative = conservative_matrix_for(program, "scale")
    report = analyze_loop_dependence(program, "scale")
    figure = PathMatrixFigure(
        title="section 3.3.2 — polynomial coefficient scaling",
        conservative=conservative,
        with_adds_entry=report.matrix_at_entry,
        with_adds_after_body=report.matrix_after_body,
    )
    after = report.matrix_after_body
    figure.claims = {
        "conservative analysis: head and p are potential aliases": conservative.may_alias(
            "head", "p"
        ),
        "ADDS analysis: p and p' (previous iteration) are never aliases": not after.may_alias(
            "p", "p'"
        ),
        "ADDS analysis: a next-path (not an alias) links p' to p": any(
            rel.field == "next" for rel in after.get("p'", "p").paths()
        ),
        "loop is parallelizable with ADDS": report.parallelizable,
    }
    return figure


def bhl1_pathmatrix_figure() -> PathMatrixFigure:
    """Reproduce the BHL1 matrix of section 4.3.2 on the toy Barnes–Hut program."""
    program = barnes_hut_toy_program()
    conservative = conservative_matrix_for(program, BHL1_FUNCTION)
    report = analyze_loop_dependence(program, BHL1_FUNCTION)
    after = report.matrix_after_body
    figure = PathMatrixFigure(
        title="section 4.3.2 — BHL1 of the Barnes–Hut tree code",
        conservative=conservative,
        with_adds_entry=report.matrix_at_entry,
        with_adds_after_body=after,
    )
    figure.claims = {
        "p and p' (consecutive iterations) are never aliases": not after.may_alias("p", "p'"),
        "particles reaches p through a next-path (not an alias)": any(
            rel.field == "next" for rel in after.get("particles", "p").paths()
        ),
        "root remains a possible alias of other pointers (as in the paper)": after.may_alias(
            "root", "p"
        ),
        "abstraction (Octree declaration) valid at loop entry": report.abstraction_valid,
        "BHL1 is parallelizable with ADDS": report.parallelizable,
    }
    return figure


# ---------------------------------------------------------------------------
# precision comparison (experiment E5)
# ---------------------------------------------------------------------------
@dataclass
class PrecisionRow:
    analysis: str
    proves_traversal_independent: bool
    non_alias_pairs: int
    precision_score: float


@dataclass
class PrecisionComparison:
    rows: list[PrecisionRow] = field(default_factory=list)

    def row(self, name: str) -> PrecisionRow:
        for r in self.rows:
            if r.analysis == name:
                return r
        raise KeyError(name)

    def render(self) -> str:
        lines = ["analysis            traversal-independent   non-alias pairs   precision"]
        for r in self.rows:
            lines.append(
                f"{r.analysis:<20}{str(r.proves_traversal_independent):<24}"
                f"{r.non_alias_pairs:<18}{r.precision_score:.2f}"
            )
        return "\n".join(lines)


def precision_comparison(k: int = 2) -> PrecisionComparison:
    """Compare the three analyses on the polynomial traversal loop."""
    program = merged_into(POLYNOMIAL_SCALE_SRC, "ListNode")
    result = PrecisionComparison()

    # conservative
    cons = ConservativeOracle(["head", "p", "c"])
    result.rows.append(
        PrecisionRow(
            analysis="conservative",
            proves_traversal_independent=False,
            non_alias_pairs=len(cons.not_aliased_pairs()),
            precision_score=cons.precision_score(),
        )
    )

    # k-limited storage graphs
    klim = KLimitedAnalysis(program, k=k)
    k_oracle = KLimitedOracle(klim.state_before_loop("scale"))
    result.rows.append(
        PrecisionRow(
            analysis=f"k-limited (k={k})",
            proves_traversal_independent=klim.loop_traversal_independent("scale"),
            non_alias_pairs=len(k_oracle.not_aliased_pairs()),
            precision_score=k_oracle.precision_score(),
        )
    )

    # ADDS + general path matrix analysis
    report = analyze_loop_dependence(program, "scale")
    oracle = AliasOracle(report.matrix_after_body)
    result.rows.append(
        PrecisionRow(
            analysis="ADDS + GPM",
            proves_traversal_independent=bool(report.independent_vars),
            non_alias_pairs=len(oracle.not_aliased_pairs()),
            precision_score=oracle.precision_score(),
        )
    )
    return result


# ---------------------------------------------------------------------------
# abstraction validation trace (experiment E6)
# ---------------------------------------------------------------------------
SUBTREE_MOVE_SRC = """
procedure move_subtree(p1, p2)
{ p1->left = p2->left;
  p2->left = NULL;
}
"""


@dataclass
class ValidationTrace:
    """Validity of the BinTree abstraction after each statement."""

    statements: list[str] = field(default_factory=list)
    valid_after: list[bool] = field(default_factory=list)
    violations_after: list[list[str]] = field(default_factory=list)

    def render(self) -> str:
        lines = ["abstraction validation trace (section 3.3.1 subtree move):"]
        for stmt, ok, viols in zip(self.statements, self.valid_after, self.violations_after):
            status = "valid" if ok else "BROKEN"
            lines.append(f"  after `{stmt}`: {status}")
            for v in viols:
                lines.append(f"      {v}")
        return "\n".join(lines)


def validation_trace_figure() -> ValidationTrace:
    """Run the two-statement subtree move and record validity after each statement."""
    program = merged_into(SUBTREE_MOVE_SRC, "BinTree")
    analysis = PathMatrixAnalysis(program)
    func = program.function_named("move_subtree")
    assert func is not None
    ctx = analysis._context_for(func)
    pm = analysis.initial_matrix(func, ctx)

    trace = ValidationTrace()
    for stmt in func.body.statements:
        pm = apply_statement(pm, stmt, ctx)
        trace.statements.append(unparse(stmt))
        trace.valid_after.append(pm.validation.is_valid_for("BinTree"))
        trace.violations_after.append([str(v) for v in pm.validation.violations])
    return trace
