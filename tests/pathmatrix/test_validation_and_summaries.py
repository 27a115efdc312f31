"""Additional coverage for the validation state, violations, and summaries."""

import pytest

from repro.adds.library import merged_into
from repro.pathmatrix import analyze_function
from repro.pathmatrix.interproc import FunctionSummary, summarize_program
from repro.pathmatrix.validation import ValidationState, Violation


class TestViolationObjects:
    def test_describe_per_kind(self):
        sharing = Violation("sharing", "BinTree", "left", new_parent="p1", old_parent="p2", line=3)
        cycle = Violation("cycle", "ListNode", "next", new_parent="p")
        unknown = Violation("unknown_store", "Octree", "subtrees", new_parent="q")
        assert "share" in sharing.describe()
        assert "cycle" in cycle.describe()
        assert "unbounded" in unknown.describe()
        assert "(line 3)" in str(sharing)

    def test_state_add_and_repair(self):
        state = ValidationState()
        v = Violation("sharing", "BinTree", "left", new_parent="a", old_parent="b")
        state.add(v)
        assert not state.is_valid()
        assert not state.is_valid_for("BinTree")
        assert state.is_valid_for("Octree")
        # overwriting an unrelated parent's edge does not repair it
        state.repair_parent_edge(["c"], "left")
        assert not state.is_valid()
        # overwriting the old parent's edge does
        state.repair_parent_edge(["b"], "left")
        assert state.is_valid()

    def test_join_keeps_violations_from_either_side(self):
        a = ValidationState([Violation("cycle", "T", "f", new_parent="x")])
        b = ValidationState()
        joined = a.join(b)
        assert len(joined) == 1
        assert not joined.equivalent(b)
        assert "cycle" in str(joined)
        assert str(b) == "valid"


def _step_through(source: str, function: str):
    """Apply ``function``'s top-level statements one by one, yielding the
    matrix after each (the paper's statement-level validation trace)."""
    from repro.pathmatrix import PathMatrixAnalysis, apply_statement

    program = merged_into(source, "BinTree")
    analysis = PathMatrixAnalysis(program)
    func = program.function_named(function)
    assert func is not None
    ctx = analysis._context_for(func)
    pm = analysis.initial_matrix(func, ctx)
    states = []
    for stmt in func.body.statements:
        pm = apply_statement(pm, stmt, ctx)
        states.append(pm)
    return program, states


class TestAbstractionRepairLifecycle:
    """Section 3.3.1: temporary breaks are repaired — unless the parent
    pointer variable was reassigned in between (the repair is name-keyed)."""

    def test_subtree_move_breaks_then_repairs(self):
        source = """
        procedure move(p1, p2)
        { p1->left = p2->left;
          p2->left = NULL;
        }
        """
        program, states = _step_through(source, "move")
        assert not states[0].validation.is_valid_for("BinTree")
        assert any(v.kind == "sharing" for v in states[0].validation.violations)
        assert states[1].validation.is_valid_for("BinTree")
        # and the whole-function fixpoint agrees
        result = analyze_function(program, "move")
        assert result.final_matrix().validation.is_valid_for("BinTree")

    def test_reassigned_parent_does_not_repair(self):
        """Nulling through the *new* node of a reassigned variable must not
        repair a violation recorded against the variable's old node."""
        source = """
        procedure move(p1, p2, p3)
        { p1->left = p2->left;
          p2 = p3;
          p2->left = NULL;
        }
        """
        program, states = _step_through(source, "move")
        assert not states[0].validation.is_valid_for("BinTree")
        # the reassignment keeps the violation outstanding, under a stale key
        assert not states[1].validation.is_valid_for("BinTree")
        # ... and the null store through the new node does not repair it
        assert not states[2].validation.is_valid_for("BinTree")
        result = analyze_function(program, "move")
        assert not result.final_matrix().validation.is_valid_for("BinTree")

    def test_repair_through_definite_alias_of_old_parent(self):
        source = """
        procedure move(p1, p2)
        { var q;
          q = p2;
          p1->left = p2->left;
          q->left = NULL;
        }
        """
        # statements: [var q] [q = p2] [break] [repair-through-q]
        program, states = _step_through(source, "move")
        assert not states[2].validation.is_valid_for("BinTree")
        assert states[3].validation.is_valid_for("BinTree")

    def test_violation_survives_reassignment_via_surviving_alias(self):
        """When another variable still names the old parent node, the
        violation is handed to it and remains repairable through it."""
        source = """
        procedure move(p1, p2, p3)
        { var q;
          q = p2;
          p1->left = p2->left;
          p2 = p3;
          q->left = NULL;
        }
        """
        # statements: [var q] [q = p2] [break] [p2 = p3] [repair-through-q]
        program, states = _step_through(source, "move")
        assert not states[2].validation.is_valid_for("BinTree")
        assert not states[3].validation.is_valid_for("BinTree")
        assert any(
            v.old_parent == "q" for v in states[3].validation.violations
        ), "violation should be re-keyed to the surviving alias"
        assert states[4].validation.is_valid_for("BinTree")

    def test_retarget_variable_unit_behaviour(self):
        state = ValidationState(
            [Violation("sharing", "BinTree", "left", new_parent="a", old_parent="b")]
        )
        state.retarget_variable("b", replacement=None)
        # the stale key can never be repaired by a source-level variable name
        state.repair_parent_edge(["b"], "left")
        assert not state.is_valid()
        (v,) = state.violations
        assert v.old_parent.startswith("b") and v.old_parent != "b"
        # with a replacement, the violation follows the surviving name
        state2 = ValidationState(
            [Violation("cycle", "BinTree", "left", new_parent="x")]
        )
        state2.retarget_variable("x", replacement="y")
        state2.repair_parent_edge(["y"], "left")
        assert state2.is_valid()


class TestSummaryEdgeCases:
    def test_returns_null_function(self):
        program = merged_into("function nothing(p) { p->coef = 1; return NULL; }", "ListNode")
        summary = summarize_program(program)["nothing"]
        assert summary.returns_null
        assert not summary.returns_fresh

    def test_locally_fresh_return_is_fresh(self):
        program = merged_into(
            "function make() { var n; n = new ListNode; n->coef = 1; return n; }",
            "ListNode",
        )
        assert summarize_program(program)["make"].returns_fresh

    def test_mutual_recursion_terminates_and_propagates(self):
        source = """
        function even(p, n) { if n == 0 then return p; p->coef = n; return odd(p, n - 1); }
        function odd(p, n) { if n == 0 then return NULL; return even(p->next, n - 1); }
        """
        program = merged_into(source, "ListNode")
        summaries = summarize_program(program)
        assert "coef" in summaries["odd"].data_fields_written  # via even
        assert summaries["even"].callees == {"odd"}

    def test_describe_renders(self):
        program = merged_into("function f(p) { p->coef = 1; return p; }", "ListNode")
        text = summarize_program(program)["f"].describe()
        assert "data fields written" in text and "coef" in text

    def test_summary_is_read_only_flag(self):
        summary = FunctionSummary(name="x")
        assert summary.is_read_only
        summary.data_fields_written.add("v")
        assert not summary.is_read_only


def _paper_sources():
    from repro.driver.corpus import paper_corpus

    return [item.source for item in paper_corpus()]


def _web_sources():
    from repro.adds.library import standard_source
    from repro.bench.stress import call_web_program_source

    return [standard_source("ListNode") + call_web_program_source(60, 7, prefix="w")]


@pytest.mark.parametrize("sources", [_paper_sources, _web_sources], ids=["paper", "web60"])
def test_summarize_program_is_the_analysis_resolution_without_refinement(sources):
    """One propagation: the global pass and the analysis's per-component
    resolution agree on every field the refinement does not settle."""
    from repro.lang.parser import parse_program
    from repro.pathmatrix import PathMatrixAnalysis

    for source in sources():
        program = parse_program(source)
        resolved = PathMatrixAnalysis(parse_program(source)).summaries
        summaries = summarize_program(program)
        assert list(summaries) == [f.name for f in program.functions]
        assert set(resolved) == set(summaries)
        for name, summary in summaries.items():
            expected = dict(resolved[name].to_dict(), preserves_abstraction=False)
            assert summary.to_dict() == expected, name


class TestValidationThroughCalls:
    def test_call_to_unanalyzable_shape_changer_invalidates(self):
        source = """
        procedure mangle(p)
        { p->next = p;
        }
        function driver(head)
        { mangle(head);
          return head;
        }
        """
        program = merged_into(source, "ListNode")
        result = analyze_function(program, "mangle")
        assert not result.final_matrix().validation.is_valid_for("ListNode")
        driver = analyze_function(program, "driver")
        # the callee does not preserve the abstraction, so the call site
        # leaves the caller's abstraction invalid too
        assert not driver.final_matrix().validation.is_valid_for("ListNode")

    def test_call_to_clean_builder_keeps_abstraction_valid(self, scale_program):
        result = analyze_function(scale_program, "main")
        assert result.final_matrix().validation.is_valid_for("ListNode")
