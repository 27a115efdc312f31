"""Tests for the pointer transfer rules and the dataflow/loop analyses."""

import pytest

from repro.adds.library import merged_into
from repro.lang.parser import parse_program
from repro.pathmatrix import (
    PathMatrixAnalysis,
    analyze_function,
    analyze_loop_dependence,
)
from repro.pathmatrix.interproc import summarize_program


def analyze_last_matrix(source: str, function: str = "f", use_adds: bool = True,
                        types: tuple[str, ...] = ("ListNode",)):
    program = merged_into(source, *types)
    result = PathMatrixAnalysis(program, use_adds=use_adds).analyze_function(function)
    return result.final_matrix(), result


class TestBasicRules:
    def test_copy_creates_definite_alias(self):
        pm, _ = analyze_last_matrix(
            "function f(a) { var b; b = a; b->coef = 1; return b; }"
        )
        assert pm.must_alias("a", "b")

    def test_null_assignment_kills_relations(self):
        pm, _ = analyze_last_matrix("function f(a) { var b; b = a; b = NULL; return b; }")
        assert pm.is_nil("b")
        assert not pm.may_alias("a", "b")

    def test_allocation_is_unrelated_to_everything(self):
        pm, _ = analyze_last_matrix(
            "function f(a) { var b; a->coef = 0; b = new ListNode; return b; }"
        )
        assert not pm.may_alias("a", "b")

    def test_field_load_from_acyclic_field_excludes_alias(self):
        pm, _ = analyze_last_matrix(
            "function f(a) { var b; b = a->next; return b; }"
        )
        assert not pm.may_alias("a", "b")
        assert pm.get("a", "b").path_fields() == {"next"}

    def test_field_load_without_adds_is_conservative(self):
        pm, _ = analyze_last_matrix(
            "function f(a) { var b; b = a->next; return b; }", use_adds=False
        )
        assert pm.may_alias("a", "b")

    def test_two_step_traversal_gives_plus_path(self):
        pm, _ = analyze_last_matrix(
            "function f(a) { var b; b = a->next; b = b->next; return b; }"
        )
        entry = pm.get("a", "b")
        assert any(rel.plus for rel in entry.paths())
        assert not pm.may_alias("a", "b")

    def test_parameters_of_same_type_may_alias_initially(self):
        pm, _ = analyze_last_matrix("function f(a, b) { a->coef = 1; b->coef = 2; return a; }")
        assert pm.may_alias("a", "b")

    def test_store_records_path_fact(self):
        pm, _ = analyze_last_matrix(
            "function f(a) { var b; b = new ListNode; a->next = b; return a; }"
        )
        assert "next" in pm.get("a", "b").path_fields()


class TestAbstractionValidation:
    def test_subtree_move_breaks_then_repairs(self):
        source = """
        procedure move(p1, p2)
        { p1->left = p2->left;
          p2->left = NULL;
        }
        """
        program = merged_into(source, "BinTree")
        analysis = PathMatrixAnalysis(program)
        func = program.function_named("move")
        ctx = analysis._context_for(func)
        pm = analysis.initial_matrix(func, ctx)
        from repro.pathmatrix.rules import apply_statement

        pm1 = apply_statement(pm, func.body.statements[0], ctx)
        assert not pm1.validation.is_valid_for("BinTree")
        assert any(v.kind == "sharing" for v in pm1.validation.violations)
        pm2 = apply_statement(pm1, func.body.statements[1], ctx)
        assert pm2.validation.is_valid_for("BinTree")

    def test_unrepaired_sharing_is_reported_at_exit(self):
        source = "procedure share(p1, p2) { p1->left = p2->left; }"
        program = merged_into(source, "BinTree")
        result = analyze_function(program, "share")
        assert not result.final_matrix().validation.is_valid_for("BinTree")

    def test_cycle_creation_is_flagged(self):
        source = """
        procedure close(p)
        { var q;
          q = p->next;
          q->next = p;
        }
        """
        program = merged_into(source, "ListNode")
        result = analyze_function(program, "close")
        assert any(v.kind == "cycle" for v in result.final_matrix().validation.violations)

    def test_clean_list_construction_stays_valid(self, scale_program):
        result = analyze_function(scale_program, "build")
        assert result.final_matrix().validation.is_valid()

    def test_toy_barnes_hut_expand_box_preserves_abstraction(self, bh_program):
        analysis = PathMatrixAnalysis(bh_program)
        assert analysis.summaries["expand_box"].preserves_abstraction
        assert analysis.summaries["detach_tree"].preserves_abstraction

    def test_insert_particle_only_flags_the_possible_self_insertion(self, bh_program):
        """insert_particle(p, root) is analyzed without knowing that p is not
        already part of the tree, so a single conservative possible-cycle
        violation remains at its exit (the paper makes the same "assume the
        declaration is valid when BHL1 is reached" argument rather than
        proving it context-insensitively)."""
        result = analyze_function(bh_program, "insert_particle")
        violations = result.violations()
        assert len(violations) <= 2
        assert all(v.kind == "cycle" for v in violations)


class TestInterproceduralSummaries:
    def test_compute_force_is_read_only(self, bh_program):
        summaries = summarize_program(bh_program)
        assert summaries["compute_force"].is_read_only
        assert not summaries["compute_force"].rearranges_shape

    def test_compute_new_vel_pos_writes_only_data_fields(self, bh_program):
        summaries = summarize_program(bh_program)
        summary = summaries["compute_new_vel_pos"]
        assert summary.data_fields_written == {"vx", "x"}
        assert not summary.pointer_fields_written
        assert 0 in summary.written_params
        assert 0 in summary.pointer_params and 1 not in summary.pointer_params

    def test_build_tree_rearranges_shape_transitively(self, bh_program):
        summaries = summarize_program(bh_program)
        assert summaries["build_tree"].rearranges_shape
        assert "subtrees" in summaries["build_tree"].pointer_fields_written

    def test_allocation_and_return_classification(self, scale_program):
        summaries = summarize_program(scale_program)
        assert summaries["build"].allocates
        assert summaries["scale"].may_return_params == {0}

    def test_fields_read_propagate_to_callers(self, bh_program):
        summaries = summarize_program(bh_program)
        assert "mass" in summaries["bh_force_pass"].fields_read


class TestLoopDependence:
    def test_scale_loop_is_parallelizable_with_adds(self, scale_program):
        report = analyze_loop_dependence(scale_program, "scale")
        assert report.parallelizable
        assert report.induction_vars == {"p": "next"}
        assert "p" in report.independent_vars

    def test_scale_loop_is_not_parallelizable_without_adds(self, scale_program):
        report = analyze_loop_dependence(scale_program, "scale", use_adds=False)
        assert not report.parallelizable
        assert report.carried_dependences

    def test_accumulation_loop_reports_invariant_conflict(self):
        source = """
        function total(head, acc)
        { var p;
          p = head;
          while p <> NULL
          { acc->coef = acc->coef + p->coef;
            p = p->next;
          }
          return acc;
        }
        """
        program = merged_into(source, "ListNode")
        report = analyze_loop_dependence(program, "total")
        # writing through the loop-invariant acc every iteration is a genuine
        # loop-carried dependence
        assert not report.parallelizable

    def test_nested_reads_are_collected_once(self):
        """A read nested two levels deep is walked three times, once inside
        each enclosing statement; the conflict test sees each access once,
        in first-occurrence order, and keeps every reason (the read of
        ``q->coef`` in its own read-modify-write included)."""
        source = """
        function bump(q, head)
        { var p;
          p = head;
          while p <> NULL
          { if p->coef > 0 then
            { if q->exp > p->exp then
              { q->coef = q->coef + p->coef;
              }
            }
            p = p->next;
          }
          return q;
        }
        """
        program = merged_into(source, "ListNode")
        report = analyze_loop_dependence(program, "bump")
        assert report.writes == [("q", "coef")]
        assert report.reads == [
            ("p", "coef"), ("q", "exp"), ("p", "exp"), ("q", "coef"), ("p", "next"),
        ]
        assert report.carried_dependences == [
            "write q->coef may conflict with previous-iteration write q->coef",
            "write q->coef may conflict with previous-iteration read p->coef",
            "write q->coef may conflict with previous-iteration read q->coef",
        ]

    def test_shape_changing_loop_is_not_parallelizable(self):
        source = """
        function reverse(head)
        { var p; var prev; var nxt;
          prev = NULL;
          p = head;
          while p <> NULL
          { nxt = p->next;
            p->next = prev;
            prev = p;
            p = nxt;
          }
          return prev;
        }
        """
        program = merged_into(source, "ListNode")
        report = analyze_loop_dependence(program, "reverse")
        assert not report.parallelizable

    def test_report_describe_is_printable(self, scale_program):
        text = analyze_loop_dependence(scale_program, "scale").describe()
        assert "parallelizable" in text

    def test_missing_loop_raises(self, scale_program):
        with pytest.raises(ValueError):
            analyze_loop_dependence(scale_program, "main")

    def test_fixed_point_terminates_quickly(self, bh_program):
        analysis = PathMatrixAnalysis(bh_program)
        for func in bh_program.functions:
            result = analysis.analyze_function(func.name)
            assert result.iterations < 30
