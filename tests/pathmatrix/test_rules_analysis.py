"""Tests for the pointer transfer rules and the dataflow/loop analyses."""

import json
from pathlib import Path

import pytest

from repro.adds.library import merged_into
from repro.driver.corpus import builtin_corpus
from repro.driver.pipeline import PipelineOptions, function_report
from repro.lang.ast_nodes import (
    Assign,
    Call,
    IntLit,
    Program,
    Return,
    iter_statements,
    traversal_updates,
)
from repro.lang.parser import parse_program
from repro.pathmatrix import (
    KLimitedAnalysis,
    PathMatrixAnalysis,
    analyze_function,
    analyze_loop_dependence,
)
from repro.pathmatrix import analysis as analysis_module
from repro.pathmatrix import klimited, worklist
from repro.pathmatrix.interproc import summarize_program
from repro.pathmatrix.rules import TransferContext, statement_touches_matrix
from repro.pathmatrix.worklist import solve_worklist
from repro.transform.dependence import LoopClassification, classify_loop, find_while_loops

REGRESSIONS = Path(__file__).resolve().parents[1] / "fuzz_regressions"


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

    def test_self_assignment_keeps_every_relation(self):
        """``p = p`` names the node ``p`` named, so ``q``, a copy of ``p``,
        still aliases it."""
        pm, _ = analyze_last_matrix(
            "function f(p) { var q; q = p; p = p; p->coef = 1; return q; }"
        )
        assert pm.must_alias("p", "q")

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

    def test_relevance_memo_never_answers_for_a_freed_statement(self):
        """A loop body's CFG synthesizes a ``for`` loop's init and step
        assignments afresh on every build; the verdict memoized for a freed
        one must not answer for a new statement that reuses its id."""
        ctx = TransferContext(program=Program())
        for value in [IntLit(0), Call("f", [])] * 20:
            stmt = Assign(target="i", value=value)
            assert statement_touches_matrix(stmt, ctx) is isinstance(value, Call)
            del stmt


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

    def test_a_self_assignment_hides_no_conflict(self):
        """``q = q`` leaves the conflict of ``q->coef`` with ``r->coef``
        (both may name the list's head) as it found it."""
        template = """
        function f(head)
        {{ var p; var q; var r;
          r = head;
          p = head;
          while p <> NULL
          {{ q = p;{again}
            q->coef = q->coef + 1;
            r->coef = r->coef + 1;
            p = p->next;
          }}
          return head;
        }}
        """
        reports = [
            analyze_loop_dependence(merged_into(template.format(again=again), "ListNode"), "f")
            for again in ("", " q = q;")
        ]
        assert reports[0].carried_dependences == reports[1].carried_dependences
        assert (
            "write q->coef may conflict with previous-iteration write r->coef"
            in reports[1].carried_dependences
        )

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


def _loop_entries(source: str, function: str) -> list[dict]:
    """The ``loops`` of ``function``'s report: classification, reasons and
    transform outcomes."""
    program = merged_into(source, "ListNode")
    analysis = PathMatrixAnalysis(program, memoize_results=True)
    return function_report(analysis, function, PipelineOptions())["loops"]


class TestLoopBodySolve:
    """The primed-variable pass solves one iteration of the loop body on the
    body's own CFG, so every statement form is lowered as in a function."""

    def test_update_in_a_bare_block_is_a_doall_traversal(self):
        (loop,) = _loop_entries(
            """
            function zero(head)
            { var p;
              p = head;
              while p <> NULL
              { p->coef = 0;
                { p = p->next; }
              }
              return head;
            }
            """,
            "zero",
        )
        assert loop["classification"] == "doall-after-traversal"
        # the transforms rewrite a top-level traversal update only
        assert loop["transforms"]
        assert not any(t["applied"] for t in loop["transforms"].values())

    def test_braces_around_a_statement_keep_the_reasons(self):
        template = """
        function copy_next(head)
        {{ var p; var q;
          p = head;
          while p <> NULL
          {{ {load}
            if q <> NULL then
            {{ q->coef = p->coef; }}
            p = p->next;
          }}
          return head;
        }}
        """
        (braced,) = _loop_entries(template.format(load="{ q = p->next; }"), "copy_next")
        (plain,) = _loop_entries(template.format(load="q = p->next;"), "copy_next")
        assert braced["reasons"] == plain["reasons"] == [
            "write q->coef may conflict with previous-iteration write q->coef"
        ]

    def test_a_loop_body_that_returns_is_sequential(self):
        """Strip-mining would move the ``return`` into the iteration
        procedure, where it ends only that procedure."""
        source = """
        function scale(head, c)
        { var q;
          q = head;
          while q <> NULL
          { q->coef = q->coef * c;
            if q->exp > 2 { return head; }
            q = q->next;
          }
          return head;
        }
        """
        program = merged_into(source, "ListNode")
        (loop,) = find_while_loops(program, "scale")
        (ret,) = [s for s in iter_statements(loop.body) if isinstance(s, Return)]
        test = classify_loop(program, "scale", loop)
        assert test.classification is LoopClassification.SEQUENTIAL
        assert (
            f"return statement (line {ret.line}): a later iteration runs only "
            "if this one does not return"
        ) in test.reasons

    def test_only_the_fall_through_path_reaches_the_next_iteration(self):
        """A ``return`` leaves the loop, so its state is not joined into the
        state the next iteration sees: the early-return regression program's
        ``scale`` gets the ``return`` reason and no other."""
        record = json.loads((REGRESSIONS / "stripmine_early_return.json").read_text())
        program = parse_program(record["source"])
        (loop,) = find_while_loops(program, "scale")
        (ret,) = [s for s in iter_statements(loop.body) if isinstance(s, Return)]
        test = classify_loop(program, "scale", loop)
        assert test.classification is LoopClassification.SEQUENTIAL
        assert test.reasons == [
            f"return statement (line {ret.line}): a later iteration runs only "
            "if this one does not return"
        ]

    def test_a_body_that_returns_on_every_path_is_sequential(self):
        program = merged_into(
            """
            function second(head)
            { var q;
              q = head;
              while q <> NULL
              { q->coef = 0;
                q = q->next;
                return q;
              }
              return head;
            }
            """,
            "ListNode",
        )
        (loop,) = find_while_loops(program, "second")
        test = classify_loop(program, "second", loop)
        assert test.classification is LoopClassification.SEQUENTIAL
        assert any(reason.startswith("return statement") for reason in test.reasons)


class TestKLimitedSolves:
    """The k-limited baseline solves each function once, whatever it is
    asked about it."""

    def _traversal_loops(self, program):
        return [
            (func.name, loop)
            for func in program.functions
            for loop in find_while_loops(program, func.name)
            if traversal_updates(loop.body)
        ]

    def test_a_sweep_over_the_builtin_corpus_solves_each_function_once(self, monkeypatch):
        programs = [parse_program(item.source) for item in builtin_corpus()]
        expected = [
            KLimitedAnalysis(program).loop_traversal_independent(name, loop)
            for program in programs
            for name, loop in self._traversal_loops(program)
        ]
        solved = []

        def recording(cfg, *args, **kwargs):
            solved.append(cfg.function)
            return solve_worklist(cfg, *args, **kwargs)

        monkeypatch.setattr(klimited, "solve_worklist", recording)
        answers = []
        for program in programs:
            k_limited = KLimitedAnalysis(program)
            first = len(solved)
            for name, loop in self._traversal_loops(program):
                answers.append(k_limited.loop_traversal_independent(name, loop))
            assert sorted(solved[first:]) == sorted(
                {name for name, _ in self._traversal_loops(program)}
            )
        assert answers == expected
        # 31 loops with a traversal update, in 21 functions
        assert len(expected) == 31
        assert len(solved) == 21

    def test_callers_may_mutate_the_states_they_get(self, scale_program):
        analysis = KLimitedAnalysis(scale_program, k=2)
        before = analysis.state_before_loop("scale")
        final = analysis.final_state("scale")
        exits = analysis.analyze_function("scale")
        for state in (before, final, *exits.values()):
            state.set_var("p", frozenset())
            state.edges.clear()
        assert analysis.state_before_loop("scale") == KLimitedAnalysis(
            scale_program, k=2
        ).state_before_loop("scale")
        assert analysis.final_state("scale") == KLimitedAnalysis(
            scale_program, k=2
        ).final_state("scale")
        assert not analysis.loop_traversal_independent("scale")


class TestFixpointConvergence:
    """Every solve either converges or says that it did not."""

    NESTED_SRC = """
    function f(head, n)
    { var p; var r; var i;
      p = head;
      while p <> NULL
      { i = 0;
        while i < n
        { r = p->next;
          i = i + 1;
        }
        p->coef = 0;
        p = p->next;
      }
      return head;
    }
    """

    def test_a_function_solve_that_runs_out_is_an_error(self, monkeypatch, scale_program):
        monkeypatch.setattr(analysis_module, "MAX_FIXPOINT_ITERATIONS", 1)
        analysis = PathMatrixAnalysis(scale_program, memoize_results=True)
        report = function_report(analysis, "scale", PipelineOptions())
        assert report["status"] == "error"
        assert report["analysis"]["error"] == (
            "analysis of 'scale' did not reach a fixpoint within "
            "MAX_FIXPOINT_ITERATIONS = 1 sweeps"
        )
        assert report["loops"] == []

    def test_a_body_solve_that_runs_out_makes_the_loop_sequential(self, monkeypatch):
        program = merged_into(self.NESTED_SRC, "ListNode")
        analysis = PathMatrixAnalysis(program, memoize_results=True)
        outer, inner = find_while_loops(program, "f")
        assert analyze_loop_dependence(program, "f", outer, analysis=analysis).parallelizable

        # the function's fixpoint stays memoized; only the body solves are capped
        monkeypatch.setattr(analysis_module, "MAX_FIXPOINT_ITERATIONS", 2)
        nested = analyze_loop_dependence(program, "f", outer, analysis=analysis)
        assert nested.carried_dependences == [
            "the primed-variable pass over the loop body did not reach a "
            "fixpoint within MAX_FIXPOINT_ITERATIONS = 2 sweeps"
        ]
        # a straight-line body converges in two sweeps
        flat = analyze_loop_dependence(program, "f", inner, analysis=analysis)
        assert not any("primed-variable pass" in r for r in flat.carried_dependences)

    def test_every_solve_over_the_builtin_corpus_converges(self, monkeypatch):
        solves = []

        def recording(*args, **kwargs):
            entry, exits, stats = solve_worklist(*args, **kwargs)
            solves.append(stats)
            return entry, exits, stats

        for module in (worklist, analysis_module, klimited):
            monkeypatch.setattr(module, "solve_worklist", recording)
        loops = 0
        for item in builtin_corpus():
            program = parse_program(item.source)
            for use_adds in (True, False):
                analysis = PathMatrixAnalysis(program, use_adds=use_adds, memoize_results=True)
                for func in program.functions:
                    analysis.analyze_function(func.name)
                    for loop in find_while_loops(program, func.name):
                        analyze_loop_dependence(
                            program, func.name, loop, use_adds=use_adds, analysis=analysis
                        )
                        loops += 1
            k_limited = KLimitedAnalysis(program)
            for func in program.functions:
                for loop in find_while_loops(program, func.name):
                    k_limited.loop_traversal_independent(func.name, loop)
        assert loops
        assert solves and all(stats.converged for stats in solves)
