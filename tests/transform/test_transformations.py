"""Tests for the dependence test and the three transformations.

Every transformation test checks two things: the transformed program has the
structure the paper describes, and it is semantics preserving (same heap as
the original when interpreted).
"""

import pytest

import repro.pathmatrix.analysis
from repro.adds.library import merged_into
from repro.driver.corpus import builtin_corpus, corpus_named
from repro.driver.pipeline import (
    PipelineOptions,
    function_report,
    simulate_program,
    strip_mined_loops,
)
from repro.fuzz.generator import generate_program
from repro.lang.ast_nodes import Call, For, If, IntLit, ParallelFor, While
from repro.lang.interpreter import run_program
from repro.lang.parser import parse_program
from repro.lang.pretty import unparse
from repro.nbody.toy_program import BHL1_FUNCTION, BHL2_FUNCTION, barnes_hut_toy_program
from repro.pathmatrix import PathMatrixAnalysis
from repro.transform import (
    LoopClassification,
    check_software_pipeline,
    check_strip_mine,
    check_unroll,
    classify_loop,
    software_pipeline_loop,
    strip_mine_loop,
    strip_mine_program,
    unroll_loop,
)
from repro.transform.dependence import find_while_loops
from repro.transform.stripmine import TransformError


def coef_multiset(interpreter):
    return sorted(
        cell.fields["coef"] for cell in interpreter.heap if "coef" in cell.fields
    )


def patch_call(program, callee: str, extra_arg: int):
    """Append ``extra_arg`` to every call of ``callee`` (supplies the PEs count)."""
    for func in program.functions:
        for stmt in func.body.walk():
            if isinstance(stmt, Call) and stmt.func == callee:
                stmt.args.append(IntLit(extra_arg))


class TestClassifyLoop:
    def test_scale_loop_with_and_without_adds(self, scale_program):
        assert (
            classify_loop(scale_program, "scale").classification
            is LoopClassification.DOALL_AFTER_TRAVERSAL
        )
        assert (
            classify_loop(scale_program, "scale", use_adds=False).classification
            is LoopClassification.SEQUENTIAL
        )

    def test_barnes_hut_loops(self, bh_program):
        for fn in (BHL1_FUNCTION, BHL2_FUNCTION):
            assert classify_loop(bh_program, fn).parallelizable
            assert not classify_loop(bh_program, fn, use_adds=False).parallelizable

    def test_function_without_loops(self, scale_program):
        test = classify_loop(scale_program, "main")
        assert test.classification is LoopClassification.NO_TRAVERSAL

    def test_describe_lists_reasons(self, scale_program):
        text = classify_loop(scale_program, "scale").describe()
        assert "different node" in text


class TestStripMining:
    def test_transformed_structure_matches_paper(self, scale_program):
        result = strip_mine_loop(scale_program, "scale", pes_param="PEs")
        scale = result.program.function_named("scale")
        loop = next(s for s in scale.body.walk() if isinstance(s, While))
        kinds = [type(s) for s in loop.body.statements]
        assert kinds == [ParallelFor, For]  # parallel step then FOR1 skip-ahead
        proc = result.program.function_named(result.iteration_procedure)
        assert proc.is_procedure
        inner_kinds = [type(s) for s in proc.body.statements]
        assert inner_kinds == [For, If]  # FOR2 skip then guarded work
        assert "PEs" in {p.name for p in scale.params}

    def test_semantics_preserved_for_various_pe_counts(self, scale_program):
        _, original = run_program(scale_program)
        for pes in (1, 2, 3, 4, 7, 16):
            result = strip_mine_loop(scale_program, "scale", pes_param="PEs")
            patch_call(result.program, "scale", pes)
            _, transformed = run_program(result.program)
            assert coef_multiset(transformed) == coef_multiset(original), pes

    def test_refuses_unparallelizable_loop(self):
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
        with pytest.raises(TransformError):
            strip_mine_loop(program, "reverse")

    def test_unchecked_mode_still_transforms(self, scale_program):
        result = strip_mine_loop(scale_program, "scale", check_dependences=False)
        assert result.dependence is None
        assert result.program.function_named(result.iteration_procedure) is not None

    def test_free_variables_become_parameters(self, scale_program):
        result = strip_mine_loop(scale_program, "scale")
        proc = result.program.function_named(result.iteration_procedure)
        assert [p.name for p in proc.params][:2] == ["i", "p"]
        assert "c" in {p.name for p in proc.params}

    def test_barnes_hut_both_loops_transform_and_run(self, bh_program):
        _, original = run_program(bh_program)
        result = strip_mine_loop(bh_program, BHL1_FUNCTION)
        result = strip_mine_loop(result.program, BHL2_FUNCTION)
        patch_call(result.program, BHL1_FUNCTION, 4)
        patch_call(result.program, BHL2_FUNCTION, 4)
        _, transformed = run_program(result.program)
        orig_state = sorted(
            (round(c.fields.get("x", 0.0), 9), round(c.fields.get("force", 0.0), 9))
            for c in original.heap
        )
        new_state = sorted(
            (round(c.fields.get("x", 0.0), 9), round(c.fields.get("force", 0.0), 9))
            for c in transformed.heap
        )
        assert orig_state == new_state

    def test_original_program_is_untouched(self, scale_program):
        before = unparse(scale_program)
        strip_mine_loop(scale_program, "scale")
        assert unparse(scale_program) == before


class TestUnrolling:
    def test_unrolled_loop_has_guarded_copies(self, scale_program):
        result = unroll_loop(scale_program, "scale", factor=4)
        scale = result.program.function_named("scale")
        loop = next(s for s in scale.body.walk() if isinstance(s, While))
        guards = [s for s in loop.body.statements if isinstance(s, If)]
        assert len(guards) == 3

    @pytest.mark.parametrize("factor", [2, 3, 5])
    def test_semantics_preserved(self, scale_program, factor):
        _, original = run_program(scale_program)
        result = unroll_loop(scale_program, "scale", factor=factor)
        _, transformed = run_program(result.program)
        assert coef_multiset(transformed) == coef_multiset(original)

    def test_factor_below_two_rejected(self, scale_program):
        with pytest.raises(TransformError):
            unroll_loop(scale_program, "scale", factor=1)


class TestSoftwarePipelining:
    def test_pipelined_structure(self, scale_program):
        result = software_pipeline_loop(scale_program, "scale")
        scale = result.program.function_named("scale")
        text = unparse(scale)
        assert result.lookahead_var in text
        assert "while" in text

    def test_semantics_preserved(self, scale_program):
        _, original = run_program(scale_program)
        result = software_pipeline_loop(scale_program, "scale")
        _, transformed = run_program(result.program)
        assert coef_multiset(transformed) == coef_multiset(original)

    def test_single_element_list_handled(self):
        source = """
        function touch(head)
        { var p;
          p = head;
          while p <> NULL
          { p->coef = p->coef + 1;
            p = p->next;
          }
          return head;
        }
        function main()
        { var h;
          h = new ListNode;
          h->coef = 41;
          h = touch(h);
          return h;
        }
        """
        program = merged_into(source, "ListNode")
        result = software_pipeline_loop(program, "touch")
        out, interp = run_program(result.program)
        assert interp.heap.cell(out).fields["coef"] == 42

    def test_refuses_unparallelizable_loop(self, scale_program):
        assert (
            classify_loop(scale_program, "scale", use_adds=False).classification
            is LoopClassification.SEQUENTIAL
        )
        # pipelining checks dependences through the same classifier
        source = """
        function sum_into(head, acc)
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
        with pytest.raises(TransformError):
            software_pipeline_loop(program, "sum_into")


def _outcome(attempt):
    """``("applied", notes)`` or ``("refused", message)``."""
    try:
        return "applied", attempt()
    except TransformError as exc:
        return "refused", str(exc)


#: each legality check next to the transform it must agree with; the
#: checks never run the dependence test, so strip-mining is compared with
#: it switched off and software pipelining (which always runs it) only on
#: loops the test proves DOALL — the only loops the driver checks
CHECKED_TRANSFORMS = {
    "strip_mine": (
        lambda p, f, i: check_strip_mine(p, f, loop_index=i),
        lambda p, f, i: strip_mine_loop(
            p, f, loop_index=i, check_dependences=False
        ).notes,
    ),
    "unroll": (
        lambda p, f, i: check_unroll(p, f, loop_index=i),
        lambda p, f, i: unroll_loop(p, f, factor=4, loop_index=i).notes,
    ),
    "software_pipeline": (
        lambda p, f, i: check_software_pipeline(p, f, loop_index=i),
        lambda p, f, i: software_pipeline_loop(p, f, loop_index=i).notes,
    ),
}


@pytest.fixture(scope="module")
def every_loop_program():
    """The built-in corpus (paper, examples, stress) and 50 fuzz programs."""
    sources = [item.source for item in builtin_corpus()]
    sources += [generate_program(seed).source for seed in range(50)]
    return [parse_program(source) for source in sources]


def _while_loops(program, doall_only: bool):
    """``(function, index)`` of every while loop of ``program``, or with
    ``doall_only`` of those classified ``DOALL_AFTER_TRAVERSAL``."""
    analysis = None
    for func in program.functions:
        for index, loop in enumerate(find_while_loops(program, func.name)):
            if doall_only:
                analysis = analysis or PathMatrixAnalysis(program, memoize_results=True)
                test = classify_loop(program, func.name, loop, analysis=analysis)
                if test.classification is not LoopClassification.DOALL_AFTER_TRAVERSAL:
                    continue
            yield func.name, index


class TestLegalityChecks:
    @pytest.mark.parametrize("name", sorted(CHECKED_TRANSFORMS))
    def test_check_agrees_with_its_transform(self, every_loop_program, name):
        check, transform = CHECKED_TRANSFORMS[name]
        seen = set()
        for program in every_loop_program:
            before = unparse(program)
            for function, index in _while_loops(
                program, doall_only=name == "software_pipeline"
            ):
                expected = _outcome(lambda: transform(program, function, index))
                got = _outcome(lambda: check(program, function, index))
                assert got == expected, (function, index)
                seen.add(expected[0])
            # the checks are read-only
            assert unparse(program) == before
        assert seen == {"applied", "refused"}

    def test_out_of_range_index_raises_the_transforms_message(self, scale_program):
        for name, (check, transform) in CHECKED_TRANSFORMS.items():
            expected = _outcome(lambda: transform(scale_program, "scale", 5))
            assert expected[0] == "refused", name
            assert _outcome(lambda: check(scale_program, "scale", 5)) == expected

    def test_strip_mine_check_skips_the_dependence_test(self):
        program = merged_into(
            """
            function bump(head, acc)
            { var p;
              p = head;
              while p <> NULL
              { acc->coef = acc->coef + p->coef;
                p = p->next;
              }
              return acc;
            }
            """,
            "ListNode",
        )
        with pytest.raises(TransformError, match="loop is not parallelizable: "):
            strip_mine_loop(program, "bump")
        assert _outcome(lambda: check_strip_mine(program, "bump")) == (
            "applied",
            strip_mine_loop(program, "bump", check_dependences=False).notes,
        )

    @pytest.mark.parametrize("declaration, added", [("", True), ("var PEs;", False)])
    def test_processor_parameter_note(self, declaration, added):
        """``PEs`` declared inside the loop body moves into the iteration
        procedure, so the enclosing function still needs the parameter."""
        program = merged_into(
            f"""
            function scale(head)
            {{ var p;
              {declaration}
              p = head;
              while p <> NULL
              {{ var PEs;
                p->coef = p->coef * 2;
                p = p->next;
              }}
              return head;
            }}
            """,
            "ListNode",
        )
        result = strip_mine_loop(program, "scale")
        assert check_strip_mine(program, "scale") == result.notes
        assert any("added parameter" in note for note in result.notes) is added
        params = result.program.function_named("scale").params
        assert ("PEs" in [p.name for p in params]) is added


def _strip_mine_loop_by_loop(program, pes=4):
    """The reference for :func:`strip_mine_program`: every loop of every
    function through :func:`strip_mine_loop` with its own dependence test,
    each on the program the earlier rewrites produced, then ``pes`` passed
    at every call of a rewritten function."""
    current = program
    functions = []
    for func in program.functions:
        for index in range(len(find_while_loops(program, func.name))):
            try:
                current = strip_mine_loop(
                    current, func.name, loop_index=index, label=f"{func.name}_L{index + 1}"
                ).program
            except TransformError:
                continue
            if func.name not in functions:
                functions.append(func.name)
    for name in functions:
        patch_call(current, name, pes)
    return current, functions


def _applied_loops(program, use_adds=True):
    """The loops the program's reports mark ``strip_mine.applied``."""
    analysis = PathMatrixAnalysis(program, use_adds=use_adds, memoize_results=True)
    options = PipelineOptions(use_adds=use_adds)
    return strip_mined_loops(
        {f.name: function_report(analysis, f.name, options) for f in program.functions}
    )


#: two loop shapes no corpus program has: sibling strip-minable loops, and a
#: strip-minable loop with a nested while (moved into the iteration
#: procedure, so the sibling after it moves up one index)
SIBLING_LOOPS_SRC = """
function build(n)
{ var head; var p; var i;
  head = NULL;
  i = 0;
  while i < n
  { p = new ListNode;
    p->coef = i;
    p->exp = i;
    p->next = head;
    head = p;
    i = i + 1;
  }
  return head;
}

function siblings(head, c)
{ var p;
  p = head;
  while p <> NULL
  { p->coef = p->coef * c;
    p = p->next;
  }
  p = head;
  while p <> NULL
  { p->exp = p->exp + c;
    p = p->next;
  }
  return head;
}

function nested(head, n)
{ var p; var j;
  p = head;
  while p <> NULL
  { j = 0;
    while j < n
    { p->coef = p->coef + 1;
      j = j + 1;
    }
    p = p->next;
  }
  p = head;
  while p <> NULL
  { p->exp = p->exp * 2;
    p = p->next;
  }
  return head;
}

function main()
{ var h;
  h = build(10);
  h = siblings(h, 3);
  h = nested(h, 2);
  return h;
}
"""


class TestStripMineProgram:
    def test_equals_the_loop_by_loop_reference_on_the_corpora(self):
        sources = [item.source for item in corpus_named("bench")]
        sources += [generate_program(seed).source for seed in range(100)]
        transformed = 0
        for source in sources:
            program = parse_program(source)
            before = unparse(program)
            expected_program, expected_functions = _strip_mine_loop_by_loop(program)
            result = strip_mine_program(program, _applied_loops(program), 4)
            assert result.functions == expected_functions
            assert unparse(result.program) == unparse(expected_program)
            assert unparse(program) == before
            transformed += bool(result.functions)
        assert transformed > 10

    def test_sibling_and_nested_loops(self):
        program = merged_into(SIBLING_LOOPS_SRC, "ListNode")
        expected_program, expected_functions = _strip_mine_loop_by_loop(program, pes=3)
        # build's counting loop and the nested while are not parallelizable
        loops = _applied_loops(program)
        assert loops == [("siblings", 0), ("siblings", 1), ("nested", 0), ("nested", 2)]
        result = strip_mine_program(program, loops, 3)
        assert result.functions == expected_functions == ["siblings", "nested"]
        assert unparse(result.program) == unparse(expected_program)
        procedures = [f.name for f in result.program.functions if f.is_procedure]
        assert procedures == [
            "_siblings_L1_iteration",
            "_siblings_L2_iteration",
            "_nested_L1_iteration",
            "_nested_L2_iteration",
        ]
        # the nested while moved into the first iteration procedure and is
        # not visited
        assert len(find_while_loops(result.program, "nested")) == 2
        assert len(find_while_loops(result.program, "_nested_L1_iteration")) == 1
        main = unparse(result.program.function_named("main"))
        assert "siblings(h, 3, 3)" in main and "nested(h, 2, 3)" in main
        sim = simulate_program(unparse(program), PipelineOptions(), loops)
        assert sim["transformed_functions"] == ["siblings", "nested"]
        assert sim["heaps_match"]

    def test_builds_no_analysis(self, bh_program, monkeypatch):
        loops = _applied_loops(bh_program)
        calls = []
        original = repro.pathmatrix.analysis.check_program
        monkeypatch.setattr(
            repro.pathmatrix.analysis,
            "check_program",
            lambda program, *rest: calls.append(program) or original(program, *rest),
        )
        result = strip_mine_program(bh_program, loops, 4)
        assert result.functions == [BHL1_FUNCTION, BHL2_FUNCTION]
        assert calls == []

    def test_no_adds_strip_mines_nothing_on_scale(self, scale_program):
        assert _applied_loops(scale_program, use_adds=False) == []
        result = strip_mine_program(scale_program, [], 4)
        assert result.functions == []
        assert result.program is scale_program
