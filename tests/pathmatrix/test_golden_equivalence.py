"""Golden equivalence: the worklist engine must reproduce the seed engine.

The worklist solver skips work; it must never change answers.  These tests
run both fixpoint engines over every paper example program, the generated
stress programs, and a population of randomly generated small CFGs, and
assert the resulting matrices are ``equivalent()`` at every program point —
including identical may/must-alias answers and validation states.
"""

from __future__ import annotations

import pytest

from repro.adds.library import merged_into
from repro.bench.figures import POLYNOMIAL_SCALE_SRC, SUBTREE_MOVE_SRC
from repro.bench.stress import deep_program, random_program, wide_program
from repro.nbody.toy_program import barnes_hut_toy_program
from repro.lang.cfg import build_cfg
from repro.lang.parser import parse_program
from repro.pathmatrix import PathMatrixAnalysis, baseline_roundrobin
from repro.pathmatrix.worklist import solve_body, solve_roundrobin, solve_worklist


def assert_solvers_agree(program, function_name: str, use_adds: bool = True):
    analysis = PathMatrixAnalysis(program, use_adds=use_adds)
    rr = baseline_roundrobin(analysis, function_name)
    wl = analysis.analyze_function(function_name)

    assert set(rr.entry_matrices) == set(wl.entry_matrices), function_name
    assert set(rr.exit_matrices) == set(wl.exit_matrices), function_name
    for which, rr_side, wl_side in (
        ("entry", rr.entry_matrices, wl.entry_matrices),
        ("exit", rr.exit_matrices, wl.exit_matrices),
    ):
        for idx, rr_pm in rr_side.items():
            wl_pm = wl_side[idx]
            assert rr_pm.equivalent(wl_pm), (
                f"{function_name}: {which} matrix of block {idx} differs"
            )

    # identical alias answers and validation state at the exit point
    rr_final, wl_final = rr.final_matrix(), wl.final_matrix()
    variables = sorted(set(rr_final.variables) | {"<unknown>"})
    for a in variables:
        for b in variables:
            assert rr_final.may_alias(a, b) == wl_final.may_alias(a, b), (a, b)
            assert rr_final.must_alias(a, b) == wl_final.must_alias(a, b), (a, b)
    assert rr_final.validation.equivalent(wl_final.validation)
    assert sorted(map(str, rr.violations())) == sorted(map(str, wl.violations()))
    return rr, wl


class TestPaperExamplePrograms:
    def test_polynomial_scaling_loop(self):
        program = merged_into(POLYNOMIAL_SCALE_SRC, "ListNode")
        assert_solvers_agree(program, "scale")

    def test_polynomial_scaling_loop_without_adds(self):
        program = merged_into(POLYNOMIAL_SCALE_SRC, "ListNode")
        assert_solvers_agree(program, "scale", use_adds=False)

    def test_subtree_move(self):
        program = merged_into(SUBTREE_MOVE_SRC, "BinTree")
        assert_solvers_agree(program, "move_subtree")

    def test_every_barnes_hut_function(self):
        program = barnes_hut_toy_program()
        for func in program.functions:
            assert_solvers_agree(program, func.name)


class TestStressPrograms:
    def test_wide_program(self):
        assert_solvers_agree(wide_program(30), "stress")

    def test_deep_program(self):
        assert_solvers_agree(deep_program(4, 4, 12), "deep")


class TestRandomPrograms:
    """Property-style sweep over randomly generated small CFGs."""

    @pytest.mark.parametrize("seed", range(30))
    def test_random_program_equivalence(self, seed):
        program = random_program(seed)
        assert_solvers_agree(program, "chaos")

    @pytest.mark.parametrize("seed", range(10))
    def test_random_program_equivalence_without_adds(self, seed):
        program = random_program(seed, num_statements=10)
        assert_solvers_agree(program, "chaos", use_adds=False)


class TestWorkAccounting:
    """The satellite requirement: solver effort is observable and ordered."""

    ACYCLIC_SRC = """
    function straight(a, b)
    { var p; var q;
      p = a;
      q = p->next;
      if a <> NULL
      { p = q->next; }
      else
      { p = b; }
      p->coef = 1;
      return p;
    }
    """

    def test_worklist_strictly_less_work_on_acyclic_cfg(self):
        program = merged_into(self.ACYCLIC_SRC, "ListNode")
        analysis = PathMatrixAnalysis(program)
        rr = baseline_roundrobin(analysis, "straight")
        wl = analysis.analyze_function("straight")
        assert rr.blocks_transferred > 0 and wl.blocks_transferred > 0
        assert wl.blocks_transferred < rr.blocks_transferred
        assert wl.iterations <= rr.iterations

    def test_worklist_never_more_transfers_with_loops(self):
        program = merged_into(POLYNOMIAL_SCALE_SRC, "ListNode")
        analysis = PathMatrixAnalysis(program)
        rr = baseline_roundrobin(analysis, "scale")
        wl = analysis.analyze_function("scale")
        assert wl.blocks_transferred <= rr.blocks_transferred

    def test_baseline_roundrobin_convenience(self):
        program = merged_into(POLYNOMIAL_SCALE_SRC, "ListNode")
        result = baseline_roundrobin(PathMatrixAnalysis(program), "scale")
        assert result.iterations >= 1


class TestConvergence:
    """Both engines report whether their last sweep changed nothing."""

    LOOP_SRC = """
    function f(n)
    { var i;
      i = 0;
      while i < n
      { i = i + 1; }
      return i;
    }
    """

    @pytest.mark.parametrize("solve", [solve_roundrobin, solve_worklist])
    def test_a_transfer_that_never_stabilises_does_not_converge(self, solve):
        cfg = build_cfg(parse_program(self.LOOP_SRC).function_named("f"))
        _entry, _exits, stats = solve(
            cfg, 0, lambda block, n: n + 1, max, lambda a, b: a == b,
            max_iterations=10,
        )
        assert stats.iterations == 10
        assert not stats.converged

    @pytest.mark.parametrize("solve", [solve_roundrobin, solve_worklist])
    def test_a_stabilising_transfer_converges(self, solve):
        cfg = build_cfg(parse_program(self.LOOP_SRC).function_named("f"))
        _entry, _exits, stats = solve(
            cfg, 0, lambda block, n: min(n + 1, 3), max, lambda a, b: a == b,
            max_iterations=10,
        )
        assert stats.iterations < 10
        assert stats.converged

    def test_a_loop_body_is_solved_like_a_function(self):
        """``solve_body`` iterates a nested loop to its fixpoint and leaves a
        ``return``'s state (line 6) out of the state the next iteration sees."""
        source = (
            "function f(n)\n"
            "{ var i; var j;\n"
            "  while i < n\n"
            "  { j = 0;\n"                                  # line 4
            "    while j < n { j = j + 1; }\n"              # line 5
            "    if j > 5 then { return j; }\n"             # line 6
            "    i = i + 1;\n"                              # line 7
            "  }\n"
            "  return i;\n"
            "}\n"
        )
        loop = parse_program(source).function_named("f").body.statements[2]

        def transfer(block, lines):
            return lines | {stmt.line for stmt in block.statements}

        lines, stats = solve_body(
            loop.body, frozenset(), transfer, frozenset.union, frozenset.__eq__
        )
        assert lines == {4, 5, 7}
        assert stats.converged
        # sweep 2 follows the inner loop's back edge, sweep 3 changes nothing
        assert stats.iterations == 3
