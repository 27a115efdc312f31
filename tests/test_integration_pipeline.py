"""End-to-end integration tests: the whole pipeline the paper describes.

declaration → analysis → abstraction validation → transformation → execution
on the simulated multiprocessor → speedup, on both the polynomial example and
the Barnes–Hut program.
"""

import pytest

from repro.adds import check_heap_against_declaration, declaration, program_adds_types
from repro.lang.ast_nodes import Call, IntLit
from repro.lang.interpreter import Interpreter, run_program
from repro.machine import SEQUENT_LIKE, MachineSimulator
from repro.nbody import BHL1_FUNCTION, BHL2_FUNCTION, barnes_hut_toy_program
from repro.pathmatrix import PathMatrixAnalysis, analyze_loop_dependence
from repro.transform import classify_loop, strip_mine_loop


class TestPolynomialPipeline:
    def test_declaration_analysis_transformation_execution(self, scale_program):
        # 1. the declaration carries real ADDS information
        adds_types = program_adds_types(scale_program)
        assert adds_types["ListNode"].has_adds_info()

        # 2. the analysis proves the loop parallelizable and the abstraction valid
        report = analyze_loop_dependence(scale_program, "scale")
        assert report.parallelizable and report.abstraction_valid

        # 3. the transformation applies and preserves semantics
        result = strip_mine_loop(scale_program, "scale", pes_param="PEs")
        for node in result.program.function_named("main").body.walk():
            if isinstance(node, Call) and node.func == "scale":
                node.args.append(IntLit(4))
        _, original = run_program(scale_program)

        interp = Interpreter(result.program)
        executor = MachineSimulator(SEQUENT_LIKE.with_pes(4)).attach_to_interpreter(interp)
        interp.call_function("main")
        assert sorted(c.fields["coef"] for c in interp.heap) == sorted(
            c.fields["coef"] for c in original.heap
        )

        # 4. the heap still satisfies the declaration after the parallel run
        assert check_heap_against_declaration(interp.heap, declaration("ListNode")) == []

        # 5. the simulated machine reports a genuine speedup for the parallel loops
        assert executor.trace.parallel_steps > 0
        assert executor.trace.elapsed < executor.sequential_cost


class TestBarnesHutPipeline:
    @pytest.fixture(scope="class")
    def transformed(self):
        program = barnes_hut_toy_program()
        result = strip_mine_loop(program, BHL1_FUNCTION)
        result = strip_mine_loop(result.program, BHL2_FUNCTION)
        for func in result.program.functions:
            for node in func.body.walk():
                if isinstance(node, Call) and node.func in (BHL1_FUNCTION, BHL2_FUNCTION):
                    node.args.append(IntLit(4))
        return result.program

    def test_analysis_gates_the_transformation(self):
        program = barnes_hut_toy_program()
        assert classify_loop(program, BHL1_FUNCTION).parallelizable
        assert not classify_loop(program, BHL1_FUNCTION, use_adds=False).parallelizable

    def test_whole_program_analysis_is_clean_where_the_paper_says_so(self):
        program = barnes_hut_toy_program()
        analysis = PathMatrixAnalysis(program)
        results = analysis.analyze_all()
        # the two parallel loops and the read-only force routine are violation-free
        for name in (BHL1_FUNCTION, BHL2_FUNCTION, "compute_force", "expand_box"):
            assert results[name].final_matrix().validation.is_valid(), name

    def test_transformed_program_runs_on_the_simulated_machine(self, transformed):
        _, original = run_program(barnes_hut_toy_program())
        interp = Interpreter(transformed)
        executor = MachineSimulator(SEQUENT_LIKE.with_pes(4)).attach_to_interpreter(interp)
        head = interp.call_function("main")
        assert head != 0
        key = lambda interp_: sorted(
            (round(c.fields.get("x", 0.0), 9), round(c.fields.get("force", 0.0), 9))
            for c in interp_.heap
        )
        assert key(interp) == key(original)
        # the octree declaration holds in the final heap of the parallel run
        assert check_heap_against_declaration(interp.heap, declaration("Octree")) == []
        # and the simulated parallel loops beat their sequential cost
        assert executor.trace.elapsed < executor.sequential_cost

    def test_speedup_scales_with_simulated_processors(self):
        program = barnes_hut_toy_program()
        result = strip_mine_loop(program, BHL1_FUNCTION)
        speedups = {}
        for pes in (2, 7):
            transformed = strip_mine_loop(result.program, BHL2_FUNCTION).program
            for func in transformed.functions:
                for node in func.body.walk():
                    if isinstance(node, Call) and node.func in (BHL1_FUNCTION, BHL2_FUNCTION):
                        node.args.append(IntLit(pes))
            interp = Interpreter(transformed)
            executor = MachineSimulator(SEQUENT_LIKE.with_pes(pes)).attach_to_interpreter(interp)
            interp.call_function("main")
            speedups[pes] = executor.sequential_cost / executor.trace.elapsed
        assert speedups[7] > speedups[2] > 1.0
