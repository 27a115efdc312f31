"""Tests for the reference interpreter and its explicit heap."""

import gc
import hashlib
import weakref
from dataclasses import astuple

import pytest

from repro.driver.corpus import builtin_corpus
from repro.fuzz.generator import generate_program
from repro.fuzz.observation import observe
from repro.lang import ast_nodes
from repro.lang.errors import InterpreterLimitError, RuntimeLangError
from repro.lang.heap import NULL_REF
from repro.lang.interpreter import Interpreter, run_program
from repro.lang.parser import parse_program


class TestArithmeticAndControlFlow:
    def test_recursion_and_arithmetic(self):
        program = parse_program(
            "function fib(n) { if n < 2 then return n; return fib(n - 1) + fib(n - 2); }"
        )
        result, _ = run_program(program, entry="fib", args=(10,))
        assert result == 55

    def test_while_loop_and_float_math(self):
        program = parse_program(
            """
            function sum_inverse(n)
            { var total; var i;
              total = 0.0;
              i = 1;
              while i <= n
              { total = total + 1.0 / i;
                i = i + 1;
              }
              return total;
            }
            """
        )
        result, _ = run_program(program, entry="sum_inverse", args=(4,))
        assert result == pytest.approx(1 + 0.5 + 1 / 3 + 0.25)

    def test_for_loop_counts_iterations(self):
        program = parse_program(
            "function f(n) { var s; s = 0; for i = 1 to n { s = s + i; } return s; }"
        )
        result, interp = run_program(program, entry="f", args=(5,))
        assert result == 15
        assert interp.stats.loop_iterations == 5

    def test_parallel_for_reference_semantics(self):
        program = parse_program(
            "function f(n) { var s; s = 0; for i = 1 to n in parallel { s = s + i; } return s; }"
        )
        result, interp = run_program(program, entry="f", args=(4,))
        assert result == 10
        assert interp.stats.parallel_loops == 1

    def test_division_by_zero_raises(self):
        program = parse_program("function f(x) { return 1 / x; }")
        with pytest.raises(RuntimeLangError):
            run_program(program, entry="f", args=(0,))


#: both counted-loop forms must share the same reference semantics
LOOP_KINDS = ["", " in parallel"]


class TestCountedLoopSemantics:
    """``for`` and ``for .. in parallel`` agree on step, bounds, and the
    loop variable (the parallel form previously ignored all three)."""

    @pytest.mark.parametrize("parallel", LOOP_KINDS)
    def test_positive_step(self, parallel):
        program = parse_program(
            "function f() { var s; s = 0; "
            f"for i = 1 to 9 step 3{parallel} {{ s = s + i; }} return s; }}"
        )
        result, interp = run_program(program, entry="f")
        assert result == 1 + 4 + 7
        assert interp.stats.loop_iterations == 3

    @pytest.mark.parametrize("parallel", LOOP_KINDS)
    def test_descending_bounds_with_negative_step(self, parallel):
        program = parse_program(
            "function f() { var s; s = 0; "
            f"for i = 5 to 1 step 0 - 2{parallel} {{ s = s + i; }} return s; }}"
        )
        result, interp = run_program(program, entry="f")
        assert result == 5 + 3 + 1
        assert interp.stats.loop_iterations == 3

    @pytest.mark.parametrize("parallel", LOOP_KINDS)
    def test_empty_range_runs_zero_iterations(self, parallel):
        program = parse_program(
            "function f() { var s; s = 0; "
            f"for i = 3 to 1{parallel} {{ s = s + 1; }} return s; }}"
        )
        result, interp = run_program(program, entry="f")
        assert result == 0
        assert interp.stats.loop_iterations == 0

    @pytest.mark.parametrize("parallel", LOOP_KINDS)
    def test_body_update_of_loop_variable_is_honored(self, parallel):
        program = parse_program(
            "function f() { var n; n = 0; "
            f"for i = 1 to 10{parallel} {{ n = n + 1; i = i + 1; }} return n; }}"
        )
        result, _ = run_program(program, entry="f")
        assert result == 5  # the body advances i too, so the loop halves

    @pytest.mark.parametrize("parallel", LOOP_KINDS)
    def test_zero_step_raises(self, parallel):
        program = parse_program(
            f"function f() {{ for i = 1 to 3 step 0{parallel} {{ }} return 0; }}"
        )
        with pytest.raises(RuntimeLangError):
            run_program(program, entry="f")

    def test_both_kinds_compute_identical_sums(self):
        results = []
        for parallel in LOOP_KINDS:
            program = parse_program(
                "function f() { var s; s = 0; "
                f"for i = 10 to 2 step 0 - 3{parallel} {{ s = s * 10 + i; }} return s; }}"
            )
            result, _ = run_program(program, entry="f")
            results.append(result)
        assert results[0] == results[1] == 1074


class TestCStyleIntegerArithmetic:
    """Integer ``/`` truncates toward zero and ``%`` takes the dividend's
    sign, as in the modeled C-like language (Python floors instead)."""

    @pytest.mark.parametrize(
        "expr, expected",
        [
            ("(0 - 7) / 2", -3),   # Python floor division would say -4
            ("7 / (0 - 2)", -3),   # ... and -4 here
            ("(0 - 7) / (0 - 2)", 3),
            ("7 / 2", 3),
            ("(0 - 7) % 2", -1),   # Python % would say 1
            ("7 % (0 - 2)", 1),    # ... and -1 here
            ("(0 - 7) % (0 - 2)", -1),
            ("7 % 2", 1),
        ],
    )
    def test_negative_operands(self, expr, expected):
        program = parse_program(f"function f() {{ return ({expr}); }}")
        result, _ = run_program(program, entry="f")
        assert result == expected

    def test_division_identity_holds(self):
        # l == (l / r) * r + l % r for every sign combination
        for left in (-7, 7):
            for right in (-2, 2):
                program = parse_program(
                    "function f(l, r) { return (l / r) * r + l % r; }"
                )
                result, _ = run_program(program, entry="f", args=(left, right))
                assert result == left, (left, right)

    def test_float_division_unchanged(self):
        program = parse_program("function f() { return (0.0 - 7.0) / 2.0; }")
        result, _ = run_program(program, entry="f")
        assert result == pytest.approx(-3.5)

    def test_modulo_by_zero_raises(self):
        program = parse_program("function f(x) { return 1 % x; }")
        with pytest.raises(RuntimeLangError):
            run_program(program, entry="f", args=(0,))

    def test_builtin_functions(self):
        program = parse_program("function f(x) { return sqrt(x) + abs(0 - 2); }")
        result, _ = run_program(program, entry="f", args=(9.0,))
        assert result == pytest.approx(5.0)

    def test_custom_builtin_registration(self):
        program = parse_program("function f(x) { return double(x); }")
        result, _ = run_program(
            program, entry="f", args=(21,), builtins={"double": lambda v: v * 2}
        )
        assert result == 42


class TestHeapSemantics:
    def test_allocation_and_field_access(self, scale_program):
        result, interp = run_program(scale_program)
        assert interp.stats.allocations == 8
        # build() pushes 8..1 at the front, then scale() multiplies by 3
        cell = interp.heap.cell(result)
        assert cell.fields["coef"] == 8 * 3
        values = []
        ref = result
        while ref != NULL_REF:
            values.append(interp.heap.cell(ref).fields["coef"])
            ref = interp.heap.cell(ref).fields["next"]
        assert values == [v * 3 for v in range(8, 0, -1)]

    def test_unknown_field_raises(self):
        program = parse_program(
            "type T { int v; }; function f() { var p; p = new T; return p->missing; }"
        )
        with pytest.raises(RuntimeLangError):
            run_program(program, entry="f")

    def test_store_through_null_raises(self):
        program = parse_program(
            "type T { int v; T *n; }; function f() { var p; p = NULL; p->v = 1; return 0; }"
        )
        with pytest.raises(RuntimeLangError):
            run_program(program, entry="f")

    def test_array_field_indexing(self):
        program = parse_program(
            """
            type Node { int v; Node *kids[4]; };
            function f()
            { var a; var b;
              a = new Node;
              b = new Node;
              b->v = 7;
              a->kids[2] = b;
              return a->kids[2]->v;
            }
            """
        )
        result, _ = run_program(program, entry="f")
        assert result == 7

    def test_array_index_out_of_bounds_raises(self):
        program = parse_program(
            "type Node { Node *kids[2]; }; function f() { var a; a = new Node; return a->kids[5]; }"
        )
        with pytest.raises(RuntimeLangError):
            run_program(program, entry="f")


class TestSpeculativeTraversability:
    """Section 3.2: traversing past the end of a structure must not fault."""

    SRC = """
    type L [X] { int v; L *next is uniquely forward along X; };
    function f(k)
    { var p; var i;
      p = new L;
      p->v = 1;
      i = 0;
      while i < k
      { p = p->next;
        i = i + 1;
      }
      return p;
    }
    """

    def test_walking_past_the_end_yields_null(self):
        program = parse_program(self.SRC)
        result, _ = run_program(program, entry="f", args=(5,))
        assert result == NULL_REF

    def test_disabled_speculation_faults(self):
        program = parse_program(self.SRC)
        with pytest.raises(RuntimeLangError):
            run_program(program, entry="f", args=(5,), speculative_traversal=False)

    def test_data_access_through_null_still_faults(self):
        program = parse_program(
            "type L { int v; L *next; }; function f() { var p; p = NULL; return p->v + 1; }"
        )
        # the speculative load returns NULL (0); adding is fine, but a store is not —
        # verify the documented boundary: loads are speculative, stores are not
        result, _ = run_program(program, entry="f")
        assert result == 1


class TestExecutionStats:
    def test_operation_counters_increase(self, scale_program):
        _, interp = run_program(scale_program)
        stats = interp.stats
        assert stats.field_writes >= 8 * 3  # coef, exp, next per node at least
        assert stats.field_reads > 0
        assert stats.calls >= 3
        assert stats.total_operations() > stats.statements

    def test_max_steps_guard(self):
        program = parse_program(
            "function f() { var i; i = 0; while true { i = i + 1; } return i; }"
        )
        interp = Interpreter(program, max_steps=1000)
        with pytest.raises(RuntimeLangError):
            interp.call_function("f")

    def test_counts_of_every_corpus_program_are_pinned(self, corpus_mains):
        """The simulated machine's per-iteration costs are these counts, so
        they must not move when the interpreter changes."""
        assert set(corpus_mains) == set(PINNED_COUNTS)
        for name, program in corpus_mains.items():
            _, interp = run_program(program)
            assert astuple(interp.stats) == PINNED_COUNTS[name], name
            if name == "paper/barnes_hut":
                assert interp.stats.total_operations() == 145_329

    def test_step_budget_raises_at_a_pinned_step(self, corpus_mains):
        for (name, budget), counts in PINNED_COUNTS_AT_BUDGET.items():
            interp = Interpreter(corpus_mains[name], max_steps=budget)
            with pytest.raises(
                InterpreterLimitError, match=f"^step budget of {budget} exhausted$"
            ):
                interp.call_function("main")
            assert astuple(interp.stats) == counts, (name, budget)
            assert interp.stats.statements + interp.stats.expressions == budget + 1

    def test_generated_programs_are_pinned(self):
        """Every observation and counter of 300 generated programs, run
        without a budget and cut off at 500 steps, hashed: the corpus mains
        above exercise only part of the language."""
        digest = hashlib.sha256()
        for seed in range(300):
            program = parse_program(generate_program(seed).source)
            for budget in (None, 500):
                runs = []
                observation = observe(program, max_steps=budget, attach=runs.append)
                record = (seed, budget, observation, astuple(runs[0].stats))
                digest.update(repr(record).encode())
        assert digest.hexdigest() == GENERATED_DIGEST

    def test_output_capture_via_print(self):
        program = parse_program('function f() { print("hello", 42); return 0; }')
        _, interp = run_program(program, entry="f")
        assert interp.output == ["hello 42"]


#: ``astuple(ExecutionStats)`` — statements, expressions, allocations,
#: field reads, field writes, calls, loop iterations, parallel loops — of
#: ``run_program`` on every built-in corpus program with a parameterless main
PINNED_COUNTS = {
    "examples/dag_traverse": (136, 499, 12, 58, 36, 4, 33, 0),
    "examples/list_reverse": (234, 649, 16, 48, 64, 4, 48, 0),
    "examples/list_sum": (341, 1208, 32, 128, 128, 4, 96, 0),
    "examples/tree_insert": (543, 1768, 20, 216, 98, 141, 20, 0),
    "examples/tree_rotate": (368, 1211, 14, 129, 57, 89, 14, 0),
    "paper/barnes_hut": (29204, 101246, 40, 13098, 534, 1247, 3440, 0),
    "paper/polynomial_scale": (527, 1681, 64, 128, 256, 3, 128, 0),
}

#: the same counters when ``max_steps`` stops the run, by (program, budget):
#: budget 1 stops every program at main's second statement
PINNED_COUNTS_AT_BUDGET = {
    **{(name, 1): (2, 0, 0, 0, 0, 1, 0, 0) for name in PINNED_COUNTS},
    ("examples/dag_traverse", 100): (29, 72, 4, 0, 8, 2, 5, 0),
    ("examples/list_reverse", 100): (32, 69, 4, 0, 12, 2, 4, 0),
    ("examples/list_sum", 100): (30, 71, 4, 0, 11, 2, 4, 0),
    ("examples/list_sum", 1000): (240, 761, 32, 34, 113, 3, 50, 0),
    ("examples/tree_insert", 100): (28, 73, 2, 2, 3, 6, 3, 0),
    ("examples/tree_insert", 1000): (243, 758, 11, 81, 46, 54, 12, 0),
    ("examples/tree_rotate", 100): (28, 73, 2, 2, 3, 6, 3, 0),
    ("examples/tree_rotate", 1000): (248, 753, 13, 76, 50, 53, 13, 0),
    ("paper/barnes_hut", 6): (2, 5, 0, 0, 0, 1, 0, 0),
    ("paper/barnes_hut", 7): (3, 5, 0, 0, 0, 2, 0, 0),
    ("paper/barnes_hut", 100): (27, 74, 2, 0, 6, 3, 2, 0),
    ("paper/barnes_hut", 1000): (178, 823, 14, 0, 82, 3, 14, 0),
    ("paper/polynomial_scale", 100): (32, 69, 4, 0, 12, 2, 4, 0),
    ("paper/polynomial_scale", 1000): (278, 723, 45, 0, 135, 2, 45, 0),
}


#: SHA-256 of ``(seed, budget, observation, astuple(stats))`` for
#: ``generate_program`` seeds 0-299 at budgets ``None`` and 500
GENERATED_DIGEST = "58674571501567ac0c9b0108e606393d5d7ca872df8b3237f75cadf6aebba822"


@pytest.fixture(scope="module")
def corpus_mains():
    programs = {}
    for item in builtin_corpus():
        program = parse_program(item.source)
        main = program.function_named("main")
        if main is not None and not main.params:
            programs[item.name] = program
    return programs


class TestLifetime:
    def test_a_dropped_interpreter_is_freed_with_its_code(self, corpus_mains):
        """The compiled code and the compile rules reach their interpreter
        only weakly, so the last reference dropped frees the interpreter,
        its code, its rules and its heap at once, not at the garbage
        collector's next pass."""
        _, interp = run_program(corpus_mains["paper/barnes_hut"])
        refs = [weakref.ref(interp), weakref.ref(interp.heap), weakref.ref(interp._rules.block)]
        refs += [weakref.ref(rule) for rule in interp._rules.statements.values()]
        refs += [weakref.ref(code) for _, code in interp._compiled.values()]
        enabled = gc.isenabled()
        gc.disable()
        try:
            del interp
            assert [ref for ref in refs if ref() is not None] == []
        finally:
            if enabled:
                gc.enable()


class TestDispatch:
    def test_every_node_class_has_exactly_one_handler(self):
        """Compile rules are looked up by ``type(node)``, which is sound
        only while no concrete node class subclasses another."""
        def concrete(base):
            return {
                cls for cls in vars(ast_nodes).values()
                if isinstance(cls, type) and issubclass(cls, base) and cls is not base
            }

        rules = Interpreter(parse_program("function f() { return 0; }"))._rules
        statements, expressions = concrete(ast_nodes.Stmt), concrete(ast_nodes.Expr)
        assert set(rules.statements) == statements
        assert set(rules.expressions) == expressions
        for cls in statements | expressions:
            assert cls.__bases__ in ((ast_nodes.Stmt,), (ast_nodes.Expr,)), cls

    def test_unknown_nodes_raise(self):
        """An unknown node compiles, then counts its step and raises when
        it runs."""
        cases = [
            (ast_nodes.Name("x"), "cannot execute statement Name", (1, 0)),
            (
                ast_nodes.ExprStmt(ast_nodes.Assign("x", ast_nodes.IntLit(1))),
                "cannot evaluate expression Assign",
                (1, 1),
            ),
        ]
        for statement, message, counted in cases:
            body = ast_nodes.Block(statements=[statement])
            function = ast_nodes.FunctionDecl(name="f", params=[], body=body)
            interp = Interpreter(ast_nodes.Program(functions=[function]))
            with pytest.raises(RuntimeLangError, match=f"^{message}$"):
                interp.call_function("f")
            assert (interp.stats.statements, interp.stats.expressions) == counted
