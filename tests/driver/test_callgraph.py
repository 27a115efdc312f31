"""Call graph, SCC, and bottom-up schedule tests (:mod:`repro.lang.callgraph`,
the call-graph code the type checker, the summaries and the driver share)."""

from repro.adds.library import merged_into
from repro.driver.batch import BatchDriver
from repro.driver.corpus import corpus_named
from repro.lang.callgraph import bottom_up_waves, call_graph, condensed_sccs, reachable
from repro.lang.parser import parse_program

MUTUAL_SRC = """
function leaf(p) { return p->next; }
function even(p, n) { if n == 0 then return p; return odd(leaf(p), n - 1); }
function odd(p, n) { if n == 0 then return p; return even(leaf(p), n - 1); }
function driver(head) { return even(head, 4); }
function lonely(q) { return q; }
"""


def _graph():
    return call_graph(merged_into(MUTUAL_SRC, "ListNode"))


def _sccs(graph):
    return condensed_sccs(graph, list(graph))


def _waves(graph):
    return bottom_up_waves(_sccs(graph), graph)


class TestCallGraph:
    def test_edges_exclude_builtins(self):
        program = merged_into(
            "function f(p) { print(1); return sqrt(4.0) + g(p); }\n"
            "function g(p) { return 1; }",
            "ListNode",
        )
        graph = call_graph(program)
        assert graph["f"] == {"g"}

    def test_declaration_order_and_defined_callees_only(self):
        """Functions come in declaration order (the SCC walk's root order),
        and a call to a builtin is no edge."""
        program = merged_into(
            "function b(p) { print(p); return a(p); }\n"
            "function a(p) { return abs(1); }",
            "ListNode",
        )
        graph = call_graph(program)
        assert list(graph) == ["b", "a"]
        assert graph == {"b": {"a"}, "a": set()}

    def test_transitive_callees(self):
        graph = _graph()
        assert reachable(graph, ["driver"]) == {"even", "odd", "leaf"}
        assert reachable(graph, ["lonely"]) == set()
        assert reachable(graph, ["even"]) == {"even", "odd", "leaf"}  # a cycle


class TestSccs:
    def test_mutual_recursion_is_one_component(self):
        sccs = _sccs(_graph())
        by_member = {name: tuple(scc) for scc in sccs for name in scc}
        assert by_member["even"] == by_member["odd"] == ("even", "odd")
        assert by_member["leaf"] == ("leaf",)

    def test_components_are_emitted_bottom_up(self):
        graph = _graph()
        sccs = _sccs(graph)
        position = {name: i for i, scc in enumerate(sccs) for name in scc}
        for caller, callees in graph.items():
            for callee in callees:
                assert position[callee] <= position[caller], (caller, callee)

    def test_self_recursion(self):
        program = merged_into("function r(p) { return r(p->next); }", "ListNode")
        sccs = _sccs(call_graph(program))
        assert sccs == [["r"]]


class TestWaves:
    def test_every_callee_lands_in_an_earlier_wave(self):
        graph = _graph()
        waves = _waves(graph)
        wave_of = {
            name: w for w, wave in enumerate(waves) for scc in wave for name in scc
        }
        for caller, callees in graph.items():
            for callee in callees:
                same_scc = wave_of[callee] == wave_of[caller] and any(
                    caller in scc and callee in scc
                    for scc in waves[wave_of[caller]]
                )
                assert wave_of[callee] < wave_of[caller] or same_scc

    def test_independent_functions_share_the_first_wave(self):
        waves = _waves(_graph())
        first = {name for scc in waves[0] for name in scc}
        assert {"leaf", "lonely"} <= first

    def test_every_function_is_scheduled_exactly_once(self):
        graph = _graph()
        waves = _waves(graph)
        names = [name for wave in waves for scc in wave for name in scc]
        assert sorted(names) == sorted(graph)

    def test_reports_show_these_waves_as_their_schedule(self):
        """The batch driver's ``schedule`` is this module's grouping of the
        program's components, for every builtin program."""
        items = corpus_named("builtin")
        batch = BatchDriver(jobs=1, cache_dir=None, simulate=False).analyze_corpus(items)
        for item in items:
            graph = call_graph(parse_program(item.source))
            assert batch.program(item.name).schedule == _waves(graph), item.name
