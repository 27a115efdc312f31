"""Call graph, SCC, and bottom-up schedule tests."""

from repro.adds.library import merged_into
from repro.driver.callgraph import (
    bottom_up_waves,
    build_call_graph,
    condense,
    strongly_connected_components,
)

MUTUAL_SRC = """
function leaf(p) { return p->next; }
function even(p, n) { if n == 0 then return p; return odd(leaf(p), n - 1); }
function odd(p, n) { if n == 0 then return p; return even(leaf(p), n - 1); }
function driver(head) { return even(head, 4); }
function lonely(q) { return q; }
"""


def _graph():
    return build_call_graph(merged_into(MUTUAL_SRC, "ListNode"))


class TestCallGraph:
    def test_edges_exclude_builtins(self):
        program = merged_into(
            "function f(p) { print(1); return sqrt(4.0) + g(p); }\n"
            "function g(p) { return 1; }",
            "ListNode",
        )
        graph = build_call_graph(program)
        assert graph.callees("f") == {"g"}

    def test_transitive_callees(self):
        graph = _graph()
        assert graph.transitive_callees("driver") == {"even", "odd", "leaf"}
        assert graph.transitive_callees("lonely") == set()


class TestSccs:
    def test_mutual_recursion_is_one_component(self):
        sccs = strongly_connected_components(_graph())
        by_member = {name: tuple(scc) for scc in sccs for name in scc}
        assert by_member["even"] == by_member["odd"] == ("even", "odd")
        assert by_member["leaf"] == ("leaf",)

    def test_components_are_emitted_bottom_up(self):
        graph = _graph()
        sccs = strongly_connected_components(graph)
        position = {name: i for i, scc in enumerate(sccs) for name in scc}
        for caller, callees in graph.edges.items():
            for callee in callees:
                assert position[callee] <= position[caller], (caller, callee)

    def test_self_recursion(self):
        program = merged_into("function r(p) { return r(p->next); }", "ListNode")
        sccs = strongly_connected_components(build_call_graph(program))
        assert sccs == [["r"]]


class TestCondensation:
    def test_waves_match_the_legacy_entry_point(self):
        graph = _graph()
        assert condense(graph).waves() == bottom_up_waves(graph)


class TestWaves:
    def test_every_callee_lands_in_an_earlier_wave(self):
        graph = _graph()
        waves = bottom_up_waves(graph)
        wave_of = {
            name: w for w, wave in enumerate(waves) for scc in wave for name in scc
        }
        for caller, callees in graph.edges.items():
            for callee in callees:
                same_scc = wave_of[callee] == wave_of[caller] and any(
                    caller in scc and callee in scc
                    for scc in waves[wave_of[caller]]
                )
                assert wave_of[callee] < wave_of[caller] or same_scc

    def test_independent_functions_share_the_first_wave(self):
        graph = _graph()
        waves = bottom_up_waves(graph)
        first = {name for scc in waves[0] for name in scc}
        assert {"leaf", "lonely"} <= first

    def test_every_function_is_scheduled_exactly_once(self):
        graph = _graph()
        waves = bottom_up_waves(graph)
        names = [name for wave in waves for scc in wave for name in scc]
        assert sorted(names) == sorted(graph.functions)
