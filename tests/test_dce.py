"""Degree-constrained editing: kernel rules and exact solvers."""

import random
import time
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degkit import dce, factors
from degkit.dce import (
    DceInstance,
    DegreeListFunction,
    EditKind,
    EditSolution,
    Kernel,
    TrivialNo,
    brute_force_solve,
    core_set,
    edited_degrees,
    kernelize_kr,
    make_dce,
    rule2_check,
    safely_remove,
    solve_e_plus,
    validate_solution,
)
from degkit.dsc import DscInstance, regular_property, solve
from degkit.errors import InternalInvariantError, InvalidInputError, ResourceLimitError
from degkit.graph import Graph, induced_subgraph
from degkit.nce import least_even_total

from oracles import (
    all_pairs,
    naive_dce_min_edits,
    reference_core_set,
    reference_kernelize_kr,
    reference_rule2_check,
    reference_safely_remove,
)


def triple_instance(k: int = 3):
    """Three isolated vertices where the only completion adds all edges."""
    return make_dce(Graph(3), k, 2, [{2}, {0, 2}, {0, 2}])


def fig2_instance(k: int = 1):
    """Four vertices u, v, w, x with edges uv, vw, vx, wx."""
    g = Graph(4, [(0, 1), (1, 2), (1, 3), (2, 3)])
    return make_dce(g, k, 3, [{1, 2}, {3}, {3}, {2}])


def k3() -> Graph:
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


def random_instance(rng: random.Random, op=EditKind.EDGE_ADDITION, n_max=10):
    n = rng.randrange(1, n_max + 1)
    r = rng.randrange(1, 5)
    k = rng.randrange(0, 4)
    p = rng.choice([0.0, 0.2, 0.4])
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    lists = [
        {x for x in range(r + 1) if rng.random() < 0.45} for _ in range(n)
    ]
    return make_dce(Graph(n, edges), k, r, lists, op)


class TestSafelyRemove:
    def test_fig2_remove_x(self):
        reduced = safely_remove(fig2_instance(), {3})
        assert set(reduced.graph.edges()) == {(0, 1), (1, 2)}
        assert reduced.tau[0] == {1, 2}
        assert reduced.tau[1] == {2}
        assert reduced.tau[2] == {2}

    def test_remove_nothing(self):
        inst = fig2_instance()
        reduced = safely_remove(inst, set())
        assert reduced.graph == inst.graph
        assert reduced.tau == inst.tau

    def test_remove_everything(self):
        reduced = safely_remove(fig2_instance(), range(4))
        assert reduced.graph.vertex_count == 0
        assert reduced.tau.lists == ()

    def test_shift_semantics(self):
        rng = random.Random(17)
        for _ in range(50):
            inst = random_instance(rng)
            n = inst.graph.vertex_count
            removed = {v for v in range(n) if rng.random() < 0.4}
            reduced = safely_remove(inst, removed)
            kept = [v for v in range(n) if v not in removed]
            for new, old in enumerate(kept):
                shift = sum(1 for w in inst.graph.adj[old] if w in removed)
                for d in range(inst.r + 1):
                    assert (d in reduced.tau[new]) == (d + shift in inst.tau[old])


class TestCoreSet:
    def test_all_unsatisfied(self):
        inst = make_dce(Graph(3), 1, 2, [{2}, {2}, {2}])
        assert core_set(inst) == {0, 1, 2}

    def test_hundred_isolated(self):
        inst = make_dce(Graph(100), 1, 1, [{0, 1}] * 100)
        chosen = core_set(inst)
        assert len(chosen) == 2
        for v in chosen:
            assert inst.graph.degree(v) == 0
            assert inst.tau[v] == {0, 1}

    def test_fig2_counter_trace(self):
        # Unsatisfied w plus the one satisfied vertex of positive type (u);
        # v and x are satisfied type-0-only vertices and drop out.
        assert core_set(fig2_instance(k=1)) == {0, 2}

    def test_requires_edge_addition(self):
        inst = make_dce(Graph(2), 1, 1, [{0}, {0}], EditKind.EDGE_DELETION)
        with pytest.raises(InvalidInputError):
            core_set(inst)


class _ReadLog(tuple):
    """Degree lists that log each index read one at a time."""

    def __new__(cls, items):
        self = super().__new__(cls, items)
        self.read = []
        return self

    def __getitem__(self, v):
        self.read.append(v)
        return tuple.__getitem__(self, v)


def _logged(inst):
    """inst with lists that log the core-set sweep's reads."""
    return replace(inst, tau=DegreeListFunction(inst.r, _ReadLog(inst.tau.lists)))


class TestCoreSetStop:
    def test_sweep_stops_once_both_gaps_are_full(self):
        # alpha = 1 * (0 + 2) = 2 and spread 2. Vertex 2 brings gaps 1 and 2
        # to two vertices each, so the typed vertices 3 and 4 are left out
        # and their lists are never read; unsatisfied vertex 5 stays.
        lists = [{0, 1}, {0, 2}, {0, 1, 2}, {0, 1}, {0, 2}, {1}]
        inst = _logged(make_dce(Graph(6), 1, 2, lists))
        assert core_set(inst) == {0, 1, 2, 5}
        assert inst.tau.lists.read == [0, 1, 2]
        assert reference_core_set(inst) == {0, 1, 2, 5}

    def test_sweep_runs_to_the_end_while_a_gap_has_no_vertex(self):
        # Vertex 5's list spans 2, but no satisfied vertex rises by 2.
        lists = [{0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1}, {1, 3}]
        inst = _logged(make_dce(Graph(6), 1, 3, lists))
        assert inst.tau.spread == 2
        assert core_set(inst) == {0, 1, 5}
        assert inst.tau.lists.read == [0, 1, 2, 3, 4, 5]
        assert reference_core_set(inst) == {0, 1, 5}

    def test_zero_budget_sweeps_nothing(self):
        inst = _logged(make_dce(Graph(3), 0, 1, [{0, 1}, {0, 1}, {1}]))
        assert core_set(inst) == {2}
        assert inst.tau.lists.read == []


class TestSpread:
    def test_empty_and_one_entry_lists_spread_nothing(self):
        assert DegreeListFunction(3, ()).spread == 0
        assert DegreeListFunction(3, (frozenset(),) * 2).spread == 0
        assert DegreeListFunction(3, (frozenset({3}), frozenset(), frozenset({0}))).spread == 0

    def test_widest_list(self):
        tau = DegreeListFunction(5, (frozenset({1, 2}), frozenset({0, 3, 4}), frozenset({5})))
        assert tau.spread == 4

    def test_left_out_of_equality_and_hash(self):
        lists = (frozenset({0, 2}), frozenset({1}))
        a, b = DegreeListFunction(2, lists), DegreeListFunction(2, tuple(map(frozenset, lists)))
        object.__setattr__(b, "spread", 99)
        assert a == b and hash(a) == hash(b)
        assert replace(b, r=3).spread == 2

    def test_kernel_gets_the_spread_of_its_shifted_lists(self):
        # Vertex 0 loses its one neighbor: {0, 1, 3} shifts down to {0, 2}.
        inst = make_dce(Graph(2, [(0, 1)]), 1, 3, [{0, 1, 3}, {1}])
        assert inst.tau.spread == 3
        kept = safely_remove(inst, {1}).tau
        assert kept.lists == (frozenset({0, 2}),) and kept.spread == 2


class TestRule2:
    def test_overshoot(self):
        inst = make_dce(k3(), 5, 2, [{2}, {2}, {2}])
        # Degree 2 is fine for all three; shrink one list to force overshoot.
        inst = make_dce(k3(), 5, 2, [{1}, {2}, {2}])
        assert isinstance(rule2_check(inst), TrivialNo)

    def test_empty_list_counts_as_overshoot(self):
        inst = make_dce(Graph(1), 1, 1, [set()])
        assert isinstance(rule2_check(inst), TrivialNo)

    def test_too_many_unsatisfied(self):
        inst = make_dce(k3(), 1, 2, [{0}, {0}, {0}])
        assert isinstance(rule2_check(inst), TrivialNo)

    def test_triple_passes(self):
        assert rule2_check(triple_instance()) is None

    def test_overshoot_before_the_count_names_its_vertex(self):
        # Vertex 0 is unsatisfied; vertex 1 (degree 1, list {0}) is the second.
        inst = make_dce(Graph(5, [(1, 4)]), 1, 1, [{1}, {0}, {1}, {1}, {1}])
        assert rule2_check(inst) == TrivialNo("vertex 1 overshoots its degree list")

    def test_overshoot_after_the_count_is_not_reached(self):
        # Vertices 0 to 2 are unsatisfied; vertex 3 would overshoot.
        inst = make_dce(Graph(5, [(3, 4)]), 1, 1, [{1}, {1}, {1}, {0}, {1}])
        assert rule2_check(inst) == TrivialNo("more than 2 unsatisfied vertices")

    def test_overshoot_of_the_vertex_over_the_count_wins(self):
        # Vertices 0 and 1 are unsatisfied; vertex 2 is the third and overshoots.
        inst = make_dce(Graph(3, [(1, 2)]), 1, 2, [{1}, {2}, {0}])
        assert rule2_check(inst) == TrivialNo("vertex 2 overshoots its degree list")

    def test_empty_list_after_satisfied_vertices_overshoots(self):
        inst = make_dce(Graph(3), 1, 1, [{0}, {0}, set()])
        assert rule2_check(inst) == TrivialNo("vertex 2 overshoots its degree list")


class TestKernelizeKr:
    def test_hundred_isolated(self):
        inst = make_dce(Graph(100), 1, 1, [{0, 1}] * 100)
        result = kernelize_kr(inst)
        assert isinstance(result, Kernel)
        assert result.instance.graph.vertex_count == 2
        assert all(s == frozenset({0, 1}) for s in result.instance.tau.lists)
        assert brute_force_solve(inst) is not None
        assert brute_force_solve(result.instance) is not None

    def test_equal_shifted_lists_share_one_frozenset(self):
        # Leaves 1..5 of a star lose the center, whose one-entry list gives
        # it no type: four {1, 2} lists, each its own frozenset since the
        # instance is built past make_dce, shift to one shared {0, 1}, and
        # {1, 3} to {0, 2}.
        lists = [{5}, {1, 2}, {1, 2}, {1, 2}, {1, 2}, {1, 3}]
        tau = DegreeListFunction(5, tuple(map(frozenset, lists)))
        inst = DceInstance(Graph(6, [(0, v) for v in range(1, 6)]), 1, tau, EditKind.EDGE_ADDITION)
        assert len({id(s) for s in inst.tau.lists}) == 6
        result = kernelize_kr(inst)
        assert isinstance(result, Kernel) and result.old_of_new == (1, 2, 3, 4, 5)
        lists = result.instance.tau.lists
        assert lists == (frozenset({0, 1}),) * 4 + (frozenset({0, 2}),)
        assert len({id(s) for s in lists}) == len(set(lists)) == 2

    def test_make_dce_shares_equal_lists_however_given(self):
        inst = make_dce(Graph(3), 0, 2, [{1, 2}, [2, 1], frozenset({1, 2})])
        assert len({id(s) for s in inst.tau.lists}) == 1

    def test_rule2_failure_propagates(self):
        inst = make_dce(k3(), 1, 2, [{0}, {0}, {0}])
        assert isinstance(kernelize_kr(inst), TrivialNo)

    def test_small_instance_fixed_point(self):
        # Everything already inside the core set: output equals input.
        inst = triple_instance()
        result = kernelize_kr(inst)
        assert isinstance(result, Kernel)
        assert result.instance.graph == inst.graph
        assert result.instance.tau == inst.tau

    def test_size_bound_and_equivalence_random(self):
        rng = random.Random(4242)
        for _ in range(120):
            inst = random_instance(rng)
            result = kernelize_kr(inst)
            original = brute_force_solve(inst)
            if isinstance(result, TrivialNo):
                assert original is None
                continue
            k, r = inst.k, inst.r
            assert result.instance.graph.vertex_count <= 2 * k + r * k * (r + 2)
            reduced = brute_force_solve(result.instance)
            assert (original is None) == (reduced is None)


@st.composite
def _small_e_plus(draw):
    """Edge-addition instances small enough for the plain enumeration oracle."""
    n = draw(st.integers(1, 8))
    edges = [e for e in all_pairs(n) if draw(st.integers(0, 3)) == 0]
    r = draw(st.integers(1, 3))
    lists = draw(
        st.lists(st.sets(st.integers(0, r), max_size=r + 1), min_size=n, max_size=n)
    )
    return make_dce(Graph(n, edges), draw(st.integers(0, 3)), r, lists)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_small_e_plus())
def test_kernelize_kr_keeps_the_answer(inst):
    expect = naive_dce_min_edits(inst.graph, inst.k, [set(s) for s in inst.tau.lists], "e+")
    result = kernelize_kr(inst)
    if isinstance(result, TrivialNo):
        assert expect is None
        return
    k, r = inst.k, inst.r
    kernel = result.instance
    assert kernel.graph.vertex_count <= 2 * k + r * k * (r + 2)
    got = naive_dce_min_edits(kernel.graph, kernel.k, [set(s) for s in kernel.tau.lists], "e+")
    assert (got is None) == (expect is None)


# Each instance draws its lists from one mix: all satisfied (the counters
# fill up), some unsatisfied without overshoot (the 2k count decides), or
# anything, empty lists and entries below the degree included.
_LIST_MIXES = (
    ("exact", "types", "types", "types"),
    ("exact", "types", "types", "above"),
    ("empty", "exact", "one", "types", "above", "any"),
)


@st.composite
def _kernel_rule_instance(draw):
    """Edge-addition instances with empty lists, one-entry lists, entries
    below the degree, budgets from 0 and often more than 2k unsatisfied
    vertices."""
    n = draw(st.integers(0, 24))
    pairs = all_pairs(n)
    edges = draw(st.sets(st.sampled_from(pairs), max_size=n)) if pairs else set()
    g = Graph(n, edges)
    r = g.max_degree() + draw(st.integers(1, 3))
    mix = draw(st.sampled_from(_LIST_MIXES))
    lists = []
    for deg in g.degrees():
        kind = draw(st.sampled_from(mix))
        if kind == "empty":
            lists.append(set())
        elif kind == "exact":
            lists.append({deg})
        elif kind == "one":
            lists.append({draw(st.integers(0, r))})
        elif kind == "types":
            lists.append({deg} | draw(st.sets(st.integers(deg + 1, r), max_size=3)))
        elif kind == "above":
            lists.append(draw(st.sets(st.integers(deg + 1, r), min_size=1, max_size=3)))
        else:
            lists.append(draw(st.sets(st.integers(0, r), max_size=4)))
    return make_dce(g, draw(st.integers(0, 3)), r, lists)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(inst=_kernel_rule_instance(), data=st.data())
def test_kernel_rules_match_the_reference(inst, data):
    assert rule2_check(inst) == reference_rule2_check(inst)
    assert core_set(inst) == reference_core_set(inst)
    # Kernel equality covers the graph, k, every list in order and old_of_new.
    assert kernelize_kr(inst) == reference_kernelize_kr(inst)
    n = inst.graph.vertex_count
    removed = data.draw(st.sets(st.integers(0, n - 1))) if n else set()
    assert safely_remove(inst, removed) == reference_safely_remove(inst, removed)


@st.composite
def _saturating_instance(draw):
    """Edge-addition instances for the core-set sweep's stop rule: k in
    {0, 1}, degrees at most 2 (so alpha is at most 4) and mostly satisfied
    vertices whose rises fall on a few shared gaps. Often every gap in
    1..spread fills up and the sweep stops early; when the drawn gaps miss
    one below the widest, or an unsatisfied list is wider than every gap,
    it runs to the end."""
    n = draw(st.integers(4, 40))
    path = [(v, v + 1) for v in range(n - 1)]
    g = Graph(n, draw(st.sets(st.sampled_from(path))))
    width = draw(st.integers(1, 3))
    gaps = sorted(draw(st.sets(st.integers(1, width), min_size=1)))
    lists = []
    for deg in g.degrees():
        kind = draw(st.sampled_from(("one", "one", "two", "exact", "wide")))
        if kind == "exact":
            lists.append({deg})
        elif kind == "wide":
            lists.append({deg + 1, deg + 1 + width})
        else:
            rises = draw(st.sets(st.sampled_from(gaps), min_size=1, max_size=len(kind) - 1))
            lists.append({deg} | {deg + x for x in rises})
    return make_dce(g, draw(st.sampled_from((1, 1, 1, 0))), g.max_degree() + width + 1, lists)


def _sweep_end(inst) -> int:
    """The vertex after which the stop rule ends the core-set sweep: the
    first satisfied one that brings every rise in 1..spread to alpha, else
    the last vertex; -1 when alpha or spread is 0."""
    alpha = inst.k * (inst.graph.max_degree() + 2)
    spread = inst.tau.spread
    if not alpha or not spread:
        return -1
    counts = Counter()
    for v, (deg, lst) in enumerate(zip(inst.graph.degrees(), inst.tau.lists)):
        if deg in lst:
            counts.update(t - deg for t in lst if t > deg)
            if all(counts[i] >= alpha for i in range(1, spread + 1)):
                return v
    return inst.graph.vertex_count - 1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_saturating_instance())
def test_core_set_stop_matches_the_reference(inst):
    assert core_set(inst) == reference_core_set(inst)
    assert kernelize_kr(inst) == reference_kernelize_kr(inst)
    # The sweep reads the multi-entry lists up to the stop, and no further.
    logged = _logged(inst)
    core_set(logged)
    end = _sweep_end(inst)
    assert logged.tau.lists.read == [
        v for v, lst in enumerate(inst.tau.lists) if len(lst) > 1 and v <= end
    ]


@st.composite
def _planted_dce(draw, op):
    """Small instances whose lists hold the degrees after up to three
    planted edits of kind op, plus random extra entries. After vertex
    deletions that degree is each vertex's count of surviving neighbors."""
    n = draw(st.integers(1, 7))
    edges = [e for e in all_pairs(n) if draw(st.booleans())]
    g = Graph(n, edges)
    final = list(g.degrees())
    if op is EditKind.VERTEX_DELETION:
        for v in draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True)):
            for w in g.adj[v]:
                final[w] -= 1
    else:
        pool = sorted(set(all_pairs(n)) - set(edges)) if op is EditKind.EDGE_ADDITION else edges
        planted = draw(st.lists(st.sampled_from(pool), max_size=3, unique=True)) if pool else []
        sign = 1 if op is EditKind.EDGE_ADDITION else -1
        for u, v in planted:
            final[u] += sign
            final[v] += sign
    r = max([3, *final])
    lists = [
        {final[v]} | draw(st.sets(st.integers(0, r), max_size=2)) for v in range(n)
    ]
    return make_dce(g, draw(st.integers(0, 3)), r, lists, op)


@pytest.mark.parametrize("op", list(EditKind))
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_brute_force_is_minimum(op, data):
    inst = data.draw(_planted_dce(op))
    lists = [set(s) for s in inst.tau.lists]
    expect = naive_dce_min_edits(inst.graph, inst.k, lists, op.value)
    sol = brute_force_solve(inst)
    assert (sol is None) == (expect is None)
    if sol is not None:
        assert len(sol) == expect
        validate_solution(inst, sol)


class TestBruteForce:
    def test_triple_adds_everything(self):
        sol = brute_force_solve(triple_instance())
        assert sol is not None
        assert sorted(sol.edits) == [("add", 0, 1), ("add", 0, 2), ("add", 1, 2)]

    def test_satisfied_instance_empty_solution(self):
        inst = make_dce(Graph(2, [(0, 1)]), 2, 1, [{1}, {1}])
        assert brute_force_solve(inst) == EditSolution(())

    def test_k3_vertex_deletion(self):
        inst = make_dce(k3(), 2, 0, [{0}, {0}, {0}], EditKind.VERTEX_DELETION)
        sol = brute_force_solve(inst)
        assert sol is not None
        assert len(sol.edits) == 2
        validate_solution(inst, sol)

    def test_edge_deletion(self):
        inst = make_dce(k3(), 3, 2, [{0}, {1}, {1}], EditKind.EDGE_DELETION)
        sol = brute_force_solve(inst)
        assert sol is not None
        assert sorted(sol.edits) == [("del", 0, 1), ("del", 0, 2)]

    def test_anchor_is_the_lowest_unsatisfied_vertex(self):
        # Vertex 0 takes its first partner 1, then 2 takes 3; anchoring at
        # any other vertex returns another perfect matching.
        inst = make_dce(Graph(4), 2, 1, [{1}] * 4)
        assert brute_force_solve(inst).edits == (("add", 0, 1), ("add", 2, 3))
        cycle = Graph(4, [(0, 1), (2, 3), (0, 2), (1, 3)])
        inst = make_dce(cycle, 2, 2, [{1}] * 4, EditKind.EDGE_DELETION)
        assert brute_force_solve(inst).edits == (("del", 0, 1), ("del", 2, 3))

    def test_node_limit(self):
        with pytest.raises(ResourceLimitError):
            brute_force_solve(triple_instance(), node_limit=2)

    def test_vertex_deletion_scans_for_unsatisfied_vertices_once(self, monkeypatch):
        # The square of a 2,000-cycle with four vertices listed {0, 1}: every
        # deletion leaves neighbors off their list {4}, so the search expands
        # hundreds of nodes to answer NO. It scans all n vertices once and
        # then keeps the unsatisfied ones as a set, never rescanning per node.
        n = 2000
        g = Graph(n, sorted({tuple(sorted((v, (v + d) % n))) for v in range(n) for d in (1, 2)}))
        lists = [{0, 1} if v % 500 == 0 else {4} for v in range(n)]
        inst = make_dce(g, 4, 4, lists, EditKind.VERTEX_DELETION)
        with pytest.raises(ResourceLimitError):
            brute_force_solve(inst, node_limit=299)
        scans = []
        unsatisfied = dce._unsatisfied
        monkeypatch.setattr(dce, "_unsatisfied", lambda *args: scans.append(args) or unsatisfied(*args))
        assert brute_force_solve(inst) is None
        assert len(scans) == 1

    @pytest.mark.parametrize(
        "op", [EditKind.EDGE_ADDITION, EditKind.EDGE_DELETION, EditKind.VERTEX_DELETION]
    )
    def test_minimality_matches_naive_enumeration(self, op):
        rng = random.Random(hash(op.value) & 0xFFFF)
        ops = {"e+": "e+", "e-": "e-", "v-": "v-"}[op.value]
        for _ in range(60):
            inst = random_instance(rng, op=op, n_max=6)
            lists = [set(s) for s in inst.tau.lists]
            expect = naive_dce_min_edits(inst.graph, inst.k, lists, ops)
            sol = brute_force_solve(inst)
            if expect is None:
                assert sol is None
            else:
                assert sol is not None
                assert len(sol.edits) == expect
                validate_solution(inst, sol)


class TestSolveEPlus:
    def test_hundred_isolated(self):
        inst = make_dce(Graph(100), 1, 1, [{0, 1}] * 100)
        sol = solve_e_plus(inst)
        assert sol is not None
        validate_solution(inst, sol)

    def test_rule2_no(self):
        inst = make_dce(k3(), 1, 2, [{0}, {0}, {0}])
        assert solve_e_plus(inst) is None

    def test_zero_budget_satisfied(self):
        g = Graph(4, [(0, 1), (1, 2), (1, 3), (2, 3)])
        inst = make_dce(g, 0, 3, [{1}, {3}, {2}, {2}])
        assert solve_e_plus(inst) == EditSolution(())

    def test_matches_bruteforce_random(self):
        rng = random.Random(90125)
        for _ in range(120):
            inst = random_instance(rng)
            direct = brute_force_solve(inst)
            via_kernel = solve_e_plus(inst)
            assert (direct is None) == (via_kernel is None)
            if via_kernel is not None:
                assert len(via_kernel) == len(direct)
                validate_solution(inst, via_kernel)


    def test_odd_total_is_numeric_no(self):
        # Ten matched and seven isolated vertices keep their degree, three
        # isolated ones must rise by one and twenty others may rise by two:
        # every total increase is odd, so no set of additions exists.
        edges = [(2 * i, 2 * i + 1) for i in range(5)]
        lists = [{1}] * 10 + [{1}] * 3 + [{0, 2}] * 20 + [{0}] * 7
        inst = make_dce(Graph(40, edges), 6, 3, lists)
        assert solve(inst, limit=200_000) is None

    def test_failed_least_witness_searches_before_the_threshold(self):
        # The adjacent pair must both reach degree 2, so the least witness
        # (the pair rising by one each) does not realize. At the budget 18 =
        # r(r+1)^2 a witness of 18 edges would, but the search first finds
        # the minimum: both join one third vertex.
        lists = [{2}, {2}] + [{0, 2}] * 40
        inst = make_dce(Graph(42, [(0, 1)]), 18, 2, lists)
        sol = solve_e_plus(inst)
        assert sol is not None and len(sol) == 2
        validate_solution(inst, sol)
        assert brute_force_solve(make_dce(Graph(42, [(0, 1)]), 1, 2, lists)) is None

    @pytest.mark.parametrize("k", [18, 19])
    def test_search_limit_realizes_from_the_threshold(self, k):
        # The instance above with a search limit of one node: the search gives
        # up, and the least witness from the threshold 18 up realizes.
        lists = [{2}, {2}] + [{0, 2}] * 40
        inst = make_dce(Graph(42, [(0, 1)]), k, 2, lists)
        sol = solve(inst, limit=1)
        assert sol is not None and len(sol) == 18
        validate_solution(inst, sol)

    def test_search_limit_below_the_threshold_stays_undecided(self):
        # Below the threshold no witness is left to realize, so the search's
        # ResourceLimitError stands; without a limit the minimum is 2 edges.
        lists = [{2}, {2}] + [{0, 2}] * 40
        inst = make_dce(Graph(42, [(0, 1)]), 17, 2, lists)
        with pytest.raises(ResourceLimitError):
            solve(inst, limit=1)
        assert len(solve(inst)) == 2

    def test_failed_realization_at_the_threshold_is_a_defect(self, monkeypatch):
        # Ten isolated vertices that must each gain one edge: the least
        # witness has 5 edges, above the threshold 4 of r = 1, where every
        # witness realizes.
        monkeypatch.setattr(factors, "realize_demands", lambda *args: None)
        with pytest.raises(InternalInvariantError):
            solve_e_plus(make_dce(Graph(10), 5, 1, [{1}] * 10))


def probe_eplus_instance(rng: random.Random):
    """G(n, p) with n from 30 to 80 and r the maximum degree plus 1 to 3; a
    vertex keeps its degree as its list or gets one or two values from its
    degree up to r; the budget is at most 3n."""
    n = rng.randrange(30, 81)
    p = rng.choice([0.05, 0.1, 0.2])
    g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
    r = g.max_degree() + rng.randrange(1, 4)
    lists = []
    for d in g.degrees():
        if rng.random() < 0.5:
            lists.append({d})
        else:
            lists.append(set(rng.sample(range(d, r + 1), rng.randint(1, min(2, r + 1 - d)))))
    return make_dce(g, rng.randrange(0, 3 * n + 1), r, lists)


def test_probe_instance_is_decided_minimally():
    # The fourth instance of the probe (n = 50, k = 148, r = 16): the
    # anchored search alone exceeds 300,000 nodes, while its least numeric
    # witness realizes, and no solution has fewer edges than that total.
    rng = random.Random(5)
    for _ in range(4):
        inst = probe_eplus_instance(rng)
    assert (inst.graph.vertex_count, inst.k, inst.r) == (50, 148, 16)
    start = time.perf_counter()
    sol = solve(inst, limit=300_000)
    assert time.perf_counter() - start < 1.0
    assert sol is not None
    validate_solution(inst, sol)
    least, _ = least_even_total(inst.graph.degrees(), inst.tau.lists, 0, inst.k)
    assert len(sol) == least


class TestValidation:
    def test_rejects_wrong_kind(self):
        inst = triple_instance()
        with pytest.raises(InvalidInputError):
            validate_solution(inst, EditSolution((("del", 0, 1),)))

    def test_rejects_over_budget(self):
        inst = triple_instance(k=1)
        sol = EditSolution((("add", 0, 1), ("add", 0, 2)))
        with pytest.raises(InvalidInputError):
            validate_solution(inst, sol)

    def test_rejects_unsatisfying(self):
        inst = triple_instance()
        with pytest.raises(InvalidInputError):
            validate_solution(inst, EditSolution((("add", 0, 1),)))

    @pytest.mark.parametrize(
        "inst, edits, reason",
        [
            (triple_instance(), [("add", 0, 1), ("add", 1, 0)], "duplicate edit"),
            (triple_instance(), [("add", 0, 3)], "out of range"),
            (make_dce(Graph(3, [(0, 1)]), 3, 2, [{2}] * 3), [("add", 0, 1)], "already present"),
            (
                make_dce(Graph(3, [(0, 1)]), 1, 1, [{0, 1}] * 3, EditKind.EDGE_DELETION),
                [("del", 1, 2)],
                "not present",
            ),
            (
                make_dce(k3(), 3, 0, [{0}] * 3, EditKind.VERTEX_DELETION),
                [("rm", 1), ("rm", 1)],
                "deleted twice",
            ),
            (
                make_dce(k3(), 3, 0, [{0}] * 3, EditKind.VERTEX_DELETION),
                [("rm", 3)],
                "out of range",
            ),
            (
                make_dce(k3(), 3, 0, [{0}] * 3, EditKind.VERTEX_DELETION),
                [("rm", 0)],
                "off its list",
            ),
            (triple_instance(), [("add", 0, 1, "junk")], "names 3 vertices, add takes 2"),
            (triple_instance(), [("add", 0)], "names 1 vertices, add takes 2"),
            (
                make_dce(k3(), 3, 0, [{0}] * 3, EditKind.VERTEX_DELETION),
                [("rm", 0, 1)],
                "names 2 vertices, rm takes 1",
            ),
            (
                make_dce(k3(), 3, 0, [{0}] * 3, EditKind.VERTEX_DELETION),
                [("rm",)],
                "names 0 vertices, rm takes 1",
            ),
        ],
        ids=[
            "repeated-edit", "add-out-of-range", "add-present", "delete-absent",
            "remove-twice", "remove-out-of-range", "survivor-off-list",
            "add-extra-token", "add-one-end", "remove-two-ends", "remove-no-end",
        ],
    )
    def test_rejects(self, inst, edits, reason):
        with pytest.raises(InvalidInputError, match=reason):
            validate_solution(inst, EditSolution(tuple(edits)))


class TestEditedDegrees:
    def test_matches_the_checked_constructor(self):
        # Each word's degrees against the graph its edits leave, rebuilt by
        # Graph(n, edges); ends come in either order.
        rng = random.Random(4)
        for _ in range(60):
            inst = random_instance(rng, n_max=12)
            g, n = inst.graph, inst.graph.vertex_count
            present = list(g.edges())
            absent = [e for e in all_pairs(n) if not g.has_edge(*e)]
            added = [e for e in absent if rng.random() < 0.4]
            gone = [e for e in present if rng.random() < 0.4]
            for word, pairs, edges in [
                ("add", added, present + added),
                ("del", gone, [e for e in present if e not in set(gone)]),
            ]:
                edits = [(word, *(e[::-1] if rng.random() < 0.5 else e)) for e in pairs]
                degs, removed = edited_degrees(g, edits, word)
                assert tuple(degs) == Graph(n, edges).degrees()
                assert removed == set()
            deleted = {v for v in range(n) if rng.random() < 0.3}
            degs, removed = edited_degrees(g, [("rm", v) for v in deleted], "rm")
            assert removed == deleted
            sub, old_of_new = induced_subgraph(g, set(range(n)) - deleted)
            assert [degs[old] for old in old_of_new] == list(sub.degrees())

    @pytest.mark.parametrize(
        "edits, word, reason",
        [
            ([("del", 0, 2)], "del", "not present"),
            ([("del", -1, 1)], "del", "out of range"),
            ([("del", 1, -1)], "del", "out of range"),
            ([("del", 5, 7)], "del", "out of range"),
            ([("del", 2, 3)], "del", "out of range"),
            ([("del", 0, 1), ("del", 1, 0)], "del", "duplicate edit"),
            ([("add", 1, 1)], "add", "self-loop"),
            ([("rm", 0)], "del", "does not match"),
        ],
        ids=[
            "delete-absent", "low-first-end", "low-second-end", "both-ends-high",
            "second-end-high", "repeat-either-order", "loop", "wrong-word",
        ],
    )
    def test_rejects(self, edits, word, reason):
        with pytest.raises(InvalidInputError, match=reason):
            edited_degrees(Graph(3, [(0, 1), (1, 2)]), edits, word)


@pytest.mark.parametrize(
    "build, reason",
    [
        (lambda: make_dce(Graph(2), -1, 1, [{0}, {0}]), "budget k must be nonnegative"),
        (lambda: make_dce(Graph(2), 1, 1, [{0}]), "exactly the vertices"),
        (lambda: safely_remove(triple_instance(), {1, 3}), "vertex 3 out of range"),
    ],
    ids=["negative-budget", "short-tau", "remove-out-of-range"],
)
def test_rejects_invalid_input(build, reason):
    with pytest.raises(InvalidInputError, match=reason):
        build()


@pytest.mark.parametrize(
    "inst",
    [
        make_dce(Graph(2), 1, 1, [{1}, {1}]),
        make_dce(Graph(2, [(0, 1)]), 1, 1, [{0}, {0}], EditKind.EDGE_DELETION),
        DscInstance(Graph(3, [(0, 1), (1, 2)]), 1, regular_property(), 2),
    ],
    ids=["e+", "e-", "dsc"],
)
def test_solve_rejects_a_negative_limit(inst):
    with pytest.raises(InvalidInputError, match="limit must be nonnegative"):
        solve(inst, -1)


class TestWrongSearchAnswerIsADefect:
    """A search answer that fails its re-check is a defect in degkit, never
    bad input."""

    def test_edge_addition(self, monkeypatch):
        monkeypatch.setattr(dce, "_search", lambda *args: (("add", 0, 1),))
        with pytest.raises(InternalInvariantError):
            brute_force_solve(triple_instance())
        with pytest.raises(InternalInvariantError):
            solve(triple_instance())

    def test_vertex_deletion(self, monkeypatch):
        monkeypatch.setattr(dce, "_search", lambda *args: (("rm", 0),))
        inst = make_dce(k3(), 2, 0, [{0}] * 3, EditKind.VERTEX_DELETION)
        with pytest.raises(InternalInvariantError):
            brute_force_solve(inst)
        with pytest.raises(InternalInvariantError):
            solve(inst)
