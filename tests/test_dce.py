"""Degree-constrained editing: kernel rules and exact solvers."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degkit.dce import (
    EditKind,
    EditSolution,
    Kernel,
    TrivialNo,
    brute_force_solve,
    core_set,
    is_valid_solution,
    kernelize_kr,
    make_dce,
    rule2_check,
    safely_remove,
    solve_e_plus,
    unsatisfied_vertices,
    validate_solution,
    vertex_types,
)
from degkit.dsc import solve
from degkit.errors import InvalidInputError, ResourceLimitError
from degkit.graph import Graph

from oracles import all_pairs, naive_dce_min_edits


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


class TestNotation:
    def test_unsatisfied_triple(self):
        assert unsatisfied_vertices(triple_instance()) == {0}

    def test_unsatisfied_all_satisfied(self):
        inst = make_dce(Graph(2, [(0, 1)]), 1, 1, [{1}, {0, 1}])
        assert unsatisfied_vertices(inst) == set()

    def test_unsatisfied_k3_zero_lists(self):
        inst = make_dce(k3(), 1, 0, [{0}, {0}, {0}])
        assert unsatisfied_vertices(inst) == {0, 1, 2}

    def test_types_fig2_u(self):
        assert vertex_types(fig2_instance(), 0) == {0, 1}

    def test_types_fig2_v(self):
        assert vertex_types(fig2_instance(), 1) == {0}

    def test_types_unreachable(self):
        star = Graph(4, [(0, 1), (0, 2), (0, 3)])
        inst = make_dce(star, 1, 2, [{2}, {1}, {1}, {1}])
        assert vertex_types(inst, 0) == frozenset()


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
            assert vertex_types(inst, v) == {0, 1}

    def test_fig2_counter_trace(self):
        # Unsatisfied w plus the one satisfied vertex of positive type (u);
        # v and x are satisfied type-0-only vertices and drop out.
        assert core_set(fig2_instance(k=1)) == {0, 2}

    def test_requires_edge_addition(self):
        inst = make_dce(Graph(2), 1, 1, [{0}, {0}], EditKind.EDGE_DELETION)
        with pytest.raises(InvalidInputError):
            core_set(inst)


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


class TestKernelizeKr:
    def test_hundred_isolated(self):
        inst = make_dce(Graph(100), 1, 1, [{0, 1}] * 100)
        result = kernelize_kr(inst)
        assert isinstance(result, Kernel)
        assert result.instance.graph.vertex_count == 2
        assert all(s == frozenset({0, 1}) for s in result.instance.tau.lists)
        assert brute_force_solve(inst) is not None
        assert brute_force_solve(result.instance) is not None

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
        assert is_valid_solution(inst, sol)

    def test_edge_deletion(self):
        inst = make_dce(k3(), 3, 2, [{0}, {1}, {1}], EditKind.EDGE_DELETION)
        sol = brute_force_solve(inst)
        assert sol is not None
        assert sorted(sol.edits) == [("del", 0, 1), ("del", 0, 2)]

    def test_node_limit(self):
        with pytest.raises(ResourceLimitError):
            brute_force_solve(triple_instance(), node_limit=2)

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
                assert is_valid_solution(inst, sol)


class TestSolveEPlus:
    def test_hundred_isolated(self):
        inst = make_dce(Graph(100), 1, 1, [{0, 1}] * 100)
        sol = solve_e_plus(inst)
        assert sol is not None
        assert is_valid_solution(inst, sol)

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
                assert is_valid_solution(inst, via_kernel)


    def test_odd_total_is_numeric_no(self):
        # Ten matched and seven isolated vertices keep their degree, three
        # isolated ones must rise by one and twenty others may rise by two:
        # every total increase is odd, so no set of additions exists.
        edges = [(2 * i, 2 * i + 1) for i in range(5)]
        lists = [{1}] * 10 + [{1}] * 3 + [{0, 2}] * 20 + [{0}] * 7
        inst = make_dce(Graph(40, edges), 6, 3, lists)
        assert solve(inst, limit=200_000) is None


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
