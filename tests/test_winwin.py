"""Demand realization and the r-only kernel pipeline."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degkit.dce import (
    Kernel,
    TrivialNo,
    brute_force_solve,
    kernelize_kr,
    make_dce,
    solve_e_plus,
    validate_solution,
)
from degkit import factors
from degkit.errors import InternalInvariantError, InvalidInputError
from degkit.graph import Graph
from degkit.nce import make_nce, nce_traceback
from degkit.winwin import (
    TrivialYes,
    kernelize_r,
    realize_demands,
    solution_threshold,
    try_large_solution,
)

from oracles import add_edges, all_pairs, naive_dce_min_edits


def ten_isolated_instance(k: int = 5):
    return make_dce(Graph(10), k, 1, [{1}] * 10)


class TestRealizeDemands:
    def test_edgeless_triple_all_twos(self):
        edges = realize_demands(Graph(3), [2, 2, 2])
        assert edges == {(0, 1), (0, 2), (1, 2)}

    def test_zero_demand(self):
        assert realize_demands(Graph(3), [0, 0, 0]) == set()

    def test_adjacent_pair_infeasible(self):
        g = Graph(2, [(0, 1)])
        assert realize_demands(g, [1, 1]) is None

    def test_odd_sum_absent(self):
        assert realize_demands(Graph(3), [1, 1, 1]) is None

    def test_demand_above_nonneighbors_absent(self):
        assert realize_demands(Graph(3), [3, 1, 0]) is None

    def test_negative_demand_rejected(self):
        with pytest.raises(InvalidInputError):
            realize_demands(Graph(3), [-1, 1, 0])

    def test_demand_of_the_wrong_length_rejected(self):
        with pytest.raises(InvalidInputError, match="length 2, expected 3"):
            realize_demands(Graph(3), [1, 1])

    def test_new_edges_disjoint_and_exact(self):
        rng = random.Random(321)
        for _ in range(60):
            n = rng.randrange(2, 9)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.3
            ]
            g = Graph(n, edges)
            demand = [rng.randrange(0, 3) for _ in range(n)]
            result = realize_demands(g, demand)
            if result is None:
                continue
            for u, v in result:
                assert not g.has_edge(u, v)
            bigger = add_edges(g, result)
            for v in range(n):
                assert bigger.degree(v) == g.degree(v) + demand[v]


class TestTryLargeSolution:
    def test_ten_isolated_matching(self):
        inst = ten_isolated_instance(k=5)
        sol = try_large_solution(inst)
        assert sol is not None
        assert len(sol.edits) == 5
        final = add_edges(inst.graph, [(e[1], e[2]) for e in sol.edits])
        assert all(final.degree(v) == 1 for v in range(10))

    def test_nce_never_yes(self):
        # Nine vertices need exactly one new edge each: every total is odd.
        inst = make_dce(Graph(9), 6, 1, [{1}] * 9)
        assert try_large_solution(inst) is None

    def test_below_threshold_guard(self):
        with pytest.raises(InvalidInputError):
            try_large_solution(ten_isolated_instance(k=3))

    def test_r2_threshold_witnesses(self):
        # Threshold 18 at r = 2; every numeric yes must realize.
        rng = random.Random(99)
        hits = 0
        for _ in range(25):
            n = rng.randrange(36, 56)
            pairs = rng.randrange(0, 4)
            edges = [(2 * i, 2 * i + 1) for i in range(pairs)]
            lists = []
            for v in range(n):
                if v < 2 * pairs:
                    lists.append({1, 2, rng.randrange(3)})
                else:
                    lists.append(rng.choice([{2}, {1, 2}, {0, 1, 2}]))
            inst = make_dce(Graph(n, edges), rng.randrange(18, 40), 2, lists)
            sol = try_large_solution(inst)
            if sol is not None:
                validate_solution(inst, sol)
                hits += 1
        assert hits >= 10

    def test_realization_never_fails_when_nce_yes(self):
        # The win-win guarantee at r = 1: whenever some even total 2k' with
        # k' >= 4 is numerically feasible, realization must go through.
        rng = random.Random(777)
        hits = 0
        for _ in range(120):
            pairs = rng.randrange(0, 3)
            needy = rng.randrange(6, 15)
            decoys = rng.randrange(0, 4)
            n = 2 * pairs + needy + decoys
            edges = [(2 * i, 2 * i + 1) for i in range(pairs)]
            lists: list[set[int]] = [{1} for _ in range(2 * pairs)]
            lists += [{1} for _ in range(needy)]
            lists += [{0, 1} for _ in range(decoys)]
            inst = make_dce(Graph(n, edges), 10, 1, lists)
            nce_yes = any(
                nce_traceback(make_nce(inst.graph.degrees(), 2 * kp, 1, lists)) is not None
                for kp in range(4, 11)
            )
            sol = try_large_solution(inst)
            assert (sol is not None) == nce_yes
            if sol is not None:
                hits += 1
                validate_solution(inst, sol)
        assert hits > 20


class TestKernelizeR:
    def test_large_yes(self):
        result = kernelize_r(ten_isolated_instance(k=5))
        assert isinstance(result, TrivialYes)
        validate_solution(ten_isolated_instance(k=5), result.witness)
        assert len(result.witness.edits) == 5

    def test_wrong_large_solution_is_a_defect(self, monkeypatch):
        # Forty vertices that must each gain one edge: a single edge is no
        # solution, and the re-check must report a defect, not bad input.
        monkeypatch.setattr(factors, "realize_demands", lambda *args: {(0, 1)})
        with pytest.raises(InternalInvariantError):
            kernelize_r(make_dce(Graph(40), 20, 1, [{1}] * 40))

    def test_small_budget_delegates(self):
        inst = make_dce(Graph(4, [(0, 1)]), 2, 1, [{1}, {1}, {0, 1}, {0, 1}])
        result = kernelize_r(inst)
        direct = kernelize_kr(inst)
        assert isinstance(result, Kernel) and isinstance(direct, Kernel)
        assert result.instance.graph == direct.instance.graph
        assert result.instance.tau == direct.instance.tau

    def test_rule2_no(self):
        inst = make_dce(Graph(1, []), 9, 1, [set()])
        assert isinstance(kernelize_r(inst), TrivialNo)

    def test_degenerate_r_zero(self):
        # Threshold 0: a satisfied instance short-circuits to an empty
        # witness, an unsatisfiable one to trivial-no after the clamp.
        sat = make_dce(Graph(3), 5, 0, [{0}, {0}, {0}])
        result = kernelize_r(sat)
        assert isinstance(result, TrivialYes)
        assert result.witness.edits == ()
        unsat = make_dce(Graph(2, [(0, 1)]), 5, 0, [{0}, {0}])
        assert isinstance(kernelize_r(unsat), TrivialNo)

    def test_clamp_then_kernel_equivalence(self):
        # r = 1 puts the threshold at 4; push k above it and compare the
        # pipeline's verdict against plain brute force on the original.
        rng = random.Random(2025)
        for _ in range(80):
            n = rng.randrange(1, 9)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.15
            ]
            lists = [
                {x for x in range(2) if rng.random() < 0.55} for _ in range(n)
            ]
            inst = make_dce(Graph(n, edges), rng.randrange(5, 8), 1, lists)
            result = kernelize_r(inst)
            original = brute_force_solve(inst)
            if isinstance(result, TrivialYes):
                assert original is not None
                validate_solution(inst, result.witness)
            elif isinstance(result, TrivialNo):
                assert original is None
            else:
                k2 = min(inst.k, solution_threshold(inst.r))
                bound = 2 * k2 + inst.r * k2 * (inst.r + 2)
                assert result.instance.graph.vertex_count <= bound
                reduced = brute_force_solve(result.instance)
                assert (original is not None) == (reduced is not None)


@st.composite
def _budget_around_threshold(draw):
    """r in {1, 2}, a budget within two of r(r+1)^2, and a graph of maximum
    degree at most r, small enough for the plain enumeration oracle."""
    r = draw(st.integers(1, 2))
    n = draw(st.integers(1, 6 if r == 1 else 5))
    degree = [0] * n
    edges = []
    for u, v in all_pairs(n):
        if degree[u] < r and degree[v] < r and draw(st.integers(0, 3)) == 0:
            edges.append((u, v))
            degree[u] += 1
            degree[v] += 1
    lists = draw(
        st.lists(
            st.sets(st.integers(0, r), min_size=1, max_size=r + 1), min_size=n, max_size=n
        )
    )
    threshold = solution_threshold(r)
    k = draw(st.integers(threshold - 2, threshold + 2))
    return make_dce(Graph(n, edges), k, r, lists)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_budget_around_threshold())
# Eight isolated vertices that need one edge each: the large branch fires.
@example(make_dce(Graph(8), 5, 1, [{1}] * 8))
# Already satisfied, yet the large branch answers with at least k' edits.
@example(make_dce(Graph(10, [(0, 1)]), 5, 1, [{1}] * 2 + [{0, 1}] * 8))
def test_kernelize_r_keeps_the_answer(inst):
    lists = [set(s) for s in inst.tau.lists]
    expect = naive_dce_min_edits(inst.graph, inst.k, lists, "e+")
    result = kernelize_r(inst)
    if isinstance(result, TrivialYes):
        assert expect is not None
        validate_solution(inst, result.witness)
        assert len(result.witness) >= solution_threshold(inst.r)
    elif isinstance(result, TrivialNo):
        assert expect is None
    else:
        assert (brute_force_solve(result.instance) is None) == (expect is None)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_budget_around_threshold())
@example(make_dce(Graph(8), 5, 1, [{1}] * 8))
# The adjacent pair cannot take the least witness; a third vertex helps.
@example(make_dce(Graph(3, [(0, 1)]), 18, 2, [{2}, {2}, {0, 2}]))
def test_solve_e_plus_is_minimum(inst):
    lists = [set(s) for s in inst.tau.lists]
    expect = naive_dce_min_edits(inst.graph, inst.k, lists, "e+")
    sol = solve_e_plus(inst)
    assert (sol is None) == (expect is None)
    if sol is not None:
        assert len(sol) == expect
        validate_solution(inst, sol)
