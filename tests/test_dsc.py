"""Degree-sequence completion framework and built-in properties."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degkit import dsc
from degkit.dce import EditSolution
from degkit.dsc import (
    DscInstance,
    anonymity_fulfills,
    anonymity_nsc,
    anonymity_property,
    anonymize,
    balanced_property,
    block_set,
    dsc_bound_k,
    dsc_fpt_solve,
    dsc_solve,
    h_index_property,
    pi_nsc_decide,
    regular_property,
    solve,
    validate_completion,
)
from degkit.errors import InternalInvariantError, InvalidInputError, ResourceLimitError
from degkit.generators import gen_random_graph
from degkit.graph import Graph, add_edges, degree_sequence

from oracles import all_pairs, brute_dsc, brute_nsc


def path3() -> Graph:
    return Graph(3, [(0, 1), (1, 2)])


def star3() -> Graph:
    return Graph(4, [(0, 1), (0, 2), (0, 3)])


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    return Graph(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


class TestBlocks:
    def test_block_set_small_graph_keeps_all(self):
        assert block_set(path3(), 1) == {0, 1, 2}

    def test_block_set_caps_isolated(self):
        assert block_set(Graph(100), 1) == {0, 1}

    def test_block_set_zero_budget(self):
        assert block_set(path3(), 0) == set()


class TestFptSolve:
    def test_path_to_triangle(self):
        inst = DscInstance(path3(), 1, regular_property())
        assert dsc_fpt_solve(inst) == {(0, 2)}

    def test_already_regular(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        inst = DscInstance(g, 2, regular_property())
        assert dsc_fpt_solve(inst) == set()

    def test_zero_budget_no(self):
        g = Graph(3, [(0, 1)])
        inst = DscInstance(g, 0, regular_property())
        assert dsc_fpt_solve(inst) is None

    def test_core_cap_guard(self):
        # 100 isolated vertices at k = 40 keep (0 + 2) * 40 = 80 of one block.
        inst = DscInstance(Graph(100), 40, regular_property())
        assert len(block_set(inst.graph, inst.k)) > dsc.CORE_CAP
        with pytest.raises(ResourceLimitError):
            dsc_fpt_solve(inst)

    def test_rerouting_matches_unrestricted_bruteforce(self):
        rng = random.Random(515)
        props = [regular_property(), anonymity_property(2)]
        for _ in range(80):
            g = random_graph(rng.randrange(1, 11), rng.choice([0.0, 0.2, 0.5]), rng)
            k = rng.randrange(0, 3)
            prop = rng.choice(props)
            inst = DscInstance(g, k, prop)
            got = dsc_fpt_solve(inst)
            expect = brute_dsc(g, k, prop.fulfills)
            assert (got is None) == (expect is None)
            if got is not None:
                final = degree_sequence(add_edges(g, got))
                assert prop.fulfills(final)
                assert len(got) <= k


class TestNscDecide:
    def test_regular_completion(self):
        x = pi_nsc_decide(regular_property(), [2, 1, 1], 2, 2)
        assert x == [0, 1, 1]

    def test_target_zero_fulfilled(self):
        assert pi_nsc_decide(regular_property(), [1, 1], 0, 1) == [0, 0]

    def test_regular_pair_absent(self):
        assert pi_nsc_decide(regular_property(), [0, 0], 1, 1) is None

    def test_generic_fallback_h_index(self):
        # Two entries must reach 2; from (1,1,0) that takes total exactly 2.
        prop = h_index_property(2)
        assert pi_nsc_decide(prop, [1, 1, 0], 1, 2) is None
        x = pi_nsc_decide(prop, [1, 1, 0], 2, 2)
        assert x == [1, 1, 0]

    def test_generic_fallback_guard(self):
        prop = balanced_property(1)
        with pytest.raises(ResourceLimitError):
            pi_nsc_decide(prop, [0] * 12, 24, 6, enum_limit=50)

    def test_matches_bruteforce_generic_and_bespoke(self):
        rng = random.Random(808)
        props = [regular_property(), anonymity_property(2), h_index_property(2)]
        for _ in range(120):
            n = rng.randrange(1, 6)
            delta = rng.randrange(0, 5)
            degrees = [rng.randrange(0, delta + 1) for _ in range(n)]
            target = rng.randrange(0, 7)
            prop = rng.choice(props)
            got = pi_nsc_decide(prop, degrees, target, delta)
            expect = brute_nsc(prop.fulfills, degrees, target, delta)
            assert (got is None) == (expect is None)


class TestBoundK:
    def test_ten_isolated_large_yes(self):
        inst = DscInstance(Graph(10), 5, regular_property(), 1)
        edges = dsc_bound_k(inst)
        assert edges is not None
        final = add_edges(Graph(10), edges)
        assert degree_sequence(final) == (1,) * 10
        assert len(edges) == 5

    def test_unsatisfiable_clamps(self):
        # Nine isolated vertices can never become 1-regular (odd parity),
        # and delta' = 1 blocks every other regular target, so the budget
        # clamps to the threshold.
        inst = DscInstance(Graph(9), 6, regular_property(), 1)
        assert dsc_bound_k(inst) is None

    def test_guard_below_threshold(self):
        inst = DscInstance(Graph(10), 4, regular_property(), 1)
        with pytest.raises(InvalidInputError):
            dsc_bound_k(inst)

    def test_witness_respects_cap(self):
        rng = random.Random(44)
        for _ in range(40):
            n = rng.randrange(8, 14)
            inst = DscInstance(Graph(n), rng.randrange(5, 9), regular_property(), 1)
            edges = dsc_bound_k(inst)
            if edges is not None:
                final = add_edges(inst.graph, edges)
                assert final.max_degree() <= 1
                assert regular_property().fulfills(degree_sequence(final))


class TestDscSolve:
    def test_path_with_cap(self):
        inst = DscInstance(path3(), 1, regular_property(), 2)
        assert dsc_solve(inst) == {(0, 2)}

    def test_ten_isolated_matching(self):
        inst = DscInstance(Graph(10), 5, regular_property(), 1)
        edges = dsc_solve(inst)
        assert edges is not None and len(edges) == 5

    def test_fulfilled_instance(self):
        g = Graph(4, [(0, 1), (2, 3)])
        inst = DscInstance(g, 3, regular_property(), 4)
        assert dsc_solve(inst) == set()

    def test_default_delta_prime(self):
        inst = DscInstance(star3(), 2, regular_property())
        assert inst.delta_prime == star3().max_degree() + 2 == 5
        assert inst == DscInstance(star3(), 2, regular_property(), 5)

    def test_large_budget_star_is_fast(self):
        # The numeric pre-filter asks the regular solver about every total
        # 2s, s <= k; each answer must not cost a scan up to the cap.
        star = Graph(200, [(0, v) for v in range(1, 200)])
        start = time.perf_counter()
        assert solve(DscInstance(star, 8000, regular_property())) is None
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_regular_without_numeric_witness_is_no(self, seed):
        # No common degree c >= max degree has 24c - sum(d) even and at most
        # 2k, so the numeric relaxation refutes the instance; enumerating
        # the block-set instead exceeds the candidate limit.
        g = gen_random_graph(24, 0.3, seed)
        inst = DscInstance(g, 4, regular_property(), g.max_degree() + 4)
        assert dsc_solve(inst) is None

    def test_matches_bruteforce_with_cap(self):
        rng = random.Random(2718)
        for _ in range(120):
            g = random_graph(rng.randrange(1, 9), rng.choice([0.0, 0.3, 0.6]), rng)
            k = rng.randrange(0, 4)
            delta = g.max_degree() + rng.randrange(0, k + 1)
            prop = rng.choice([regular_property(), anonymity_property(2)])
            got = dsc_solve(DscInstance(g, k, prop, delta))
            expect = brute_dsc(g, k, prop.fulfills, delta)
            assert (got is None) == (expect is None), (list(g.edges()), k, delta, prop.name)
            if got is not None:
                final = add_edges(g, got)
                assert len(got) <= k
                assert final.max_degree() <= delta
                assert prop.fulfills(degree_sequence(final))

    def test_wrong_search_answer_is_a_defect(self, monkeypatch):
        monkeypatch.setattr(dsc, "dsc_fpt_solve", lambda *args, **kwargs: {(0, 1)})
        with pytest.raises(InternalInvariantError):
            dsc_solve(DscInstance(path3(), 1, regular_property(), 2))

    def test_wrong_large_answer_is_a_defect(self, monkeypatch):
        # Budget 5 is above the threshold 4 of delta' = 1, so the large
        # branch answers; one edge leaves eight of ten vertices at degree 0.
        monkeypatch.setattr(dsc, "realize_large", lambda *args: {(0, 1)})
        with pytest.raises(InternalInvariantError):
            dsc_solve(DscInstance(Graph(10), 5, regular_property(), 1))


@st.composite
def _small_dsc(draw):
    n = draw(st.integers(1, 7))
    edges = [e for e in all_pairs(n) if draw(st.integers(0, 2)) == 0]
    prop = draw(st.sampled_from([regular_property(), anonymity_property(2)]))
    return Graph(n, edges), draw(st.integers(0, 3)), prop


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_small_dsc())
def test_default_cap_restricts_nothing(case):
    g, k, prop = case
    got = dsc_solve(DscInstance(g, k, prop))
    assert got == dsc_solve(DscInstance(g, k, prop, g.max_degree() + k))
    assert (got is None) == (brute_dsc(g, k, prop.fulfills) is None)


class TestValidateCompletion:
    def test_accepts_the_closing_edge(self):
        inst = DscInstance(path3(), 1, regular_property(), 2)
        validate_completion(inst, EditSolution((("add", 0, 2),)))

    @pytest.mark.parametrize(
        "inst, edits",
        [
            (DscInstance(path3(), 1, regular_property(), 2), (("del", 0, 1),)),
            (DscInstance(Graph(4), 1, regular_property(), 1), (("add", 0, 1), ("add", 2, 3))),
            (DscInstance(path3(), 1, regular_property(), 2), (("add", 0, 1),)),
            (
                DscInstance(Graph(3), 3, regular_property(), 1),
                (("add", 0, 1), ("add", 0, 2), ("add", 1, 2)),
            ),
            (DscInstance(path3(), 1, anonymity_property(2), 2), ()),
        ],
        ids=["deletion", "over-budget", "present-edge", "above-cap", "property"],
    )
    def test_rejects(self, inst, edits):
        with pytest.raises(InvalidInputError):
            validate_completion(inst, EditSolution(edits))


class TestAnonymity:
    def test_fulfills_examples(self):
        assert not anonymity_fulfills((3, 1, 1, 1), 2)
        assert anonymity_fulfills((3, 3, 2, 2), 2)
        assert anonymity_fulfills((3, 1, 1, 1), 1)

    def test_fulfills_guard(self):
        with pytest.raises(InvalidInputError):
            anonymity_fulfills((1, 1), 0)

    def test_nsc_leaf_raise(self):
        x = anonymity_nsc([3, 1, 1, 1], 2, 2, 3)
        assert x is not None
        final = sorted((d + v for d, v in zip([3, 1, 1, 1], x)), reverse=True)
        assert final == [3, 3, 1, 1]

    def test_nsc_zero_target(self):
        assert anonymity_nsc([2, 2, 1, 1], 2, 0, 2) == [0, 0, 0, 0]

    def test_nsc_level_above_n(self):
        for target in range(5):
            assert anonymity_nsc([1, 1], 3, target, 4) is None

    def test_nsc_empty(self):
        assert anonymity_nsc([], 2, 0, 3) == []
        assert anonymity_nsc([], 2, 2, 3) is None

    def test_nsc_matches_bruteforce_exhaustively(self):
        # Every degree multiset with n <= 6 and entries <= 4, every target
        # up to 8, every anonymity level up to 3.
        import itertools

        props = {k: anonymity_property(k) for k in (1, 2, 3)}
        for n in range(0, 7):
            for degrees in itertools.combinations_with_replacement(range(5), n):
                degrees = tuple(sorted(degrees, reverse=True))
                for k_anon in (1, 2, 3):
                    for target in range(0, 9):
                        got = anonymity_nsc(list(degrees), k_anon, target, 4)
                        expect = brute_nsc(props[k_anon].fulfills, degrees, target, 4)
                        assert (got is None) == (expect is None), (degrees, k_anon, target)

    def test_nsc_long_sequence(self):
        # 1000 runs of two: deeper than the interpreter's recursion limit
        # if the runs were followed by recursive calls.
        assert anonymity_nsc([2] * 2000, 2, 0, 2) == [0] * 2000
        x = anonymity_nsc([2] * 1998 + [1, 1], 3, 2, 3)
        assert x is not None and sum(x) == 2
        assert anonymity_fulfills([d + v for d, v in zip([2] * 1998 + [1, 1], x)], 3)

    def test_nsc_matches_bruteforce_random_orderings(self):
        # Same agreement when the input degrees arrive unsorted.
        rng = random.Random(1123)
        prop_cache = {}
        for _ in range(150):
            n = rng.randrange(1, 6)
            delta = rng.randrange(0, 4)
            degrees = [rng.randrange(0, delta + 1) for _ in range(n)]
            target = rng.randrange(0, 7)
            k_anon = rng.randrange(1, 4)
            fulfills = prop_cache.setdefault(
                k_anon, anonymity_property(k_anon)
            ).fulfills
            got = anonymity_nsc(degrees, k_anon, target, delta)
            expect = brute_nsc(fulfills, degrees, target, delta)
            assert (got is None) == (expect is None), (degrees, k_anon, target, delta)


class TestAnonymize:
    def test_star_budget_two(self):
        edges = anonymize(star3(), 2, 2)
        assert edges is not None and len(edges) == 2
        final = degree_sequence(add_edges(star3(), edges))
        assert anonymity_fulfills(final, 2)

    def test_star_budget_one_absent(self):
        assert anonymize(star3(), 2, 1) is None

    def test_already_anonymous(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert anonymize(g, 2, 3) == set()

    @pytest.mark.parametrize("k_anon", [1, 2])
    def test_large_cycle_budget_zero(self, k_anon):
        n = 2000
        g = Graph(n, [(i, (i + 1) % n) for i in range(n)])
        assert anonymize(g, k_anon, 0) == set()

    def test_large_path_small_budget(self):
        # The end vertices are the only ones of degree 1; closing the path
        # into a cycle is the one single addition that makes it 3-anonymous.
        n = 2000
        g = Graph(n, [(i, i + 1) for i in range(n - 1)])
        assert anonymize(g, 3, 0) is None
        assert anonymize(g, 3, 1) == {(0, n - 1)}

    def test_matches_bruteforce(self):
        rng = random.Random(31415)
        for _ in range(60):
            g = random_graph(rng.randrange(1, 8), rng.choice([0.0, 0.3, 0.6]), rng)
            k_anon = rng.randrange(1, 4)
            s = rng.randrange(0, 4)
            got = anonymize(g, k_anon, s)
            expect = brute_dsc(
                g, s, lambda t, ka=k_anon: anonymity_fulfills(t, ka)
            )
            assert (got is None) == (expect is None)
            if got is not None:
                assert len(got) <= s
                assert anonymity_fulfills(degree_sequence(add_edges(g, got)), k_anon)


class TestBuiltins:
    def test_h_index(self):
        prop = h_index_property(2)
        assert prop.fulfills((3, 2, 1))
        assert not prop.fulfills((3, 1, 1))

    def test_balanced(self):
        prop = balanced_property(2)
        assert prop.fulfills((2, 2, 1, 1))
        assert not prop.fulfills((2, 1, 1))

    def test_balanced_requires_positive(self):
        with pytest.raises(InvalidInputError):
            balanced_property(0)

    def test_h_index_dsc_end_to_end(self):
        # One edge plus two isolated vertices; h-index 2 needs two additions
        # (two vertices must reach degree 2) and one is provably short.
        g = Graph(4, [(0, 1)])
        assert dsc_solve(DscInstance(g, 1, h_index_property(2), 3)) is None
        edges = dsc_solve(DscInstance(g, 2, h_index_property(2), 3))
        assert edges is not None and len(edges) == 2
        final = degree_sequence(add_edges(g, edges))
        assert h_index_property(2).fulfills(final)
