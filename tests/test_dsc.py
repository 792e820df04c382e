"""Degree-sequence completion framework and built-in properties."""

import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degkit import dsc, factors
from degkit.dce import EditSolution, additions
from degkit.dsc import (
    DscInstance,
    anonymity_property,
    anonymize,
    balanced_property,
    block_set,
    dsc_fpt_solve,
    dsc_solve,
    h_index_property,
    pi_nsc_decide,
    regular_property,
    solve,
    validate_completion,
)
from degkit.errors import InternalInvariantError, InvalidInputError, ResourceLimitError
from degkit.factors import realize_least, solution_threshold
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

    def test_enumeration_limit(self):
        # The empty set and then one more candidate exceed a limit of 1.
        inst = DscInstance(path3(), 1, regular_property())
        with pytest.raises(ResourceLimitError, match="exceeded 1 edge sets"):
            dsc_fpt_solve(inst, enum_limit=1)

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


# Every built-in property, with the parameters small inputs can meet.
_PROPERTIES = st.one_of(
    st.just(regular_property()),
    st.integers(1, 3).map(anonymity_property),
    st.integers(0, 3).map(h_index_property),
    st.integers(1, 3).map(balanced_property),
)


@st.composite
def _numeric_case(draw):
    """Degrees up to one above the cap, which every solver must refuse, and
    odd and even targets."""
    delta = draw(st.integers(0, 4))
    degrees = draw(st.lists(st.integers(0, delta + 1), max_size=6))
    return draw(_PROPERTIES), degrees, draw(st.integers(0, 9)), delta


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_numeric_case())
@example((balanced_property(2), [3, 1, 1, 0], 3, 3))
@example((h_index_property(3), [2, 2, 2], 3, 3))
@example((h_index_property(2), [3, 0], 2, 2))
def test_numeric_solvers_match_bruteforce(case):
    prop, degrees, target, delta = case
    got = pi_nsc_decide(prop, degrees, target, delta)
    expect = brute_nsc(prop.fulfills, degrees, target, delta)
    assert (got is None) == (expect is None), (prop.name, degrees, target, delta)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_numeric_case(), st.integers(0, 3), st.integers(1, 2))
def test_numeric_solvers_find_the_first_total(case, start, step):
    # One solver call answers a whole range: the first total with a witness.
    prop, degrees, stop, delta = case
    totals = range(start, stop + 1, step)
    found = prop.nsc_solver(degrees, totals, delta)
    expect = next(
        (t for t in totals if brute_nsc(prop.fulfills, degrees, t, delta) is not None), None
    )
    assert (None if found is None else found[0]) == expect, (prop.name, degrees, totals, delta)


def regular_witness(g: Graph, k: int, delta: int):
    """regular's numeric witnesses as the realization loop walks them."""

    def witness(lo):
        found = regular_property().nsc_solver(g.degrees(), range(2 * lo, 2 * k + 1, 2), delta)
        return None if found is None else (found[0] // 2, found[1])

    return witness


class TestBoundK:
    """The realization loop from the threshold delta'(delta' + 1)^2 up, and
    the clamp below it."""

    def test_ten_isolated_large_yes(self):
        # From the threshold 4 of delta' = 1 on, the one witness is the
        # common degree 1: a perfect matching.
        edges = realize_least(Graph(10), regular_witness(Graph(10), 5, 1), 4, 4, True)
        assert edges is not None
        final = add_edges(Graph(10), edges)
        assert degree_sequence(final) == (1,) * 10
        assert len(edges) == 5

    def test_unsatisfiable_clamps(self):
        # Nine isolated vertices can never become 1-regular (odd parity),
        # and delta' = 1 blocks every other regular target from the
        # threshold on, so the budget clamps to the threshold.
        assert realize_least(Graph(9), regular_witness(Graph(9), 6, 1), 4, 4, True) is None

    def test_guard_below_threshold(self):
        # The adjacent pair cannot both rise by one: below the threshold
        # that is no defect and the search decides, at the threshold it is.
        g = Graph(2, [(0, 1)])

        def witness(lo):
            return (1, [1, 1]) if lo <= 1 else None

        assert realize_least(g, witness, 0, 4, False) is None
        assert realize_least(g, witness, 0, 4, False, lambda: {(0, 1)}) == {(0, 1)}
        with pytest.raises(InternalInvariantError):
            realize_least(g, witness, 0, 1, False)

    def test_witness_respects_cap(self):
        # Random matchings, whose 1-regular completion often lies at or
        # above the threshold 4 of delta' = 1.
        rng = random.Random(44)
        large = 0
        for _ in range(40):
            n = rng.randrange(8, 14)
            g = Graph(n, [(2 * i, 2 * i + 1) for i in range(rng.randrange(0, 3))])
            inst = DscInstance(g, rng.randrange(5, 9), regular_property(), 1)
            edges = dsc_solve(inst)
            if edges:
                large += len(edges) >= solution_threshold(1)
                final = add_edges(inst.graph, edges)
                assert final.max_degree() <= 1
                assert regular_property().fulfills(degree_sequence(final))
        assert large >= 5


class TestDscSolve:
    def test_path_with_cap(self):
        inst = DscInstance(path3(), 1, regular_property(), 2)
        assert dsc_solve(inst) == {(0, 2)}

    def test_ten_isolated_matching(self):
        # Ten isolated vertices are already 0-regular, so the minimum is no
        # edge at all; the 5-edge perfect matching of the large branch is
        # covered by TestBoundK.test_ten_isolated_large_yes.
        inst = DscInstance(Graph(10), 5, regular_property(), 1)
        assert dsc_solve(inst) == set()

    def test_fulfilled_instance(self):
        g = Graph(4, [(0, 1), (2, 3)])
        inst = DscInstance(g, 3, regular_property(), 4)
        assert dsc_solve(inst) == set()

    def test_default_delta_prime(self):
        inst = DscInstance(star3(), 2, regular_property())
        assert inst.delta_prime == star3().max_degree() + 2 == 5
        assert inst == DscInstance(star3(), 2, regular_property(), 5)

    def test_cap_below_the_maximum_degree(self):
        with pytest.raises(InvalidInputError, match="below the current maximum degree"):
            DscInstance(star3(), 2, regular_property(), 2)

    def test_large_budget_star_is_fast(self):
        # Already the least common degree 199 needs a rise above 2k, so the
        # loop tries no witness instead of scanning degrees up to the cap.
        star = Graph(200, [(0, v) for v in range(1, 200)])
        start = time.perf_counter()
        assert solve(DscInstance(star, 8000, regular_property())) is None
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_regular_without_numeric_witness_is_no(self, seed):
        # No common degree c >= max degree has 24c - sum(d) even and at most
        # 2k, so the loop tries no factor; enumerating the block-set
        # instead exceeds the candidate limit.
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
        # The star has a numeric witness at budget 2, so the enumeration
        # answers; the edge 1-2 leaves degrees 3 and 1 alone.
        calls = []

        def wrong(*args, **kwargs):
            calls.append(args)
            return {(1, 2)}

        monkeypatch.setattr(dsc, "dsc_fpt_solve", wrong)
        with pytest.raises(InternalInvariantError):
            dsc_solve(DscInstance(star3(), 2, anonymity_property(2)))
        assert len(calls) == 1

    def test_wrong_large_answer_is_a_defect(self, monkeypatch):
        # The least witness, common degree 1, lies at the threshold 4 of
        # delta' = 1; the two edges lift vertex 2 alone to degree 2, above
        # the cap.
        calls = []

        def wrong(*args):
            calls.append(args)
            return {(2, 3), (2, 4)}

        monkeypatch.setattr(factors, "realize_demands", wrong)
        with pytest.raises(InternalInvariantError):
            dsc_solve(DscInstance(Graph(10, [(0, 1)]), 5, regular_property(), 1))
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "g, prop",
        [(Graph(10, [(0, 1)]), regular_property()), (Graph(10), anonymity_property(2))],
        ids=["regular", "anon-2"],
    )
    def test_failed_large_realization_is_a_defect(self, monkeypatch, g, prop):
        # From the threshold 4 of delta' = 1 on a witness always realizes:
        # regular's least witness lies there, and anon-2's empty witness
        # failing sends the loop there.
        monkeypatch.setattr(factors, "realize_demands", lambda *args: None)
        with pytest.raises(InternalInvariantError):
            dsc_solve(DscInstance(g, 5, prop, 1))

    def test_wrong_realized_answer_is_a_defect(self, monkeypatch):
        # The graph is 1-regular, so the loop asks for the zero factor;
        # the edge 0-2 leaves degrees 2, 1, 2, 1.
        monkeypatch.setattr(factors, "realize_demands", lambda *args: {(0, 2)})
        with pytest.raises(InternalInvariantError):
            dsc_solve(DscInstance(Graph(4, [(0, 1), (2, 3)]), 1, regular_property()))

    def test_regular_skips_the_search(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("regular must decide without searching")

        for name in ("dsc_fpt_solve", "pi_nsc_decide"):
            monkeypatch.setattr(dsc, name, fail)
        assert dsc_solve(DscInstance(path3(), 1, regular_property(), 2)) == {(0, 2)}
        assert dsc_solve(DscInstance(Graph(10), 5, regular_property(), 1)) == set()
        # One edge among three vertices: degree 1 is an odd rise, and the
        # cap 1 forbids degree 2.
        assert dsc_solve(DscInstance(Graph(3, [(0, 1)]), 6, regular_property(), 1)) is None


@st.composite
def _small_regular(draw):
    """Small graphs with caps of 0 to 2 above the maximum degree; budgets
    fall on both sides of the large-branch threshold delta'(delta' + 1)^2
    when delta' is 0 or 1."""
    n = draw(st.integers(0, 6))
    edges = [e for e in all_pairs(n) if draw(st.integers(0, 3)) == 0]
    g = Graph(n, edges)
    return g, draw(st.integers(0, 5)), g.max_degree() + draw(st.integers(0, 2))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_small_regular())
@example((Graph(6), 5, 1))
@example((Graph(5), 5, 1))
@example((Graph(4, [(0, 1)]), 2, 1))
def test_regular_matches_bruteforce(case):
    g, k, delta = case
    prop = regular_property()
    got = dsc_solve(DscInstance(g, k, prop, delta))
    expect = brute_dsc(g, k, prop.fulfills, delta)
    assert (got is None) == (expect is None)
    if got is not None:
        assert len(got) == len(expect)
        final = add_edges(g, got)
        assert final.max_degree() <= delta
        assert prop.fulfills(degree_sequence(final))


@st.composite
def _small_hindex_balanced(draw):
    """Small graphs with caps of 0 to 2 above the maximum degree; budgets
    fall on both sides of the large-branch threshold delta'(delta' + 1)^2
    when delta' is 0 or 1."""
    n = draw(st.integers(0, 6))
    edges = [e for e in all_pairs(n) if draw(st.integers(0, 3)) == 0]
    g = Graph(n, edges)
    prop = draw(
        st.one_of(
            st.integers(0, 3).map(h_index_property),
            st.integers(1, 3).map(balanced_property),
        )
    )
    return g, draw(st.integers(0, 5)), g.max_degree() + draw(st.integers(0, 2)), prop


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_small_hindex_balanced())
@example((Graph(6), 5, 1, h_index_property(1)))
@example((Graph(6), 5, 1, balanced_property(3)))
@example((Graph(4, [(0, 1)]), 2, 2, h_index_property(2)))
@example((Graph(3), 5, 0, balanced_property(3)))
def test_hindex_balanced_match_bruteforce(case):
    g, k, delta, prop = case
    got = dsc_solve(DscInstance(g, k, prop, delta))
    expect = brute_dsc(g, k, prop.fulfills, delta)
    assert (got is None) == (expect is None), (list(g.edges()), k, delta, prop.name)
    if got is not None:
        final = add_edges(g, got)
        assert len(got) <= k
        assert final.max_degree() <= delta
        assert prop.fulfills(degree_sequence(final))


@st.composite
def _small_dsc(draw):
    n = draw(st.integers(1, 7))
    edges = [e for e in all_pairs(n) if draw(st.integers(0, 2)) == 0]
    prop = draw(
        st.sampled_from(
            [regular_property(), anonymity_property(2), h_index_property(2), balanced_property(2)]
        )
    )
    return Graph(n, edges), draw(st.integers(0, 3)), prop


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_small_dsc())
def test_default_cap_restricts_nothing(case):
    g, k, prop = case
    got = dsc_solve(DscInstance(g, k, prop))
    assert got == dsc_solve(DscInstance(g, k, prop, g.max_degree() + k))
    assert (got is None) == (brute_dsc(g, k, prop.fulfills) is None)


@st.composite
def _dsc_around_threshold(draw):
    """delta' in {1, 2}, a budget within two of delta'(delta' + 1)^2, and a
    graph of maximum degree at most delta', small enough for brute_dsc."""
    delta = draw(st.integers(1, 2))
    n = draw(st.integers(0, 6 if delta == 1 else 5))
    degree = [0] * n
    edges = []
    for u, v in all_pairs(n):
        if degree[u] < delta and degree[v] < delta and draw(st.integers(0, 3)) == 0:
            edges.append((u, v))
            degree[u] += 1
            degree[v] += 1
    prop = draw(
        st.sampled_from(
            [regular_property(), anonymity_property(2), anonymity_property(3),
             h_index_property(2), balanced_property(1), balanced_property(2)]
        )
    )
    threshold = solution_threshold(delta)
    return Graph(n, edges), draw(st.integers(threshold - 2, threshold + 2)), delta, prop


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_dsc_around_threshold())
@example((Graph(5), 4, 1, anonymity_property(3)))
@example((Graph(4, [(0, 1), (1, 2)]), 16, 2, h_index_property(2)))
def test_answers_are_minimum_up_to_the_threshold(case):
    # Above the threshold only a realization from it up may exceed the
    # minimum; regular's answers never do.
    g, k, delta, prop = case
    got = dsc_solve(DscInstance(g, k, prop, delta))
    expect = brute_dsc(g, k, prop.fulfills, delta)
    assert (got is None) == (expect is None), (list(g.edges()), k, delta, prop.name)
    if got is not None:
        validate_completion(DscInstance(g, k, prop, delta), additions(got))
        if k <= solution_threshold(delta) or prop.one_per_total:
            assert len(got) == len(expect), (list(g.edges()), k, delta, prop.name)


def probe_anonymize_input(rng: random.Random):
    """G(n, p) with n from 8 to 300, k_anon from 2 to 4, budget 1 to 60."""
    n = rng.randrange(8, 301)
    p = rng.choice([0.02, 0.05, 0.1, 0.3])
    g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
    return g, rng.randrange(2, 5), rng.randrange(1, 61)


def test_probe_anonymize_is_decided_minimally():
    # The eleventh input of the probe (n = 101, k_anon = 3, budget 27): its
    # block-set exceeds the cap of 64 vertices, while its least numeric
    # witness realizes, and no completion has fewer edges than that total.
    rng = random.Random(7)
    for _ in range(11):
        g, k_anon, budget = probe_anonymize_input(rng)
    assert (g.vertex_count, k_anon, budget) == (101, 3, 27)
    start = time.perf_counter()
    edges = anonymize(g, k_anon, budget)
    assert time.perf_counter() - start < 1.0
    prop = anonymity_property(k_anon)
    inst = DscInstance(g, budget, prop)
    validate_completion(inst, additions(edges))
    least, _ = prop.nsc_solver(g.degrees(), range(0, 2 * budget + 1, 2), inst.delta_prime)
    assert len(edges) == least // 2 > 0
    with pytest.raises(ResourceLimitError):
        dsc_fpt_solve(inst)


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
        assert not anonymity_property(2).fulfills((3, 1, 1, 1))
        assert anonymity_property(2).fulfills((3, 3, 2, 2))
        assert anonymity_property(1).fulfills((3, 1, 1, 1))

    def test_fulfills_guard(self):
        with pytest.raises(InvalidInputError):
            anonymity_property(0).fulfills((1, 1))

    def test_nsc_leaf_raise(self):
        x = pi_nsc_decide(anonymity_property(2), [3, 1, 1, 1], 2, 3)
        assert x is not None
        final = sorted((d + v for d, v in zip([3, 1, 1, 1], x)), reverse=True)
        assert final == [3, 3, 1, 1]

    def test_nsc_zero_target(self):
        assert pi_nsc_decide(anonymity_property(2), [2, 2, 1, 1], 0, 2) == [0, 0, 0, 0]

    def test_nsc_level_above_n(self):
        for target in range(5):
            assert pi_nsc_decide(anonymity_property(3), [1, 1], target, 4) is None

    def test_nsc_empty(self):
        assert pi_nsc_decide(anonymity_property(2), [], 0, 3) == []
        assert pi_nsc_decide(anonymity_property(2), [], 2, 3) is None

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
                        got = pi_nsc_decide(props[k_anon], list(degrees), target, 4)
                        expect = brute_nsc(props[k_anon].fulfills, degrees, target, 4)
                        assert (got is None) == (expect is None), (degrees, k_anon, target)

    def test_nsc_long_sequence(self):
        # 1000 runs of two: deeper than the interpreter's recursion limit
        # if the runs were followed by recursive calls.
        assert pi_nsc_decide(anonymity_property(2), [2] * 2000, 0, 2) == [0] * 2000
        x = pi_nsc_decide(anonymity_property(3), [2] * 1998 + [1, 1], 2, 3)
        assert x is not None and sum(x) == 2
        assert anonymity_property(3).fulfills([d + v for d, v in zip([2] * 1998 + [1, 1], x)])

    def test_nsc_huge_cap(self):
        # The table is as wide as the largest reachable degree, not the cap:
        # a cap of 10^12 would otherwise allocate 10^12 cells per row.
        assert pi_nsc_decide(anonymity_property(2), [3, 1, 1, 1], 4, 10**12) == [0, 2, 1, 1]
        edges = dsc_solve(DscInstance(star3(), 2, anonymity_property(2), 10**12))
        assert edges is not None and len(edges) == 2

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
            prop = prop_cache.setdefault(k_anon, anonymity_property(k_anon))
            got = pi_nsc_decide(prop, degrees, target, delta)
            expect = brute_nsc(prop.fulfills, degrees, target, delta)
            assert (got is None) == (expect is None), (degrees, k_anon, target, delta)


class TestAnonymize:
    def test_star_budget_two(self):
        edges = anonymize(star3(), 2, 2)
        assert edges is not None and len(edges) == 2
        final = degree_sequence(add_edges(star3(), edges))
        assert anonymity_property(2).fulfills(final)

    def test_star_budget_one_absent(self):
        assert anonymize(star3(), 2, 1) is None

    def test_already_anonymous(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert anonymize(g, 2, 3) == set()

    def test_already_anonymous_generous_budget(self):
        # The first witness is at total 0, so the run table stays one
        # column wide whatever the budget and its default cap.
        start = time.perf_counter()
        assert anonymize(Graph(4), 2, 10**6) == set()
        assert time.perf_counter() - start < 1.0

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
            expect = brute_dsc(g, s, anonymity_property(k_anon).fulfills)
            assert (got is None) == (expect is None)
            if got is not None:
                assert len(got) <= s
                assert anonymity_property(k_anon).fulfills(degree_sequence(add_edges(g, got)))


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

    @pytest.mark.parametrize(
        "inst, decided_yes",
        [
            (DscInstance(Graph(40), 19, h_index_property(1), 2), True),
            (DscInstance(Graph(30), 19, h_index_property(2), 2), True),
            (DscInstance(Graph(40), 19, balanced_property(40), 2), True),
            (DscInstance(Graph(1000), 500, balanced_property(1)), False),
        ],
        ids=["hindex-1", "hindex-2", "balanced-40", "balanced-1-n1000"],
    )
    def test_decided_by_the_numeric_solver(self, inst, decided_yes):
        # Budgets above the threshold 18 of delta' = 2 may take the large
        # branch; 40 isolated vertices are already balanced; 1000 distinct
        # degrees cannot fit under the cap 500, which the numeric NO finds
        # without enumerating. The answer need not be minimum, only valid.
        start = time.perf_counter()
        edges = dsc_solve(inst)
        assert time.perf_counter() - start < 1.0
        assert (edges is not None) == decided_yes
        if edges is not None:
            validate_completion(inst, additions(edges))

    @pytest.mark.parametrize(
        "inst, decided_yes",
        [
            (DscInstance(Graph(4), 10**6, anonymity_property(2)), True),
            (DscInstance(Graph(4), 10**6, anonymity_property(5)), False),
            (DscInstance(Graph(4), 10**6, balanced_property(3)), False),
            (DscInstance(Graph(5), 10**6, balanced_property(1)), False),
            (DscInstance(Graph(1000), 10**6, balanced_property(1), 500), False),
        ],
        ids=["anon-2", "anon-5", "balanced-3", "balanced-1", "balanced-1-n1000"],
    )
    def test_generous_budget_is_fast(self, inst, decided_yes):
        # The default cap grows with the budget; the run table widens only
        # until its first witness, stops at the widest total a first witness
        # can have, and is skipped when no split into runs fits the cap.
        # Five distinct degrees pass the numeric test but no simple graph
        # has them; the block-set search refutes them without running its
        # size loop up to the budget.
        start = time.perf_counter()
        edges = dsc_solve(inst)
        assert time.perf_counter() - start < 1.0
        assert (edges is not None) == decided_yes
        if edges is not None:
            validate_completion(inst, additions(edges))

    def test_h_index_spreads_the_rest(self):
        # One vertex of degree 1 suffices, but an edge raises two vertices:
        # the rest of the even total goes to a second vertex, not onto the
        # first, so the least witness realizes as one edge.
        inst = DscInstance(Graph(40), 19, h_index_property(1), 2)
        assert pi_nsc_decide(inst.prop, [0] * 40, 2, 2) == [1, 1] + [0] * 38
        assert dsc_solve(inst) == {(0, 1)}

    def test_h_index_spreads_a_large_rest_fast(self):
        # A rest of 10^6 over 20,000 vertices: every vertex rises by 50.
        start = time.perf_counter()
        x = pi_nsc_decide(h_index_property(3), [5] * 3 + [0] * 20_000, 10**6, 10**6)
        assert time.perf_counter() - start < 1.0
        assert x is not None and sum(x) == 10**6
        assert max(x) - min(x[3:]) <= 1

    def test_h_index_dsc_end_to_end(self):
        # One edge plus two isolated vertices; h-index 2 needs two additions
        # (two vertices must reach degree 2) and one is provably short.
        g = Graph(4, [(0, 1)])
        assert dsc_solve(DscInstance(g, 1, h_index_property(2), 3)) is None
        edges = dsc_solve(DscInstance(g, 2, h_index_property(2), 3))
        assert edges is not None and len(edges) == 2
        final = degree_sequence(add_edges(g, edges))
        assert h_index_property(2).fulfills(final)
