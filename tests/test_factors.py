"""f-factor search against 2^m subgraph enumeration, and the density bound."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degkit import factors
from degkit.errors import InternalInvariantError, InvalidInputError
from degkit.factors import f_factor
from degkit.graph import Graph
from degkit.matching import max_matching

from oracles import brute_f_factor_exists, is_valid_factor, kt_condition_holds


def cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    return Graph(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


class TestFFactor:
    def test_c4_all_ones_is_perfect_matching(self):
        factor = f_factor(cycle(4), [1, 1, 1, 1])
        assert factor is not None
        assert is_valid_factor(cycle(4), [1, 1, 1, 1], factor)
        assert len(factor) == 2

    def test_k3_all_ones_odd_sum(self):
        assert f_factor(complete(3), [1, 1, 1]) is None

    def test_k4_all_twos_is_four_cycle(self):
        # Derived by enumerating all 2^6 edge subsets of K4.
        g = complete(4)
        assert brute_f_factor_exists(g, [2, 2, 2, 2])
        factor = f_factor(g, [2, 2, 2, 2])
        assert factor is not None
        assert is_valid_factor(g, [2, 2, 2, 2], factor)
        assert len(factor) == 4

    def test_excess_demand_absent(self):
        assert f_factor(cycle(4), [3, 1, 1, 1]) is None

    def test_negative_demand_absent(self):
        assert f_factor(cycle(4), [-1, 1, 1, 1]) is None

    def test_zero_demand(self):
        assert f_factor(cycle(4), [0, 0, 0, 0]) == set()

    def test_zero_demand_vertices_excluded(self):
        # Demand sits on the two ends of a path; middle vertex must stay out.
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        factor = f_factor(g, [1, 0, 0, 1])
        assert factor == {(0, 3)}

    def test_wrong_length(self):
        with pytest.raises(InvalidInputError):
            f_factor(cycle(4), [1, 1])

    def test_matches_bruteforce_on_random_graphs(self):
        rng = random.Random(9431)
        for _ in range(200):
            n = rng.randrange(1, 8)
            g = random_graph(n, rng.choice([0.2, 0.4, 0.7]), rng)
            if g.edge_count > 18:
                continue
            f = [rng.randrange(0, g.degree(v) + 2) for v in range(n)]
            found = f_factor(g, f)
            exists = brute_f_factor_exists(g, f)
            assert (found is not None) == exists
            if found is not None:
                assert is_valid_factor(g, f, found)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_bruteforce_hypothesis(self, data):
        n = data.draw(st.integers(1, 7))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [e for e in pairs if data.draw(st.booleans())]
        g = Graph(n, edges)
        f = [data.draw(st.integers(0, g.degree(v) + 1)) for v in range(n)]
        found = f_factor(g, f)
        assert (found is not None) == brute_f_factor_exists(g, f)
        if found is not None:
            assert is_valid_factor(g, f, found)

    def test_half_degree_factor_of_dense_graph_is_fast(self):
        # G(70, 1/2) with f = deg/2: the gadget has about 3.6k vertices and
        # needs blossom contractions; a search that resets or relabels all
        # of them every time takes well over 5 s.
        g = random_graph(70, 0.5, random.Random(70))
        f = [d // 2 for d in g.degrees()]
        if sum(f) % 2 == 1:
            f[0] += 1
        start = time.perf_counter()
        found = f_factor(g, f)
        elapsed = time.perf_counter() - start
        assert found is not None and is_valid_factor(g, f, found)
        assert elapsed < 5.0

    def test_fifth_degree_factor_of_a_few_hundred_vertices_is_fast(self):
        # G(300, 1/2) with f = round(deg/5): the gadget has about 54k
        # vertices. One single-root augmenting search per exposed vertex took
        # 18 s on this instance (2-core VM, CPython 3.11); phases of one
        # forest from all of them take about half a second.
        g = random_graph(300, 0.5, random.Random(300))
        f = [round(d / 5) for d in g.degrees()]
        if sum(f) % 2 == 1:
            f[0] += 1
        start = time.perf_counter()
        found = f_factor(g, f)
        elapsed = time.perf_counter() - start
        assert found is not None and is_valid_factor(g, f, found)
        assert elapsed < 5.0

    @pytest.mark.parametrize("wrong", [{(0, 2)}, {(0, 1)}])
    def test_a_wrong_factor_is_caught(self, monkeypatch, wrong):
        # C4 with all demands 1 takes the gadget's answer as it is, so a
        # non-edge or a short degree there must not come back as a factor.
        monkeypatch.setattr(factors, "_factor_via_gadget", lambda g, h: set(wrong))
        with pytest.raises(InternalInvariantError):
            f_factor(cycle(4), [1, 1, 1, 1])

    def test_all_ones_iff_perfect_matching(self):
        rng = random.Random(77)
        for _ in range(60):
            n = rng.randrange(1, 9)
            g = random_graph(n, 0.5, rng)
            factor = f_factor(g, [1] * n)
            perfect = 2 * len(max_matching(g)) == g.vertex_count
            assert (factor is not None) == perfect


class TestKtCondition:
    def test_paper_bound_case(self):
        # n >= (r+1)^2 with min degree n - r - 1: (9, 6, 2) qualifies.
        assert kt_condition_holds(9, 6, 2)

    def test_too_few_vertices(self):
        assert not kt_condition_holds(8, 8, 2)

    def test_min_degree_short(self):
        assert not kt_condition_holds(9, 5, 2)

    def test_requires_positive_r(self):
        with pytest.raises(InvalidInputError):
            kt_condition_holds(9, 6, 0)

    def test_sufficiency_on_random_dense_graphs(self):
        # Whenever the condition holds and demands are in {1..r} with even
        # sum, a factor must exist.
        rng = random.Random(5150)
        for _ in range(60):
            r = rng.choice([1, 2])
            n = rng.randrange((r + 1) ** 2, (r + 1) ** 2 + 8)
            # Keep graphs dense: delete a few disjoint-ish edges from K_n.
            missing = set()
            for v in rng.sample(range(n), min(r, n)):
                w = rng.randrange(n)
                if w != v:
                    missing.add((min(v, w), max(v, w)))
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if (u, v) not in missing
            ]
            g = Graph(n, edges)
            if not kt_condition_holds(n, min(g.degrees()), r):
                continue
            f = [rng.randrange(1, r + 1) for _ in range(n)]
            if sum(f) % 2 == 1:
                f[0] = 1 if f[0] == r and r > 1 else f[0] + 1
            if sum(f) % 2 == 1 or max(f) > r:
                continue
            factor = f_factor(g, f)
            assert factor is not None
            assert is_valid_factor(g, f, factor)
