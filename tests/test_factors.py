"""f-factor search against 2^m subgraph enumeration, and the density bound."""

import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degkit import factors
from degkit.errors import InternalInvariantError, InvalidInputError
from degkit.factors import _partial_factor, f_factor
from degkit.generators import gen_cubic
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

    def test_half_degree_factor_of_dense_graph_is_fast(self, greedy_seed):
        # G(70, 1/2) with f = deg/2: the gadget has about 3.6k vertices and
        # needs blossom contractions; a search that resets or relabels all
        # of them every time takes well over 5 s. The repaired seed meets
        # every demand here, so the greedy seed alone leads to the gadget.
        g = random_graph(70, 0.5, random.Random(70))
        f = [d // 2 for d in g.degrees()]
        if sum(f) % 2 == 1:
            f[0] += 1
        start = time.perf_counter()
        found = f_factor(g, f)
        elapsed = time.perf_counter() - start
        assert found is not None and is_valid_factor(g, f, found)
        assert len(greedy_seed) == 1
        assert elapsed < 5.0

    def test_fifth_degree_factor_of_a_few_hundred_vertices_is_fast(self, greedy_seed):
        # G(300, 1/2) with f = deg - round(deg/5), the complement of a fifth
        # of each degree, from the greedy seed alone: greedy leaves 4.9k
        # demand units unmet and the gadget has about 54k vertices. One
        # single-root augmenting search per exposed vertex took 18 s on this
        # instance (2-core VM, CPython 3.11); phases of one forest from all
        # of them take about half a second.
        g = random_graph(300, 0.5, random.Random(300))
        f = [d - round(d / 5) for d in g.degrees()]
        if sum(f) % 2 == 1:
            f[0] -= 1
        start = time.perf_counter()
        found = f_factor(g, f)
        elapsed = time.perf_counter() - start
        assert found is not None and is_valid_factor(g, f, found)
        assert len(greedy_seed) == 1
        assert elapsed < 5.0

    def test_dense_gadget_bridges_each_edge_by_two_stubs(self, greedy_seed):
        # Every demand is positive, so the gadget is built on g itself: the
        # stubs 0..2m-1 form one contiguous cell per vertex, and fillers
        # follow them.
        g = random_graph(40, 0.5, random.Random(40))
        f = [max(1, d // 2) for d in g.degrees()]
        if sum(f) % 2 == 1:
            f[0] += 1
        found = f_factor(g, f)
        assert found is not None and is_valid_factor(g, f, found)
        (gadget,) = greedy_seed
        size = 2 * g.edge_count
        owner = [v for v, d in enumerate(g.degrees()) for _ in range(d)]
        partner = []
        for s in range(size):
            linked = [t for t in gadget.adj[s] if t < size]
            assert len(linked) == 1
            partner.append(linked[0])
        assert all(partner[t] == s for s, t in enumerate(partner))
        bridges = {(owner[s], owner[t]) for s, t in enumerate(partner) if s < t}
        assert len(bridges) == g.edge_count and bridges == set(g.edges())
        assert all(t < size for x in range(size, gadget.vertex_count) for t in gadget.adj[x])

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


class TestPartialFactor:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_invariants(self, data):
        n = data.draw(st.integers(1, 9))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph(n, [e for e in pairs if data.draw(st.booleans())])
        h = tuple(data.draw(st.integers(0, g.degree(v))) for v in range(n))
        mates, left = _partial_factor(g, h)
        for u, vs in enumerate(mates):
            for v in vs:
                assert g.has_edge(u, v) and u in mates[v]
        for v in range(n):
            assert left[v] >= 0
            assert len(mates[v]) + left[v] == h[v]
        assert _partial_factor(g, h) == (mates, left)

    def test_a_vertex_short_by_two_swaps_with_itself(self):
        # Greedy takes (0, 1) and leaves vertex 2 short by 2; only the swap
        # that adds both of 2's edges and drops (0, 1) completes it.
        g = Graph(3, [(0, 1), (0, 2), (1, 2)])
        mates, left = _partial_factor(g, (1, 1, 2))
        assert left == [0, 0, 0]
        assert mates == [{2}, {2}, {0, 1}]
        assert f_factor(g, [1, 1, 2]) == {(0, 2), (1, 2)}

    def test_both_branches_match_bruteforce(self, gadgets):
        # Random demands on random graphs mostly end without a gadget or have
        # no factor. A relabeled path with a few chords and f = 1 often stalls
        # the repair yet has a factor, which the gadget must then find.
        rng = random.Random(2323)
        seen = Counter()
        for i in range(1200):
            n = rng.randrange(2, 11)
            if i % 2:
                g = random_graph(n, rng.choice([0.3, 0.5, 0.8]), rng)
                if g.edge_count > 18:
                    continue
                f = [rng.randrange(0, g.degree(v) + 1) for v in range(n)]
                # An odd total returns before any search.
                f[f.index(max(f))] -= sum(f) % 2
            else:
                label = rng.sample(range(n), n)
                ends = [label[j : j + 2] for j in range(n - 1)]
                ends += [rng.sample(range(n), 2) for _ in range(rng.randrange(3))]
                g = Graph(n, {(min(e), max(e)) for e in ends})
                f = [1] * n
            built = len(gadgets)
            found = f_factor(g, f)
            assert (found is not None) == brute_f_factor_exists(g, f)
            if found is not None:
                assert is_valid_factor(g, f, found)
            if len(gadgets) > built:
                seen["gadget, factor" if found is not None else "gadget, none"] += 1
            elif found:
                seen["no gadget"] += 1
        assert min(seen["no gadget"], seen["gadget, factor"], seen["gadget, none"]) >= 30, seen

    def test_repaired_seed_of_a_few_hundred_vertices_is_fast(self, gadgets):
        # The instance of the fifth-degree test above, with the repair pass.
        # Greedy leaves 4.9k of its 36k demand units unmet, and each swap
        # search is O(|E|) on 22.5k edges. The swaps meet them all without a
        # gadget.
        g = random_graph(300, 0.5, random.Random(300))
        f = [d - round(d / 5) for d in g.degrees()]
        if sum(f) % 2 == 1:
            f[0] -= 1
        start = time.perf_counter()
        found = f_factor(g, f)
        elapsed = time.perf_counter() - start
        assert found is not None and is_valid_factor(g, f, found)
        assert gadgets == []
        assert elapsed < 5.0

    def test_stalled_seed_on_a_long_cycle_is_fast(self):
        # A relabeled C_3000 with f = 1: greedy leaves short vertices that
        # no single swap joins, so the repair stops and the gadget finishes.
        n = 3000
        rng = random.Random(3000)
        label = list(range(n))
        rng.shuffle(label)
        g = Graph(n, [(label[i], label[(i + 1) % n]) for i in range(n)])
        start = time.perf_counter()
        found = f_factor(g, [1] * n)
        elapsed = time.perf_counter() - start
        assert found is not None and is_valid_factor(g, [1] * n, found)
        assert elapsed < 5.0

    def test_perfect_matching_of_a_random_cubic_graph_is_fast(self):
        g = gen_cubic(2000, 2000)
        start = time.perf_counter()
        found = f_factor(g, [1] * 2000)
        elapsed = time.perf_counter() - start
        assert found is not None and is_valid_factor(g, [1] * 2000, found)
        assert elapsed < 5.0

    def test_two_odd_cliques_without_a_factor_are_fast(self):
        # Two disjoint K_51 with f = 1: the total is even, but each clique's
        # is odd, so there is no factor and every swap search comes up empty.
        k = complete(51)
        g = Graph(102, [*k.edges(), *((u + 51, v + 51) for u, v in k.edges())])
        start = time.perf_counter()
        found = f_factor(g, [1] * 102)
        elapsed = time.perf_counter() - start
        assert found is None
        assert elapsed < 5.0


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
