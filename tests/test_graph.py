"""Graph construction and the basic operations."""

import random

import pytest

from degkit import factors
from degkit.errors import EdgeConflictError, InvalidInputError
from degkit.graph import Graph, complement, induced_subgraph

from oracles import add_edges, degree_sequence


def path3() -> Graph:
    return Graph(3, [(0, 1), (1, 2)])


def triangle() -> Graph:
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


class TestConstruction:
    def test_rejects_a_negative_vertex_count(self):
        with pytest.raises(InvalidInputError, match="vertex_count must be nonnegative"):
            Graph(-1)

    def test_rejects_self_loop(self):
        with pytest.raises(InvalidInputError):
            Graph(2, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInputError):
            Graph(2, [(0, 2)])

    def test_rejects_negative_end(self):
        with pytest.raises(InvalidInputError):
            Graph(3, [(-1, 2)])

    def test_rejects_duplicate_edges(self):
        with pytest.raises(EdgeConflictError):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_duplicate_among_many(self):
        with pytest.raises(EdgeConflictError, match=r"\(2, 3\)"):
            Graph(5, [(0, 1), (3, 2), (1, 4), (2, 3)])

    def test_adjacency_sorted_and_symmetric(self):
        g = Graph(4, [(2, 0), (3, 1), (0, 3)])
        for u in range(4):
            assert list(g.adj[u]) == sorted(g.adj[u])
            for v in g.adj[u]:
                assert u in g.adj[v]

    def test_edge_count_is_half_degree_sum(self):
        rng = random.Random(7)
        for _ in range(20):
            g = random_graph(rng.randrange(0, 9), 0.4, rng)
            assert 2 * g.edge_count == sum(g.degrees())

    def test_max_degree_is_each_graphs_own(self):
        rng = random.Random(8)
        for _ in range(20):
            g = random_graph(rng.randrange(0, 9), 0.4, rng)
            # The first call works the answer out, the second reads it back.
            assert g.max_degree() == g.max_degree() == max(g.degrees(), default=0)
        # A graph derived from one whose answer is known works out its own.
        star = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert star.max_degree() == 3
        assert complement(star).max_degree() == 2
        assert induced_subgraph(star, [1, 2, 3])[0].max_degree() == 0
        assert add_edges(star, [(1, 2)]).max_degree() == 3


class TestDegreeSequence:
    def test_edgeless(self):
        assert degree_sequence(Graph(3)) == (0, 0, 0)

    def test_triangle(self):
        assert degree_sequence(triangle()) == (2, 2, 2)

    def test_path(self):
        assert degree_sequence(path3()) == (2, 1, 1)


class TestComplement:
    def test_triangle_to_edgeless(self):
        assert complement(triangle()).edge_count == 0

    def test_edgeless_to_complete(self):
        assert complement(Graph(4)).edge_count == 6

    def test_path(self):
        assert set(complement(path3()).edges()) == {(0, 2)}

    def test_involution(self):
        rng = random.Random(11)
        for _ in range(30):
            g = random_graph(rng.randrange(0, 10), rng.random(), rng)
            assert complement(complement(g)) == g


class TestInducedSubgraph:
    def test_k4_to_k3(self):
        k4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        sub, old = induced_subgraph(k4, [0, 2, 3])
        assert sub.edge_count == 3
        assert old == (0, 2, 3)

    def test_identity(self):
        g = path3()
        sub, old = induced_subgraph(g, range(3))
        assert sub == g
        assert sub is g
        assert old == (0, 1, 2)

    def test_star_leaves(self):
        star = Graph(4, [(0, 1), (0, 2), (0, 3)])
        sub, _ = induced_subgraph(star, [1, 2, 3])
        assert sub.edge_count == 0

    def test_out_of_range(self):
        with pytest.raises(InvalidInputError):
            induced_subgraph(path3(), [0, 5])


class TestAddRemoveEdges:
    """`add_edges` from the oracles rebuilds through the checked constructor;
    these cases pin what that constructor rejects."""

    def test_close_path_to_triangle(self):
        assert add_edges(path3(), [(0, 2)]) == triangle()

    def test_add_nothing(self):
        g = path3()
        assert add_edges(g, []) == g

    def test_fill_edgeless(self):
        assert add_edges(Graph(3), [(0, 1), (1, 2), (0, 2)]) == triangle()

    def test_rejects_present_edge(self):
        with pytest.raises(EdgeConflictError):
            add_edges(path3(), [(0, 1)])

    def test_rejects_duplicate_in_set(self):
        with pytest.raises(EdgeConflictError):
            add_edges(path3(), [(0, 2), (2, 0)])

    def test_rejects_self_loop(self):
        with pytest.raises(InvalidInputError):
            add_edges(path3(), [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInputError, match="out of range"):
            add_edges(path3(), [(0, 3)])


class TestTrustedConstruction:
    """Operations that build simple graphs by construction skip Graph's
    checks; each must give the graph the checked constructor gives."""

    def graphs(self, seed, count=40):
        rng = random.Random(seed)
        for _ in range(count):
            yield random_graph(rng.randrange(0, 12), rng.random(), rng), rng

    def test_from_sorted_adjacency_matches_checked(self):
        for g, _ in self.graphs(1):
            built = Graph.from_sorted_adjacency([list(ns) for ns in g.adj])
            assert built == g
            assert built.degrees() == g.degrees()
            assert built.edge_count == g.edge_count

    def test_induced_subgraph(self):
        for g, rng in self.graphs(2):
            keep = [v for v in range(g.vertex_count) if rng.random() < 0.6]
            sub, old = induced_subgraph(g, keep)
            new_of_old = {v: i for i, v in enumerate(old)}
            edges = [
                (new_of_old[u], new_of_old[v])
                for u, v in g.edges()
                if u in new_of_old and v in new_of_old
            ]
            assert sub == Graph(len(old), edges)
            assert sub.degrees() == Graph(len(old), edges).degrees()

    def test_complement(self):
        for g, _ in self.graphs(3):
            n = g.vertex_count
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)]
            assert complement(g) == Graph(n, edges)
            assert complement(g).degrees() == Graph(n, edges).degrees()

    def test_tutte_gadget_is_a_simple_graph(self, monkeypatch):
        gadgets = []

        def matching(g, initial=()):
            gadgets.append(g)
            return real(g, initial=initial)

        real = factors.max_matching
        monkeypatch.setattr(factors, "max_matching", matching)
        for g, rng in self.graphs(5, count=100):
            n = g.vertex_count
            f = [rng.randrange(0, g.degree(v) + 1) for v in range(n)]
            if sum(f) % 2 == 1:
                # A triangle with demand 1 at each corner evens the total but
                # has no factor, so the partial factor cannot meet every
                # demand and the gadget is built.
                g = Graph(n + 3, [*g.edges(), (n, n + 1), (n, n + 2), (n + 1, n + 2)])
                f += [1, 1, 1]
            factors.f_factor(g, f)
        assert len(gadgets) >= 10
        for gadget in gadgets:
            # The checked constructor rebuilds the same graph only from
            # adjacency that is increasing, symmetric and free of repeats.
            assert Graph(gadget.vertex_count, gadget.edges()) == gadget
