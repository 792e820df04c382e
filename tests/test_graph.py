"""Graph construction and the basic operations."""

import random

import pytest

from degkit.errors import EdgeConflictError, InvalidInputError
from degkit.graph import (
    Graph,
    add_edges,
    complement,
    degree_sequence,
    induced_subgraph,
    remove_edges,
)


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
    def test_rejects_self_loop(self):
        with pytest.raises(InvalidInputError):
            Graph(2, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInputError):
            Graph(2, [(0, 2)])

    def test_rejects_duplicate_edges(self):
        with pytest.raises(EdgeConflictError):
            Graph(3, [(0, 1), (1, 0)])

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

    def test_remove(self):
        assert remove_edges(triangle(), [(0, 2)]) == path3()

    def test_remove_absent(self):
        with pytest.raises(InvalidInputError):
            remove_edges(path3(), [(0, 2)])
