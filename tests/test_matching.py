"""Blossom matching against exhaustive enumeration."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degkit.errors import InvalidInputError
from degkit.graph import Graph
from degkit.matching import max_matching

from oracles import brute_max_matching_size


def cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def check(g: Graph, initial=()) -> None:
    matching = max_matching(g, initial=initial)
    used = set()
    for u, v in matching:
        assert g.has_edge(u, v)
        assert u not in used and v not in used
        used.update((u, v))
    assert len(matching) == brute_max_matching_size(g)


def test_c4():
    assert len(max_matching(cycle(4))) == 2


def test_c5_blossom_case():
    assert len(max_matching(cycle(5))) == 2


def test_petersen():
    # Value derived by brute-force matching enumeration.
    g = petersen()
    assert brute_max_matching_size(g) == 5
    assert len(max_matching(g)) == 5


def test_empty_and_isolated():
    assert max_matching(Graph(0)) == set()
    assert max_matching(Graph(5)) == set()


def test_odd_components():
    # Two triangles joined by a bridge: perfect matching of 6 vertices.
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    check(g)


def test_random_graphs_match_bruteforce():
    rng = random.Random(20240)
    for _ in range(250):
        n = rng.randrange(0, 11)
        p = rng.choice([0.15, 0.3, 0.5, 0.8])
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        ]
        check(Graph(n, edges))


@st.composite
def graph_with_matching(draw):
    """A graph on up to 10 vertices and a matching of it, possibly empty."""
    n = draw(st.integers(0, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [e for e in pairs if draw(st.booleans())]
    used: set[int] = set()
    initial = []
    for u, v in draw(st.permutations(edges)):
        if u not in used and v not in used and draw(st.booleans()):
            used.update((u, v))
            initial.append((u, v))
    return Graph(n, edges), initial


@settings(max_examples=150, deadline=None, derandomize=True)
@given(graph_with_matching(), st.booleans())
def test_seeded_matches_bruteforce(case, seeded):
    g, initial = case
    check(g, initial if seeded else ())


def test_initial_non_edge_rejected():
    with pytest.raises(InvalidInputError):
        max_matching(cycle(5), initial=[(0, 2)])


def test_initial_out_of_range_rejected():
    with pytest.raises(InvalidInputError):
        max_matching(cycle(5), initial=[(4, 5)])


def test_initial_overlap_rejected():
    with pytest.raises(InvalidInputError):
        max_matching(cycle(5), initial=[(0, 1), (1, 2)])
