"""Blossom matching against exhaustive enumeration and against networkx."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degkit.errors import InvalidInputError
from degkit.factors import f_factor
from degkit.graph import Graph
from degkit.matching import max_matching

from oracles import brute_max_matching_size, is_valid_factor, networkx_max_matching_size


def cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def check(g: Graph, initial=(), size=brute_max_matching_size) -> None:
    matching = max_matching(g, initial=initial)
    used = set()
    for u, v in matching:
        assert g.has_edge(u, v)
        assert u not in used and v not in used
        used.update((u, v))
    assert len(matching) == size(g)


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


def random_matching(edges, rng: random.Random) -> list[tuple[int, int]]:
    used: set[int] = set()
    matching = []
    for u, v in rng.sample(edges, len(edges)):
        if u not in used and v not in used and rng.random() < 0.5:
            used.update((u, v))
            matching.append((u, v))
    return matching


@st.composite
def mid_size_graph_with_matching(draw):
    """A graph on up to 80 vertices, built from a drawn seed, and a matching
    of it: sparse or dense G(n, p), or a union of short odd cycles."""
    n = draw(st.integers(0, 80))
    shape = draw(st.sampled_from(["sparse", "dense", "odd cycles"]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if shape == "odd cycles":
        edges = set()
        for _ in range(rng.randrange(1, n + 2)):
            length = rng.choice((3, 5, 7))
            if length <= n:
                ring = rng.sample(range(n), length)
                edges.update((min(a, b), max(a, b)) for a, b in zip(ring, ring[1:] + ring[:1]))
        edges = sorted(edges)
    else:
        p = rng.choice((0.02, 0.05, 0.1) if shape == "sparse" else (0.5, 0.8, 0.95))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges), random_matching(edges, rng)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mid_size_graph_with_matching(), st.booleans())
def test_mid_size_matches_networkx(case, seeded):
    g, initial = case
    check(g, initial if seeded else (), size=networkx_max_matching_size)


def test_dissolved_blossom_beside_a_kept_one():
    # Four exposed roots: A = 0, B = 5, C = 8, D = 13. In the first phase
    # A contracts the 5-cycle 0-1-3-4-2 and C the 5-cycle 8-9-11-12-10.
    # The edge 4-7 then augments A with B, and both dissolve, blossom and
    # all. D grows into the freed pair 1-3, and 3 meets 9, an outer vertex
    # of C's kept blossom, so C and D augment through it. The matching
    # becomes perfect.
    edges = [
        (0, 1), (0, 2), (1, 3), (2, 4), (3, 4), (1, 15), (3, 9),
        (5, 6), (6, 7), (4, 7),
        (8, 9), (8, 10), (9, 11), (10, 12), (11, 12),
        (13, 14), (14, 15),
    ]
    g = Graph(16, edges)
    initial = [(1, 3), (2, 4), (6, 7), (9, 11), (10, 12), (14, 15)]
    check(g, initial, size=lambda g: 8)


def test_blossom_of_a_tree_that_did_not_augment():
    # The greedy extension leaves the roots 2, 3, 4 and 6. In the first
    # phase root 2 contracts the triangle 0-1-2, and the edge 1-4 augments
    # it with root 4; both trees dissolve, leaving the pairs 0-2 and 1-4.
    # Root 3 grows through 7-5 into both pairs and contracts the 5-cycle
    # 5-0-2-1-4 on the base 5, but does not augment. The next phase, from
    # the roots 3 and 6, contracts the same cycle on the old base 5.
    g = Graph(8, [(0, 1), (0, 2), (0, 5), (1, 2), (1, 4), (3, 7), (4, 5), (5, 7)])
    check(g, [(0, 1), (5, 7)], size=networkx_max_matching_size)


@pytest.mark.parametrize("seed", range(6))
def test_planted_f_factor_of_mid_size_dense_graph(seed):
    # Demands are the degrees of a random subgraph, so a factor exists.
    rng = random.Random(seed)
    n = rng.randrange(40, 121)
    g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5])
    keep = rng.choice((0.2, 0.5, 0.8))
    f = [0] * n
    for u, v in g.edges():
        if rng.random() < keep:
            f[u] += 1
            f[v] += 1
    found = f_factor(g, f)
    assert found is not None and is_valid_factor(g, f, found)


def test_initial_non_edge_rejected():
    with pytest.raises(InvalidInputError):
        max_matching(cycle(5), initial=[(0, 2)])


def test_initial_out_of_range_rejected():
    with pytest.raises(InvalidInputError):
        max_matching(cycle(5), initial=[(4, 5)])


def test_initial_overlap_rejected():
    with pytest.raises(InvalidInputError):
        max_matching(cycle(5), initial=[(0, 1), (1, 2)])
