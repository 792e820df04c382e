"""Number-completion DP against product enumeration."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from degkit.nce import (
    least_even_total,
    make_nce,
    nce_decide,
    nce_decide_all_targets,
    nce_traceback,
)

from oracles import brute_nce


def test_zero_completion():
    assert nce_decide(make_nce([2], 0, 2, [{2}]))


def test_three_vertex_total_six():
    # Degrees of the edgeless triple whose only completion adds every edge.
    inst = make_nce([0, 0, 0], 6, 2, [{2}, {0, 2}, {0, 2}])
    assert nce_decide(inst)
    assert nce_traceback(inst) == (2, 2, 2)


def test_parity_blocked():
    inst = make_nce([1, 1], 1, 3, [{1, 3}, {1, 3}])
    assert not nce_decide(inst)
    assert nce_traceback(inst) is None


def test_all_targets_single_index():
    assert nce_decide_all_targets([2], 3, 2, [{2}]) == [True, False, False, False]


def test_all_targets_three_vertices():
    # Brute force over {2} x {0,2} x {0,2}: sums 2, 4, 6 attainable.
    got = nce_decide_all_targets([0, 0, 0], 6, 2, [{2}, {0, 2}, {0, 2}])
    assert got == [False, False, True, False, True, False, True]


def test_target_zero_is_pointwise_membership():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randrange(1, 5)
        r = rng.randrange(1, 4)
        degrees = [rng.randrange(0, r + 1) for _ in range(n)]
        phi = [
            {x for x in range(r + 1) if rng.random() < 0.5} for _ in range(n)
        ]
        expect = all(d in s for d, s in zip(degrees, phi))
        assert nce_decide_all_targets(degrees, 0, r, phi)[0] == expect


def test_empty_instance():
    assert nce_decide(make_nce([], 0, 1, []))
    assert not nce_decide(make_nce([], 2, 1, []))
    assert nce_traceback(make_nce([], 0, 1, [])) == ()


def test_agrees_with_bruteforce():
    rng = random.Random(6021)
    for _ in range(400):
        n = rng.randrange(1, 7)
        r = rng.randrange(1, 5)
        k = rng.randrange(0, 11)
        degrees = [rng.randrange(0, r + 2) for _ in range(n)]
        phi = [
            {x for x in range(r + 1) if rng.random() < 0.6} for _ in range(n)
        ]
        inst = make_nce(degrees, k, r, phi)
        expect = brute_nce(degrees, k, phi)
        assert nce_decide(inst) == expect
        witness = nce_traceback(inst)
        assert (witness is not None) == expect
        if witness is not None:
            assert all(x >= d for x, d in zip(witness, degrees))
            assert all(x in s for x, s in zip(witness, phi))
            assert sum(x - d for x, d in zip(witness, degrees)) == k


def test_all_targets_column_consistency():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randrange(1, 6)
        r = rng.randrange(1, 4)
        degrees = [rng.randrange(0, r + 1) for _ in range(n)]
        phi = [
            {x for x in range(r + 1) if rng.random() < 0.6} for _ in range(n)
        ]
        table = nce_decide_all_targets(degrees, 8, r, phi)
        for j in range(9):
            assert table[j] == nce_decide(make_nce(degrees, j, r, phi))


@st.composite
def _nce_case(draw):
    n = draw(st.integers(0, 6))
    r = draw(st.integers(0, 4))
    degrees = draw(st.lists(st.integers(0, r + 1), min_size=n, max_size=n))
    phi = draw(
        st.lists(st.sets(st.integers(0, r), max_size=r + 1), min_size=n, max_size=n)
    )
    return degrees, draw(st.integers(0, 12)), r, phi


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_nce_case())
def test_all_targets_and_traceback_match_bruteforce(case):
    degrees, k_max, r, phi = case
    table = nce_decide_all_targets(degrees, k_max, r, phi)
    assert len(table) == k_max + 1
    for j in range(k_max + 1):
        expect = brute_nce(degrees, j, phi)
        assert table[j] == expect
        witness = nce_traceback(make_nce(degrees, j, r, phi))
        assert (witness is not None) == expect
        if witness is not None:
            assert all(x >= d for x, d in zip(witness, degrees))
            assert all(x in s for x, s in zip(witness, phi))
            assert sum(x - d for x, d in zip(witness, degrees)) == j


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_nce_case(), st.integers(0, 4))
def test_least_even_total_matches_bruteforce(case, lo):
    degrees, hi, r, phi = case
    phi = [frozenset(s) for s in phi]
    expect = next((s for s in range(lo, hi + 1) if brute_nce(degrees, 2 * s, phi)), None)
    found = least_even_total(degrees, phi, lo, hi)
    if expect is None:
        assert found is None
    else:
        # The witness is the one nce_traceback gives for the same total.
        assert found == (expect, nce_traceback(make_nce(degrees, 2 * expect, r, phi)))
