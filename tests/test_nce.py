"""Number-completion DP against product enumeration."""

import random
import re

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from degkit import nce
from degkit.errors import InternalInvariantError, InvalidInputError
from degkit.nce import (
    DegreeListFunction,
    _max_rise,
    _rises,
    least_even_total,
    make_nce,
    nce_decide_all_targets,
    nce_traceback,
)

from oracles import brute_nce, reference_least_even_total, winwin_numbers


def test_zero_completion():
    assert nce_traceback(make_nce([2], 0, 2, [{2}])) == (2,)


def test_three_vertex_total_six():
    # Degrees of the edgeless triple whose only completion adds every edge.
    inst = make_nce([0, 0, 0], 6, 2, [{2}, {0, 2}, {0, 2}])
    assert nce_traceback(inst) == (2, 2, 2)


def test_parity_blocked():
    inst = make_nce([1, 1], 1, 3, [{1, 3}, {1, 3}])
    assert nce_traceback(inst) is None


def test_target_above_every_reachable_total_builds_no_table(monkeypatch):
    # The triple's indices rise by at most 2 each, so no total exceeds 6.
    phi = [{2}, {0, 2}, {0, 2}]

    def no_table(*args):
        raise AssertionError("a table was built for an unreachable target")

    monkeypatch.setattr(nce, "_rows", no_table)
    assert nce_traceback(make_nce([0, 0, 0], 7, 2, phi)) is None
    assert nce_traceback(make_nce([0, 0, 0], 10**9, 2, phi)) is None
    monkeypatch.undo()
    assert nce_traceback(make_nce([0, 0, 0], 6, 2, phi)) == (2, 2, 2)


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
    assert nce_traceback(make_nce([], 2, 1, [])) is None
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
            assert table[j] == (nce_traceback(make_nce(degrees, j, r, phi)) is not None)


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
    assert found == reference_least_even_total(degrees, phi, lo, hi)
    if expect is None:
        assert found is None
    else:
        # The witness is the one nce_traceback gives for the same total.
        assert found == (expect, nce_traceback(make_nce(degrees, 2 * expect, r, phi)))


# (n, r, k, degree_one, optional, forced): the benchmark's three r-only
# kernel instances, an odd-forced one at n = 3000 and an even-forced one.
_WINWIN = [
    (1500, 3, 200, 500, 900, 0),
    (1500, 3, 200, 500, 900, 5),
    (2000, 2, 150, 600, 1200, 0),
    (3000, 3, 200, 1000, 1800, 7),
    (3000, 3, 200, 1000, 1800, 4),
]


@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("params", _WINWIN)
def test_least_even_total_matches_the_reference_on_few_types(params, shared):
    n, r, k, degree_one, optional, forced = params
    degrees, phi = winwin_numbers(random.Random(n + forced), n, r, degree_one, optional, forced, shared)
    assert 3 <= len(set(zip(degrees, phi))) <= 5
    assert (len(set(map(id, phi))) <= 5) == shared
    for lo in (0, r * (r + 1) ** 2):
        found = least_even_total(degrees, phi, lo, k)
        assert found == reference_least_even_total(degrees, phi, lo, k)
        # An odd number of forced single rises makes every total odd.
        assert (found is None) == (forced % 2 == 1)


@pytest.mark.parametrize("dead", [frozenset(), frozenset({0, 1})])
def test_lists_without_a_rise_add_nothing_to_the_width_cap(dead):
    # Index 1 has degree 3 and an empty list or one below its degree: it
    # rises by nothing, so no total at all is reachable.
    degrees = [2, 3, 0]
    phi = [frozenset({2, 4}), dead, frozenset({0, 2})]
    assert _max_rise(_rises(degrees, phi)) == 4
    assert least_even_total(degrees, phi, 0, 10) is None
    assert reference_least_even_total(degrees, phi, 0, 10) is None
    assert nce_decide_all_targets(degrees, 10, 4, phi) == [False] * 11


@pytest.mark.parametrize(
    "build, reason",
    [
        (lambda: DegreeListFunction(-1, ()), "degree bound r must be nonnegative"),
        (lambda: DegreeListFunction(2, (frozenset({1}), frozenset({0, 3}))), "vertex 1 leaves"),
        (lambda: make_nce([0], -1, 1, [{0}]), "k must be nonnegative"),
        (lambda: make_nce([0, 0], 0, 1, [{0}]), "a set to every index"),
        (lambda: make_nce([-1], 0, 1, [{0}]), "degrees must be nonnegative"),
        (lambda: nce_decide_all_targets([0], -1, 1, [{0}]), "k_max must be nonnegative"),
    ],
    ids=["negative-r", "list-above-r", "negative-k", "short-tau", "negative-degree", "negative-k-max"],
)
def test_rejects_invalid_input(build, reason):
    with pytest.raises(InvalidInputError, match=reason):
        build()


def test_a_repeated_bad_list_names_a_vertex_that_holds_it():
    # The check reads each distinct list once, yet still names a vertex.
    bad = frozenset({1, 4})
    lists = (frozenset({0, 1}),) * 40 + (bad, frozenset({2})) * 30
    with pytest.raises(InvalidInputError, match=r"leaves the range 0\.\.3") as err:
        DegreeListFunction(3, lists)
    assert lists[int(re.search(r"vertex (\d+)", str(err.value))[1])] == bad


def _placed_case(rng, n, r, placement, empty):
    """Degrees and lists where every index keeps its degree on its list,
    except one or two indices (none for "absent") that must rise, placed
    last, first or mid-sequence; with `empty`, one further index has an
    empty list, so no total at all is reachable."""
    degrees = [rng.randrange(0, r + 1) for _ in range(n)]
    phi = [
        frozenset({d} | {x for x in range(r + 1) if rng.random() < 0.4})
        for d in degrees
    ]
    spots = {"last": [n - 1], "first": [0], "mid": [n // 2, n // 2 + 1], "absent": []}[placement]
    for i in spots:
        degrees[i] = rng.randrange(0, r)
        phi[i] = frozenset(x for x in range(degrees[i] + 1, r + 1) if rng.random() < 0.6) or frozenset({r})
    if empty:
        phi[rng.randrange(n)] = frozenset()
    return degrees, phi


@pytest.mark.parametrize("empty", [False, True], ids=["lists", "an-empty-list"])
@pytest.mark.parametrize("placement", ["last", "first", "mid", "absent"])
def test_every_entry_is_exact_wherever_an_index_must_rise(placement, empty):
    # Small cases against both oracles: the yes/no answer of every target
    # against brute_nce, and the witness of every even total against the
    # reference table, traced from the end over every index.
    rng = random.Random(f"{placement}-{empty}")
    for _ in range(40):
        n, r = rng.randrange(3, 7), rng.randrange(1, 4)
        degrees, phi = _placed_case(rng, n, r, placement, empty)
        k_max = r * n + 1
        table = nce_decide_all_targets(degrees, k_max, r, phi)
        for j in range(k_max + 1):
            expect = brute_nce(degrees, j, phi)
            assert table[j] == expect
            witness = nce_traceback(make_nce(degrees, j, r, phi))
            assert (witness is not None) == expect
            if j % 2 == 0:
                reference = reference_least_even_total(degrees, phi, j // 2, j // 2)
                assert least_even_total(degrees, phi, j // 2, j // 2) == reference
                assert witness == (None if reference is None else reference[1])
        for lo in range(3):
            found = least_even_total(degrees, phi, lo, k_max)
            assert found == reference_least_even_total(degrees, phi, lo, k_max)


@pytest.mark.parametrize("placement", ["last", "first", "mid", "absent"])
def test_witnesses_on_few_types_equal_the_reference(placement):
    # A few hundred indices of few types, where the shortest prefix that
    # reaches a total stops well before the end unless an index that must
    # rise sits late.
    rng = random.Random(placement)
    shapes = [(0, frozenset({0})), (1, frozenset({1})), (0, frozenset({0, 3})), (1, frozenset({1, 2}))]
    for _ in range(10):
        n = rng.randrange(100, 300)
        picks = rng.choices(shapes, k=n)
        degrees, phi = [d for d, _ in picks], [s for _, s in picks]
        spots = {"last": [n - 1], "first": [0], "mid": [n // 3, 2 * n // 3], "absent": []}[placement]
        for i in spots:
            degrees[i], phi[i] = 0, frozenset({rng.choice([1, 2])})
        for lo, hi in ((0, 60), (20, 40), (48, 200)):
            found = least_even_total(degrees, phi, lo, hi)
            assert found == reference_least_even_total(degrees, phi, lo, hi)
            if found is not None:
                assert nce_traceback(make_nce(degrees, 2 * found[0], 3, phi)) == found[1]


def _counted_rows(monkeypatch):
    built = []

    def rows(*args):
        table = real(*args)
        built.append(len(table))
        return table

    real = nce._rows
    monkeypatch.setattr(nce, "_rows", rows)
    return built


def test_witness_builds_rows_only_for_the_prefix_it_needs(monkeypatch):
    # The benchmark's feasible r-only shape: every index may keep its
    # degree, so the trace needs only the shortest prefix reaching 2s.
    n, lo, k = 1500, 48, 200
    degrees, phi = winwin_numbers(random.Random(1500), n, 3, 500, 900)
    built = _counted_rows(monkeypatch)
    found = least_even_total(degrees, phi, lo, k)
    assert found == reference_least_even_total(degrees, phi, lo, k)
    assert len(built) == 1 and built[0] < n // 10


def test_odd_forced_clamp_builds_no_rows(monkeypatch):
    # Five indices must rise by one, so every total is odd: the types alone
    # answer NO, and no per-index row is built.
    degrees, phi = winwin_numbers(random.Random(1505), 1500, 3, 500, 900, 5)
    built = _counted_rows(monkeypatch)
    assert least_even_total(degrees, phi, 48, 200) is None
    assert nce_traceback(make_nce(degrees, 96, 3, phi)) is None
    assert built == []


@pytest.mark.parametrize(
    "final, reason",
    [
        ((1, 1), "decreases a degree"),
        ((3, 2), "leaves an allowed-degree set"),
        ((2, 3), "wrong total increase"),
    ],
)
def test_a_bad_witness_is_a_defect(final, reason):
    phi = [frozenset({2}), frozenset({1, 2, 3})]
    with pytest.raises(InternalInvariantError, match=reason):
        nce._validate_witness([2, 2], phi, 0, final)


def test_a_traced_row_without_a_predecessor_is_a_defect(monkeypatch):
    # Both indices must rise by one, so the trace reaches row 0, here
    # cleared, with one unit left.
    phi = [frozenset({1})] * 2
    assert least_even_total([0, 0], phi, 1, 1) == (1, (1, 1))
    real = nce._rows

    def rows(*args):
        table = real(*args)
        table[0] = 0
        return table

    monkeypatch.setattr(nce, "_rows", rows)
    with pytest.raises(InternalInvariantError, match="no predecessor"):
        least_even_total([0, 0], phi, 1, 1)
