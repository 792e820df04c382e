"""Instance/solution text formats: parsing, diagnostics, round-trips."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degkit import formats
from degkit.dce import DceInstance, EditKind, EditSolution, make_dce
from degkit.dsc import DscInstance, anonymity_property
from degkit.errors import ParseError
from degkit.formats import (
    MAX_VERTICES,
    parse_instance,
    parse_solution,
    serialize_instance,
    serialize_solution,
)
from degkit.generators import gen_random_dce
from degkit.graph import Graph

TRIPLE = "p dce 3 0 3 2\nt 1 2\nt 2 0 2\nt 3 0 2\n"


class TestParseInstance:
    def test_isolated_triple(self):
        inst = parse_instance(TRIPLE)
        assert isinstance(inst, DceInstance)
        assert inst == make_dce(Graph(3), 3, 2, [{2}, {0, 2}, {0, 2}])

    def test_two_vertex_edge(self):
        inst = parse_instance("p dce 2 1 1 1\ne 1 2\nt 1 0 1\nt 2 1\n")
        assert inst == make_dce(Graph(2, [(0, 1)]), 1, 1, [{0, 1}, {1}])

    def test_comments_and_blank_lines(self):
        inst = parse_instance("c hello\n\n" + TRIPLE)
        assert inst.k == 3

    def test_operation_token(self):
        inst = parse_instance("p dce 2 1 1 1 v-\ne 1 2\nt 1 0\nt 2 0\n")
        assert inst.op_kind is EditKind.VERTEX_DELETION

    def test_missing_list_is_empty(self):
        inst = parse_instance("p dce 2 0 1 1\nt 1 0\n")
        assert inst.tau[1] == frozenset()

    def test_dsc_header(self):
        inst = parse_instance("p dsc 3 1 2 anon 2\ne 1 2\n")
        assert isinstance(inst, DscInstance)
        assert inst.prop == anonymity_property(2)
        assert inst.delta_prime == 3  # max degree 1 + k 2

    def test_index_error_carries_line(self):
        with pytest.raises(ParseError) as err:
            parse_instance("p dce 3 1 1 1\ne 1 5\n")
        assert err.value.line == 2

    def test_degree_above_r(self):
        with pytest.raises(ParseError):
            parse_instance("p dce 2 0 1 1\nt 1 2\n")

    def test_duplicate_edge(self):
        with pytest.raises(ParseError):
            parse_instance("p dce 2 2 1 1\ne 1 2\ne 2 1\n")

    def test_duplicate_list(self):
        with pytest.raises(ParseError):
            parse_instance("p dce 2 0 1 1\nt 1 0\nt 1 1\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_instance("p dce 3 2 1 1\ne 1 2\n")

    def test_unknown_problem_kind(self):
        with pytest.raises(ParseError):
            parse_instance("p foo 1 0 0 0\n")

    def test_short_dce_header(self):
        with pytest.raises(ParseError):
            parse_instance("p dce 3 0 3\nt 1 2\n")

    def test_unknown_operation_token(self):
        with pytest.raises(ParseError):
            parse_instance("p dce 1 0 0 1 x+\n")

    def test_lists_forbidden_in_dsc(self):
        with pytest.raises(ParseError):
            parse_instance("p dsc 2 0 1 regular\nt 1 0\n")

    @pytest.mark.parametrize(
        "text",
        [
            "p dsc 3 0 1 anon 0\n",
            "p dsc 3 0 1 hindex -1\n",
            "p dsc 3 0 1 balanced 0\n",
            "p dsc 3 0 -1 regular\n",
            "p dce 3 1 1 -2\ne 1 2\n",
        ],
    )
    def test_header_value_out_of_range(self, text):
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert err.value.line == 1

    @pytest.mark.parametrize("n", [MAX_VERTICES, MAX_VERTICES + 1, 10**18])
    @pytest.mark.parametrize("fields", ["dce {} 0 0 0", "dsc {} 0 0 regular"])
    def test_vertex_cap(self, n, fields, monkeypatch):
        class Built(Exception):
            pass

        def graph(vertex_count, edges=()):
            raise Built(vertex_count)

        # Stands in for Graph, so that no header allocates its vertices.
        monkeypatch.setattr(formats, "Graph", graph)
        text = "p " + fields.format(n) + "\n"
        if n <= MAX_VERTICES:
            with pytest.raises(Built):
                parse_instance(text)
        else:
            with pytest.raises(ParseError) as err:
                parse_instance(text)
            assert err.value.line == 1


# Integers stay in -3..20, leaning to 0..3 so that endpoints, counts and
# list entries often fit the header. n also draws values above the vertex
# cap, which the parser rejects on the header line.
_INT = st.one_of(st.integers(0, 3), st.integers(-3, 20)).map(str)
_N = st.one_of(_INT, st.integers(MAX_VERTICES + 1, 10**30).map(str))
_WORD = st.sampled_from(
    ["dce", "dsc", "regular", "anon", "hindex", "balanced", "e+", "e-", "v-", "x", "1.5"]
)
_TOKENS = st.lists(st.one_of(_INT, _WORD), max_size=6)
_PROPERTY = st.one_of(
    st.sampled_from(["regular", "", "regular 1"]),
    st.builds("{} {}".format, st.sampled_from(["anon", "hindex", "balanced", "x"]), _INT),
)
_STRAY = st.builds(
    "{} {}".format, st.sampled_from(["p", "e", "t", "c", "q"]), _TOKENS.map(" ".join)
)


@st.composite
def _instance_text(draw):
    """A header with e and t lines that often agree with it, plus stray lines."""
    n, k, r = draw(_N), draw(_INT), draw(_INT)
    edges = draw(st.lists(st.builds("e {} {}".format, _INT, _INT), max_size=6))
    lists = draw(st.lists(st.lists(_INT, min_size=1, max_size=4).map(" ".join), max_size=4))
    lists = [f"t {entries}" for entries in lists]
    m = draw(st.one_of(st.just(str(len(edges))), _INT))
    if draw(st.booleans()):
        op = draw(st.sampled_from(["", " e+", " e-", " v-", " x", " e+ 1"]))
        header = f"p dce {n} {m} {k} {r}{op}"
    else:
        header = f"p dsc {n} {m} {k} {draw(_PROPERTY)}"
        if draw(st.booleans()):
            lists = []
    before = draw(st.lists(_STRAY, max_size=1))
    after = draw(st.lists(_STRAY, max_size=1))
    return "\n".join([*before, header, *edges, *lists, *after])


class TestParserFuzz:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_instance_text())
    def test_token_grammar_parses_or_raises_parse_error(self, text):
        try:
            parse_instance(text)
        except ParseError:
            pass


class TestRoundTrip:
    def test_dce_random(self):
        for seed in range(25):
            op = [EditKind.EDGE_ADDITION, EditKind.EDGE_DELETION, EditKind.VERTEX_DELETION][
                seed % 3
            ]
            inst = gen_random_dce(seed % 9, 0.3, 2, 3, 0.5, seed, op)
            assert parse_instance(serialize_instance(inst)) == inst

    def test_dsc_properties(self):
        rng = random.Random(5)
        for prop_text in ("regular", "anon 2", "hindex 3", "balanced 1"):
            n = rng.randrange(1, 7)
            edges = [
                (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4
            ]
            text = f"p dsc {n} {len(edges)} 2 {prop_text}\n" + "".join(
                f"e {u + 1} {v + 1}\n" for u, v in edges
            )
            inst = parse_instance(text)
            assert parse_instance(serialize_instance(inst)) == inst


class TestSolutions:
    def test_empty_yes(self):
        assert serialize_solution(EditSolution(())) == "YES 0\n"

    def test_three_adds(self):
        sol = EditSolution((("add", 0, 1), ("add", 0, 2), ("add", 1, 2)))
        text = serialize_solution(sol)
        assert text.splitlines()[0] == "YES 3"
        assert text.count("add") == 3

    def test_no(self):
        assert serialize_solution(None) == "NO\n"

    def test_round_trip(self):
        for sol in (
            None,
            EditSolution(()),
            EditSolution((("add", 0, 1),)),
            EditSolution((("del", 2, 4), ("del", 0, 1))),
            EditSolution((("rm", 3), ("rm", 0))),
        ):
            assert parse_solution(serialize_solution(sol)) == sol

    def test_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_solution("YES 2\nadd 1 2\n")
