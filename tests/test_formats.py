"""Instance/solution text formats: parsing, diagnostics, round-trips."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degkit import formats
from degkit.dce import DceInstance, EditKind, EditSolution, make_dce
from degkit.dsc import DscInstance, anonymity_property, regular_property
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

from oracles import reference_parse_instance

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

    @pytest.mark.parametrize(
        "text",
        [
            "p dce 2 1 x 2\ne 1 5",
            "p foo 2 0 1 2\nt 1 0",
            "p dsc 1 0 0 regular 9\np dsc 1 0 0 regular",
            "p dce 2 0 1 -3\nt 1 0",
            "p dce 2 0 -1 2 e+\nt 1 9",
            "p dsc 2 0 1 anon 0\nd 0\nd 1",
        ],
    )
    @pytest.mark.parametrize("parse", [parse_instance, reference_parse_instance])
    def test_header_fault_wins_over_later_lines(self, text, parse):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.line == 1

    @pytest.mark.parametrize(
        "header",
        [
            "p dsc 3 0 1 regular 1",
            "p dsc 3 0 1 anon 2 junk",
            "p dsc 3 0 1 hindex 1 9 9",
            "p dsc 3 0 1 balanced 1 0",
        ],
    )
    def test_trailing_property_tokens(self, header):
        with pytest.raises(ParseError) as err:
            parse_instance("c properties take one parameter at most\n" + header + "\n")
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "text, line",
        [
            ("p dce 3 2 1 1\ne 1 2\ne 2 1\n", 3),
            ("p dce 3 3 1 1\ne 1 2\ne 2 3\nc x\ne 3 2\n", 5),
            # The repeat comes first, so it wins over the later faults.
            ("p dce 3 3 1 1\ne 1 2\ne 1 2\ne 1 9\n", 3),
            # Neither endpoint's list holds the repeat next to the original.
            ("p dce 3 4 1 1\ne 1 2\ne 1 3\ne 2 3\ne 2 1\ne 1 9\n", 5),
            ("p dsc 3 2 1 regular\ne 1 3\ne 3 1\np dsc 3 0 1 regular\n", 3),
            ("p dsc 3 1 1 regular\ne 1 3\ne 3 1\n", 3),
            # Two repeated pairs: the earlier second occurrence is reported.
            ("p dce 4 4 1 1\ne 1 2\ne 3 4\ne 4 3\ne 2 1\n", 4),
        ],
    )
    def test_duplicate_edge_reports_its_second_line(self, text, line):
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert err.value.line == line

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("p dce 1 0 0 1\ne 1 x\n", 2, "line 2: expected an integer, got 'x'"),
            ("p dsc 1 0 0 anon\n", 1, "line 1: property anon needs a parameter"),
            ("p dce 1 0 0 1\nt\n", 2, "line 2: degree-list line needs a vertex"),
        ],
    )
    def test_token_faults_name_their_line(self, text, line, message):
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert err.value.line == line
        assert str(err.value) == message
        with pytest.raises(ParseError) as err:
            reference_parse_instance(text)
        assert err.value.line == line

    @pytest.mark.parametrize("n", [MAX_VERTICES, MAX_VERTICES + 1, 10**18])
    @pytest.mark.parametrize("fields", ["dce {} 0 0 0", "dsc {} 0 0 regular"])
    def test_vertex_cap(self, n, fields, monkeypatch):
        class Built(Exception):
            pass

        class StandIn:
            @staticmethod
            def from_sorted_adjacency(adj):
                raise Built(len(adj))

        # Stands in for Graph, so that no header builds a graph of its vertices.
        monkeypatch.setattr(formats, "Graph", StandIn)
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
    "{} {}".format, st.sampled_from(["p", "e", "t", "d", "c", "q"]), _TOKENS.map(" ".join)
)


@st.composite
def _instance_text(draw):
    """A header with e, d and t lines that often agree with it, plus stray lines."""
    n, k, r = draw(_N), draw(_INT), draw(_INT)
    edges = draw(st.lists(st.builds("e {} {}".format, _INT, _INT), max_size=6))
    lists = draw(st.lists(st.lists(_INT, min_size=1, max_size=4).map(" ".join), max_size=4))
    lists = [f"t {entries}" for entries in lists]
    caps = draw(st.lists(st.builds("d {}".format, _INT), max_size=2))
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
    return "\n".join([*before, header, *edges, *caps, *lists, *after])


class TestParserFuzz:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_instance_text())
    def test_token_grammar_parses_or_raises_parse_error(self, text):
        try:
            parse_instance(text)
        except ParseError:
            pass


@st.composite
def _valid_lines(draw):
    """The lines of a well-formed dce or dsc file, body lines in any order."""
    n = draw(st.integers(1, 6))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=10)) if pairs else []
    body = [f"e {v} {u}" if draw(st.booleans()) else f"e {u} {v}" for u, v in edges]
    k = draw(st.integers(0, 4))
    if draw(st.booleans()):
        r = draw(st.integers(0, 4))
        op = draw(st.sampled_from(["", " e+", " e-", " v-"]))
        header = f"p dce {n} {len(edges)} {k} {r}{op}"
        for v in draw(st.lists(st.integers(1, n), unique=True, max_size=n)):
            values = draw(st.lists(st.integers(0, r), max_size=3))
            body.append(" ".join(["t", str(v), *map(str, values)]))
    else:
        prop = draw(st.sampled_from(["regular", "anon 2", "hindex 1", "balanced 1"]))
        header = f"p dsc {n} {len(edges)} {k} {prop}"
        if draw(st.booleans()):
            body.append(f"d {n + k}")
    return [header, *draw(st.permutations(body))]


def _mutate(draw, kind, lines):
    """One of the faults (or harmless changes) a hand-edited file can carry."""
    lines = list(lines)
    at = draw(st.integers(0, len(lines)))
    some = draw(st.integers(0, len(lines) - 1)) if lines else None
    fields = [line.split() for line in lines]
    edges = [f[1:3] for f in fields if f[:1] == ["e"] and len(f) >= 3]
    listed = [f[1] for f in fields if f[:1] == ["t"] and len(f) >= 2]
    headers = [i for i, f in enumerate(fields) if f[:1] == ["p"] and len(f) >= 4 and f[3].isdigit()]
    problem_lines = [i for i, f in enumerate(fields) if f[:1] == ["p"] and len(f) >= 6]
    if kind == "duplicate" and lines:
        lines.insert(at, lines[some])
    elif kind == "drop" and lines:
        del lines[some]
    elif kind == "swap" and lines:
        other = draw(st.integers(0, len(lines) - 1))
        lines[some], lines[other] = lines[other], lines[some]
    elif kind == "before_header":
        moved = [f"e {u} {v}" for u, v in edges] + [f"t {v} 0" for v in listed]
        lines.insert(0, draw(st.sampled_from(["e 1 2", "t 1 0", "d 3", *moved])))
    elif kind == "out_of_range":
        end = draw(st.sampled_from(["0", "-1", "7", "99"]))
        lines.insert(at, draw(st.sampled_from([f"e {end} 1", f"e 1 {end}", f"t {end} 0"])))
    elif kind == "self_loop":
        lines.insert(at, draw(st.sampled_from(["e 1 1", "e 2 2"])))
    elif kind == "repeat_edge" and edges:
        u, v = draw(st.sampled_from(edges))
        lines.insert(at, draw(st.sampled_from([f"e {u} {v}", f"e {v} {u}"])))
    elif kind == "repeat_list" and listed:
        lines.insert(at, f"t {draw(st.sampled_from(listed))} {draw(st.integers(0, 3))}")
    elif kind == "tab" and lines:
        lines[some] = draw(st.sampled_from(["", "\t", "  "])) + lines[some].replace(" ", "\t")
    elif kind == "comment":
        lines.insert(at, draw(st.sampled_from(["c note", "  c indented", "\tc tabbed", "", "   "])))
    elif kind == "comment_like":
        lines.insert(at, draw(st.sampled_from(["cap 5", "c5", "\tcomment"])))
    elif kind == "wrong_m" and headers:
        header = fields[headers[0]]
        header[3] = str(int(header[3]) + draw(st.sampled_from([-1, 1])))
        lines[headers[0]] = " ".join(header)
    elif kind == "bad_token" and lines and fields[some]:
        tokens = fields[some]
        bad = draw(st.sampled_from(["x", "1.5", "+2", ""]))
        tokens[draw(st.integers(0, len(tokens) - 1))] = bad
        lines[some] = " ".join(tokens)
    elif kind == "trailing" and lines:
        lines[some] += draw(st.sampled_from([" 9", " junk"]))
    elif kind == "bad_header" and problem_lines:
        # One header field: the kind, k, r or the property name, the
        # operation or the property parameter, or a token after them.
        i = problem_lines[0]
        at, bad = draw(st.sampled_from(
            [(1, "foo"), (4, "-1"), (4, "x"), (5, "-1"), (5, "x"), (6, "x+"), (6, "0"),
             (6, "-1"), (7, "9")]
        ))
        fields[i][at:at + 1] = [bad]
        lines[i] = " ".join(fields[i])
    elif kind == "fault_at_end":
        lines.append(draw(st.sampled_from(["e 1 99", "t 1 x", "q", "p dce 1 0 0 0"])))
    return lines


# A repeated edge is found after the pass, unlike every other fault, so it
# is drawn more often, and a fault at the end often follows it. A header
# fault must win over the body faults drawn with it, so it is drawn more
# often too.
_MUTATIONS = st.sampled_from(
    [
        "duplicate", "drop", "swap", "before_header", "out_of_range", "self_loop",
        "repeat_edge", "repeat_edge", "repeat_edge", "repeat_list", "tab", "comment", "comment_like",
        "wrong_m", "bad_token", "trailing", "fault_at_end", "bad_header", "bad_header",
    ]
)


@st.composite
def _mutated_text(draw):
    lines = draw(_valid_lines())
    for kind in draw(st.lists(_MUTATIONS, max_size=4)):
        lines = _mutate(draw, kind, lines)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@st.composite
def _bad_header_text(draw):
    lines = _mutate(draw, "bad_header", draw(_valid_lines()))
    for kind in draw(st.lists(_MUTATIONS, min_size=1, max_size=3)):
        lines = _mutate(draw, kind, lines)
    return "\n".join(lines)


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return ("ParseError", exc.line)


class TestParserAgainstReference:
    def test_same_instance_or_same_fault_line(self):
        outcomes = set()

        @settings(max_examples=400, deadline=None, derandomize=True, database=None)
        @given(_mutated_text())
        def check(text):
            out = _outcome(parse_instance, text)
            assert out == _outcome(reference_parse_instance, text)
            if not isinstance(out, tuple):
                outcomes.add("accepted")
            else:
                outcomes.add("header" if out[1] in (None, 1) else "body")

        check()
        # The differential is only as good as its mix of texts.
        assert outcomes == {"accepted", "header", "body"}

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_bad_header_text())
    def test_header_fault_wins_over_the_body_faults_after_it(self, text):
        assert _outcome(parse_instance, text) == _outcome(reference_parse_instance, text)


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

    @pytest.mark.parametrize("cap", [None, 2, 3, 5])
    def test_dsc_degree_cap(self, cap):
        path3 = Graph(3, [(0, 1), (1, 2)])
        inst = DscInstance(path3, 1, regular_property(), cap)
        text = serialize_instance(inst)
        # Only a cap other than the default max degree + k gets a line.
        assert ("\nd " in text) == (cap not in (None, 3))
        assert parse_instance(text) == inst


class TestDegreeCapLine:
    def test_cap_anywhere_after_the_header(self):
        inst = parse_instance("p dsc 3 1 4 regular\ne 1 2\nc note\nd 2\n")
        assert inst.delta_prime == 2

    def test_cap_at_the_maximum_degree(self):
        assert parse_instance("p dsc 2 1 3 anon 2\nd 1\ne 1 2\n").delta_prime == 1

    @pytest.mark.parametrize("parse", [parse_instance, reference_parse_instance])
    @pytest.mark.parametrize("line", ["cap 5", "c5", "comment"])
    def test_a_word_starting_with_c_is_no_comment(self, parse, line):
        # Only the token "c" opens a comment, so a misspelled cap line is a
        # fault rather than a silent default.
        with pytest.raises(ParseError) as err:
            parse(f"p dsc 2 0 1 regular\n{line}\n")
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "text, line",
        [
            ("d 3\np dsc 2 0 1 regular\n", 1),
            ("p dce 2 0 1 1\nd 3\n", 2),
            ("p dsc 2 0 1 regular\nd 3\nd 3\n", 3),
            ("p dsc 2 0 1 regular\nd\n", 2),
            ("p dsc 2 0 1 regular\nd 1 2\n", 2),
            ("p dsc 2 0 1 regular\nd x\n", 2),
            ("p dsc 3 2 1 regular\ne 1 2\nd 1\ne 1 3\n", 3),
            ("p dsc 2 0 1 regular\nd -1\n", 2),
        ],
    )
    def test_bad_cap_lines(self, text, line):
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert err.value.line == line


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

    @pytest.mark.parametrize(
        "text, line",
        [
            ("c hi\n\nYES 1\nadd 1\n", 4),
            ("c a\nc b\nMAYBE\n", 3),
            ("\nYES x\n", 2),
            ("c a\nYES 2\n\nadd 1 2\n", 2),
        ],
    )
    def test_error_lines_count_comments_and_blanks(self, text, line):
        with pytest.raises(ParseError) as err:
            parse_solution(text)
        assert err.value.line == line

    @pytest.mark.parametrize("text", ["", "\n  \n", "c only a comment\n\tc another\n"])
    def test_empty_solution(self, text):
        with pytest.raises(ParseError, match="empty solution"):
            parse_solution(text)

    @pytest.mark.parametrize("text", ["cadd 1 2\nNO\n", "YES 1\ncomment\nadd 1 2\n"])
    def test_a_word_starting_with_c_is_no_comment(self, text):
        with pytest.raises(ParseError):
            parse_solution(text)

    def test_indented_comment(self):
        assert parse_solution("  c x\nNO\n") is None
        assert parse_solution("YES 1\n\tc x\nadd 1 2\n") == EditSolution((("add", 0, 1),))
