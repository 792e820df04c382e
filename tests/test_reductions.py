"""Instance transformers checked by brute force on tiny sources."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degkit.dce import brute_force_solve, make_dce
from degkit.errors import InvalidInputError
from degkit.generators import gen_cubic
from degkit.graph import Graph
from degkit.reductions import (
    ReductionOutput,
    approx_vertex_cover,
    clique_to_dce_eminus,
    clique_to_dce_vminus,
    is_to_dce_eplus,
    twin_classes,
    vc_to_dce_vminus,
)

from oracles import (
    all_pairs,
    has_clique,
    has_independent_set,
    has_vertex_cover,
    min_vertex_cover_size,
    small_graphs,
)


def k3() -> Graph:
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


def k4() -> Graph:
    return Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])


def fig1_graph() -> Graph:
    # Cover side 0..2, independent side 3..7.
    edges = [(1, 2)]
    edges += [(0, 3), (0, 4), (0, 5), (1, 4), (1, 5), (1, 6), (1, 7)]
    edges += [(2, 5), (2, 6), (2, 7)]
    return Graph(8, edges)


class TestVertexCoverReduction:
    def test_k3_examples(self):
        assert brute_force_solve(vc_to_dce_vminus(k3(), 2).instance) is not None
        assert brute_force_solve(vc_to_dce_vminus(k3(), 1).instance) is None

    def test_edgeless(self):
        out = vc_to_dce_vminus(Graph(3), 0)
        assert brute_force_solve(out.instance) is not None

    def test_equivalence_small(self):
        for g in small_graphs(4):
            for h in range(g.vertex_count + 1):
                out = vc_to_dce_vminus(g, h)
                got = brute_force_solve(out.instance) is not None
                assert got == has_vertex_cover(g, h)


class TestIndependentSetReduction:
    def test_k4_h1_yes(self):
        out = is_to_dce_eplus(k4(), 1)
        assert out.instance.k == 1
        assert brute_force_solve(out.instance) is not None

    def test_k4_h2_no(self):
        assert brute_force_solve(is_to_dce_eplus(k4(), 2).instance) is None

    def test_non_cubic_rejected(self):
        with pytest.raises(InvalidInputError):
            is_to_dce_eplus(k3(), 1)

    def test_equivalence_on_cubic_samples(self):
        k33 = Graph(6, [(a, b + 3) for a in range(3) for b in range(3)])
        prism = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])
        for g in (k4(), k33, prism):
            for h in range(1, 4):
                got = brute_force_solve(is_to_dce_eplus(g, h).instance) is not None
                assert got == has_independent_set(g, h), (g, h)


class TestCoverAndTwins:
    def test_single_edge(self):
        assert approx_vertex_cover(Graph(2, [(0, 1)])) == {0, 1}

    def test_edgeless(self):
        assert approx_vertex_cover(Graph(4)) == set()

    def test_path(self):
        assert approx_vertex_cover(Graph(3, [(0, 1), (1, 2)])) == {0, 1}

    def test_cover_and_ratio_random(self):
        rng = random.Random(64)
        for _ in range(40):
            n = rng.randrange(1, 10)
            g = Graph(
                n,
                [
                    (u, v)
                    for u in range(n)
                    for v in range(u + 1, n)
                    if rng.random() < 0.35
                ],
            )
            cover = approx_vertex_cover(g)
            assert all(u in cover or v in cover for u, v in g.edges())
            assert len(cover) <= 2 * min_vertex_cover_size(g)

    def test_twin_classes_example(self):
        classes = twin_classes(fig1_graph(), {0, 1, 2})
        assert classes == [
            frozenset({3}),
            frozenset({4}),
            frozenset({5}),
            frozenset({6, 7}),
        ]

    def test_twin_classes_full_cover(self):
        assert twin_classes(k3(), {0, 1, 2}) == []

    def test_twin_classes_edgeless(self):
        assert twin_classes(Graph(3), set()) == [frozenset({0, 1, 2})]

    def test_twin_classes_rejects_non_cover(self):
        with pytest.raises(InvalidInputError):
            twin_classes(k3(), {0})

    @pytest.mark.parametrize("extra", [-1, 3, 98])
    def test_twin_classes_rejects_a_cover_vertex_out_of_range(self, extra):
        with pytest.raises(InvalidInputError, match="out of range"):
            twin_classes(k3(), {0, 1, 2, extra})

    @pytest.mark.parametrize("reduce", [clique_to_dce_eminus, clique_to_dce_vminus])
    def test_clique_above_the_cover_is_the_canonical_no(self, reduce):
        # A vertex outside a cover has at most |cover| neighbors, so only
        # the empty graph meets h > |cover| + 1 with every degree at least h.
        # It has no clique of any size h >= 1.
        for h in (1, 2, 3):
            out = reduce(Graph(0), h)
            assert out.provenance == {0: "canonical-no"}
            assert brute_force_solve(out.instance) is None


def _params_eminus(g, x, h):
    ell = max(1, len(twin_classes(g, x)))
    height = math.ceil(math.log2(ell)) if ell > 1 else 0
    return h * (h - 1) // 2 + h + height


class TestCliqueEdgeDeletion:
    def test_k4_h3_yes(self):
        out = clique_to_dce_eminus(k4(), 3, {0, 1, 2})
        assert out.instance.k == 6
        assert out.instance.r <= 3 + 2
        assert brute_force_solve(out.instance) is not None

    def test_degree_guard(self):
        c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        with pytest.raises(InvalidInputError):
            clique_to_dce_eminus(c4, 3)

    def test_parameter_bounds(self):
        for g in small_graphs(5, min_n=2):
            cover = approx_vertex_cover(g)
            if not (1 <= len(cover) <= 3):
                continue
            for h in range(1, len(cover) + 2):
                if any(g.degree(v) < h for v in range(g.vertex_count)):
                    continue
                out = clique_to_dce_eminus(g, h, set(cover))
                assert out.instance.r <= len(cover) + 2
                assert out.instance.k == _params_eminus(g, cover, h)

    def test_equivalence_selected(self):
        cases = [
            (k4(), {0, 1, 2}, 2),
            (k4(), {0, 1, 2}, 3),
            (Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]), {0, 2, 3}, 2),
            (fig1_graph(), {0, 1, 2}, 1),
        ]
        for g, x, h in cases:
            if any(g.degree(v) < h for v in range(g.vertex_count)):
                continue
            out = clique_to_dce_eminus(g, h, x)
            got = brute_force_solve(out.instance) is not None
            assert got == has_clique(g, h), (x, h)


class TestCliqueVertexDeletion:
    def test_k4_h3_yes(self):
        out = clique_to_dce_vminus(k4(), 3)
        cover = approx_vertex_cover(k4())
        assert out.instance.k == len(cover) + 1 - 3
        assert brute_force_solve(out.instance) is not None

    def test_isolated_vertex_guard(self):
        with pytest.raises(InvalidInputError):
            clique_to_dce_vminus(Graph(2), 1)

    def test_parameter_orders(self):
        for g in small_graphs(5, min_n=2):
            cover = approx_vertex_cover(g)
            if not (1 <= len(cover) <= 3):
                continue
            for h in range(1, len(cover) + 2):
                if any(g.degree(v) < h for v in range(g.vertex_count)):
                    continue
                ell = max(1, len(twin_classes(g, cover)))
                height = math.ceil(math.log2(ell)) if ell > 1 else 0
                out = clique_to_dce_vminus(g, h, set(cover))
                assert out.instance.k == height + len(cover) + 1 - h
                assert out.instance.r <= (len(cover) + 1) ** 2 + len(cover) + 2

    def test_equivalence_selected(self):
        cases = [
            (k4(), {0, 1, 2}, 2),
            (k4(), {0, 1, 2}, 3),
            (k4(), {0, 1, 2}, 4),
            (Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]), {0, 2, 3}, 2),
        ]
        for g, x, h in cases:
            if any(g.degree(v) < h for v in range(g.vertex_count)):
                continue
            out = clique_to_dce_vminus(g, h, x)
            got = brute_force_solve(out.instance, node_limit=8_000_000) is not None
            assert got == has_clique(g, h), (x, h)


class TestProvenance:
    def test_roles_cover_everything(self):
        out = clique_to_dce_vminus(k4(), 3, {0, 1, 2})
        assert set(out.provenance) == set(range(out.instance.graph.vertex_count))
        assert any(role.startswith("watch") for role in out.provenance.values())

    def test_rejects_a_vertex_without_a_role(self):
        with pytest.raises(InvalidInputError, match="provenance must cover"):
            ReductionOutput(make_dce(Graph(2), 0, 0, [{0}, {0}]), {0: "source-0"})


@pytest.mark.parametrize(
    "reduce, h, reason",
    [
        (vc_to_dce_vminus, -1, "cover size must be nonnegative"),
        (is_to_dce_eplus, 0, "independent-set size must be positive"),
        (clique_to_dce_eminus, 0, "clique size must be positive"),
        (clique_to_dce_vminus, 0, "clique size must be positive"),
    ],
    ids=["vc", "is", "clique-e", "clique-v"],
)
def test_rejects_a_size_out_of_range(reduce, h, reason):
    with pytest.raises(InvalidInputError, match=reason):
        reduce(k4(), h)


@st.composite
def _small_graph(draw, min_n, max_n, isolated=True):
    """A random graph; without `isolated`, every isolated vertex is joined to
    the next vertex."""
    n = draw(st.integers(min_n, max_n))
    edges = {e for e in all_pairs(n) if draw(st.booleans())}
    if not isolated:
        for v in range(n):
            if not any(v in e for e in edges):
                w = (v + 1) % n
                edges.add((min(v, w), max(v, w)))
    return Graph(n, sorted(edges))


@st.composite
def _clique_source(draw):
    """A clique question the reductions accept: every vertex has degree at
    least h. The cover is the approximate one, or it plus extra vertices.
    Up to five vertices, every such question has answer yes."""
    g = draw(_small_graph(2, 5, isolated=False))
    h = draw(st.integers(1, min(g.degrees())))
    extra = draw(st.sets(st.integers(0, g.vertex_count - 1)))
    return g, h, approx_vertex_cover(g) | extra


# K_{2,2,2}: every degree is 4, the largest clique has 3 vertices.
OCTAHEDRON = Graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6) if v != u + 3])


class TestReductionsKeepTheAnswer:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_small_graph(0, 6), st.integers(0, 6))
    def test_vertex_cover(self, g, h):
        got = brute_force_solve(vc_to_dce_vminus(g, h).instance) is not None
        assert got == has_vertex_cover(g, h)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from([4, 6, 8]), st.integers(0, 2**16), st.integers(1, 4))
    def test_independent_set(self, n, seed, h):
        g = gen_cubic(n, seed)
        got = brute_force_solve(is_to_dce_eplus(g, h).instance) is not None
        assert got == has_independent_set(g, h)

    @pytest.mark.parametrize("reduce", [clique_to_dce_eminus, clique_to_dce_vminus])
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_clique_source())
    @example((OCTAHEDRON, 4, None))
    def test_clique(self, reduce, case):
        g, h, cover = case
        got = brute_force_solve(reduce(g, h, cover).instance) is not None
        assert got == has_clique(g, h)
