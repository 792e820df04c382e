"""Acceptance criteria: one test per criterion, each printing a status line.

Run with `pytest tests/test_acceptance.py -v -s`. Every criterion carries
its stated time budget; budgets are asserted, not advisory.
"""

import itertools
import math
import random
import time

from degkit.cli import main as cli_main
from degkit.dce import (
    EditKind,
    Kernel,
    TrivialNo,
    brute_force_solve,
    kernelize_kr,
    make_dce,
    validate_solution,
)
from degkit.dsc import (
    DscInstance,
    anonymity_property,
    anonymize,
    dsc_fpt_solve,
    regular_property,
)
from degkit.factors import f_factor
from degkit.formats import parse_instance, serialize_instance
from degkit.generators import gen_cubic, gen_random_dce
from degkit.graph import Graph
from degkit.nce import least_even_total, make_nce, nce_traceback
from degkit.reductions import (
    approx_vertex_cover,
    clique_to_dce_eminus,
    clique_to_dce_vminus,
    is_to_dce_eplus,
    twin_classes,
    vc_to_dce_vminus,
)
from degkit.winwin import TrivialYes, kernelize_r, solution_threshold, try_large_solution

from oracles import (
    add_edges,
    brute_dsc,
    brute_f_factor_exists,
    brute_nce,
    degree_sequence,
    has_clique,
    has_independent_set,
    has_vertex_cover,
    is_valid_factor,
    kt_condition_holds,
    reference_least_even_total,
    small_graphs,
    winwin_numbers,
)


class _Criterion:
    def __init__(self, name: str, budget_s: float):
        self.name = name
        self.budget = budget_s
        self.started = time.perf_counter()

    def finish(self, detail: str) -> None:
        elapsed = time.perf_counter() - self.started
        within = elapsed <= self.budget
        status = "PASS" if within else "FAIL"
        print(f"acceptance {self.name}: {status} ({detail}; {elapsed:.1f}s of {self.budget:.0f}s)")
        assert within, f"{self.name} exceeded its {self.budget:.0f}s budget ({elapsed:.1f}s)"


def test_criterion_1_kernel_equivalence():
    crit = _Criterion("1 kernel equivalence", 60)
    rng = random.Random(101)
    mismatches = 0
    checked = 0
    for i in range(500):
        n = rng.randrange(1, 13)
        k = rng.randrange(0, 5)
        r = rng.randrange(1, 6)
        inst = gen_random_dce(
            n, rng.choice([0.0, 0.15, 0.3, 0.5]), k, r,
            rng.choice([0.3, 0.5, 0.7]), seed=9000 + i,
        )
        original = brute_force_solve(inst) is not None
        result = kernelize_kr(inst)
        if isinstance(result, TrivialNo):
            reduced = False
        else:
            assert result.instance.graph.vertex_count <= 2 * k + r * k * (r + 2)
            reduced = brute_force_solve(result.instance) is not None
        mismatches += original != reduced
        checked += 1
    assert mismatches == 0
    crit.finish(f"{checked} instances, {mismatches} mismatches")


def test_criterion_2_nce_exactness():
    crit = _Criterion("2 numeric DP exactness", 30)
    rng = random.Random(202)
    cases = 0
    for _ in range(10_000):
        n = rng.randrange(1, 7)
        r = rng.randrange(1, 5)
        k = rng.randrange(0, 11)
        degrees = [rng.randrange(0, r + 2) for _ in range(n)]
        phi = [{x for x in range(r + 1) if rng.random() < 0.6} for _ in range(n)]
        inst = make_nce(degrees, k, r, phi)
        expect = brute_nce(degrees, k, phi)
        witness = nce_traceback(inst)
        assert (witness is not None) == expect
        if witness is not None:
            assert all(x >= d and x in s for x, d, s in zip(witness, degrees, phi))
            assert sum(x - d for x, d in zip(witness, degrees)) == k
        cases += 1
    crit.finish(f"{cases} sampled configurations")


def test_criterion_3_f_factor_exactness():
    crit = _Criterion("3 factor exactness", 60)
    rng = random.Random(303)
    checked = 0
    while checked < 200:
        n = rng.randrange(1, 9)
        p = rng.choice([0.2, 0.4, 0.7])
        g = Graph(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        )
        if g.edge_count > 16:
            continue
        f = [rng.randrange(0, g.degree(v) + 2) for v in range(n)]
        found = f_factor(g, f)
        assert (found is not None) == brute_f_factor_exists(g, f)
        if found is not None:
            assert is_valid_factor(g, f, found)
        checked += 1
    crit.finish(f"{checked} graphs vs subset enumeration")


def _dense_graph(n: int, r: int, rng: random.Random) -> Graph:
    """Complete graph minus random deletions, each vertex losing at most r."""
    lost = [0] * n
    removed = set()
    for _ in range(n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and lost[u] < r and lost[v] < r:
            e = (min(u, v), max(u, v))
            if e not in removed:
                removed.add(e)
                lost[u] += 1
                lost[v] += 1
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) not in removed
    ]
    return Graph(n, edges)


def test_criterion_4_density_sufficiency():
    crit = _Criterion("4 density sufficiency", 30)
    rng = random.Random(404)
    successes = 0
    while successes < 100:
        r = rng.choice([1, 2])
        low = (r + 1) ** 2
        n = rng.randrange(low, 26)
        if r == 1 and n % 2 == 1:
            continue
        g = _dense_graph(n, r, rng)
        if not kt_condition_holds(n, min(g.degrees()), r):
            continue
        f = [rng.randrange(1, r + 1) for _ in range(n)]
        if sum(f) % 2 == 1:
            target = next(v for v in range(n) if r > 1)
            f[target] = 3 - f[target]
        assert sum(f) % 2 == 0
        factor = f_factor(g, f)
        assert factor is not None, (n, r, f)
        assert is_valid_factor(g, f, factor)
        successes += 1
    crit.finish(f"{successes} guaranteed factors realized")


def test_criterion_5_win_win():
    crit = _Criterion("5 win-win construction", 30)
    rng = random.Random(505)
    assert solution_threshold(1) == 4
    witnesses = 0
    for trial in range(60):
        needy = 2 * rng.randrange(4, 9)
        k = needy // 2
        decoys = rng.randrange(0, 5)
        pairs = rng.randrange(0, 3)
        n = needy + decoys + 2 * pairs
        edges = [(needy + decoys + 2 * i, needy + decoys + 2 * i + 1) for i in range(pairs)]
        lists = [{1}] * needy + [{0, 1}] * decoys + [{1}] * (2 * pairs)
        inst = make_dce(Graph(n, edges), k, 1, lists)
        assert nce_traceback(make_nce(inst.graph.degrees(), 2 * k, 1, lists)) is not None
        sol = try_large_solution(inst)
        assert sol is not None, f"trial {trial}: guaranteed witness missing"
        validate_solution(inst, sol)
        witnesses += 1

    bound_checked = 0
    for trial in range(40):
        # Odd demand totals are numerically infeasible: the pipeline must
        # clamp to the threshold and still respect the r-only size bound.
        needy = rng.choice([5, 7])
        k = rng.randrange(5, 9)
        decoys = rng.randrange(0, 30)
        inst = make_dce(Graph(needy + decoys), k, 1, [{1}] * needy + [{0}] * decoys)
        result = kernelize_r(inst)
        assert not isinstance(result, TrivialYes)
        assert isinstance(result, Kernel), result
        k2 = min(k, solution_threshold(1))
        assert result.instance.graph.vertex_count <= 2 * k2 + 1 * k2 * 3
        bound_checked += 1
    assert bound_checked == 40
    crit.finish(f"{witnesses} witnesses, {bound_checked} clamped kernels in bound")


def test_criterion_6_dsc_completeness():
    crit = _Criterion("6 sequence-completion completeness", 120)
    props = [regular_property(), anonymity_property(2)]
    cases = 0
    for g in small_graphs(7):
        for k in range(3):
            for prop in props:
                inst = DscInstance(g, k, prop)
                got = dsc_fpt_solve(inst)
                expect = brute_dsc(g, k, prop.fulfills)
                assert (got is None) == (expect is None), (list(g.edges()), k, prop.name)
                if got is not None:
                    assert prop.fulfills(degree_sequence(add_edges(g, got)))
                cases += 1
    crit.finish(f"{cases} graph/property/budget combinations")


def test_criterion_7_anonymization():
    crit = _Criterion("7 anonymization end-to-end", 60)
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert anonymize(star, 2, 1) is None
    two = anonymize(star, 2, 2)
    assert two is not None and len(two) == 2

    rng = random.Random(707)
    checked = 0
    for _ in range(200):
        n = rng.randrange(1, 9)
        g = Graph(
            n,
            [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < rng.choice([0.2, 0.5])
            ],
        )
        k_anon = rng.randrange(1, 4)
        s = rng.randrange(0, 4)
        got = anonymize(g, k_anon, s)
        expect = brute_dsc(g, s, anonymity_property(k_anon).fulfills)
        assert (got is None) == (expect is None)
        if got is not None:
            assert len(got) <= s
            assert anonymity_property(k_anon).fulfills(degree_sequence(add_edges(g, got)))
        checked += 1
    crit.finish(f"{checked} random cases plus the star minimum")


def _min_cover(g: Graph) -> set[int]:
    edges = list(g.edges())
    for size in range(g.vertex_count + 1):
        for combo in itertools.combinations(range(g.vertex_count), size):
            s = set(combo)
            if all(u in s or v in s for u, v in edges):
                return s
    return set(range(g.vertex_count))


def test_criterion_8_reductions():
    crit = _Criterion("8 reduction correctness", 300)
    vc_cases = is_cases = clique_cases = 0

    for g in small_graphs(5):
        for h in range(g.vertex_count + 1):
            out = vc_to_dce_vminus(g, h)
            got = brute_force_solve(out.instance) is not None
            assert got == has_vertex_cover(g, h)
            vc_cases += 1
    rng = random.Random(808)
    for _ in range(10):
        n = rng.randrange(5, 8)
        g = Graph(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        )
        for h in range(0, 5):
            out = vc_to_dce_vminus(g, h)
            got = brute_force_solve(out.instance) is not None
            assert got == has_vertex_cover(g, h)
            vc_cases += 1

    cubics = [gen_cubic(4, 1), gen_cubic(6, 2), gen_cubic(6, 3), gen_cubic(8, 4)]
    for g in cubics:
        for h in range(1, 4):
            out = is_to_dce_eplus(g, h)
            assert out.instance.k == h * (h - 1) // 2 + h
            got = brute_force_solve(out.instance) is not None
            assert got == has_independent_set(g, h)
            is_cases += 1

    for g in small_graphs(5, min_n=2):
        covers = []
        approx = approx_vertex_cover(g)
        if 1 <= len(approx) <= 3:
            covers.append(approx)
        minimum = _min_cover(g)
        if 1 <= len(minimum) <= 3 and minimum != approx:
            covers.append(minimum)
        for cover in covers:
            for h in range(1, len(cover) + 2):
                if any(g.degree(v) < h for v in range(g.vertex_count)):
                    continue
                source_yes = has_clique(g, h)
                ell = max(1, len(twin_classes(g, cover)))
                height = math.ceil(math.log2(ell)) if ell > 1 else 0

                out = clique_to_dce_eminus(g, h, set(cover))
                assert out.instance.r <= len(cover) + 2
                assert out.instance.k == h * (h - 1) // 2 + h + height
                got = brute_force_solve(out.instance, node_limit=30_000_000) is not None
                assert got == source_yes, ("e-", list(g.edges()), sorted(cover), h)

                out = clique_to_dce_vminus(g, h, set(cover))
                assert out.instance.k == height + len(cover) + 1 - h
                got = brute_force_solve(out.instance, node_limit=30_000_000) is not None
                assert got == source_yes, ("v-", list(g.edges()), sorted(cover), h)
                clique_cases += 2

    extra_rng = random.Random(818)
    extras = 0
    while extras < 8:
        n = extra_rng.randrange(6, 8)
        g = Graph(
            n,
            [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if extra_rng.random() < 0.3
            ],
        )
        cover = _min_cover(g)
        if not (1 <= len(cover) <= 3):
            continue
        feasible = [
            h
            for h in range(1, len(cover) + 2)
            if all(g.degree(v) >= h for v in range(n))
        ]
        if not feasible:
            continue
        h = feasible[-1]
        source_yes = has_clique(g, h)
        for builder in (clique_to_dce_eminus, clique_to_dce_vminus):
            out = builder(g, h, set(cover))
            got = brute_force_solve(out.instance, node_limit=30_000_000) is not None
            assert got == source_yes, (builder.__name__, list(g.edges()), sorted(cover), h)
        extras += 1
        clique_cases += 2
    crit.finish(
        f"{vc_cases} cover, {is_cases} independent-set, {clique_cases} clique cases"
    )


def test_criterion_9_linear_time_kernel():
    # The budget covers the kernelization calls alone; instance generation
    # is timed separately and generously.
    n = 100_000
    p = 500_000 / (n * (n - 1) / 2)
    inst = gen_random_dce(n, p, 10, 10, 0.5, seed=20260809)
    assert abs(inst.graph.edge_count - 500_000) < 20_000

    crit = _Criterion("9 linear-time kernel", 5)
    result = kernelize_kr(inst)
    if isinstance(result, Kernel):
        assert result.instance.graph.vertex_count <= 2 * 10 + 10 * 10 * 12

    # A same-scale instance that survives the overshoot rule: 10-regular
    # circulant with 600 edges removed. Its one rise fills up after 120 of
    # the 1185 typed vertices, so the core-set sweep stops there.
    edges = []
    removed_pairs = {(10 * i, 10 * i + 1) for i in range(600)}
    for s in range(1, 6):
        for v in range(n):
            u, w = v, (v + s) % n
            e = (u, w) if u < w else (w, u)
            if e not in removed_pairs:
                edges.append(e)
    g = Graph(n, edges)
    exposed = [v for e in sorted(removed_pairs) for v in e]
    needy, typed = set(exposed[:15]), set(exposed[15:])
    lists = []
    for v in range(n):
        d = g.degree(v)
        if v in needy:
            lists.append({d + 1})
        elif v in typed:
            lists.append({d, d + 1})
        else:
            lists.append({d})
    big = make_dce(g, 10, 10, lists)
    second = kernelize_kr(big)
    assert isinstance(second, Kernel)
    assert second.instance.graph.vertex_count <= 2 * 10 + 10 * 10 * 12

    # The same graph where the needy vertices' lists span 2 while no
    # satisfied vertex rises by 2: the sweep runs to the last vertex.
    degrees = g.degrees()
    spanning = make_dce(g, 10, 10, [
        {degrees[v] - 1, degrees[v] + 1} if v in needy else lst for v, lst in enumerate(lists)
    ])
    assert spanning.tau.spread == 2
    third = kernelize_kr(spanning)
    assert isinstance(third, Kernel)
    assert third.old_of_new == second.old_of_new
    crit.finish(
        f"n={n}, m~5e5: trivial-no fast path plus {second.instance.graph.vertex_count}-vertex "
        "kernels from a stopped and a full core-set sweep"
    )


def _corpus() -> list:
    instances = []
    for i in range(30):
        op = [EditKind.EDGE_ADDITION, EditKind.EDGE_DELETION, EditKind.VERTEX_DELETION][i % 3]
        instances.append(gen_random_dce(3 + i % 8, 0.3, 1 + i % 3, 1 + i % 4, 0.5, 600 + i, op))
    for text in ("regular", "anon 2", "anon 3", "hindex 2", "balanced 1"):
        for i in range(3):
            inst = gen_random_dce(4 + i, 0.4, 2, 3, 0.5, 700 + i)
            g = inst.graph
            instances.append(
                parse_instance(
                    f"p dsc {g.vertex_count} {g.edge_count} 2 {text}\n"
                    + "".join(f"e {u + 1} {v + 1}\n" for u, v in g.edges())
                )
            )
    for seed in (1, 2):
        g = gen_cubic(6, seed)
        instances.append(is_to_dce_eplus(g, 2).instance)
        instances.append(vc_to_dce_vminus(g, 3).instance)
    k4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    instances.append(clique_to_dce_eminus(k4, 3, {0, 1, 2}).instance)
    instances.append(clique_to_dce_vminus(k4, 3, {0, 1, 2}).instance)
    return instances


def test_criterion_10_round_trip_and_verify(tmp_path, capsys):
    crit = _Criterion("10 round-trip and verify", 60)
    corpus = _corpus()
    for inst in corpus:
        assert parse_instance(serialize_instance(inst)) == inst

    yes_outputs = 0
    for idx, inst in enumerate(corpus):
        path = tmp_path / f"case{idx}.dce"
        path.write_text(serialize_instance(inst))
        code = cli_main(["solve", str(path), "--verify"])
        out = capsys.readouterr().out
        assert code == 0
        if out.startswith("YES"):
            assert "c verified" in out
            yes_outputs += 1
    crit.finish(f"{len(corpus)} instances round-tripped, {yes_outputs} YES outputs verified")


def test_criterion_11_type_census_witness_search():
    # 100,000 vertices of three (degree, list) types, each with its own
    # list object. The budget covers least_even_total alone; it catches a
    # return to quadratic work, not a constant factor.
    r, k = 3, 200
    degrees, phi = winwin_numbers(random.Random(11), 100_000, r, 33_000, 60_000)
    assert len(set(zip(degrees, phi))) == 3
    expect = reference_least_even_total(degrees, phi, solution_threshold(r), k)
    assert expect is not None

    crit = _Criterion("11 type-census witness search", 2)
    found = least_even_total(degrees, phi, solution_threshold(r), k)
    crit.finish(f"n=100000, 3 types, least s={found[0]}")
    assert found == expect
