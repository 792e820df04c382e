"""Seeded planted instances for the benchmark workloads, standard library only.

Every instance is built so that its answer is known in advance (a planted
solution, a planted factor, or a numeric certificate) and so that the work
the program does on it depends on the seed only through vertex labels and
edge choices, not through its size: edge counts, type counts and search
space sizes are fixed per instance, which keeps timings comparable across
seeds. Nothing here imports degkit, so a change to the program cannot
change a workload.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("kernel-large", "factor", "winwin", "search")


def _rng(workload: str, seed: int, index: int) -> random.Random:
    # String seeds hash through SHA-512, so streams do not depend on
    # PYTHONHASHSEED or on the interpreter build.
    return random.Random(f"{workload}/{seed}/{index}")


def instance_text(header: str, n: int, edges, lists=None) -> str:
    """Instance-file text: `p` line, 1-based `e` lines, then `t` lines."""
    lines = [f"p {header.format(n=n, m=len(edges))}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in edges]
    if lists is not None:
        lines += [
            f"t {v + 1} " + " ".join(map(str, sorted(lst)))
            for v, lst in enumerate(lists)
            if lst
        ]
    return "\n".join(lines) + "\n"


def _pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _circulant(n: int, offsets, rng: random.Random):
    """A 2|offsets|-regular circulant under a random relabeling.

    Returns the edge list and the position of each vertex on the cycle;
    u and v are adjacent exactly when their positions differ by an offset.
    """
    order = list(range(n))
    rng.shuffle(order)
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    edges = [_pair(order[i], order[(i + o) % n]) for i in range(n) for o in offsets]
    return edges, pos


def _planted_matching(rng, candidates, count, adjacent):
    """`count` disjoint non-adjacent pairs drawn from `candidates`."""
    while True:
        ends = rng.sample(candidates, 2 * count)
        pairs = [_pair(ends[2 * i], ends[2 * i + 1]) for i in range(count)]
        if not any(adjacent(u, v) for u, v in pairs):
            return pairs


def planted_eplus(rng, n, offsets, k, type_counts, reject=False):
    """Edge-addition instance on a circulant with k planted non-edges.

    The 2k endpoints of the planted pairs sit one below their only allowed
    degree, so the planted pairs are a minimum solution. Satisfied vertices
    get one positive type each, with exact counts per type, which fixes the
    kernel size. With `reject`, the last vertex is one more unsatisfied
    vertex, so rule 2 rejects after scanning every vertex.
    """
    edges, pos = _circulant(n, offsets, rng)
    d = 2 * len(offsets)
    r = d + max(type_counts, default=1)
    offs = {o % n for o in offsets} | {-o % n for o in offsets}

    def adjacent(u, v):
        return (pos[u] - pos[v]) % n in offs

    pool = list(range(n - 1)) if reject else list(range(n))
    pairs = _planted_matching(rng, pool, k, adjacent)
    unsat = {v for p in pairs for v in p}
    if reject:
        unsat.add(n - 1)
    free = [v for v in range(n) if v not in unsat]
    rng.shuffle(free)
    lists = [[d] for _ in range(n)]
    at = 0
    for t, count in sorted(type_counts.items()):
        for v in free[at:at + count]:
            lists[v] = [d, d + t]
        at += count
    for v in unsat:
        lists[v] = [d + 1]
    text = instance_text(f"dce {{n}} {{m}} {k} {r}", n, edges, lists)
    return {"text": text, "pairs": pairs, "min_edits": k}


def _gnm(rng, n, m):
    """A uniformly random graph with exactly m edges."""
    return sorted(rng.sample(list(itertools.combinations(range(n), 2)), m))


def planted_factor(rng, n, keep):
    """G(n, 1/2) with exactly half the pairs, and demands f = deg_H for a
    random spanning subgraph H holding a `keep` share of the edges."""
    m = n * (n - 1) // 4
    edges = _gnm(rng, n, m)
    sub = rng.sample(edges, round(keep * m))
    f = [0] * n
    for u, v in sub:
        f[u] += 1
        f[v] += 1
    return {"text": instance_text("dce {n} {m} 0 0", n, edges), "f": f}


def planted_matching(rng, n, extra):
    """A planted perfect matching plus `extra` random edges, shuffled."""
    order = list(range(n))
    rng.shuffle(order)
    edges = {_pair(order[2 * i], order[2 * i + 1]) for i in range(n // 2)}
    while len(edges) < n // 2 + extra:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add(_pair(u, v))
    edges = sorted(edges)
    rng.shuffle(edges)
    return {"text": instance_text("dce {n} {m} 0 0", n, edges)}


def winwin_instance(rng, n, r, k, degree_one, optional, forced=0):
    """Bounded-degree edge-addition instance for the r-only kernel.

    `degree_one` vertices are matched (degree 1), the rest isolated, and
    every vertex may keep its degree. Without `forced`, `optional` isolated
    vertices may also rise to r, so the smallest large total 2k' is met by
    exactly 2k'/r of them and realized as an f-factor of a complete graph.
    With `forced`, that many isolated vertices must rise by exactly one and
    `optional` others may rise by two: with `forced` odd every total is odd,
    no even total 2k' is reachable, and the budget clamps.
    """
    order = list(range(n))
    rng.shuffle(order)
    ones, zeros = order[:degree_one], order[degree_one:]
    edges = sorted(_pair(ones[2 * i], ones[2 * i + 1]) for i in range(degree_one // 2))
    lists = [[0] for _ in range(n)]
    for v in ones:
        lists[v] = [1]
    for v in zeros[:forced]:
        lists[v] = [1]
    pool = zeros[forced:] + (ones if forced else [])
    rng.shuffle(pool)
    for v in pool[:optional]:
        d = lists[v][0]
        lists[v] = [d, d + 2] if forced else [0, r]
    return {"text": instance_text(f"dce {{n}} {{m}} {k} {r}", n, edges, lists)}


def _cubic(rng, n):
    """A random simple cubic graph from the pairing model with rejection."""
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = {_pair(stubs[i], stubs[i + 1]) for i in range(0, 3 * n, 2) if stubs[i] != stubs[i + 1]}
        if len(edges) == 3 * n // 2:
            return sorted(edges)


def _relabel(edges, new_of_old):
    return sorted(_pair(new_of_old[u], new_of_old[v]) for u, v in edges)


def regular_yes(rng, n):
    """A cubic graph minus three disjoint edges; k = 3 restores regularity.

    The six deficient vertices get the highest labels, so every solution
    lies at the end of the block-set search order and the search visits
    almost every candidate before it: its work does not depend on the seed.
    """
    edges = _cubic(rng, n)
    removed = []
    used = set()
    for e in rng.sample(edges, len(edges)):
        if e[0] not in used and e[1] not in used:
            removed.append(e)
            used.update(e)
            if len(removed) == 3:
                break
    ends = [v for e in removed for v in e]
    others = [v for v in range(n) if v not in used]
    rng.shuffle(others)
    new_of_old = {old: new for new, old in enumerate(others + ends)}
    kept = _relabel([e for e in edges if e not in removed], new_of_old)
    return {"text": instance_text("dsc {n} {m} 3 regular", n, kept)}


def regular_no(rng, n, m, k):
    """G(n, m) with no reachable common degree: n*c - 2m is never an even
    number in 0..2k, which is checked here before any edge is drawn."""
    if any(0 <= n * c - 2 * m <= 2 * k and (n * c - 2 * m) % 2 == 0 for c in range(n)):
        raise ValueError(f"G({n}, {m}) admits a common degree within budget {k}")
    return {"text": instance_text(f"dsc {{n}} {{m}} {k} regular", n, _gnm(rng, n, m))}


def anonymize_yes(rng, half, m_half, k_anon, budget):
    """Two relabeled copies of one random graph (every degree occurs twice)
    with `budget` edges removed: adding them back anonymizes it."""
    base = _gnm(rng, half, m_half)
    n = 2 * half
    edges = base + [(u + half, v + half) for u, v in base]
    removed = set(rng.sample(edges, budget))
    order = list(range(n))
    rng.shuffle(order)
    kept = _relabel([e for e in edges if e not in removed], order)
    text = instance_text(f"dsc {{n}} {{m}} {budget} anon {k_anon}", n, kept)
    return {"text": text, "k_anon": k_anon, "budget": budget}


def _workload_specs():
    """Per workload: (name, operation, builder) in pass order.

    Where instance costs vary with the seed (blossom matching), a pass
    holds many instances, so that pass times and medians vary little.
    """
    big = 100_000
    big_types = {1: big // 10, 2: big // 10}
    # 43 f-factors carry most of a pass; their costs vary by about 30%
    # between seeds at equal size (blossom contractions vary from none to
    # over a thousand), so many small ones keep the pass time steady. The
    # 70 matchings, each faster than any f-factor, hold the median
    # operation, which is steadier across seeds than an order statistic of
    # the f-factors.
    factor = []
    for i in range(113):
        if i % 8 in (0, 3, 5):
            n = (40, 44, 48)[i % 3]
            factor.append((f"ff-n{n}-{i}", "f_factor", lambda g, n=n: planted_factor(g, n, 0.2)))
        else:
            factor.append((f"mm-n2000-{i}", "max_matching", lambda g: planted_matching(g, 2000, 1000)))
    return {
        "kernel-large": [
            ("kr-k20", "kernelize_kr", lambda g: planted_eplus(g, big, (1, 2, 3), 20, big_types)),
            ("kr-reject", "kernelize_kr", lambda g: planted_eplus(g, big, (1, 2, 3), 20, big_types, reject=True)),
            ("kr-k40", "kernelize_kr", lambda g: planted_eplus(g, big, (1, 4, 9), 40, big_types)),
        ],
        "factor": factor,
        "winwin": [
            ("wr-r3-yes", "kernelize_r", lambda g: winwin_instance(g, 1500, 3, 200, 500, 900)),
            ("wr-r3-clamp", "kernelize_r", lambda g: winwin_instance(g, 1500, 3, 200, 500, 900, forced=5)),
            ("wr-r2-yes", "kernelize_r", lambda g: winwin_instance(g, 2000, 2, 150, 600, 1200)),
        ],
        "search": [
            ("reg-no-n17", "dsc_solve", lambda g: regular_no(g, 17, 41, 3)),
            ("reg-yes-n14-a", "dsc_solve", lambda g: regular_yes(g, 14)),
            ("anon-n16", "anonymize", lambda g: anonymize_yes(g, 8, 12, 2, 2)),
            ("reg-yes-n14-b", "dsc_solve", lambda g: regular_yes(g, 14)),
            ("eplus-n2000", "solve_e_plus", lambda g: planted_eplus(g, 2000, (1, 2), 8, {1: 200, 2: 200})),
            ("anon-n18", "anonymize", lambda g: anonymize_yes(g, 9, 14, 2, 2)),
            ("reg-yes-n14-c", "dsc_solve", lambda g: regular_yes(g, 14)),
        ],
    }


def build(workload: str, seed: int) -> list[dict]:
    """The workload's instances for this seed, in pass order.

    Each entry holds `name`, `op`, the instance-file `text`, and whatever
    planted data its check needs.
    """
    specs = _workload_specs()[workload]
    out = []
    for index, (name, op, make) in enumerate(specs):
        inst = make(_rng(workload, seed, index))
        inst.update(name=name, op=op)
        out.append(inst)
    return out
