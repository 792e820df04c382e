"""Independent brute-force oracles.

Everything here enumerates, except the networkx matching size for graphs
beyond enumeration and a few plain helpers such as `add_edges`, which
rebuilds through the checked `Graph` constructor; nothing reuses the
solver paths under test. Sizes are
expected to be tiny (n <= ~14, m <= ~18).
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Sequence

from degkit.dce import (
    DceInstance,
    DegreeListFunction,
    EditKind,
    Kernel,
    TrivialNo,
    make_dce,
)
from degkit.dsc import (
    DscInstance,
    PiProperty,
    anonymity_property,
    balanced_property,
    h_index_property,
    regular_property,
)
from degkit.errors import InvalidInputError, ParseError
from degkit.formats import MAX_VERTICES
from degkit.graph import Edge, Graph


def all_pairs(n: int) -> list[Edge]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def non_edges(g: Graph) -> list[Edge]:
    return [e for e in all_pairs(g.vertex_count) if not g.has_edge(*e)]


def add_edges(g: Graph, new_edges: Iterable[Edge]) -> Graph:
    """G plus the given edges, rebuilt through the checked constructor, which
    rejects present and repeated edges (EdgeConflictError) and loops or
    out-of-range ends."""
    return Graph(g.vertex_count, [*g.edges(), *new_edges])


def degree_sequence(g: Graph) -> tuple[int, ...]:
    """All vertex degrees in nonincreasing order."""
    return tuple(sorted(g.degrees(), reverse=True))


# -- matching ------------------------------------------------------------


def brute_max_matching_size(g: Graph) -> int:
    edges = list(g.edges())
    best = 0

    def rec(i: int, used: frozenset[int], count: int) -> None:
        nonlocal best
        if count > best:
            best = count
        if i >= len(edges) or count + (len(edges) - i) <= best:
            return
        u, v = edges[i]
        if u not in used and v not in used:
            rec(i + 1, used | {u, v}, count + 1)
        rec(i + 1, used, count)

    rec(0, frozenset(), 0)
    return best


def networkx_max_matching_size(g: Graph) -> int:
    """The size of a maximum matching by networkx's weighted blossom code,
    for graphs too large to enumerate."""
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(range(g.vertex_count))
    h.add_edges_from(g.edges())
    return len(nx.max_weight_matching(h, maxcardinality=True))


# -- f-factors -----------------------------------------------------------


def brute_f_factor_exists(g: Graph, f: Sequence[int]) -> bool:
    """Complete include/exclude enumeration over edge subsets."""
    n = g.vertex_count
    edges = list(g.edges())
    if any(f[v] < 0 for v in range(n)):
        return False
    last = [-1] * n
    for i, (u, v) in enumerate(edges):
        last[u] = i
        last[v] = i
    if any(last[v] == -1 and f[v] != 0 for v in range(n)):
        return False
    need = list(f)

    def closed(i: int, w: int) -> bool:
        return last[w] != i or need[w] == 0

    def rec(i: int) -> bool:
        if i == len(edges):
            return True
        u, v = edges[i]
        if need[u] > 0 and need[v] > 0:
            need[u] -= 1
            need[v] -= 1
            if closed(i, u) and closed(i, v) and rec(i + 1):
                need[u] += 1
                need[v] += 1
                return True
            need[u] += 1
            need[v] += 1
        if closed(i, u) and closed(i, v) and rec(i + 1):
            return True
        return False

    return rec(0)


def kt_condition_holds(n: int, min_degree: int, r: int) -> bool:
    """Sufficient density condition for guaranteed factor existence.

    When it holds, every demand function into {1, ..., r} with even total
    admits a factor (Katerinis-Tsikopoulos bound specialized to a=1, b=r:
    minimum degree at least n - r - 1 and n at least (r+1)^2).
    """
    if r < 1:
        raise InvalidInputError("r must be at least 1")
    return min_degree >= n - r - 1 and n >= (r + 1) ** 2


def is_valid_factor(g: Graph, f: Sequence[int], factor: set[Edge]) -> bool:
    deg = [0] * g.vertex_count
    for u, v in factor:
        if not g.has_edge(u, v):
            return False
        deg[u] += 1
        deg[v] += 1
    return all(deg[v] == f[v] for v in range(g.vertex_count))


# -- NCE -------------------------------------------------------------------


def brute_nce(degrees: Sequence[int], k: int, phi: Sequence[set[int]]) -> bool:
    n = len(degrees)

    def rec(i: int, total: int) -> bool:
        if total > k:
            return False
        if i == n:
            return total == k
        return any(
            x >= degrees[i] and rec(i + 1, total + x - degrees[i])
            for x in sorted(phi[i])
        )

    return rec(0, 0)


def reference_least_even_total(
    degrees: Sequence[int], phi: Sequence[frozenset[int]], lo: int, hi: int
) -> tuple[int, tuple[int, ...]] | None:
    """least_even_total as per-vertex loops: each index's largest rise for
    the width cap, the x >= d test in every table row, and each list sorted
    again in the trace, the smallest final degree first from the last index
    down."""
    cap = sum(max(max(allowed, default=0) - d, 0) for d, allowed in zip(degrees, phi))
    top = min(hi, cap // 2)
    if top < lo:
        return None
    mask = (1 << (2 * top + 1)) - 1
    rows = [1]
    for d, allowed in zip(degrees, phi):
        row = 0
        for x in allowed:
            if x >= d:
                row |= rows[-1] << (x - d)
        rows.append(row & mask)
    s = next((s for s in range(lo, top + 1) if rows[-1] >> 2 * s & 1), None)
    if s is None:
        return None
    j = 2 * s
    final = [0] * len(degrees)
    for i in range(len(degrees) - 1, -1, -1):
        d = degrees[i]
        x = next(x for x in sorted(phi[i]) if d <= x <= d + j and rows[i] >> (j - (x - d)) & 1)
        final[i] = x
        j -= x - d
    return s, tuple(final)


def winwin_numbers(rng, n, r, degree_one, optional, forced=0, shared=False):
    """Degrees and lists after the benchmark's r-only kernel recipe:
    `degree_one` matched vertices of degree 1, the rest isolated, and every
    vertex may keep its degree. Without `forced`, `optional` isolated
    vertices may also rise to r. With `forced`, that many isolated vertices
    must rise by one and `optional` others may rise by two, so an odd
    `forced` reaches only odd totals. With `shared`, equal lists are one
    frozenset object; without it, every vertex has its own."""
    order = list(range(n))
    rng.shuffle(order)
    ones, zeros = order[:degree_one], order[degree_one:]
    degrees = [0] * n
    lists = [(0,)] * n
    for v in ones:
        degrees[v] = 1
        lists[v] = (1,)
    for v in zeros[:forced]:
        lists[v] = (1,)
    pool = zeros[forced:] + (ones if forced else [])
    rng.shuffle(pool)
    for v in pool[:optional]:
        d = lists[v][0]
        lists[v] = (d, d + 2) if forced else (0, r)
    if shared:
        one: dict = {}
        return degrees, [one.setdefault(lst, frozenset(lst)) for lst in lists]
    return degrees, [frozenset(lst) for lst in lists]


# -- DCE (all three edit operations) ---------------------------------------


def naive_dce_min_edits(g: Graph, k: int, tau: Sequence[set[int]], op: str) -> int | None:
    """Minimum number of edits by plain itertools enumeration, or None.

    op is one of "e+", "e-", "v-". Intended for very small instances only;
    this is the trusted base everything else is compared against.
    """
    n = g.vertex_count
    degs = list(g.degrees())
    if op == "e+":
        candidates = non_edges(g)
    elif op == "e-":
        candidates = list(g.edges())
    elif op == "v-":
        candidates = list(range(n))
    else:
        raise ValueError(op)

    for size in range(min(k, len(candidates)) + 1):
        for combo in itertools.combinations(candidates, size):
            if op == "v-":
                removed = set(combo)
                ok = all(
                    sum(1 for w in g.adj[v] if w not in removed) in tau[v]
                    for v in range(n)
                    if v not in removed
                )
            else:
                d = list(degs)
                delta = 1 if op == "e+" else -1
                for u, v in combo:
                    d[u] += delta
                    d[v] += delta
                ok = all(d[v] in tau[v] for v in range(n))
            if ok:
                return size
    return None


# -- the type-set kernel, one vertex at a time --------------------------------


def reference_safely_remove(inst: DceInstance, vertices) -> DceInstance:
    """Delete the vertices; shift each survivor's list down by the number of
    removed neighbors it had, counted one by one."""
    g = inst.graph
    removed = set(vertices)
    for v in removed:
        if not (0 <= v < g.vertex_count):
            raise InvalidInputError(f"vertex {v} out of range")
    kept = [v for v in range(g.vertex_count) if v not in removed]
    new_of_old = {old: new for new, old in enumerate(kept)}
    edges = [(new_of_old[u], new_of_old[v]) for u, v in g.edges() if not {u, v} & removed]
    sub = Graph(len(kept), edges)
    lists = []
    for old in kept:
        shift = sum(1 for w in g.adj[old] if w in removed)
        lists.append(frozenset(t - shift for t in inst.tau[old] if t >= shift))
    return DceInstance(sub, inst.k, DegreeListFunction(inst.r, tuple(lists)), inst.op_kind)


def reference_core_set(inst: DceInstance) -> set[int]:
    """Every unsatisfied vertex, then each satisfied vertex in increasing
    order while some counter of its positive types is below k(max_degree + 2)."""
    g, tau, r = inst.graph, inst.tau, inst.r
    alpha = inst.k * (g.max_degree() + 2)
    counters = [0] * (r + 1)
    chosen: set[int] = set()
    for v in range(g.vertex_count):
        deg = g.degree(v)
        satisfied = False
        types = []
        for t in tau[v]:
            if t > deg:
                types.append(t - deg)
            elif t == deg:
                satisfied = True
        if not satisfied:
            chosen.add(v)
            continue
        if any(counters[i] < alpha for i in types):
            chosen.add(v)
        for i in types:
            counters[i] += 1
    return chosen


def reference_rule2_check(inst: DceInstance) -> TrivialNo | None:
    """Every vertex in increasing order: an overshoot or empty list, then the
    count of unsatisfied vertices against 2k."""
    g, tau = inst.graph, inst.tau
    unsat = 0
    for v in range(g.vertex_count):
        deg = g.degree(v)
        lst = tau[v]
        if not lst or deg > max(lst):
            return TrivialNo(f"vertex {v} overshoots its degree list")
        if deg not in lst:
            unsat += 1
            if unsat > 2 * inst.k:
                return TrivialNo(f"more than {2 * inst.k} unsatisfied vertices")
    return None


def reference_kernelize_kr(inst: DceInstance) -> Kernel | TrivialNo:
    """Rule 2, then every vertex outside the core set removed."""
    no = reference_rule2_check(inst)
    if no is not None:
        return no
    keep = reference_core_set(inst)
    removed = [v for v in range(inst.graph.vertex_count) if v not in keep]
    return Kernel(reference_safely_remove(inst, removed), tuple(sorted(keep)))


# -- source problems for the hardness reductions ---------------------------


def has_clique(g: Graph, h: int) -> bool:
    if h <= 1:
        return g.vertex_count >= h
    return any(
        all(g.has_edge(a, b) for a, b in itertools.combinations(combo, 2))
        for combo in itertools.combinations(range(g.vertex_count), h)
    )


def has_vertex_cover(g: Graph, h: int) -> bool:
    edges = list(g.edges())
    if not edges:
        return h >= 0
    if h < 0:
        return False
    for size in range(min(h, g.vertex_count) + 1):
        for combo in itertools.combinations(range(g.vertex_count), size):
            chosen = set(combo)
            if all(u in chosen or v in chosen for u, v in edges):
                return True
    return False


def min_vertex_cover_size(g: Graph) -> int:
    for size in range(g.vertex_count + 1):
        if has_vertex_cover(g, size):
            return size
    return g.vertex_count


def has_independent_set(g: Graph, h: int) -> bool:
    if h <= 0:
        return True
    return any(
        not any(g.has_edge(a, b) for a, b in itertools.combinations(combo, 2))
        for combo in itertools.combinations(range(g.vertex_count), h)
    )


# -- number sequence completion ---------------------------------------------


def brute_nsc(
    fulfills: Callable[[tuple[int, ...]], bool],
    degrees: Sequence[int],
    target: int,
    delta: int,
) -> list[int] | None:
    """First increment vector (lexicographic) meeting all three conditions."""
    n = len(degrees)
    acc = [0] * n

    def rec(i: int, left: int) -> bool:
        if i == n:
            if left != 0:
                return False
            final = tuple(sorted((d + x for d, x in zip(degrees, acc)), reverse=True))
            return fulfills(final)
        top = min(delta - degrees[i], left)
        for x in range(0, top + 1):
            acc[i] = x
            if rec(i + 1, left - x):
                return True
        acc[i] = 0
        return False

    return list(acc) if rec(0, target) else None


def brute_dsc(
    g: Graph,
    k: int,
    fulfills: Callable[[tuple[int, ...]], bool],
    delta_cap: int | None = None,
) -> set[Edge] | None:
    """Unrestricted search over all vertex pairs, smallest edge sets first."""
    candidates = non_edges(g)
    degs = g.degrees()
    for size in range(k + 1):
        for combo in itertools.combinations(candidates, size):
            d = list(degs)
            for u, v in combo:
                d[u] += 1
                d[v] += 1
            if delta_cap is not None and any(x > delta_cap for x in d):
                continue
            if fulfills(tuple(sorted(d, reverse=True))):
                return set(combo)
    return None


# -- small-graph enumeration -------------------------------------------------


def small_graphs(max_n: int, min_n: int = 0):
    """All non-isomorphic graphs with min_n <= n <= max_n (graph atlas)."""
    from networkx.generators.atlas import graph_atlas_g

    for nxg in graph_atlas_g():
        n = nxg.number_of_nodes()
        if n > max_n:
            break
        if n < min_n:
            continue
        yield Graph(n, [(int(u), int(v)) for u, v in nxg.edges()])


# -- instance files ------------------------------------------------------------


def _ref_int(token: str, line_no: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected an integer, got {token!r}", line_no) from None


def _ref_property(tokens: list[str], line_no: int) -> PiProperty:
    if not tokens:
        raise ParseError("missing property name", line_no)
    name, params = tokens[0], tokens[1:]
    factories = {
        "anon": anonymity_property,
        "hindex": h_index_property,
        "balanced": balanced_property,
    }
    if name == "regular":
        if params:
            raise ParseError("regular takes no parameters", line_no)
        return regular_property()
    if name not in factories:
        raise ParseError(f"unknown property {name!r}", line_no)
    if len(params) != 1:
        raise ParseError(f"property {name} takes one parameter", line_no)
    param = _ref_int(params[0], line_no)
    try:
        return factories[name](param)
    except InvalidInputError as exc:
        raise ParseError(str(exc), line_no) from exc


def reference_parse_instance(text: str) -> DceInstance | DscInstance:
    """The file format read line by line, each fault raised where it is met.

    Every header field is checked on the problem line; only the edge count
    and the degree cap against the maximum degree wait for the end. Edges
    are checked against a set of pairs as they arrive and again by the
    checked Graph constructor; degree lists are range-checked here and
    again by make_dce.
    """
    header: list[str] | None = None
    header_line = 0
    edges: list[tuple[int, int]] = []
    edge_seen: set[tuple[int, int]] = set()
    lists: dict[int, list[int]] = {}
    n = m = k = r = 0
    op = EditKind.EDGE_ADDITION
    prop: PiProperty | None = None
    cap: int | None = None
    cap_line = 0
    ops = {kind.value: kind for kind in EditKind}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.split()[0] == "c":
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "p":
            if header is not None:
                raise ParseError("duplicate problem line", line_no)
            if len(tokens) < 5:
                raise ParseError("problem line needs at least 4 fields", line_no)
            if tokens[1] == "dce" and len(tokens) < 6:
                raise ParseError("dce header needs n m k r", line_no)
            n, m = _ref_int(tokens[2], line_no), _ref_int(tokens[3], line_no)
            k = _ref_int(tokens[4], line_no)
            if tokens[1] == "dce":
                r = _ref_int(tokens[5], line_no)
            if n < 0 or m < 0:
                raise ParseError("n and m must be nonnegative", line_no)
            if n > MAX_VERTICES:
                raise ParseError(f"n = {n} exceeds the cap {MAX_VERTICES}", line_no)
            if k < 0:
                raise ParseError("budget k must be nonnegative", line_no)
            if tokens[1] == "dce":
                if r < 0:
                    raise ParseError("degree bound r must be nonnegative", line_no)
                if len(tokens) > 7:
                    raise ParseError("trailing tokens on the problem line", line_no)
                if len(tokens) == 7:
                    if tokens[6] not in ops:
                        raise ParseError(f"unknown operation {tokens[6]!r}", line_no)
                    op = ops[tokens[6]]
            elif tokens[1] == "dsc":
                prop = _ref_property(tokens[5:], line_no)
            else:
                raise ParseError(f"unknown problem kind {tokens[1]!r}", line_no)
            header, header_line = tokens, line_no
        elif kind == "e":
            if header is None:
                raise ParseError("edge before the problem line", line_no)
            if len(tokens) != 3:
                raise ParseError("edge line needs two endpoints", line_no)
            u, v = _ref_int(tokens[1], line_no), _ref_int(tokens[2], line_no)
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"endpoint out of range 1..{n}", line_no)
            if u == v:
                raise ParseError("self-loop", line_no)
            e = (min(u, v) - 1, max(u, v) - 1)
            if e in edge_seen:
                raise ParseError(f"duplicate edge {u} {v}", line_no)
            edge_seen.add(e)
            edges.append(e)
        elif kind == "t":
            if header is None:
                raise ParseError("degree list before the problem line", line_no)
            if header[1] != "dce":
                raise ParseError("degree lists apply to dce instances only", line_no)
            if len(tokens) < 2:
                raise ParseError("degree-list line needs a vertex", line_no)
            v = _ref_int(tokens[1], line_no)
            if not (1 <= v <= n):
                raise ParseError(f"vertex out of range 1..{n}", line_no)
            if v - 1 in lists:
                raise ParseError(f"duplicate degree list for vertex {v}", line_no)
            values = [_ref_int(tok, line_no) for tok in tokens[2:]]
            for d in values:
                if d < 0 or d > r:
                    raise ParseError(f"degree {d} outside 0..{r}", line_no)
            lists[v - 1] = values
        elif kind == "d":
            if header is None:
                raise ParseError("degree cap before the problem line", line_no)
            if header[1] != "dsc":
                raise ParseError("a degree cap applies to dsc instances only", line_no)
            if cap is not None:
                raise ParseError("duplicate degree cap", line_no)
            if len(tokens) != 2:
                raise ParseError("degree-cap line needs one value", line_no)
            cap, cap_line = _ref_int(tokens[1], line_no), line_no
        else:
            raise ParseError(f"unknown line kind {kind!r}", line_no)

    if header is None:
        raise ParseError("missing problem line")
    if len(edges) != m:
        raise ParseError(f"header declares {m} edges but {len(edges)} were given", header_line)
    graph = Graph(n, edges)
    if header[1] == "dce":
        return make_dce(graph, k, r, [lists.get(v, []) for v in range(n)], op)
    if cap is not None and cap < graph.max_degree():
        raise ParseError(
            f"degree cap {cap} below the maximum degree {graph.max_degree()}", cap_line
        )
    return DscInstance(graph, k, prop, cap)
