"""Exact f-factors via the Tutte gadget reduction to perfect matching,
and the loop that realizes numeric witnesses through them.

An f-factor of G is an edge subset in which every vertex v has degree
exactly f(v). The gadget replaces each vertex by a bipartite cell with
deg(v) external stubs and deg(v) - f(v) internal fillers; original edges
bridge their two stubs, and perfect matchings of the gadget graph are in
bijection with f-factors.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Sequence
from operator import gt

from .errors import InternalInvariantError, InvalidInputError, ResourceLimitError
from .graph import DemandFunction, Edge, Graph, complement, induced_subgraph
from .matching import max_matching


def kt_condition_holds(n: int, min_degree: int, r: int) -> bool:
    """Sufficient density condition for guaranteed factor existence.

    When it holds, every demand function into {1, ..., r} with even total
    admits a factor (Katerinis-Tsikopoulos bound specialized to a=1, b=r:
    minimum degree at least n - r - 1 and n at least (r+1)^2).
    """
    if r < 1:
        raise InvalidInputError("r must be at least 1")
    return min_degree >= n - r - 1 and n >= (r + 1) ** 2


def f_factor(g: Graph, f: DemandFunction) -> set[Edge] | None:
    """Return an edge set with degree exactly f(v) at every v, or None.

    Infeasible demands (negative, exceeding the degree, odd total) yield
    None rather than an error. A factor is checked against g and f before it
    is returned; a miss raises InternalInvariantError.
    """
    n = g.vertex_count
    f = tuple(f)
    if len(f) != n:
        raise InvalidInputError(f"demand vector has length {len(f)}, expected {n}")
    if any(x < 0 or x > g.degree(v) for v, x in enumerate(f)):
        return None
    if sum(f) % 2 == 1:
        return None

    # Zero-demand vertices never contribute factor edges; drop them so their
    # gadget cells are not built at all.
    support = [v for v in range(n) if f[v] > 0]
    if not support:
        return set()
    sub, old_of_new = induced_subgraph(g, support)
    fs = tuple(f[v] for v in old_of_new)
    degs = sub.degrees()
    if any(map(gt, fs, degs)):
        return None

    # A demand fs and its within-edge-set complement deg - fs describe the
    # same search (take E(sub) minus the factor); pick whichever side builds
    # the smaller gadget.
    flip = 2 * sum(fs) < sum(degs)
    demand = tuple(d - x for d, x in zip(degs, fs)) if flip else fs

    found = _factor_via_gadget(sub, demand)
    if found is None:
        return None
    factor = set(sub.edges()) - found if flip else found
    # old_of_new increases, so renamed edges keep u < v.
    lifted = {(old_of_new[u], old_of_new[v]) for u, v in factor}
    degree = [0] * n
    for u, v in lifted:
        if not g.has_edge(u, v):
            raise InternalInvariantError(f"factor pair ({u}, {v}) is not an edge")
        degree[u] += 1
        degree[v] += 1
    if degree != list(f):
        raise InternalInvariantError("factor degrees differ from the demands")
    return lifted


def _factor_via_gadget(g: Graph, h: tuple[int, ...]) -> set[Edge] | None:
    """Find an h-factor of g through a perfect matching of the Tutte gadget.

    Vertices with h(v) = 0 get no cell; their incident stubs on the other
    side lose the bridge and are forced onto fillers, excluding the edge.
    """
    n = g.vertex_count
    adj = g.adj
    # The stub of v towards its i-th neighbor is base[v] + i. Fillers are
    # numbered after all stubs.
    base = [0] * n
    size = 0
    for v in range(n):
        if h[v] > 0:
            base[v] = size
            size += len(adj[v])

    # The seed is a greedy partial h-factor: take each edge while both
    # endpoints still have demand left. Its bridge starts the matching,
    # every other stub of a cell is paired with a free filler of that cell,
    # and only the demand left unmet starts an augmenting search.
    partner = [-1] * size
    bridges: list[tuple[int, int, int]] = []
    seed: list[Edge] = []
    left = list(h)
    for u in range(n):
        if h[u] == 0:
            continue
        for i, v in enumerate(adj[u]):
            if v > u and h[v] > 0:
                a, b = base[u] + i, base[v] + bisect_left(adj[v], u)
                partner[a], partner[b] = b, a
                bridges.append((u, v, a))
                if left[u] > 0 and left[v] > 0:
                    left[u] -= 1
                    left[v] -= 1
                    seed.append((a, b))
    bridged = {s for pair in seed for s in pair}

    # A stub's neighbors are its bridge partner, if any, and then its cell's
    # fillers; a filler's are its cell's stubs. Partners are stubs and so
    # precede every filler, which keeps each list increasing.
    gadget: list[tuple[int, ...]] = []
    filler_adj: list[tuple[int, ...]] = []
    for v in range(n):
        if h[v] == 0:
            continue
        cell = range(base[v], base[v] + len(adj[v]))
        first = size + len(filler_adj)
        fillers = tuple(range(first, first + len(adj[v]) - h[v]))
        gadget.extend((partner[s], *fillers) if partner[s] >= 0 else fillers for s in cell)
        filler_adj.extend([tuple(cell)] * len(fillers))
        seed.extend(zip((s for s in cell if s not in bridged), fillers))
    gadget += filler_adj

    matching = max_matching(Graph.from_sorted_adjacency(gadget), initial=seed)
    if 2 * len(matching) != len(gadget):
        return None

    # a < partner[a]: cells are numbered in vertex order and bridges have u < v.
    return {(u, v) for u, v, a in bridges if (a, partner[a]) in matching}


def realize_demands(g: Graph, demand: DemandFunction) -> set[Edge] | None:
    """New edges raising every vertex's degree by exactly its demand, or None.

    The search restricts to the affected vertices and looks for a factor of
    the complement of the induced subgraph, so returned edges are always
    disjoint from the existing ones.
    """
    n = g.vertex_count
    demand = tuple(demand)
    if len(demand) != n:
        raise InvalidInputError(f"demand vector has length {len(demand)}, expected {n}")
    if any(x < 0 for x in demand):
        raise InvalidInputError("demands must be nonnegative")
    sub, old_of_new = induced_subgraph(g, [v for v in range(n) if demand[v] > 0])
    factor = f_factor(complement(sub), [demand[v] for v in old_of_new])
    # old_of_new increases, so renamed edges keep u < v.
    return None if factor is None else {(old_of_new[u], old_of_new[v]) for u, v in factor}


def solution_threshold(r: int) -> int:
    """r(r+1)^2: a witness of at least that many edges whose final degrees
    are at most r always realizes, since its affected vertices are then
    numerous enough for the density condition."""
    return r * (r + 1) ** 2


def realize_least(
    g: Graph,
    witness: Callable[[int], "tuple[int, Sequence[int]] | None"],
    start: int,
    threshold: int,
    one_per_total: bool,
    search: Callable[[], "set[Edge] | None"] | None = None,
) -> set[Edge] | None:
    """Realize the least numeric witness from s = start up.

    `witness(lo)` gives the least s >= lo within the budget whose total 2s
    the number problem reaches, with the rise of every vertex, or None.
    Every solution of s edges is a witness of total 2s, so without any
    witness the answer is NO, and one that realizes at the least s from 0
    is a minimum answer. From the threshold up every witness realizes, so a
    failure there is a defect. Below it, a problem with one witness per
    total goes on to the next s, since the failure rules s out, and answers
    NO when none is left. Any other runs `search`, the caller's exact
    search on the budget clamped to the threshold, whose answer is minimum.
    When it finds nothing, or hits its limit, the least witness from the
    threshold up is realized; the ResourceLimitError is re-raised only when
    no witness is left there. So an answer exceeds the minimum only after
    the search hit its limit.
    """
    lo = start
    limit: ResourceLimitError | None = None
    while (found := witness(lo)) is not None:
        s, demand = found
        edges = realize_demands(g, demand)
        if edges is not None:
            return edges
        if s >= threshold:
            raise InternalInvariantError(
                f"realization failed at {s} edges, at or above the threshold {threshold}"
            )
        if one_per_total:
            lo = s + 1
            continue
        try:
            edges = None if search is None else search()
        except ResourceLimitError as e:
            limit = e
        if edges is not None:
            return edges
        lo = threshold
    if limit is not None:
        raise limit
    return None
