"""Exact f-factors via the Tutte gadget reduction to perfect matching.

An f-factor of G is an edge subset in which every vertex v has degree
exactly f(v). The gadget replaces each vertex by a bipartite cell with
deg(v) external stubs and deg(v) - f(v) internal fillers; original edges
bridge their two stubs, and perfect matchings of the gadget graph are in
bijection with f-factors.
"""

from __future__ import annotations

from bisect import bisect_left

from .errors import InvalidInputError
from .graph import DemandFunction, Edge, Graph, induced_subgraph
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
    None rather than an error.
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
    fs = tuple(f[old_of_new[i]] for i in range(sub.vertex_count))
    if any(fs[i] > sub.degree(i) for i in range(sub.vertex_count)):
        return None

    # A demand fs and its within-edge-set complement deg - fs describe the
    # same search (take E(sub) minus the factor); pick whichever side builds
    # the smaller gadget.
    direct_fillers = sum(sub.degree(i) - fs[i] for i in range(sub.vertex_count))
    flip = sum(fs) < direct_fillers
    demand = tuple(sub.degree(i) - fs[i] for i in range(sub.vertex_count)) if flip else fs

    found = _factor_via_gadget(sub, demand)
    if found is None:
        return None
    factor = set(sub.edges()) - found if flip else found
    return {_lift(e, old_of_new) for e in factor}


def _lift(e: Edge, old_of_new: tuple[int, ...]) -> Edge:
    a, b = old_of_new[e[0]], old_of_new[e[1]]
    return (a, b) if a < b else (b, a)


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

    mate = [-1] * len(gadget)
    for a, b in matching:
        mate[a] = b
        mate[b] = a
    return {(u, v) for u, v, a in bridges if mate[a] == partner[a]}
