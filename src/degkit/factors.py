"""Exact f-factors via the Tutte gadget reduction to perfect matching,
and the loop that realizes numeric witnesses through them.

An f-factor of G is an edge subset in which every vertex v has degree
exactly f(v). A greedy partial factor, repaired by degree-preserving
swaps, is often already one; only when it is not is the gadget built.
The gadget replaces each vertex by a bipartite cell with deg(v) external
stubs and deg(v) - f(v) internal fillers; original edges bridge their two
stubs, and perfect matchings of the gadget graph are in bijection with
f-factors.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from itertools import accumulate, compress
from operator import gt

from .errors import InternalInvariantError, InvalidInputError, ResourceLimitError
from .graph import DemandFunction, Edge, Graph, complement, induced_subgraph
from .matching import max_matching


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
    if min(f, default=0) < 0 or sum(f) % 2 == 1:
        return None

    # Zero-demand vertices never contribute factor edges; dropping them
    # leaves the gadget only positive demands. A demand above its vertex's
    # degree is above its degree in the support too.
    support = list(compress(range(n), f))
    if not support:
        return set()
    sub, old_of_new = induced_subgraph(g, support)
    fs = tuple(filter(None, f))
    if any(map(gt, fs, sub.degrees())):
        return None

    factor = _factor_via_gadget(sub, fs)
    if factor is None:
        return None
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


def _partial_factor(g: Graph, h: tuple[int, ...]) -> tuple[list[set[int]], list[int]]:
    """A partial h-factor of g as each vertex's factor neighbors, with the
    demand it leaves unmet at each vertex.

    The greedy pass takes each edge while both ends have demand left. The
    repair pass then meets one more unit at a short vertex u and at a short
    w, without changing any other degree, by adding the non-factor edges ux
    and yw and dropping the factor edge xy; w may be u when u lacks two.
    One search marks each y at most once, so it costs O(|E|), and the pass
    stops at the first vertex that has no such swap.
    """
    adj = g.adj
    mates: list[set[int]] = [set() for _ in adj]
    left = list(h)
    for u, ns in enumerate(adj):
        for v in ns:
            if left[u] == 0:
                break
            if v > u and left[v] > 0:
                mates[u].add(v)
                mates[v].add(u)
                left[u] -= 1
                left[v] -= 1

    for u in range(len(adj)):
        while left[u] > 0:
            swap = _find_swap(adj, mates, left, u)
            if swap is None:
                return mates, left
            x, y, w = swap
            mates[x].remove(y)
            mates[y].remove(x)
            mates[u].add(x)
            mates[x].add(u)
            mates[y].add(w)
            mates[w].add(y)
            left[u] -= 1
            left[w] -= 1
    return mates, left


def _find_swap(
    adj: Sequence[Sequence[int]], mates: list[set[int]], left: list[int], u: int
) -> tuple[int, int, int] | None:
    """A swap (x, y, w) for the short vertex u, or None; see _partial_factor."""
    seen: set[int] = set()
    for x in adj[u]:
        if x in mates[u]:
            continue
        for y in mates[x]:
            if y in seen:
                continue
            seen.add(y)
            for w in adj[y]:
                # u gains two when w is u itself.
                if left[w] > (w == u) and w not in mates[y]:
                    return x, y, w
    return None


def _factor_via_gadget(g: Graph, h: tuple[int, ...]) -> set[Edge] | None:
    """Find an h-factor of g, through a perfect matching of the Tutte gadget
    when the repaired partial factor leaves demand unmet.

    Every demand h(v) is positive, so every vertex gets a cell and every
    stub a bridge partner.
    """
    mates, left = _partial_factor(g, h)
    if not any(left):
        return {(u, v) for u, vs in enumerate(mates) for v in vs if u < v}

    adj = g.adj
    # The stub of v towards its i-th neighbor is base[v] + i; owner[s] is
    # the vertex of stub s, and fillers follow all stubs. A cell lists its
    # stubs towards lower neighbors first, so walking the edges by their
    # lower end u hands out v's stub for u at the cursor nxt[v], and at u's
    # own turn nxt[u] has passed u's stubs towards lower neighbors. The seed
    # is the partial factor's bridges, with each cell's other stubs paired to
    # its fillers, so only the demand left unmet starts an augmenting search.
    base = list(accumulate(map(len, adj), initial=0))
    size = base[-1]
    owner = [v for v, ns in enumerate(adj) for _ in ns]
    partner = [0] * size
    nxt = base[:-1]
    seed: list[Edge] = []
    for u, ns in enumerate(adj):
        a = nxt[u]
        for v in ns[a - base[u] :]:
            b = nxt[v]
            nxt[v] = b + 1
            partner[a], partner[b] = b, a
            if v in mates[u]:
                seed.append((a, b))
            a += 1

    # A stub's neighbors are its bridge partner and then its cell's fillers;
    # a filler's are its cell's stubs. Partners are stubs and so precede
    # every filler, which keeps each list increasing.
    gadget: list[tuple[int, ...]] = []
    filler_adj: list[tuple[int, ...]] = []
    for v, ns in enumerate(adj):
        cell = range(base[v], base[v + 1])
        first = size + len(filler_adj)
        fillers = tuple(range(first, first + len(ns) - h[v]))
        gadget.extend((partner[s], *fillers) for s in cell)
        filler_adj.extend([tuple(cell)] * len(fillers))
        seed.extend(zip((s for s in cell if owner[partner[s]] not in mates[v]), fillers))
    gadget += filler_adj

    matching = max_matching(Graph.from_sorted_adjacency(gadget), initial=seed)
    if 2 * len(matching) != len(gadget):
        return None

    # Pairs of two stubs are bridges; cells are in vertex order, so a < b
    # gives owner[a] < owner[b].
    return {(owner[a], owner[b]) for a, b in matching if b < size}


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
    if min(demand, default=0) < 0:
        raise InvalidInputError("demands must be nonnegative")
    # No demand is negative, so the nonzero ones are the affected vertices.
    sub, old_of_new = induced_subgraph(g, compress(range(n), demand))
    factor = f_factor(complement(sub), list(filter(None, demand)))
    # old_of_new increases, so renamed edges keep u < v.
    return None if factor is None else {(old_of_new[u], old_of_new[v]) for u, v in factor}


def solution_threshold(r: int) -> int:
    """r(r+1)^2: a witness of at least that many edges whose final degrees
    are at most r always realizes, since its affected vertices are then
    numerous enough for the Katerinis-Tsikopoulos density condition."""
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
