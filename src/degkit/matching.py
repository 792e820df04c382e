"""Maximum-cardinality matching in general graphs (Edmonds' blossom algorithm).

The matching starts from the caller's `initial` matching, if any, extended
greedily, so that few vertices are left exposed on near-perfectly-matchable
inputs such as the f-factor gadget graphs (whose seed comes from a greedy
partial f-factor, see `factors`).

The search runs in phases. Each phase grows one alternating forest, rooted
at every exposed vertex at once, in a single BFS:
- an outer vertex that meets an unlabeled (hence matched) vertex grows its
  tree by that vertex and its mate;
- one that meets an outer vertex of its own tree contracts the odd cycle
  into a blossom through a `base` array;
- one that meets an outer vertex of another tree has found an augmenting
  path through both roots. Both trees flip their root paths and dissolve:
  their vertices go back to unlabeled, and other trees may grow into them
  for the rest of the phase.

A phase that augments nothing ends with a forest that has no edge between
outer vertices of different trees, which proves the matching maximum
(Edmonds, "Paths, trees, and flowers", 1965). A phase costs the size of its
forest, not n:
- each tree keeps a list of its vertices, which is all a dissolution or the
  end of a phase resets;
- `lca` marks with a stamp that moves on per call, so it clears nothing;
- a blossom contraction relabels only the vertices of the sub-blossoms it
  merges, kept as per-base member lists.
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import InvalidInputError
from .graph import Edge, Graph


def max_matching(g: Graph, initial: Iterable[Edge] = ()) -> set[Edge]:
    """Return a maximum matching as a set of (u, v) pairs with u < v.

    `initial` is a set of disjoint edges of g to start from; a non-edge or
    two edges sharing an endpoint raise InvalidInputError.
    """
    n = g.vertex_count
    adj = g.adj
    match = [-1] * n

    for u, v in initial:
        if not (0 <= u < n and 0 <= v < n and g.has_edge(u, v)):
            raise InvalidInputError(f"initial pair ({u}, {v}) is not an edge")
        if match[u] != -1 or match[v] != -1:
            raise InvalidInputError(f"initial pair ({u}, {v}) shares an endpoint")
        match[u] = v
        match[v] = u

    # Greedy extension: matches most vertices cheaply and leaves few roots.
    # A vertex found exposed here may still be matched by a later one.
    exposed = []
    for u in range(n):
        if match[u] == -1:
            for v in adj[u]:
                if match[v] == -1:
                    match[u] = v
                    match[v] = u
                    break
            else:
                exposed.append(u)

    # parent: the outer vertex an inner vertex was reached from, or, inside
    # a blossom, the next step of the alternating path to its base.
    # tree: the index in `forest` of an outer vertex's tree; -1 for inner
    # and unlabeled vertices.
    parent = [-1] * n
    base = list(range(n))
    tree = [-1] * n
    stamp = [0] * n
    clock = 0
    # Vertices of each contracted blossom, by base; a base missing here is a
    # blossom of one vertex.
    members: dict[int, list[int]] = {}

    def lca(a: int, b: int) -> int:
        nonlocal clock
        clock += 1
        while True:
            a = base[a]
            stamp[a] = clock
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if stamp[b] == clock:
                return b
            b = parent[match[b]]

    def mark_path(v: int, b: int, child: int, marked: set[int]) -> None:
        while base[v] != b:
            marked.add(base[v])
            marked.add(base[match[v]])
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def contract(v: int, to: int, queue: list[int]) -> None:
        t = tree[v]
        cur_base = lca(v, to)
        marked: set[int] = set()
        mark_path(v, cur_base, to, marked)
        mark_path(to, cur_base, v, marked)
        # The new blossom keeps cur_base's members in place.
        marked.discard(cur_base)
        blossom = members.setdefault(cur_base, [cur_base])
        for x in marked:
            for i in members.pop(x, (x,)):
                base[i] = cur_base
                blossom.append(i)
                if tree[i] == -1:
                    # An inner vertex turns outer: scan it.
                    tree[i] = t
                    queue.append(i)

    while True:
        exposed = [r for r in exposed if match[r] == -1]
        if len(exposed) < 2:
            # An augmenting path joins two exposed vertices.
            break
        # The vertices of each tree; None once it dissolved.
        forest: list[list[int] | None] = []
        for r in exposed:
            tree[r] = len(forest)
            forest.append([r])
        queue = exposed[:]
        augmented = False
        # The queue grows while it is read. An entry whose vertex is no longer
        # outer is skipped: its tree dissolved, and the vertex is unlabeled now
        # or was regrown as an inner vertex.
        for v in queue:
            t = tree[v]
            if t == -1:
                continue
            for to in adj[v]:
                other = tree[to]
                if other == -1:
                    if parent[to] == -1:
                        # Unlabeled, and so matched: grow by `to` and its mate.
                        parent[to] = v
                        mate = match[to]
                        tree[mate] = t
                        forest[t] += (to, mate)
                        queue.append(mate)
                elif other != t:
                    # An augmenting path: rematch each side from the old mate
                    # of its end up to its root, then match across.
                    for end in (match[v], match[to]):
                        while end != -1:
                            prev = parent[end]
                            next_end = match[prev]
                            match[end] = prev
                            match[prev] = end
                            end = next_end
                    match[v] = to
                    match[to] = v
                    # Both trees dissolve; the phase goes on without them.
                    for k in (t, other):
                        for i in forest[k]:
                            parent[i] = -1
                            base[i] = i
                            tree[i] = -1
                        if members:
                            for i in forest[k]:
                                members.pop(i, None)
                        forest[k] = None
                    augmented = True
                    break
                elif base[v] != base[to]:
                    contract(v, to, queue)
        if not augmented:
            break
        for vertices in forest:
            if vertices is not None:
                for i in vertices:
                    parent[i] = -1
                    base[i] = i
                    tree[i] = -1
        members.clear()

    return {(u, match[u]) for u in range(n) if match[u] > u}
