"""Maximum-cardinality matching in general graphs (Edmonds' blossom algorithm).

The implementation is the classic BFS formulation with blossom contraction
through a `base` array. It starts from the caller's `initial` matching, if
any, extended greedily, so that only few augmenting searches are needed on
near-perfectly-matchable inputs such as the f-factor gadget graphs (whose
seed comes from a greedy partial f-factor, see `factors`).

Each augmenting search costs the size of the tree it grows, not n:
- it records the vertices whose `parent`, `base` or `in_queue` entry it
  set, and the next search resets only those;
- `lca` marks with a stamp that moves on per call, so it clears nothing;
- a blossom contraction relabels only the vertices of the sub-blossoms it
  merges, kept as per-base member lists for the current search.
"""

from __future__ import annotations

from collections import deque
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

    # Greedy extension: matches most vertices cheaply and leaves few searches.
    for u in range(n):
        if match[u] == -1:
            for v in adj[u]:
                if match[v] == -1:
                    match[u] = v
                    match[v] = u
                    break

    parent = [-1] * n
    base = list(range(n))
    in_queue = [False] * n
    stamp = [0] * n
    clock = 0
    touched: list[int] = []

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

    def find_augmenting_path(root: int) -> int:
        for i in touched:
            parent[i] = -1
            base[i] = i
            in_queue[i] = False
        touched.clear()
        # Vertices of each contracted blossom, by base; a base missing
        # here is a blossom of one vertex.
        members: dict[int, list[int]] = {}
        in_queue[root] = True
        touched.append(root)
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    # `to` is an outer vertex: an odd cycle closes, contract it.
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
                            if not in_queue[i]:
                                in_queue[i] = True
                                queue.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    touched.append(to)
                    if match[to] == -1:
                        return to
                    if not in_queue[match[to]]:
                        in_queue[match[to]] = True
                        touched.append(match[to])
                        queue.append(match[to])
        return -1

    for v in range(n):
        if match[v] == -1:
            end = find_augmenting_path(v)
            while end != -1:
                prev = parent[end]
                next_end = match[prev]
                match[end] = prev
                match[prev] = end
                end = next_end

    return {(u, match[u]) for u in range(n) if match[u] > u}
