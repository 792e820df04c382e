"""Maximum-cardinality matching in general graphs (Edmonds' blossom algorithm).

The implementation is the classic BFS formulation with blossom contraction
through a `base` array, seeded with a greedy matching so that only few
augmenting searches are needed on near-perfectly-matchable inputs such as
the f-factor gadget graphs.
"""

from __future__ import annotations

from collections import deque

from .graph import Edge, Graph


def max_matching(g: Graph) -> set[Edge]:
    """Return a maximum matching as a set of (u, v) pairs with u < v."""
    n = g.vertex_count
    adj = g.adj
    match = [-1] * n

    # Greedy seed: matches most vertices cheaply and leaves few searches.
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
    in_blossom = [False] * n

    def lca(a: int, b: int) -> int:
        seen = [False] * n
        while True:
            a = base[a]
            seen[a] = True
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if seen[b]:
                return b
            b = parent[match[b]]

    def mark_path(v: int, b: int, child: int) -> None:
        while base[v] != b:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def find_augmenting_path(root: int) -> int:
        for i in range(n):
            parent[i] = -1
            base[i] = i
            in_queue[i] = False
        in_queue[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    # `to` is an outer vertex: an odd cycle closes, contract it.
                    cur_base = lca(v, to)
                    for i in range(n):
                        in_blossom[i] = False
                    mark_path(v, cur_base, to)
                    mark_path(to, cur_base, v)
                    for i in range(n):
                        if in_blossom[base[i]]:
                            base[i] = cur_base
                            if not in_queue[i]:
                                in_queue[i] = True
                                queue.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    if match[to] == -1:
                        return to
                    if not in_queue[match[to]]:
                        in_queue[match[to]] = True
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
