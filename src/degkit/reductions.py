"""Hardness constructions turned into executable instance transformers.

Each transformer emits an equivalent degree-constrained editing instance
together with a provenance map naming the role of every constructed
vertex, so tiny instances can be cross-checked against brute force.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .dce import DceInstance, EditKind, make_dce
from .errors import InvalidInputError
from .graph import Edge, Graph

VC_ROLE = "source"


@dataclass(frozen=True)
class ReductionOutput:
    instance: DceInstance
    provenance: dict[int, str]

    def __post_init__(self):
        if set(self.provenance) != set(range(self.instance.graph.vertex_count)):
            raise InvalidInputError("provenance must cover every constructed vertex")


def vc_to_dce_vminus(g: Graph, h: int) -> ReductionOutput:
    """Vertex cover of size at most h becomes vertex deletion with lists {0}."""
    if h < 0:
        raise InvalidInputError("cover size must be nonnegative")
    inst = make_dce(g, h, 0, [{0}] * g.vertex_count, EditKind.VERTEX_DELETION)
    return ReductionOutput(inst, {v: f"{VC_ROLE}-{v}" for v in range(g.vertex_count)})


def is_to_dce_eplus(g: Graph, h: int) -> ReductionOutput:
    """Independent set of size at least h in a cubic graph becomes edge addition.

    A fresh vertex demands exactly h new edges; originals may absorb either
    zero or h additions, and the budget h + C(h,2) only suffices when the h
    chosen partners are pairwise non-adjacent.
    """
    if h < 1:
        raise InvalidInputError("independent-set size must be positive")
    n = g.vertex_count
    if any(g.degree(v) != 3 for v in range(n)):
        raise InvalidInputError("the construction requires a cubic source graph")
    bigger = Graph(n + 1, list(g.edges()))
    lists: list[set[int]] = [{3, 3 + h} for _ in range(n)]
    lists.append({h})
    k = h * (h - 1) // 2 + h
    inst = make_dce(bigger, k, 3 + h, lists, EditKind.EDGE_ADDITION)
    provenance = {v: f"{VC_ROLE}-{v}" for v in range(n)}
    provenance[n] = "collector"
    return ReductionOutput(inst, provenance)


def approx_vertex_cover(g: Graph) -> set[int]:
    """Endpoints of a greedy maximal matching; at most twice the optimum."""
    cover: set[int] = set()
    for u, v in g.edges():
        if u not in cover and v not in cover:
            cover.update((u, v))
    return cover


def twin_classes(g: Graph, x: set[int]) -> list[frozenset[int]]:
    """Partition the vertices outside a cover by their neighborhoods inside it."""
    for u, v in g.edges():
        if u not in x and v not in x:
            raise InvalidInputError(f"edge ({u}, {v}) is not covered by x")
    groups: dict[frozenset[int], set[int]] = {}
    for v in range(g.vertex_count):
        if v in x:
            continue
        key = frozenset(w for w in g.adj[v] if w in x)
        groups.setdefault(key, set()).add(v)
    return sorted((frozenset(c) for c in groups.values()), key=min)


def _selector_shape(num_classes: int) -> tuple[int, int]:
    """(height, leaf count) of the perfect selector tree; leaves are padded
    to the next power of two so every leaf sits at the same depth."""
    ell = max(1, num_classes)
    height = max(0, math.ceil(math.log2(ell))) if ell > 1 else 0
    return height, 1 << height


def _clique_preamble(
    g: Graph, h: int, x: set[int] | None
) -> tuple[set[int], list[int | None], int] | None:
    if h < 1:
        raise InvalidInputError("clique size must be positive")
    if any(g.degree(v) < h for v in range(g.vertex_count)):
        raise InvalidInputError("every source vertex must have degree at least h")
    cover = approx_vertex_cover(g) if x is None else set(x)
    classes = twin_classes(g, cover)
    if h > len(cover) + 1:
        return None
    reps: list[int | None] = [min(c) for c in classes]
    if not reps:
        reps = [None]
    height, leaves = _selector_shape(len(reps))
    while len(reps) < leaves:
        reps.append(reps[0])
    return cover, reps, height


def _canonical_no(op_kind: EditKind) -> ReductionOutput:
    # One vertex that must reach degree 1: impossible without additions.
    inst = make_dce(Graph(1), 0, 1, [{1}], op_kind)
    return ReductionOutput(inst, {0: "canonical-no"})


class _Builder:
    """Incremental graph assembly with provenance tracking."""

    def __init__(self):
        self.edges: list[Edge] = []
        self.roles: dict[int, str] = {}
        self.size = 0

    def vertex(self, role: str) -> int:
        v = self.size
        self.size += 1
        self.roles[v] = role
        return v

    def connect(self, u: int, v: int) -> None:
        self.edges.append((u, v) if u < v else (v, u))

    def graph(self) -> Graph:
        return Graph(self.size, self.edges)


def _build_copies(
    b: _Builder, g: Graph, cover: set[int], reps: list[int | None]
) -> list[list[int]]:
    copies = []
    for i, rep in enumerate(reps):
        members = sorted(cover) + ([rep] if rep is not None else [])
        local = {src: b.vertex(f"copy{i}-of-{src}") for src in members}
        for u, v in g.edges():
            if u in local and v in local:
                b.connect(local[u], local[v])
        copies.append([local[src] for src in members])
    return copies


def _build_tree(b: _Builder, height: int, sibling_edges_below_root: bool) -> list[list[int]]:
    """Perfect binary tree as levels of vertex ids; level 0 is the root."""
    levels = [[b.vertex("tree-root" if height > 0 else "leaf-u0")]]
    for depth in range(1, height + 1):
        row = []
        for idx in range(1 << depth):
            name = f"leaf-u{idx}" if depth == height else f"tree-inner-{depth}-{idx}"
            row.append(b.vertex(name))
        for idx, node in enumerate(row):
            b.connect(levels[depth - 1][idx // 2], node)
        if sibling_edges_below_root and depth >= 2:
            for idx in range(0, len(row), 2):
                b.connect(row[idx], row[idx + 1])
        levels.append(row)
    return levels


def clique_to_dce_eminus(g: Graph, h: int, x: set[int] | None = None) -> ReductionOutput:
    """Clique of size at least h becomes edge deletion over twin-class copies.

    A selector tree forces deletions into exactly one copy of the cover
    plus one class representative; lists there only balance when the
    deleted edges empty a size-h clique.
    """
    pre = _clique_preamble(g, h, x)
    if pre is None:
        return _canonical_no(EditKind.EDGE_DELETION)
    cover, reps, height = pre

    b = _Builder()
    copies = _build_copies(b, g, cover, reps)
    levels = _build_tree(b, height, sibling_edges_below_root=False)
    leaves = levels[-1]
    for leaf, copy in zip(leaves, copies):
        for v in copy:
            b.connect(leaf, v)

    built = b.graph()
    deg = built.degrees()
    lists: dict[int, set[int]] = {}
    for copy in copies:
        for v in copy:
            lists[v] = {d for d in (deg[v], deg[v] - h) if d >= 0}
    if height == 0:
        # Degenerate selector: the single leaf itself forces the h deletions.
        u0 = leaves[0]
        lists[u0] = {d for d in (deg[u0] - h,) if d >= 0}
    else:
        lists[levels[0][0]] = {1}
        for depth in range(1, height):
            for v in levels[depth]:
                lists[v] = {3, 1}
        for u in leaves:
            lists[u] = {d for d in (deg[u], deg[u] - h - 1) if d >= 0}

    k = h * (h - 1) // 2 + h + height
    r = max(max(s) for s in lists.values() if s)
    inst = make_dce(
        built, k, r, [lists[v] for v in range(built.vertex_count)], EditKind.EDGE_DELETION
    )
    return ReductionOutput(inst, b.roles)


def clique_to_dce_vminus(g: Graph, h: int, x: set[int] | None = None) -> ReductionOutput:
    """Clique of size at least h becomes vertex deletion.

    Selector-tree levels below the root carry sibling edges so that each
    deleted parent forces exactly one deleted child; per-leaf connectors
    watch a frozen clique and the copy, forcing all but h copy vertices
    out once their leaf is deleted.
    """
    pre = _clique_preamble(g, h, x)
    if pre is None:
        return _canonical_no(EditKind.VERTEX_DELETION)
    cover, reps, height = pre
    cover_size = len(cover)

    b = _Builder()
    copies = _build_copies(b, g, cover, reps)
    levels: list[list[int]] = []
    leaves: list[int] = []
    if height >= 1:
        levels = _build_tree(b, height, sibling_edges_below_root=True)
        leaves = levels[-1]
    connectors = [b.vertex(f"connector-u{i}") for i in range(len(copies))]
    watch_cliques = []
    for i in range(len(copies)):
        clique = [b.vertex(f"watch{i}-{j}") for j in range(cover_size**2)]
        for a, c in itertools.combinations(clique, 2):
            b.connect(a, c)
        watch_cliques.append(clique)
    for i, conn in enumerate(connectors):
        if leaves:
            b.connect(leaves[i], conn)
        for v in copies[i]:
            b.connect(conn, v)
        for w in watch_cliques[i]:
            b.connect(conn, w)

    built = b.graph()
    deg = built.degrees()
    lists: dict[int, set[int]] = {}
    for copy in copies:
        for v in copy:
            lists[v] = {deg[v], h}
    for i, conn in enumerate(connectors):
        target = cover_size**2 + h
        lists[conn] = {target} if height == 0 else {deg[conn], target}
        for w in watch_cliques[i]:
            lists[w] = {deg[w]}
    if height >= 1:
        lists[levels[0][0]] = {1}
        for depth in range(1, height):
            base = {3} if depth == 1 else {4, 2}
            for v in levels[depth]:
                lists[v] = set(base)
        leaf_list = {2} if height == 1 else {3, 1}
        for u in leaves:
            lists[u] = set(leaf_list)

    k = height + cover_size + 1 - h
    r = max(max(s) for s in lists.values() if s)
    inst = make_dce(
        built, k, r, [lists[v] for v in range(built.vertex_count)], EditKind.VERTEX_DELETION
    )
    return ReductionOutput(inst, b.roles)
