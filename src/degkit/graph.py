"""Immutable simple undirected graphs and the basic operations on them.

Vertices are the integers 0..n-1. Edges are unordered pairs, stored
internally as sorted adjacency tuples. Instances are immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Iterator, Sequence

from .errors import EdgeConflictError, InvalidInputError

Edge = tuple[int, int]

# Per-vertex number of incident edges to add (or exact target degree for
# f-factor searches); plain sequences indexed by vertex.
DemandFunction = Sequence[int]


def normalize_edge(u: int, v: int) -> Edge:
    """Return the pair in (min, max) order; self-loops are rejected."""
    if u == v:
        raise InvalidInputError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


class Graph:
    """A loopless simple graph with sorted adjacency lists."""

    __slots__ = ("vertex_count", "adj", "_degrees")

    def __init__(self, vertex_count: int, edges: Iterable[Edge] = ()):
        if vertex_count < 0:
            raise InvalidInputError("vertex_count must be nonnegative")
        lists: list[list[int]] = [[] for _ in range(vertex_count)]
        for u, v in edges:
            if u == v:
                raise InvalidInputError(f"self-loop at vertex {u}")
            if u < 0 or v < 0 or u >= vertex_count or v >= vertex_count:
                raise InvalidInputError(
                    f"edge ({u}, {v}) out of range for n={vertex_count}"
                )
            lists[u].append(v)
            lists[v].append(u)
        for ns in lists:
            ns.sort()
        found = repeated_neighbor(lists)
        if found is not None:
            raise EdgeConflictError(f"duplicate edge {found}")
        self._take(lists)

    @classmethod
    def from_sorted_adjacency(cls, adj: Iterable[Sequence[int]]) -> Graph:
        """The graph whose vertex u has the neighbors adj[u], checking nothing.

        For callers whose adjacency is simple by construction: every list
        increasing, v in adj[u] exactly when u in adj[v], and no loops. Input
        from outside goes through Graph(n, edges), which checks all of that.
        """
        g = cls.__new__(cls)
        g._take(adj)
        return g

    def _take(self, adj: Iterable[Sequence[int]]) -> None:
        self.adj: tuple[tuple[int, ...], ...] = tuple(map(tuple, adj))
        self.vertex_count = len(self.adj)
        self._degrees: tuple[int, ...] = tuple(map(len, self.adj))

    # -- queries ---------------------------------------------------------

    @property
    def edge_count(self) -> int:
        return sum(self._degrees) // 2

    def degree(self, v: int) -> int:
        return self._degrees[v]

    def degrees(self) -> tuple[int, ...]:
        """Degrees indexed by vertex (not sorted)."""
        return self._degrees

    def max_degree(self) -> int:
        return max(self._degrees, default=0)

    def min_degree(self) -> int:
        return min(self._degrees, default=0)

    def has_edge(self, u: int, v: int) -> bool:
        ns = self.adj[u]
        i = bisect_left(ns, v)
        return i < len(ns) and ns[i] == v

    def edges(self) -> Iterator[Edge]:
        """Each edge once, as (u, v) with u < v, in lexicographic order."""
        for u in range(self.vertex_count):
            for v in self.adj[u]:
                if v > u:
                    yield (u, v)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.vertex_count == other.vertex_count
            and self.adj == other.adj
        )

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.vertex_count}, m={self.edge_count})"


def degree_sequence(g: Graph) -> tuple[int, ...]:
    """All vertex degrees in nonincreasing order."""
    return tuple(sorted(g.degrees(), reverse=True))


def repeated_neighbor(adj: Sequence[Sequence[int]]) -> Edge | None:
    """(u, v) for the first u whose list holds some v twice, the least such
    v, or None when no list repeats a neighbor. The lists need not be sorted."""
    if sum(map(len, adj)) == sum(map(len, map(set, adj))):
        return None
    for u, ns in enumerate(adj):
        if len(set(ns)) != len(ns):
            ordered = sorted(ns)
            return (u, min(a for a, b in zip(ordered, ordered[1:]) if a == b))
    return None


def complement(g: Graph) -> Graph:
    """The graph on the same vertices whose edges are exactly the non-edges."""
    n = g.vertex_count
    adj = []
    for u, ns in enumerate(g.adj):
        row: list[int] = []
        start = 0
        for w in sorted((*ns, u)):
            row.extend(range(start, w))
            start = w + 1
        row.extend(range(start, n))
        adj.append(row)
    return Graph.from_sorted_adjacency(adj)


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Return (G[vs], old_of_new) where old_of_new[i] is vertex i's original index.

    The kept vertices are renumbered 0..|vs|-1 in increasing original order.
    A Graph is immutable, so keeping every vertex returns g itself.
    """
    keep = sorted(set(vertices))
    for v in keep:
        if not (0 <= v < g.vertex_count):
            raise InvalidInputError(f"vertex {v} out of range for n={g.vertex_count}")
    if len(keep) == g.vertex_count:
        return g, tuple(keep)
    new_of_old = [-1] * g.vertex_count
    for new, old in enumerate(keep):
        new_of_old[old] = new
    # The renumbering keeps the order, so each kept list stays increasing.
    adj = [[i for w in g.adj[old] if (i := new_of_old[w]) >= 0] for old in keep]
    return Graph.from_sorted_adjacency(adj), tuple(keep)


def add_edges(g: Graph, new_edges: Iterable[Edge]) -> Graph:
    """Return G plus the given edges; Graph() rejects present and repeated
    edges (EdgeConflictError) and loops or out-of-range ends."""
    return Graph(g.vertex_count, [*g.edges(), *new_edges])


def remove_edges(g: Graph, old_edges: Iterable[Edge]) -> Graph:
    """Return G minus the given edges. A loop or an edge that G lacks, an end
    outside 0..n-1 included, raises InvalidInputError; a repeat, EdgeConflictError."""
    n = g.vertex_count
    gone: set[Edge] = set()
    for u, v in old_edges:
        e = normalize_edge(u, v)
        if not (0 <= e[0] and e[1] < n and g.has_edge(*e)):
            raise InvalidInputError(f"edge {e} not present")
        if e in gone:
            raise EdgeConflictError(f"duplicate edge {e} in removal set")
        gone.add(e)
    return Graph(n, [e for e in g.edges() if e not in gone])
