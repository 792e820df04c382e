"""Degree-constrained editing: instances, the type-set kernel, exact solvers.

An instance asks for at most k edits of a single kind (edge addition,
edge deletion, or vertex deletion) after which every remaining vertex's
degree lies on its degree list, a subset of {0..r}.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass
from collections.abc import Callable, Iterable, Sequence
from typing import Any

from .errors import InternalInvariantError, InvalidInputError, ResourceLimitError
from .graph import Edge, Graph, induced_subgraph, normalize_edge
from .nce import least_even_total

DEFAULT_NODE_LIMIT = 4_000_000


class EditKind(enum.Enum):
    EDGE_ADDITION = "e+"
    EDGE_DELETION = "e-"
    VERTEX_DELETION = "v-"


@dataclass(frozen=True)
class DegreeListFunction:
    """Per-vertex sets of admissible target degrees, all within {0..r}."""

    r: int
    lists: tuple[frozenset[int], ...]

    def __post_init__(self):
        if self.r < 0:
            raise InvalidInputError("degree bound r must be nonnegative")
        for i, s in enumerate(self.lists):
            if s and (min(s) < 0 or max(s) > self.r):
                raise InvalidInputError(
                    f"degree list of vertex {i} leaves the range 0..{self.r}"
                )

    def __getitem__(self, v: int) -> frozenset[int]:
        return self.lists[v]


@dataclass(frozen=True)
class DceInstance:
    graph: Graph
    k: int
    tau: DegreeListFunction
    op_kind: EditKind

    def __post_init__(self):
        if self.k < 0:
            raise InvalidInputError("budget k must be nonnegative")
        if len(self.tau.lists) != self.graph.vertex_count:
            raise InvalidInputError("tau must cover exactly the vertices of the graph")

    @property
    def r(self) -> int:
        return self.tau.r


def make_dce(
    graph: Graph,
    k: int,
    r: int,
    lists: Sequence[Iterable[int]],
    op_kind: EditKind = EditKind.EDGE_ADDITION,
) -> DceInstance:
    tau = DegreeListFunction(r, tuple(map(frozenset, lists)))
    return DceInstance(graph, k, tau, op_kind)


# An edit is ("add", u, v), ("del", u, v) with u < v, or ("rm", v).
Edit = tuple


@dataclass(frozen=True)
class EditSolution:
    edits: tuple[Edit, ...]

    def __len__(self) -> int:
        return len(self.edits)


def additions(edges: Iterable[Edge]) -> EditSolution:
    """The edges as addition edits, in sorted order."""
    return EditSolution(tuple(("add", u, v) for u, v in sorted(edges)))


@dataclass(frozen=True)
class TrivialNo:
    reason: str = ""


@dataclass(frozen=True)
class Kernel:
    instance: DceInstance
    old_of_new: tuple[int, ...]


def validate_solution(inst: DceInstance, sol: EditSolution) -> None:
    """Raise InvalidInputError unless sol is a valid solution of inst."""
    if len(sol.edits) > inst.k:
        raise InvalidInputError(f"{len(sol.edits)} edits exceed budget {inst.k}")
    g, tau = inst.graph, inst.tau
    n = g.vertex_count
    expected = {
        EditKind.EDGE_ADDITION: "add",
        EditKind.EDGE_DELETION: "del",
        EditKind.VERTEX_DELETION: "rm",
    }[inst.op_kind]
    seen: set[Edge] = set()
    degs = list(g.degrees())
    removed: set[int] = set()
    for edit in sol.edits:
        if edit[0] != expected:
            raise InvalidInputError(f"edit {edit} does not match operation {expected}")
        if edit[0] == "rm":
            v = edit[1]
            if not (0 <= v < n):
                raise InvalidInputError(f"vertex {v} out of range")
            if v in removed:
                raise InvalidInputError(f"vertex {v} deleted twice")
            removed.add(v)
            for w in g.adj[v]:
                degs[w] -= 1
        else:
            e = normalize_edge(edit[1], edit[2])
            if not (0 <= e[0] and e[1] < n):
                raise InvalidInputError(f"edge {e} out of range")
            if e in seen:
                raise InvalidInputError(f"duplicate edit on edge {e}")
            seen.add(e)
            present = g.has_edge(*e)
            if edit[0] == "add" and present:
                raise InvalidInputError(f"edge {e} already present")
            if edit[0] == "del" and not present:
                raise InvalidInputError(f"edge {e} not present")
            delta = 1 if edit[0] == "add" else -1
            degs[e[0]] += delta
            degs[e[1]] += delta
    for v in range(n):
        if v not in removed and degs[v] not in tau[v]:
            raise InvalidInputError(f"vertex {v} ends at degree {degs[v]} off its list")


def recheck(
    check: Callable[[Any, EditSolution], None], inst: Any, sol: EditSolution, what: str
) -> EditSolution:
    """Run a validator such as validate_solution on an answer of degkit's own:
    its failure is a defect, not bad input, so it raises InternalInvariantError."""
    try:
        check(inst, sol)
    except InvalidInputError as exc:
        raise InternalInvariantError(f"{what}: {exc}") from exc
    return sol


# -- notation helpers --------------------------------------------------------


def unsatisfied_vertices(inst: DceInstance) -> set[int]:
    """Vertices whose current degree is not on their degree list."""
    g, tau = inst.graph, inst.tau
    return {v for v in range(g.vertex_count) if g.degree(v) not in tau[v]}


def vertex_types(inst: DceInstance, v: int) -> frozenset[int]:
    """All i with deg(v) + i on the list of v; type 0 means satisfied."""
    deg = inst.graph.degree(v)
    return frozenset(t - deg for t in inst.tau[v] if t >= deg)


def safely_remove(inst: DceInstance, vertices: Iterable[int]) -> DceInstance:
    """Delete the vertices and shift survivors' lists down by lost neighbors."""
    removed = set(vertices)
    for v in removed:
        if not (0 <= v < inst.graph.vertex_count):
            raise InvalidInputError(f"vertex {v} out of range")
    sub, old_of_new = induced_subgraph(
        inst.graph, (v for v in range(inst.graph.vertex_count) if v not in removed)
    )
    lists = []
    for old in old_of_new:
        shift = sum(1 for w in inst.graph.adj[old] if w in removed)
        lists.append(frozenset(t - shift for t in inst.tau[old] if t >= shift))
    return DceInstance(sub, inst.k, DegreeListFunction(inst.r, tuple(lists)), inst.op_kind)


# -- kernelization for edge addition ------------------------------------------


def require_edge_addition(inst: DceInstance, op: str) -> None:
    if inst.op_kind is not EditKind.EDGE_ADDITION:
        raise InvalidInputError(f"{op} applies to edge-addition instances only")


def core_set(inst: DceInstance) -> set[int]:
    """All unsatisfied vertices plus up to alpha = k(max_degree + 2) satisfied
    vertices per positive type, chosen by a single pass with one counter per
    type. Runs in O(m + |tau|) time."""
    require_edge_addition(inst, "core_set")
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


def rule2_check(inst: DceInstance) -> TrivialNo | None:
    """Trivial no if more than 2k vertices are unsatisfied or some vertex
    already exceeds every degree on its list (empty lists always do)."""
    require_edge_addition(inst, "rule2_check")
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


def kernelize_kr(inst: DceInstance) -> Kernel | TrivialNo:
    """The (k, r)-parameter kernel: one overshoot check, one core-set pass.

    A returned kernel has at most 2k + rk(r+2) vertices and is a
    yes-instance exactly when the input is.
    """
    require_edge_addition(inst, "kernelize_kr")
    no = rule2_check(inst)
    if no is not None:
        return no
    keep = core_set(inst)
    removed = [v for v in range(inst.graph.vertex_count) if v not in keep]
    reduced = safely_remove(inst, removed)
    return Kernel(reduced, tuple(sorted(keep)))


# -- exhaustive solving -------------------------------------------------------


def _min_shift(sorted_targets: list[int], deg: int, budget: int, sign: int) -> int | None:
    """Cheapest |change| to land on a target, moving up (+1) or down (-1)."""
    if sign > 0:
        i = bisect_left(sorted_targets, deg)
        if i < len(sorted_targets) and sorted_targets[i] - deg <= budget:
            return sorted_targets[i] - deg
        return None
    i = bisect_left(sorted_targets, deg)
    if i < len(sorted_targets) and sorted_targets[i] == deg:
        return 0
    if i > 0 and deg - sorted_targets[i - 1] <= budget:
        return deg - sorted_targets[i - 1]
    return None


class _Budget:
    __slots__ = ("nodes", "limit")

    def __init__(self, limit: int):
        self.nodes = 0
        self.limit = limit

    def tick(self, what: str) -> None:
        self.nodes += 1
        if self.nodes > self.limit:
            raise ResourceLimitError(
                f"{what}: exhaustive search exceeded {self.limit} nodes"
            )


def _search_edges(inst: DceInstance, budget: _Budget, adding: bool) -> list[Edge] | None:
    """Depth-first search anchored at the lowest unsatisfied vertex.

    Any minimal solution must change the degree of every vertex that is
    unsatisfied along the way, so branching over the anchor's possible
    partners is complete. Iterative deepening returns a minimum solution.
    The unsatisfied vertices are kept as a set, updated with every degree
    change, so a node costs their number rather than n.
    """
    g, tau, n = inst.graph, inst.tau, inst.graph.vertex_count
    degs = list(g.degrees())
    targets = [sorted(tau[v]) for v in range(n)]
    unsat = {v for v in range(n) if degs[v] not in tau[v]}
    changed: set[Edge] = set()
    sign = 1 if adding else -1
    what = "edge addition" if adding else "edge deletion"

    def shift_degree(v: int, by: int) -> None:
        degs[v] += by
        if degs[v] in tau[v]:
            unsat.discard(v)
        else:
            unsat.add(v)

    def prune(left: int) -> bool:
        need = 0
        for v in unsat:
            shift = _min_shift(targets[v], degs[v], left, sign)
            if shift is None:
                return True
            need += shift
            if need > 2 * left:
                return True
        return False

    def partners(v: int) -> list[int]:
        if adding:
            return [
                u
                for u in range(n)
                if u != v
                and not g.has_edge(u, v)
                and normalize_edge(u, v) not in changed
            ]
        return [u for u in g.adj[v] if normalize_edge(u, v) not in changed]

    def dfs(left: int) -> bool:
        budget.tick(what)
        if not unsat:
            return True
        if left == 0 or prune(left):
            return False
        v = min(unsat)
        for u in partners(v):
            e = normalize_edge(u, v)
            changed.add(e)
            shift_degree(u, sign)
            shift_degree(v, sign)
            if dfs(left - 1):
                return True
            shift_degree(u, -sign)
            shift_degree(v, -sign)
            changed.discard(e)
        return False

    for depth in range(inst.k + 1):
        if dfs(depth):
            return sorted(changed)
    return None


def _search_vertex_deletions(inst: DceInstance, budget: _Budget) -> list[int] | None:
    """Anchor at the lowest unsatisfied surviving vertex; it must either be
    deleted itself or lose a current neighbor."""
    g, tau, n = inst.graph, inst.tau, inst.graph.vertex_count
    degs = list(g.degrees())
    removed: set[int] = set()

    def lowest_unsat() -> int:
        for v in range(n):
            if v not in removed and degs[v] not in tau[v]:
                return v
        return -1

    def delete(v: int) -> None:
        removed.add(v)
        for w in g.adj[v]:
            degs[w] -= 1

    def restore(v: int) -> None:
        removed.discard(v)
        for w in g.adj[v]:
            degs[w] += 1

    def dfs(left: int) -> bool:
        budget.tick("vertex deletion")
        v = lowest_unsat()
        if v == -1:
            return True
        if left == 0:
            return False
        for u in [v] + [w for w in g.adj[v] if w not in removed]:
            delete(u)
            if dfs(left - 1):
                return True
            restore(u)
        return False

    for depth in range(inst.k + 1):
        if dfs(depth):
            return sorted(removed)
    return None


def brute_force_solve(
    inst: DceInstance, node_limit: int = DEFAULT_NODE_LIMIT
) -> EditSolution | None:
    """Minimum-cardinality exact solution for any of the three edit kinds.

    Complete anchored search; intended for small instances. Searches whose
    node count exceeds node_limit raise ResourceLimitError.
    """
    budget = _Budget(node_limit)
    if inst.op_kind is EditKind.VERTEX_DELETION:
        removed = _search_vertex_deletions(inst, budget)
        if removed is None:
            return None
        sol = EditSolution(tuple(("rm", v) for v in removed))
    else:
        adding = inst.op_kind is EditKind.EDGE_ADDITION
        edges = _search_edges(inst, budget, adding)
        if edges is None:
            return None
        tag = "add" if adding else "del"
        sol = EditSolution(tuple((tag, u, v) for u, v in edges))
    return recheck(validate_solution, inst, sol, "search answer fails validation")


def solve_e_plus(
    inst: DceInstance, node_limit: int = DEFAULT_NODE_LIMIT
) -> EditSolution | None:
    """Kernelize, refute numerically or search inside the kernel, lift the
    result.

    Returns None exactly for no-instances.
    """
    require_edge_addition(inst, "solve_e_plus")
    reduced = kernelize_kr(inst)
    if isinstance(reduced, TrivialNo):
        return None
    kernel = reduced.instance
    # s additions raise the degrees by 2s in total, each onto its list, so
    # without a reachable even total up to 2k the answer is NO.
    if least_even_total(kernel.graph.degrees(), kernel.tau.lists, 0, kernel.k) is None:
        return None
    inner = brute_force_solve(kernel, node_limit)
    if inner is None:
        return None
    # old_of_new increases, so renamed edges keep u < v.
    old = reduced.old_of_new
    lifted = additions((old[u], old[v]) for _, u, v in inner.edits)
    return recheck(validate_solution, inst, lifted, "kernel solution does not lift")
