"""Degree-constrained editing: instances, the type-set kernel, exact solvers.

An instance asks for at most k edits of a single kind (edge addition,
edge deletion, or vertex deletion) after which every remaining vertex's
degree lies on its degree list, a subset of {0..r}.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass, replace
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import compress, repeat
from operator import contains, lt, not_
from typing import Any

from .errors import InternalInvariantError, InvalidInputError, ResourceLimitError
from .factors import realize_least, solution_threshold
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
    for v in _unsatisfied(degs, tau.lists):
        if v not in removed:
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


def _unsatisfied(degs: Sequence[int], lists: Sequence[frozenset[int]]) -> Iterator[int]:
    """The vertices whose degree is not on their list, in increasing order."""
    return compress(range(len(degs)), map(not_, map(contains, lists, degs)))


def unsatisfied_vertices(inst: DceInstance) -> set[int]:
    """Vertices whose current degree is not on their degree list."""
    return set(_unsatisfied(inst.graph.degrees(), inst.tau.lists))


def vertex_types(inst: DceInstance, v: int) -> frozenset[int]:
    """All i with deg(v) + i on the list of v; type 0 means satisfied."""
    deg = inst.graph.degree(v)
    return frozenset(t - deg for t in inst.tau[v] if t >= deg)


def _keep_only(inst: DceInstance, keep: Iterable[int]) -> DceInstance:
    """The instance induced on the vertices keep, renumbered in increasing
    order; each kept list shifts down by the neighbors its vertex lost,
    deg_G(old) - deg_kept(new)."""
    g, lists = inst.graph, inst.tau.lists
    sub, old_of_new = induced_subgraph(g, keep)
    degs = g.degrees()
    kept = []
    for old, deg in zip(old_of_new, sub.degrees()):
        shift = degs[old] - deg
        kept.append(frozenset(t - shift for t in lists[old] if t >= shift))
    return DceInstance(sub, inst.k, DegreeListFunction(inst.r, tuple(kept)), inst.op_kind)


def safely_remove(inst: DceInstance, vertices: Iterable[int]) -> DceInstance:
    """Delete the vertices and shift each survivor's list down by the number
    of neighbors it lost, deg_G(v) - deg_{G - vertices}(v)."""
    n = inst.graph.vertex_count
    removed = set(vertices)
    for v in removed:
        if not (0 <= v < n):
            raise InvalidInputError(f"vertex {v} out of range")
    return _keep_only(inst, [v for v in range(n) if v not in removed])


# -- kernelization for edge addition ------------------------------------------


def require_edge_addition(inst: DceInstance, op: str) -> None:
    if inst.op_kind is not EditKind.EDGE_ADDITION:
        raise InvalidInputError(f"{op} applies to edge-addition instances only")


def core_set(inst: DceInstance) -> set[int]:
    """All unsatisfied vertices plus up to alpha = k(max_degree + 2) satisfied
    vertices per positive type, with one counter per type.

    One scan takes the unsatisfied vertices; the counter loop then visits,
    in increasing order, only the vertices with two or more list entries,
    since a satisfied vertex with one entry has no positive type.
    """
    require_edge_addition(inst, "core_set")
    degs, lists = inst.graph.degrees(), inst.tau.lists
    alpha = inst.k * (inst.graph.max_degree() + 2)
    counters = [0] * (inst.r + 1)
    chosen = set(_unsatisfied(degs, lists))
    for v in compress(range(len(lists)), map(lt, repeat(1), map(len, lists))):
        deg = degs[v]
        lst = lists[v]
        if deg not in lst:
            continue
        wanted = False
        for t in lst:
            if t > deg:
                i = t - deg
                if counters[i] < alpha:
                    wanted = True
                counters[i] += 1
        if wanted:
            chosen.add(v)
    return chosen


def rule2_check(inst: DceInstance) -> TrivialNo | None:
    """Trivial no if more than 2k vertices are unsatisfied or some vertex
    already exceeds every degree on its list (empty lists always do).

    Only unsatisfied vertices can overshoot; they are checked in increasing
    order up to the (2k+1)-th, whose overshoot is reported before the count.
    """
    require_edge_addition(inst, "rule2_check")
    degs, lists = inst.graph.degrees(), inst.tau.lists
    limit = 2 * inst.k
    for count, v in enumerate(_unsatisfied(degs, lists), 1):
        lst = lists[v]
        if not lst or degs[v] > max(lst):
            return TrivialNo(f"vertex {v} overshoots its degree list")
        if count > limit:
            return TrivialNo(f"more than {limit} unsatisfied vertices")
    return None


def kernelize_kr(inst: DceInstance) -> Kernel | TrivialNo:
    """The (k, r)-parameter kernel: one overshoot check, one core-set pass,
    and the instance induced on the kept core set with shifted lists.

    A returned kernel has at most 2k + rk(r+2) vertices and is a
    yes-instance exactly when the input is.
    """
    require_edge_addition(inst, "kernelize_kr")
    no = rule2_check(inst)
    if no is not None:
        return no
    keep = sorted(core_set(inst))
    return Kernel(_keep_only(inst, keep), tuple(keep))


# -- exhaustive solving -------------------------------------------------------


def _min_shift(sorted_targets: list[int], deg: int, budget: int, sign: int) -> int | None:
    """Cheapest |change| to land on a target, moving up (+1) or down (-1),
    from a degree that is not a target."""
    i = bisect_left(sorted_targets, deg)
    if sign > 0:
        if i < len(sorted_targets) and sorted_targets[i] - deg <= budget:
            return sorted_targets[i] - deg
        return None
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
    unsat = set(_unsatisfied(degs, tau.lists))
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
    g, lists = inst.graph, inst.tau.lists
    degs = list(g.degrees())
    removed: set[int] = set()

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
        v = next((v for v in _unsatisfied(degs, lists) if v not in removed), -1)
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


def realize_e_plus(
    inst: DceInstance, start: int, fallback: Callable[[], set[Edge] | None] | None = None
) -> set[Edge] | None:
    """The realization loop on the NCE witnesses of inst from s = start."""
    degrees = inst.graph.degrees()

    def witness(lo: int) -> tuple[int, list[int]] | None:
        found = least_even_total(degrees, inst.tau.lists, lo, inst.k)
        return None if found is None else (found[0], [x - d for x, d in zip(found[1], degrees)])

    return realize_least(inst.graph, witness, start, solution_threshold(inst.r), False, fallback)


def solve_e_plus(
    inst: DceInstance, node_limit: int = DEFAULT_NODE_LIMIT
) -> EditSolution | None:
    """Kernelize; on the kernel, the numeric NO, the realization of the
    least witness, then the anchored search up to the threshold r(r+1)^2,
    and the realization of the least witness from it up; lift the result.

    Returns None exactly for no-instances, and otherwise a minimum answer:
    the search leaves to the last step only budgets without a solution
    below the threshold. node_limit bounds only the search.
    """
    require_edge_addition(inst, "solve_e_plus")
    reduced = kernelize_kr(inst)
    if isinstance(reduced, TrivialNo):
        return None
    kernel, threshold = reduced.instance, solution_threshold(inst.r)

    def fallback() -> set[Edge] | None:
        inner = brute_force_solve(replace(kernel, k=min(kernel.k, threshold)), node_limit)
        if inner is None:
            return realize_e_plus(kernel, threshold)
        return {(u, v) for _, u, v in inner.edits}

    edges = realize_e_plus(kernel, 0, fallback)
    if edges is None:
        return None
    # old_of_new increases, so renamed edges keep u < v.
    old = reduced.old_of_new
    lifted = additions((old[u], old[v]) for u, v in edges)
    return recheck(validate_solution, inst, lifted, "kernel solution does not lift")
