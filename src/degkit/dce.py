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
from itertools import compress, islice, repeat
from operator import contains, lt, sub
from typing import Any

from .errors import InternalInvariantError, InvalidInputError, ResourceLimitError
from .factors import realize_least, solution_threshold
from .graph import Edge, Graph, induced_subgraph, normalize_edge
from .nce import DegreeListFunction, least_even_total

DEFAULT_NODE_LIMIT = 4_000_000


class EditKind(enum.Enum):
    EDGE_ADDITION = "e+"
    EDGE_DELETION = "e-"
    VERTEX_DELETION = "v-"


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
    """The instance with these degree lists. Equal lists, however given,
    share one frozenset, so an instance holds at most min(n, 2^(r+1))."""
    shared: dict[frozenset[int], frozenset[int]] = {}
    tau = DegreeListFunction(r, tuple(shared.setdefault(s, s) for s in map(frozenset, lists)))
    return DceInstance(graph, k, tau, op_kind)


# An edit is ("add", u, v), ("del", u, v) with u < v, or ("rm", v).
Edit = tuple

# The word that opens every edit of each kind.
_WORDS = {EditKind.EDGE_ADDITION: "add", EditKind.EDGE_DELETION: "del", EditKind.VERTEX_DELETION: "rm"}


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


def edited_degrees(g: Graph, edits: Iterable[Edit], word: str) -> tuple[list[int], set[int]]:
    """The degrees, indexed by vertex, that the edits leave in g, and the
    vertices they delete; a deleted vertex keeps a stale entry.

    Every edit must be `word` ("add", "del" or "rm") followed by as many
    vertices as it takes. InvalidInputError for any other edit, an end out
    of range, a loop, an edge or vertex edited twice, an added edge that is
    already present or a deleted one that is not.
    """
    n = g.vertex_count
    wanted = 1 if word == "rm" else 2
    step = -1 if word == "del" else 1
    degs = list(g.degrees())
    seen: set[Edge] = set()
    removed: set[int] = set()
    for edit in edits:
        if not edit or edit[0] != word:
            raise InvalidInputError(f"edit {edit} does not match operation {word}")
        if len(edit) != wanted + 1:
            raise InvalidInputError(f"edit {edit} names {len(edit) - 1} vertices, {word} takes {wanted}")
        if word == "rm":
            v = edit[1]
            if not (0 <= v < n):
                raise InvalidInputError(f"vertex {v} out of range")
            if v in removed:
                raise InvalidInputError(f"vertex {v} deleted twice")
            removed.add(v)
            for w in g.adj[v]:
                degs[w] -= 1
            continue
        u, v = e = normalize_edge(edit[1], edit[2])
        if not (0 <= u and v < n):
            raise InvalidInputError(f"edge {e} out of range")
        if e in seen:
            raise InvalidInputError(f"duplicate edit on edge {e}")
        seen.add(e)
        present = g.has_edge(u, v)
        if word == "add" and present:
            raise InvalidInputError(f"edge {e} already present")
        if word == "del" and not present:
            raise InvalidInputError(f"edge {e} not present")
        degs[u] += step
        degs[v] += step
    return degs, removed


def validate_solution(inst: DceInstance, sol: EditSolution) -> None:
    """Raise InvalidInputError unless sol is a valid solution of inst."""
    if len(sol.edits) > inst.k:
        raise InvalidInputError(f"{len(sol.edits)} edits exceed budget {inst.k}")
    degs, removed = edited_degrees(inst.graph, sol.edits, _WORDS[inst.op_kind])
    for v in _unsatisfied(degs, inst.tau.lists):
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
    """The vertices whose degree is not on their list, in increasing order:
    one membership scan into bytes, then a jump from zero to zero."""
    on = bytes(map(contains, lists, degs))
    v = on.find(0)
    while v >= 0:
        yield v
        v = on.find(0, v + 1)


def _keep_only(inst: DceInstance, keep: Iterable[int]) -> DceInstance:
    """The instance induced on the vertices keep, renumbered in increasing
    order; each kept list shifts down by the neighbors its vertex lost,
    deg_G(old) - deg_kept(new), and make_dce shares the equal ones."""
    g, lists = inst.graph, inst.tau.lists
    induced, old_of_new = induced_subgraph(g, keep)
    degs = g.degrees()
    kept = []
    for old, deg in zip(old_of_new, induced.degrees()):
        shift = degs[old] - deg
        kept.append(frozenset(t - shift for t in lists[old] if t >= shift))
    return make_dce(induced, inst.k, inst.r, kept, inst.op_kind)


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


def core_set(inst: DceInstance, unsat: Iterable[int] | None = None) -> set[int]:
    """All unsatisfied vertices plus up to alpha = k(max_degree + 2) satisfied
    vertices per positive type, with one counter per type.

    One scan takes the unsatisfied vertices, unless the caller hands them
    over as unsat. The counter sweep then visits, in increasing order, only
    the vertices with two or more list entries, since a satisfied vertex
    with one entry has no positive type. A satisfied vertex's types are
    gaps inside its own list, so none exceeds tau.spread; the sweep stops
    right after the vertex that brings the last of the types 1..spread to
    alpha, since no later vertex can be kept. When some type in 1..spread
    never reaches alpha, the sweep runs to the end.
    """
    require_edge_addition(inst, "core_set")
    degs, lists = inst.graph.degrees(), inst.tau.lists
    alpha = inst.k * (inst.graph.max_degree() + 2)
    spread = inst.tau.spread
    counters = [0] * (spread + 1)
    chosen = set(_unsatisfied(degs, lists) if unsat is None else unsat)
    open_types = spread if alpha else 0
    if not open_types:
        return chosen
    for v in compress(range(len(lists)), map(lt, repeat(1), map(len, lists))):
        deg = degs[v]
        lst = lists[v]
        if deg not in lst:
            continue
        wanted = False
        for t in lst:
            if t > deg:
                i = t - deg
                count = counters[i] + 1
                counters[i] = count
                if count <= alpha:
                    wanted = True
                    if count == alpha:
                        open_types -= 1
        if wanted:
            chosen.add(v)
            if not open_types:
                break
    return chosen


def rule2_check(inst: DceInstance, unsat: Iterable[int] | None = None) -> TrivialNo | None:
    """Trivial no if more than 2k vertices are unsatisfied or some vertex
    already exceeds every degree on its list (empty lists always do).

    Only unsatisfied vertices can overshoot; they are checked in increasing
    order up to the (2k+1)-th, whose overshoot is reported before the count.
    unsat, if given, holds at least those first 2k + 1 in increasing order.
    """
    require_edge_addition(inst, "rule2_check")
    degs, lists = inst.graph.degrees(), inst.tau.lists
    limit = 2 * inst.k
    for count, v in enumerate(_unsatisfied(degs, lists) if unsat is None else unsat, 1):
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
    # Rule 2 reads at most the first 2k + 1 unsatisfied vertices, and the
    # core set is taken only when there are no more than 2k.
    unsat = list(islice(_unsatisfied(inst.graph.degrees(), inst.tau.lists), 2 * inst.k + 1))
    no = rule2_check(inst, unsat)
    if no is not None:
        return no
    keep = sorted(core_set(inst, unsat))
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


def _search(inst: DceInstance, node_limit: int) -> tuple[Edit, ...] | None:
    """Depth-first search anchored at the lowest unsatisfied vertex, by
    iterative deepening, so the first solution found is minimum.

    Every solution must fix the anchor: an edge edit must touch it, and a
    vertex deletion must delete it or one of its surviving neighbors, so
    branching over those moves is complete. The unsatisfied survivors are
    kept as a set, updated with every degree change, so a node costs their
    number rather than n. Edge edits also prune when the unsatisfied
    vertices need more degree change than the edits left can make.
    """
    g, lists, n = inst.graph, inst.tau.lists, inst.graph.vertex_count
    word = _WORDS[inst.op_kind]
    what = inst.op_kind.name.lower().replace("_", " ")
    sign = -1 if word == "del" else 1
    degs = list(g.degrees())
    targets = {s: sorted(s) for s in set(lists)}
    unsat = set(_unsatisfied(degs, lists))
    # The edges edited (pairs) or the vertices deleted (ints), so `v in made`
    # holds only for a deleted vertex, which leaves unsat.
    made: set[Any] = set()
    nodes = 0

    def shift(v: int, by: int) -> None:
        degs[v] += by
        if degs[v] in lists[v] or v in made:
            unsat.discard(v)
        else:
            unsat.add(v)

    def moves(v: int) -> list[Any]:
        if word == "rm":
            return [v] + [w for w in g.adj[v] if w not in made]
        ends = g.adj[v] if word == "del" else [u for u in range(n) if u != v and not g.has_edge(u, v)]
        return [e for e in (normalize_edge(u, v) for u in ends) if e not in made]

    def apply(move: Any, by: int) -> None:
        """Shift the degrees a made (by = 1) or unmade (by = -1) move changes."""
        if word == "rm":
            for w in g.adj[move]:
                shift(w, -by)
            shift(move, 0)
        else:
            shift(move[0], sign * by)
            shift(move[1], sign * by)

    def prune(left: int) -> bool:
        need = 0
        for v in unsat:
            cost = _min_shift(targets[lists[v]], degs[v], left, sign)
            if cost is None:
                return True
            need += cost
            if need > 2 * left:
                return True
        return False

    def dfs(left: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > node_limit:
            raise ResourceLimitError(f"{what}: exhaustive search exceeded {node_limit} nodes")
        if not unsat:
            return True
        if left == 0 or (word != "rm" and prune(left)):
            return False
        for move in moves(min(unsat)):
            made.add(move)
            apply(move, 1)
            if dfs(left - 1):
                return True
            made.discard(move)
            apply(move, -1)
        return False

    for depth in range(inst.k + 1):
        if dfs(depth):
            return tuple((word, m) if word == "rm" else (word, *m) for m in sorted(made))
    return None


def brute_force_solve(
    inst: DceInstance, node_limit: int = DEFAULT_NODE_LIMIT
) -> EditSolution | None:
    """Minimum-cardinality exact solution for any of the three edit kinds.

    Complete anchored search; intended for small instances. Searches whose
    node count exceeds node_limit raise ResourceLimitError.
    """
    edits = _search(inst, node_limit)
    if edits is None:
        return None
    return recheck(validate_solution, inst, EditSolution(edits), "search answer fails validation")


def realize_e_plus(
    inst: DceInstance, start: int, search: Callable[[], set[Edge] | None] | None = None
) -> set[Edge] | None:
    """`factors.realize_least` on the NCE witnesses of inst from s = start."""
    degrees = inst.graph.degrees()

    def witness(lo: int) -> tuple[int, list[int]] | None:
        found = least_even_total(degrees, inst.tau.lists, lo, inst.k)
        return None if found is None else (found[0], list(map(sub, found[1], degrees)))

    return realize_least(inst.graph, witness, start, solution_threshold(inst.r), False, search)


def solve_e_plus(
    inst: DceInstance, node_limit: int = DEFAULT_NODE_LIMIT
) -> EditSolution | None:
    """Kernelize, run `factors.realize_least` on the kernel with the
    anchored search as its exact search, and lift the result.

    Returns None exactly for no-instances, and otherwise an answer that is
    minimum unless the search exceeded node_limit and the realization from
    the threshold r(r+1)^2 up answered instead. node_limit bounds only the
    search.
    """
    require_edge_addition(inst, "solve_e_plus")
    reduced = kernelize_kr(inst)
    if isinstance(reduced, TrivialNo):
        return None
    kernel = reduced.instance

    def search() -> set[Edge] | None:
        clamped = replace(kernel, k=min(kernel.k, solution_threshold(inst.r)))
        inner = brute_force_solve(clamped, node_limit)
        return None if inner is None else {(u, v) for _, u, v in inner.edits}

    edges = realize_e_plus(kernel, 0, search)
    if edges is None:
        return None
    # old_of_new increases, so renamed edges keep u < v.
    old = reduced.old_of_new
    lifted = additions((old[u], old[v]) for u, v in edges)
    return recheck(validate_solution, inst, lifted, "kernel solution does not lift")
