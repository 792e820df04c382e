"""Large-solution construction and the degree-bound-only kernel.

Either an edge-addition instance has a solution below r(r+1)^2 (so the
type-set kernel stays small after clamping the budget), or the numeric
relaxation finds a feasible total and the complement f-factor realizes it
outright. Both branches together give a kernel whose size depends on r
alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dce import (
    DceInstance,
    EditSolution,
    Kernel,
    TrivialNo,
    _require_edge_addition,
    kernelize_kr,
    validate_solution,
)
from .errors import InternalInvariantError, InvalidInputError
from .factors import f_factor
from .graph import DemandFunction, Edge, Graph, complement, induced_subgraph, normalize_edge
from .nce import make_nce, nce_decide_all_targets, nce_traceback


@dataclass(frozen=True)
class TrivialYes:
    witness: EditSolution


KernelResult = TrivialYes | TrivialNo | Kernel


def solution_threshold(r: int) -> int:
    """Budgets of at least r(r+1)^2 enter the large-solution branch."""
    return r * (r + 1) ** 2


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
    if any(x < 0 for x in demand):
        raise InvalidInputError("demands must be nonnegative")
    if any(demand[v] > n - 1 - g.degree(v) for v in range(n)):
        return None
    if sum(demand) % 2 == 1:
        return None
    affected = [v for v in range(n) if demand[v] > 0]
    if not affected:
        return set()
    sub, old_of_new = induced_subgraph(g, affected)
    factor = f_factor(complement(sub), [demand[v] for v in old_of_new])
    if factor is None:
        return None
    return {normalize_edge(old_of_new[u], old_of_new[v]) for u, v in factor}


def try_large_solution(inst: DceInstance) -> EditSolution | None:
    """Scan totals 2k' for k' from the threshold up to k; realize the first hit.

    Realization is guaranteed once the numeric problem says yes at such a
    k', so a failure there is a defect, not a legal outcome.
    """
    _require_edge_addition(inst, "try_large_solution")
    r = inst.r
    threshold = solution_threshold(r)
    if inst.k < threshold:
        raise InvalidInputError(f"budget {inst.k} below the threshold {threshold}")
    g = inst.graph
    degrees = g.degrees()
    phi = inst.tau.lists

    # No vertex can rise above the largest entry of its list, which caps the
    # scan well below huge budgets.
    max_rise = 0
    for d, allowed in zip(degrees, phi):
        feasible = [x - d for x in allowed if x >= d]
        if not feasible:
            return None
        max_rise += max(feasible)
    upper = min(inst.k, max_rise // 2)
    if upper < threshold:
        return None

    table = nce_decide_all_targets(degrees, 2 * upper, r, phi)
    for k_prime in range(threshold, upper + 1):
        if not table[2 * k_prime]:
            continue
        final = nce_traceback(make_nce(degrees, 2 * k_prime, r, phi))
        if final is None:
            raise InternalInvariantError("all-targets table disagrees with traceback")
        demand = [x - d for x, d in zip(final, degrees)]
        affected = [v for v in range(g.vertex_count) if demand[v] > 0]
        if affected and len(affected) < 2 * (r + 1) ** 2:
            raise InternalInvariantError(
                f"only {len(affected)} affected vertices at total {2 * k_prime}"
            )
        edges = realize_demands(g, demand)
        if edges is None:
            raise InternalInvariantError(
                f"realization failed at k'={k_prime} despite the win-win guarantee"
            )
        solution = EditSolution(tuple(("add", u, v) for u, v in sorted(edges)))
        validate_solution(inst, solution)
        return solution
    return None


def kernelize_r(inst: DceInstance) -> KernelResult:
    """The r-only kernel pipeline.

    Above the threshold, first try to construct a large solution outright;
    failing that, the budget clamps to the threshold (no solution of any
    size in between exists). The type-set kernel then bounds the instance
    by 2k'' + rk''(r+2) vertices with k'' = min(k, r(r+1)^2).
    """
    _require_edge_addition(inst, "kernelize_r")
    work = inst
    threshold = solution_threshold(inst.r)
    if inst.k > threshold:
        witness = try_large_solution(inst)
        if witness is not None:
            return TrivialYes(witness)
        work = DceInstance(inst.graph, threshold, inst.tau, inst.op_kind)
    return kernelize_kr(work)
