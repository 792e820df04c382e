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
    kernelize_kr,
    require_edge_addition,
    validate_solution,
)
from .errors import InternalInvariantError, InvalidInputError
from .factors import f_factor
from .graph import DemandFunction, Edge, Graph, complement, induced_subgraph, normalize_edge
from .nce import least_even_total


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


def realize_large(g: Graph, demand: DemandFunction, k_prime: int) -> set[Edge]:
    """Realize a numeric witness of total 2k' at or above the threshold,
    where the win-win guarantees success, so a failure is a defect."""
    edges = realize_demands(g, demand)
    if edges is None:
        raise InternalInvariantError(
            f"realization failed at k'={k_prime} despite the large-solution guarantee"
        )
    return edges


def try_large_solution(inst: DceInstance) -> EditSolution | None:
    """Find the least k' from the threshold up to k whose total 2k' the
    numeric relaxation reaches, and realize its witness."""
    require_edge_addition(inst, "try_large_solution")
    r = inst.r
    threshold = solution_threshold(r)
    if inst.k < threshold:
        raise InvalidInputError(f"budget {inst.k} below the threshold {threshold}")
    g = inst.graph
    degrees = g.degrees()
    found = least_even_total(degrees, inst.tau.lists, threshold, inst.k)
    if found is None:
        return None
    k_prime, final = found
    demand = [x - d for x, d in zip(final, degrees)]
    affected = [v for v in range(g.vertex_count) if demand[v] > 0]
    if affected and len(affected) < 2 * (r + 1) ** 2:
        raise InternalInvariantError(
            f"only {len(affected)} affected vertices at total {2 * k_prime}"
        )
    edges = realize_large(g, demand, k_prime)
    solution = EditSolution(tuple(("add", u, v) for u, v in sorted(edges)))
    validate_solution(inst, solution)
    return solution


def kernelize_r(inst: DceInstance) -> KernelResult:
    """The r-only kernel pipeline.

    Above the threshold, first try to construct a large solution outright;
    failing that, the budget clamps to the threshold (no solution of any
    size in between exists). The type-set kernel then bounds the instance
    by 2k'' + rk''(r+2) vertices with k'' = min(k, r(r+1)^2).
    """
    require_edge_addition(inst, "kernelize_r")
    work = inst
    threshold = solution_threshold(inst.r)
    if inst.k > threshold:
        witness = try_large_solution(inst)
        if witness is not None:
            return TrivialYes(witness)
        work = DceInstance(inst.graph, threshold, inst.tau, inst.op_kind)
    return kernelize_kr(work)
