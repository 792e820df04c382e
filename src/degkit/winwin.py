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
    additions,
    kernelize_kr,
    realize_e_plus,
    recheck,
    require_edge_addition,
    validate_solution,
)
from .errors import InvalidInputError
# realize_demands is re-exported: demand realization belongs to the win-win.
from .factors import realize_demands, solution_threshold


@dataclass(frozen=True)
class TrivialYes:
    witness: EditSolution


def try_large_solution(inst: DceInstance) -> EditSolution | None:
    """Realize the least numeric witness from the threshold up to k, or
    None when the numeric relaxation reaches no total there."""
    require_edge_addition(inst, "try_large_solution")
    threshold = solution_threshold(inst.r)
    if inst.k < threshold:
        raise InvalidInputError(f"budget {inst.k} below the threshold {threshold}")
    edges = realize_e_plus(inst, threshold)
    if edges is None:
        return None
    return recheck(validate_solution, inst, additions(edges), "large solution fails validation")


def kernelize_r(inst: DceInstance) -> TrivialYes | TrivialNo | Kernel:
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
