"""degkit: kernelization and exact solving for degree-constrained completion.

The package covers degree-constrained edge editing (instances, the
type-set kernel, exact solvers for all three edit operations), the
numeric completion dynamic program, large-solution construction through
complement factors, a pluggable degree-sequence completion framework
with k-anonymization built in, the classic hardness constructions as
instance transformers, and a DIMACS-flavored file format with a CLI.
"""

from .graph import Graph, add_edges, complement, degree_sequence, induced_subgraph, remove_edges
from .matching import max_matching
from .factors import f_factor, kt_condition_holds
from .nce import NceInstance, make_nce, nce_decide, nce_decide_all_targets, nce_traceback
from .dce import (
    DceInstance,
    DegreeListFunction,
    EditKind,
    EditSolution,
    Kernel,
    TrivialNo,
    brute_force_solve,
    core_set,
    is_valid_solution,
    kernelize_kr,
    make_dce,
    make_tau,
    rule2_check,
    safely_remove,
    solve_e_plus,
    unsatisfied_vertices,
    validate_solution,
    vertex_types,
)
from .winwin import (
    KernelResult,
    TrivialYes,
    kernelize_r,
    realize_demands,
    solution_threshold,
    try_large_solution,
)
from .dsc import (
    DscInstance,
    PiProperty,
    anonymity_fulfills,
    anonymity_nsc,
    anonymity_property,
    anonymize,
    balanced_property,
    block_set,
    dsc_bound_k,
    dsc_fpt_solve,
    dsc_solve,
    h_index_property,
    pi_nsc_decide,
    regular_property,
    solve,
)
from .reductions import (
    ReductionOutput,
    approx_vertex_cover,
    clique_to_dce_eminus,
    clique_to_dce_vminus,
    is_to_dce_eplus,
    twin_classes,
    vc_to_dce_vminus,
)
from .generators import gen_cubic, gen_from_reduction, gen_random_dce, gen_random_graph
from .formats import parse_instance, parse_solution, serialize_instance, serialize_solution
from .errors import (
    DegkitError,
    EdgeConflictError,
    InternalInvariantError,
    InvalidInputError,
    ParseError,
    ResourceLimitError,
)

__all__ = [name for name in dir() if not name.startswith("_")]
