"""degkit: kernelization and exact solving for degree-constrained completion.

The package covers degree-constrained edge editing (instances, the
type-set kernel, exact solvers for all three edit operations), the
numeric completion dynamic program, large-solution construction through
complement factors, a pluggable degree-sequence completion framework
with k-anonymization built in, the classic hardness constructions as
instance transformers, and a DIMACS-flavored file format with a CLI.
"""

from .graph import Graph, complement, induced_subgraph
from .matching import max_matching
from .factors import f_factor
from .nce import NceInstance, make_nce, nce_traceback
from .dce import (
    DceInstance,
    DegreeListFunction,
    EditKind,
    EditSolution,
    Kernel,
    TrivialNo,
    brute_force_solve,
    core_set,
    kernelize_kr,
    make_dce,
    rule2_check,
    solve_e_plus,
    validate_solution,
)
from .winwin import (
    TrivialYes,
    kernelize_r,
    realize_demands,
    solution_threshold,
    try_large_solution,
)
from .dsc import (
    DscInstance,
    PiProperty,
    anonymity_property,
    anonymize,
    balanced_property,
    block_set,
    dsc_fpt_solve,
    dsc_solve,
    h_index_property,
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
from .generators import gen_cubic, gen_from_reduction, gen_random_dce
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
