"""Degree-sequence completion with pluggable tuple properties.

A property supplies a membership test on nonincreasing degree tuples and
optionally a solver for its numeric completion problem (given degrees, an
exact total increase, and a max-degree cap, produce increments). The
framework contributes the block-set search space, the bounded exhaustive
solver, and the large-solution branch realized through complement factors.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from collections.abc import Callable, Sequence

from .dce import DceInstance, EditKind, EditSolution, brute_force_solve, solve_e_plus
from .errors import InternalInvariantError, InvalidInputError, ResourceLimitError
from .graph import Edge, Graph, add_edges, degree_sequence
from .winwin import realize_large

# Block-sets above this many vertices are refused: the enumeration over
# their non-edges would not finish.
CORE_CAP = 64
DEFAULT_ENUM_LIMIT = 1_000_000

Fulfills = Callable[[tuple[int, ...]], bool]
NscSolver = Callable[[Sequence[int], int, int], "list[int] | None"]


@dataclass(frozen=True)
class PiProperty:
    """Properties compare by name; the callables are construction details."""

    name: str
    fulfills: Fulfills = field(compare=False)
    nsc_solver: NscSolver | None = field(compare=False, default=None)


@dataclass(frozen=True)
class DscInstance:
    """At most k edge additions making the degree sequence fulfill prop,
    with no degree above delta_prime. Left out, delta_prime is max degree
    + k, which k additions never exceed, so it restricts nothing."""

    graph: Graph
    k: int
    prop: PiProperty
    delta_prime: int | None = None

    def __post_init__(self):
        if self.k < 0:
            raise InvalidInputError("budget k must be nonnegative")
        if self.delta_prime is None:
            object.__setattr__(self, "delta_prime", self.graph.max_degree() + self.k)
        if self.delta_prime < self.graph.max_degree():
            raise InvalidInputError("delta_prime below the current maximum degree")


# -- the block-set -----------------------------------------------------------


def block_set(g: Graph, k: int) -> set[int]:
    """Up to alpha = (max_degree + 2) * k lowest-index vertices per degree
    block, degree 0 included."""
    if k < 0:
        raise InvalidInputError("k must be nonnegative")
    alpha = (g.max_degree() + 2) * k
    taken: Counter[int] = Counter()
    chosen: set[int] = set()
    for v in range(g.vertex_count):
        d = g.degree(v)
        if taken[d] < alpha:
            taken[d] += 1
            chosen.add(v)
    return chosen


# -- the FPT search -----------------------------------------------------------


def completed_sequence(degrees: Sequence[int], additions: Sequence[Edge]) -> tuple[int, ...]:
    d = list(degrees)
    for u, v in additions:
        d[u] += 1
        d[v] += 1
    return tuple(sorted(d, reverse=True))


def dsc_fpt_solve(inst: DscInstance, *, enum_limit: int = DEFAULT_ENUM_LIMIT) -> set[Edge] | None:
    """Enumerate edge sets inside a block-set by increasing size.

    Any solution can be rerouted into the block-set, so the restricted
    search is complete. Candidate sets pushing a degree above delta_prime
    are discarded.
    """
    g = inst.graph
    core = sorted(block_set(g, inst.k))
    if len(core) > CORE_CAP:
        raise ResourceLimitError(
            f"block-set has {len(core)} vertices, above the cap {CORE_CAP}"
        )
    pairs = [
        (u, v) for i, u in enumerate(core) for v in core[i + 1:] if not g.has_edge(u, v)
    ]
    degrees = g.degrees()
    seen = 0
    for size in range(inst.k + 1):
        for combo in itertools.combinations(pairs, size):
            seen += 1
            if seen > enum_limit:
                raise ResourceLimitError(
                    f"candidate enumeration exceeded {enum_limit} edge sets"
                )
            final = completed_sequence(degrees, combo)
            if final and final[0] > inst.delta_prime:
                continue
            if inst.prop.fulfills(final):
                return set(combo)
    return None


# -- numeric completion --------------------------------------------------------


def _validate_increments(
    prop: PiProperty, degrees: Sequence[int], x: Sequence[int], target: int, delta: int
) -> None:
    if len(x) != len(degrees) or any(v < 0 for v in x):
        raise InternalInvariantError(f"{prop.name}: malformed increment vector")
    if sum(x) != target:
        raise InternalInvariantError(f"{prop.name}: increments sum to {sum(x)} != {target}")
    final = [d + v for d, v in zip(degrees, x)]
    if any(f > delta for f in final):
        raise InternalInvariantError(f"{prop.name}: a completed degree exceeds {delta}")
    if not prop.fulfills(tuple(sorted(final, reverse=True))):
        raise InternalInvariantError(f"{prop.name}: completed tuple does not fulfill")


def _generic_nsc(
    fulfills: Fulfills,
    degrees: Sequence[int],
    target: int,
    delta: int,
    enum_limit: int,
) -> list[int] | None:
    """Bounded enumeration over increment vectors, lexicographically."""
    n = len(degrees)
    acc = [0] * n
    seen = 0

    def rec(i: int, left: int) -> bool:
        nonlocal seen
        if i == n:
            seen += 1
            if seen > enum_limit:
                raise ResourceLimitError(
                    f"generic numeric completion exceeded {enum_limit} vectors"
                )
            if left != 0:
                return False
            final = tuple(sorted((d + v for d, v in zip(degrees, acc)), reverse=True))
            return fulfills(final)
        for v in range(0, min(delta - degrees[i], left) + 1):
            acc[i] = v
            if rec(i + 1, left - v):
                return True
        acc[i] = 0
        return False

    return list(acc) if rec(0, target) else None


def pi_nsc_decide(
    prop: PiProperty,
    degrees: Sequence[int],
    target: int,
    delta: int,
    enum_limit: int = DEFAULT_ENUM_LIMIT,
) -> list[int] | None:
    """Increments meeting total, cap, and property, or None.

    Dispatches to the property's own solver when it ships one; otherwise
    falls back to guarded enumeration. Witnesses are re-validated either
    way.
    """
    if target < 0 or delta < 0:
        return None
    if prop.nsc_solver is not None:
        x = prop.nsc_solver(degrees, target, delta)
    else:
        x = _generic_nsc(prop.fulfills, degrees, target, delta, enum_limit)
    if x is None:
        return None
    _validate_increments(prop, degrees, x, target, delta)
    return list(x)


# -- bounding the budget by the target maximum degree ---------------------------


def bound_threshold(delta_prime: int) -> int:
    return delta_prime * (delta_prime + 1) ** 2


def dsc_bound_k(inst: DscInstance, enum_limit: int = DEFAULT_ENUM_LIMIT) -> set[Edge] | None:
    """Scan totals 2k' from the threshold up; realize the first numeric yes.

    None means that no k' from the threshold up to k has a numeric witness:
    budgets above the threshold are then useless, and the instance clamps
    down to it.
    """
    threshold = bound_threshold(inst.delta_prime)
    if inst.k <= threshold:
        raise InvalidInputError(f"budget {inst.k} not above the threshold {threshold}")
    found = _first_numeric_witness(
        inst.prop, inst.graph.degrees(), threshold, inst.k, inst.delta_prime, enum_limit
    )
    if found is None:
        return None
    k_prime, x = found
    return realize_large(inst.graph, x, k_prime)


def _first_numeric_witness(
    prop: PiProperty, degrees: Sequence[int], lo: int, hi: int, delta: int, enum_limit: int
) -> tuple[int, list[int]] | None:
    """The least s in lo..hi whose total 2s has a numeric witness under
    delta, with that witness; totals above the room below delta have none."""
    max_rise = sum(delta - d for d in degrees)
    for s in range(lo, min(hi, max_rise // 2) + 1):
        x = pi_nsc_decide(prop, degrees, 2 * s, delta, enum_limit)
        if x is not None:
            return s, x
    return None


def validate_completion(inst: DscInstance, sol: EditSolution) -> None:
    """Raise InvalidInputError unless sol is a valid completion of inst:
    additions only, within budget, the property met, no degree above
    delta_prime."""
    if any(edit[0] != "add" for edit in sol.edits):
        raise InvalidInputError("a sequence completion only adds edges")
    if len(sol) > inst.k:
        raise InvalidInputError(f"{len(sol)} additions exceed budget {inst.k}")
    final = degree_sequence(add_edges(inst.graph, [edit[1:] for edit in sol.edits]))
    if not inst.prop.fulfills(final):
        raise InvalidInputError(f"the completed sequence is not {inst.prop.name}")
    if final and final[0] > inst.delta_prime:
        raise InvalidInputError(f"a completed degree exceeds {inst.delta_prime}")


def _additions(edges: set[Edge]) -> EditSolution:
    return EditSolution(tuple(("add", u, v) for u, v in sorted(edges)))


def dsc_solve(inst: DscInstance, *, enum_limit: int = DEFAULT_ENUM_LIMIT) -> set[Edge] | None:
    """Full pipeline: large-solution branch, clamp, then the FPT search.

    For a property with its own numeric solver, an instance whose numeric
    relaxation has no witness at any total 2s, s within the budget, is
    answered NO before the search. Every YES is re-validated on the input.
    """
    threshold = bound_threshold(inst.delta_prime)
    edges = dsc_bound_k(inst, enum_limit) if inst.k > threshold else None
    work_k = min(inst.k, threshold)
    if edges is None:
        # s edge additions under the cap raise the degrees by increments of
        # total 2s, so without any such numeric witness the answer is NO.
        refuted = inst.prop.nsc_solver is not None and _first_numeric_witness(
            inst.prop, inst.graph.degrees(), 0, work_k, inst.delta_prime, enum_limit
        ) is None
        if not refuted:
            work = DscInstance(inst.graph, work_k, inst.prop, inst.delta_prime)
            edges = dsc_fpt_solve(work, enum_limit=enum_limit)
    if edges is not None:
        try:
            validate_completion(inst, _additions(edges))
        except InvalidInputError as exc:
            raise InternalInvariantError(f"completion fails re-validation: {exc}") from exc
    return edges


# -- built-in properties ---------------------------------------------------------


def regular_property() -> PiProperty:
    """All degrees equal; ships a closed form for the common target degree."""

    def fulfills(t: tuple[int, ...]) -> bool:
        return len(set(t)) <= 1

    def nsc(degrees: Sequence[int], target: int, delta: int) -> list[int] | None:
        n = len(degrees)
        if n == 0:
            return [] if target == 0 else None
        c, rest = divmod(target + sum(degrees), n)
        if rest or not max(degrees) <= c <= delta:
            return None
        return [c - d for d in degrees]

    return PiProperty("regular", fulfills, nsc)


def h_index_property(ell: int) -> PiProperty:
    """At least ell entries of value at least ell; generic numeric fallback."""
    if ell < 0:
        raise InvalidInputError("h-index bound must be nonnegative")

    def fulfills(t: tuple[int, ...]) -> bool:
        return sum(1 for d in t if d >= ell) >= ell

    return PiProperty(f"hindex-{ell}", fulfills)


def balanced_property(ell: int) -> PiProperty:
    """Every occurring degree occurs exactly ell times; generic fallback."""
    if ell < 1:
        raise InvalidInputError("balancedness multiplicity must be positive")

    def fulfills(t: tuple[int, ...]) -> bool:
        return all(c == ell for c in Counter(t).values())

    return PiProperty(f"balanced-{ell}", fulfills)


def anonymity_fulfills(t: Sequence[int], k_anon: int) -> bool:
    """Every occurring degree occurs at least k_anon times."""
    if k_anon < 1:
        raise InvalidInputError("anonymity level must be positive")
    return all(c >= k_anon for c in Counter(t).values())


def anonymity_nsc(
    degrees: Sequence[int], k_anon: int, target: int, delta: int
) -> list[int] | None:
    """Polynomial assignment of target degrees along the sorted sequence.

    Targets may be assumed nonincreasing along the nonincreasingly sorted
    input (a swap argument reorders any witness), so a witness groups
    consecutive runs of at least k_anon positions onto a shared target. A
    run of 2*k_anon or more positions splits into two runs on the same
    target, so runs shorter than 2*k_anon suffice. The table is filled
    bottom-up: bit s of reach[i][c] says that positions i.. can rise by s
    in total with every target at most c.
    """
    if k_anon < 1:
        raise InvalidInputError("anonymity level must be positive")
    n = len(degrees)
    if n == 0:
        return [] if target == 0 else None
    order = sorted(range(n), key=lambda i: degrees[i], reverse=True)
    d = [degrees[i] for i in order]
    if target < 0 or k_anon > n or delta < d[0]:
        return None
    prefix = [0]
    for value in d:
        prefix.append(prefix[-1] + value)
    # Run ends j for a run starting at i; the rest must be empty or a run.
    ends = [
        [j for j in range(i + k_anon, min(i + 2 * k_anon - 1, n) + 1)
         if j == n or n - j >= k_anon]
        for i in range(n)
    ]

    def cost(i: int, j: int, t: int) -> int:
        return (j - i) * t - (prefix[j] - prefix[i])

    mask = (1 << (target + 1)) - 1
    reach = [[0] * (delta + 1) for _ in range(n)] + [[1] * (delta + 1)]
    for i in range(n - 1, -1, -1):
        row = reach[i]
        acc = 0
        for t in range(d[i], delta + 1):
            for j in ends[i]:
                c = cost(i, j, t)
                if c > target:  # longer runs cost more
                    break
                acc |= reach[j][t] << c
            acc &= mask
            row[t] = acc
    if not reach[0][delta] >> target & 1:
        return None

    x_sorted = [0] * n
    i, left, cap = 0, target, delta
    while i < n:
        step = next(
            (
                (j, t)
                for t in range(d[i], cap + 1)
                for j in ends[i]
                if cost(i, j, t) <= left and reach[j][t] >> (left - cost(i, j, t)) & 1
            ),
            None,
        )
        if step is None:
            raise InternalInvariantError("anonymity table disagrees with traceback")
        j, t = step
        for pos in range(i, j):
            x_sorted[pos] = t - d[pos]
        i, left, cap = j, left - cost(i, j, t), t

    result = [0] * n
    for pos, original in enumerate(order):
        result[original] = x_sorted[pos]
    _validate_increments(anonymity_property(k_anon), degrees, result, target, delta)
    return result


def anonymity_property(k_anon: int) -> PiProperty:
    if k_anon < 1:
        raise InvalidInputError("anonymity level must be positive")

    def fulfills(t: tuple[int, ...]) -> bool:
        return anonymity_fulfills(t, k_anon)

    def nsc(degrees: Sequence[int], target: int, delta: int) -> list[int] | None:
        return anonymity_nsc(degrees, k_anon, target, delta)

    return PiProperty(f"anon-{k_anon}", fulfills, nsc)


def anonymize(g: Graph, k_anon: int, budget: int) -> set[Edge] | None:
    """Edge additions (at most budget many) making the graph k_anon-anonymous."""
    return dsc_solve(DscInstance(g, budget, anonymity_property(k_anon)))


# -- one entry point for every instance kind ---------------------------------------


def solve(inst: DceInstance | DscInstance, limit: int | None = None) -> EditSolution | None:
    """A witness as edits for any instance kind, or None for a no-instance.

    Edge addition is kernelized, then refuted numerically or searched; edge
    and vertex deletion get the exact anchored search; sequence completion
    runs the large-solution branch, the clamp and the block-set search.
    `limit` bounds the search: nodes for the anchored search, candidate sets
    for the sequence-completion enumeration.
    """
    if isinstance(inst, DscInstance):
        edges = dsc_solve(inst) if limit is None else dsc_solve(inst, enum_limit=limit)
        return None if edges is None else _additions(edges)
    search = solve_e_plus if inst.op_kind is EditKind.EDGE_ADDITION else brute_force_solve
    return search(inst) if limit is None else search(inst, node_limit=limit)
