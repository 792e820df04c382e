"""Degree-sequence completion with pluggable tuple properties.

A property supplies a membership test on nonincreasing degree tuples and a
polynomial solver for its numeric completion problem (the first total of a
range of increases that increments under a cap reach). The framework
realizes those witnesses through complement factors and contributes the
block-set search space and the bounded exhaustive solver.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field, replace
from collections.abc import Callable, Sequence

from .dce import (
    DceInstance,
    EditKind,
    EditSolution,
    additions,
    brute_force_solve,
    edited_degrees,
    recheck,
    solve_e_plus,
)
from .errors import InternalInvariantError, InvalidInputError, ResourceLimitError
from .factors import realize_least, solution_threshold
from .graph import Edge, Graph

# Block-sets above this many vertices are refused: the enumeration over
# their non-edges would not finish.
CORE_CAP = 64
DEFAULT_ENUM_LIMIT = 1_000_000

Fulfills = Callable[[tuple[int, ...]], bool]
NumericWitness = tuple[int, list[int]]  # a total increase and its increments
NscSolver = Callable[[Sequence[int], range, int], "NumericWitness | None"]


@dataclass(frozen=True)
class PiProperty:
    """Properties compare by name; the callables are construction details.

    `nsc_solver(degrees, totals, delta)` runs in polynomial time and returns
    (total, increments) for the first total of the increasing range whose
    increments keep every degree at most delta and fulfill the property, or
    None; a degree already above delta gives None.

    `one_per_total` says that every total has at most one witness, so a
    witness that does not realize rules its total out.
    """

    name: str
    fulfills: Fulfills = field(compare=False)
    nsc_solver: NscSolver = field(compare=False)
    one_per_total: bool = field(compare=False, default=False)


@dataclass(frozen=True)
class DscInstance:
    """At most k edge additions making the degree sequence fulfill prop,
    with no degree above delta_prime. Left out, as in a file without a
    `d` line, delta_prime is max degree + k, which k additions never
    exceed, so it restricts nothing."""

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
    """The nonincreasing degree tuple after the additions, checking nothing.

    The block-set enumeration calls this once per candidate, and its pairs
    are distinct non-edges by construction, so the checks of
    `dce.edited_degrees` would only slow it down; `dsc_solve` re-validates
    the set it returns through them.
    """
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
        raise ResourceLimitError(f"block-set has {len(core)} vertices, above the cap {CORE_CAP}")
    pairs = [
        (u, v) for i, u in enumerate(core) for v in core[i + 1:] if not g.has_edge(u, v)
    ]
    degrees = g.degrees()
    seen = 0
    # No edge set is larger than the pairs it is drawn from.
    for size in range(min(inst.k, len(pairs)) + 1):
        for combo in itertools.combinations(pairs, size):
            seen += 1
            if seen > enum_limit:
                raise ResourceLimitError(f"candidate enumeration exceeded {enum_limit} edge sets")
            final = completed_sequence(degrees, combo)
            if final and final[0] > inst.delta_prime:
                continue
            if inst.prop.fulfills(final):
                return set(combo)
    return None


# -- numeric completion --------------------------------------------------------


def _numeric_witness(
    prop: PiProperty, degrees: Sequence[int], totals: range, delta: int
) -> NumericWitness | None:
    """The property's first witness over totals, re-validated."""
    found = prop.nsc_solver(degrees, totals, delta)
    if found is None:
        return None
    total, x = found
    if len(x) != len(degrees) or any(v < 0 for v in x):
        raise InternalInvariantError(f"{prop.name}: malformed increment vector")
    if sum(x) != total or total not in totals:
        raise InternalInvariantError(f"{prop.name}: increments sum to {sum(x)}, not {total}")
    final = [d + v for d, v in zip(degrees, x)]
    if any(f > delta for f in final):
        raise InternalInvariantError(f"{prop.name}: a completed degree exceeds {delta}")
    if not prop.fulfills(tuple(sorted(final, reverse=True))):
        raise InternalInvariantError(f"{prop.name}: completed tuple does not fulfill")
    return found


def pi_nsc_decide(
    prop: PiProperty, degrees: Sequence[int], target: int, delta: int
) -> list[int] | None:
    """Increments meeting total, cap, and property, or None."""
    if target < 0 or delta < 0:
        return None
    found = _numeric_witness(prop, degrees, range(target, target + 1), delta)
    return None if found is None else found[1]


def validate_completion(inst: DscInstance, sol: EditSolution) -> None:
    """Raise InvalidInputError unless sol is a valid completion of inst:
    additions only, within budget, the property met, no degree above
    delta_prime."""
    if len(sol) > inst.k:
        raise InvalidInputError(f"{len(sol)} additions exceed budget {inst.k}")
    degs, _ = edited_degrees(inst.graph, sol.edits, "add")
    final = tuple(sorted(degs, reverse=True))
    if not inst.prop.fulfills(final):
        raise InvalidInputError(f"the completed sequence is not {inst.prop.name}")
    if final and final[0] > inst.delta_prime:
        raise InvalidInputError(f"a completed degree exceeds {inst.delta_prime}")


def dsc_solve(inst: DscInstance, *, enum_limit: int = DEFAULT_ENUM_LIMIT) -> set[Edge] | None:
    """`factors.realize_least` on the property's numeric witnesses, with
    the block-set enumeration, bounded by `enum_limit`, as its exact search
    and Δ'(Δ'+1)^2 as its threshold. Every YES is re-validated on the input.
    """
    g, prop, delta = inst.graph, inst.prop, inst.delta_prime
    threshold, degrees = solution_threshold(delta), g.degrees()

    def witness(lo: int) -> tuple[int, list[int]] | None:
        found = _numeric_witness(prop, degrees, range(2 * lo, 2 * inst.k + 1, 2), delta)
        return None if found is None else (found[0] // 2, found[1])

    def search() -> set[Edge] | None:
        return dsc_fpt_solve(replace(inst, k=min(inst.k, threshold)), enum_limit=enum_limit)

    edges = realize_least(g, witness, 0, threshold, prop.one_per_total, search)
    if edges is not None:
        recheck(validate_completion, inst, additions(edges), "completion fails re-validation")
    return edges


# -- built-in properties ---------------------------------------------------------


def regular_property() -> PiProperty:
    """All degrees equal; ships a closed form for the common target degree.

    A regular completion with common degree c is exactly a (c - deg)-factor
    of the complement, and its n*c - sum(deg) rise is twice its size: the
    one witness of its total. So the least c whose factor exists gives a
    minimum completion.
    """

    def fulfills(t: tuple[int, ...]) -> bool:
        return len(set(t)) <= 1

    def nsc(degrees: Sequence[int], totals: range, delta: int) -> NumericWitness | None:
        n, total = len(degrees), sum(degrees)
        if n == 0:
            return (0, []) if 0 in totals else None
        low = max(degrees)
        if low > delta:
            return None
        # Common degree c rises by n*c - total; from the first c that reaches
        # the range on, that rise repeats modulo the step with period step.
        first = max(low, -(-(totals.start + total) // n))
        for c in itertools.islice(range(first, delta + 1), totals.step):
            if n * c - total in totals:
                return n * c - total, [c - d for d in degrees]
        return None

    return PiProperty("regular", fulfills, nsc, one_per_total=True)


def h_index_property(ell: int) -> PiProperty:
    """At least ell entries of value at least ell. Lifting the ell largest
    entries to ell is the least rise that works; rises never hurt, so every
    larger total under the cap works too, spread evenly."""
    if ell < 0:
        raise InvalidInputError("h-index bound must be nonnegative")

    def fulfills(t: tuple[int, ...]) -> bool:
        return sum(1 for d in t if d >= ell) >= ell

    def nsc(degrees: Sequence[int], totals: range, delta: int) -> NumericWitness | None:
        n = len(degrees)
        if ell > n or any(d > delta for d in degrees) or (ell > 0 and ell > delta):
            return None
        x = [0] * n
        for v in sorted(range(n), key=lambda v: degrees[v], reverse=True)[:ell]:
            x[v] = max(0, ell - degrees[v])
        least = sum(x)
        fits = totals[bisect_left(totals, least):]
        if not fits or fits[0] > sum(delta - d for d in degrees):
            return None
        # Spread the rest one unit per vertex per round, least-raised vertex
        # first (small rises on many vertices realize more often): all rise
        # to one level short of the last round, handed out in index order.
        rest, room = fits[0] - least, [delta - d for d in degrees]
        level = bisect_left(range(max(x, default=0) + rest + 1), rest,
                            key=lambda t: sum(max(0, min(r, t) - v) for r, v in zip(room, x)))
        x = [max(v, min(r, level - 1)) for v, r in zip(x, room)]
        for v in [v for v in range(n) if x[v] < level <= room[v]][:fits[0] - sum(x)]:
            x[v] += 1
        return fits[0], x

    return PiProperty(f"hindex-{ell}", fulfills, nsc)


def balanced_property(ell: int) -> PiProperty:
    """Every occurring degree occurs exactly ell times; the sorted
    completed tuple is runs of exactly ell equal entries with strictly
    decreasing values, which the run table of `_runs_nsc` solves."""
    if ell < 1:
        raise InvalidInputError("balancedness multiplicity must be positive")

    def fulfills(t: tuple[int, ...]) -> bool:
        return all(c == ell for c in Counter(t).values())

    def nsc(degrees: Sequence[int], totals: range, delta: int) -> NumericWitness | None:
        return _runs_nsc(degrees, ell, ell, True, totals, delta)

    return PiProperty(f"balanced-{ell}", fulfills, nsc)


def _runs_nsc(
    degrees: Sequence[int], shortest: int, longest: int, strict: bool, totals: range, delta: int
) -> NumericWitness | None:
    """The first total of totals whose completed sorted tuple splits into
    runs of shortest..longest equal entries, each run's value at most the
    previous one's (below it when strict), with its increments.

    Targets may be assumed nonincreasing along the nonincreasingly sorted
    input (a swap argument reorders any witness), so a witness assigns
    consecutive runs of sorted positions onto shared targets. One table
    serves every total up to its width: filled bottom-up, bit s of
    reach[i][c + 1] says that positions i.. can rise by s in total with
    every target at most c. Column 0 stands for c = -1, which only the
    empty suffix meets. The width doubles until a witness appears, so a
    witness at a small total costs a small table however wide the range.
    """
    n = len(degrees)
    if n == 0:
        return (0, []) if 0 in totals else None
    order = sorted(range(n), key=lambda i: degrees[i], reverse=True)
    d = [degrees[i] for i in order]
    prefix = list(itertools.accumulate(d, initial=0))
    # Run ends j for a run starting at i; the rest must be empty or a run.
    ends = [
        [j for j in range(i + shortest, min(i + longest, n) + 1)
         if j == n or n - j >= shortest]
        for i in range(n)
    ]
    # The rest of a run with target t looks up its column for cap t, or
    # t - 1 when strict.
    lag = 1 if strict else 0
    # The least cap under which positions i.. split into runs at all, at
    # any total: with none under delta, no width of the table helps.
    least = [delta + 1] * n + [-1]
    for i in range(n - 1, -1, -1):
        least[i] = min((max(d[i], least[j] + lag) for j in ends[i]), default=delta + 1)
    totals = totals[bisect_left(totals, 0):]
    if not totals or least[0] > delta:
        return None
    # When the top target of a witness reaches d[0] + runs * step, one of
    # the `runs` bands of step values from d[0] up holds none of the other
    # runs' targets; lowering every target above it by step keeps a witness of
    # the same residue, step * m lower for some m in 1..n. So the first
    # witness is at most `settled`, and none is above the room under the cap.
    step, runs = totals.step, n // shortest
    settled = max(n * (d[0] + runs * step - 1) - sum(d), totals[0] + step * n - 1)
    limit = min(totals[-1], sum(delta - value for value in d), settled)

    def cost(i: int, j: int, t: int) -> int:
        return (j - i) * t - (prefix[j] - prefix[i])

    def first_witness(widest: int) -> NumericWitness | None:
        # No target exceeds d[0] + widest, however large the cap is.
        top = min(delta, d[0] + widest)
        mask = (1 << (widest + 1)) - 1
        reach = [[0] * (top + 2) for _ in range(n)] + [[1] * (top + 2)]
        for i in range(n - 1, -1, -1):
            row = reach[i]
            acc = 0
            # A target above d[i] + widest costs more than widest, so the
            # columns from there up repeat the last one.
            last = min(top, d[i] + widest)
            for t in range(d[i], last + 1):
                for j in ends[i]:
                    c = cost(i, j, t)
                    if c > widest:  # longer runs cost more
                        break
                    acc |= reach[j][t + 1 - lag] << c
                acc &= mask
                row[t + 1] = acc
            row[last + 2:] = [acc] * (top - last)
        reached = reach[0][top + 1]
        fits = totals[:bisect_right(totals, widest)]
        total = next((s for s in fits if reached >> s & 1), None)
        if total is None:
            return None

        x = [0] * n
        i, left, cap = 0, total, top
        while i < n:
            run = next(((j, t) for t in range(d[i], cap + 1) for j in ends[i]
                        if cost(i, j, t) <= left
                        and reach[j][t + 1 - lag] >> (left - cost(i, j, t)) & 1), None)
            if run is None:
                raise InternalInvariantError("run table disagrees with traceback")
            j, t = run
            for pos in range(i, j):
                x[order[pos]] = t - d[pos]
            i, left, cap = j, left - cost(i, j, t), t - lag
        return total, x

    widest = min(totals[0], limit)
    while True:
        found = first_witness(widest)
        if found is not None or widest >= limit:
            return found
        widest = min(2 * widest + 1, limit)


def anonymity_property(k_anon: int) -> PiProperty:
    """Every occurring degree occurs at least k_anon times."""
    if k_anon < 1:
        raise InvalidInputError("anonymity level must be positive")

    def fulfills(t: tuple[int, ...]) -> bool:
        return all(c >= k_anon for c in Counter(t).values())

    def nsc(degrees: Sequence[int], totals: range, delta: int) -> NumericWitness | None:
        # A run of 2*k_anon or more sorted positions splits into two runs on
        # one target, so shorter runs suffice.
        return _runs_nsc(degrees, k_anon, 2 * k_anon - 1, False, totals, delta)

    return PiProperty(f"anon-{k_anon}", fulfills, nsc)


def anonymize(g: Graph, k_anon: int, budget: int) -> set[Edge] | None:
    """Edge additions (at most budget many) making the graph k_anon-anonymous."""
    return dsc_solve(DscInstance(g, budget, anonymity_property(k_anon)))


# -- one entry point for every instance kind ---------------------------------------


def solve(inst: DceInstance | DscInstance, limit: int | None = None) -> EditSolution | None:
    """A witness as edits for any instance kind, or None for a no-instance.

    Edge and vertex deletion get the exact anchored search. Edge addition
    (on its kernel) and sequence completion go through
    `factors.realize_least` on their polynomial numeric solvers, with the
    anchored search and the block-set enumeration as its exact searches.
    Every answer is minimum unless an exact search hit its limit (`limit`,
    or a block-set above `CORE_CAP`) and the realization from the
    threshold up answered instead. `limit` bounds only the exact searches;
    a negative one raises InvalidInputError.
    """
    if limit is not None and limit < 0:
        raise InvalidInputError(f"limit must be nonnegative, got {limit}")
    if isinstance(inst, DscInstance):
        edges = dsc_solve(inst) if limit is None else dsc_solve(inst, enum_limit=limit)
        return None if edges is None else additions(edges)
    search = solve_e_plus if inst.op_kind is EditKind.EDGE_ADDITION else brute_force_solve
    return search(inst) if limit is None else search(inst, node_limit=limit)
