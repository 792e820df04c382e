"""The number-problem behind degree completion.

Given current degrees d_1..d_n, per-index allowed final degrees phi(i)
within {0..r}, and a target total increase k, decide whether final degrees
d_i' >= d_i with d_i' in phi(i) and sum(d_i' - d_i) = k exist. Solved by
one bitset row per prefix: bit j of a row says the prefix can rise by
exactly j in total. One table answers every target up to its width, and a
witness for any of them is traced back from the same rows. The rises an
index allows are worked out once per (degree, list) type, since a large
instance has few types; the table keeps one row per index. The lists are
a DegreeListFunction, the one degree-list type, which a completion
instance hands to the number problem as it is.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence
from operator import contains, lt, sub

from .errors import InternalInvariantError, InvalidInputError


@dataclass(frozen=True)
class DegreeListFunction:
    """Per-vertex sets of admissible target degrees, all within {0..r}.

    spread, derived in the range check's loop, is the widest list's
    max - min (0 when no list has two entries); it bounds every rise a
    vertex whose degree is on its list can have. Equal lists are checked once.
    """

    r: int
    lists: tuple[frozenset[int], ...]
    spread: int = field(init=False, compare=False)

    def __post_init__(self):
        if self.r < 0:
            raise InvalidInputError("degree bound r must be nonnegative")
        spread = 0
        for s in set(self.lists):
            if s:
                lo, hi = min(s), max(s)
                if lo < 0 or hi > self.r:
                    raise InvalidInputError(
                        f"degree list of vertex {self.lists.index(s)} leaves the range 0..{self.r}"
                    )
                if hi - lo > spread:
                    spread = hi - lo
        object.__setattr__(self, "spread", spread)

    def __getitem__(self, v: int) -> frozenset[int]:
        return self.lists[v]


@dataclass(frozen=True)
class NceInstance:
    degrees: tuple[int, ...]
    k: int
    tau: DegreeListFunction

    def __post_init__(self):
        if self.k < 0:
            raise InvalidInputError("k must be nonnegative")
        if len(self.tau.lists) != len(self.degrees):
            raise InvalidInputError("tau must assign a set to every index")
        if any(d < 0 for d in self.degrees):
            raise InvalidInputError("degrees must be nonnegative")


def make_nce(degrees: Sequence[int], k: int, r: int, phi: Sequence[Iterable[int]]) -> NceInstance:
    return NceInstance(tuple(degrees), k, DegreeListFunction(r, tuple(map(frozenset, phi))))


def _rises(degrees: Sequence[int], phi: Sequence[frozenset[int]]) -> list[tuple[int, ...]]:
    """Each index's allowed rises x - d, x >= d, in increasing order,
    worked out once per distinct (degree, set) type."""
    types = {(d, s): tuple(sorted(x - d for x in s if x >= d)) for d, s in set(zip(degrees, phi))}
    return list(map(types.__getitem__, zip(degrees, phi)))


def _rows(rises: Sequence[tuple[int, ...]], k_max: int) -> list[int]:
    """Row i holds the totals the first i indices can rise by, up to k_max."""
    mask = (1 << (k_max + 1)) - 1
    rows = [prev := 1]
    for steps in rises:
        row = 0
        for x in steps:
            row |= prev << x
        rows.append(prev := row & mask)
    return rows


def _max_rise(rises: Sequence[tuple[int, ...]]) -> int:
    """No index rises past the largest entry of its set, so no total is
    larger; capping a table's width here keeps huge targets cheap."""
    return sum(steps[-1] * count for steps, count in Counter(rises).items() if steps)


def _trace(
    degrees: Sequence[int], phi: Sequence[frozenset[int]], rises: Sequence[tuple[int, ...]],
    total: int, rows: Sequence[int],
) -> tuple[int, ...] | None:
    """A witness for total read from rows at least that wide, or None;
    tie-breaking as in nce_traceback."""
    j = total
    if not rows[-1] >> j & 1:
        return None
    final = []
    for d, steps, row in zip(reversed(degrees), reversed(rises), reversed(rows[:-1])):
        for x in steps:
            if x <= j and row >> (j - x) & 1:
                final.append(d + x)
                j -= x
                break
        else:
            raise InternalInvariantError("positive table entry has no predecessor")
    final.reverse()
    _validate_witness(degrees, phi, total, final)
    return tuple(final)


def least_even_total(
    degrees: Sequence[int], phi: Sequence[frozenset[int]], lo: int, hi: int
) -> tuple[int, tuple[int, ...]] | None:
    """The least s in lo..hi whose total 2s the degrees reach on their
    lists, with a witness of final degrees traced as in nce_traceback, or
    None. Edge additions raise the degrees by an even total, so this is
    the numeric question behind both e+ solving and the win-win."""
    rises = _rises(degrees, phi)
    top = min(hi, _max_rise(rises) // 2)
    if top < lo:
        return None
    rows = _rows(rises, 2 * top)
    s = next((s for s in range(lo, top + 1) if rows[-1] >> 2 * s & 1), None)
    if s is None:
        return None
    return s, _trace(degrees, phi, rises, 2 * s, rows)


def nce_decide_all_targets(
    degrees: Sequence[int], k_max: int, r: int, phi: Sequence[set[int]]
) -> list[bool]:
    """Entry j says whether total increase exactly j is attainable, 0 <= j <= k_max."""
    inst = make_nce(degrees, 0, r, phi)
    if k_max < 0:
        raise InvalidInputError("k_max must be nonnegative")
    last = _rows(_rises(inst.degrees, inst.tau.lists), k_max)[-1]
    return [bool(last >> j & 1) for j in range(k_max + 1)]


def nce_traceback(inst: NceInstance) -> tuple[int, ...] | None:
    """One witness vector of final degrees, or None.

    From the last index down, each index takes the smallest allowed final
    degree whose remaining total the shorter prefix still reaches, which
    makes witnesses deterministic. A target above every reachable total
    is a NO without a table.
    """
    lists = inst.tau.lists
    rises = _rises(inst.degrees, lists)
    if inst.k > _max_rise(rises):
        return None
    return _trace(inst.degrees, lists, rises, inst.k, _rows(rises, inst.k))


def _validate_witness(
    degrees: Sequence[int], phi: Sequence[frozenset[int]], total: int, final: Sequence[int]
) -> None:
    if any(map(lt, final, degrees)):
        raise InternalInvariantError("witness decreases a degree")
    if not all(map(contains, phi, final)):
        raise InternalInvariantError("witness leaves an allowed-degree set")
    if sum(map(sub, final, degrees)) != total:
        raise InternalInvariantError("witness has the wrong total increase")
