"""The number-problem behind degree completion.

Given current degrees d_1..d_n, per-index allowed final degrees phi(i)
within {0..r}, and a target total increase k, decide whether final degrees
d_i' >= d_i with d_i' in phi(i) and sum(d_i' - d_i) = k exist. Bit j of a
bitset says a total rise of exactly j is reachable. A large instance has
few (degree, list) types, so the answer for every target up to a width
comes from the types alone: each type's rises, worked out once, are applied
once per index of the type until the set stops changing. A witness is
traced back from per-index prefix rows, built only up to the shortest
prefix that reaches the target past every index that must rise; every
later index keeps its degree. The lists are a DegreeListFunction, the one
degree-list type, which a completion instance hands to the number problem
as it is.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence
from operator import contains, indexOf, lt, sub

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


_Census = dict[tuple[int, frozenset[int]], tuple[tuple[int, ...], int]]


def _rises(degrees: Sequence[int], phi: Sequence[frozenset[int]]) -> _Census:
    """The type census: each distinct (degree, set) pair with its allowed
    rises x - d, x >= d, in increasing order, and its number of indices."""
    return {
        (d, s): (tuple(sorted(x - d for x in s if x >= d)), count)
        for (d, s), count in Counter(zip(degrees, phi)).items()
    }


def _max_rise(types: _Census) -> int:
    """No index rises past the largest entry of its set, so no total is
    larger; capping a table's width here keeps huge targets cheap."""
    return sum(steps[-1] * count for steps, count in types.values() if steps)


def _reach(
    degrees: Sequence[int], phi: Sequence[frozenset[int]], width: int
) -> tuple[_Census, int, int]:
    """The type census, the width capped at the largest total, and the
    bitset of the totals up to it that all indices reach together.

    Each type's rises are applied once per index of the type to one masked
    bitset; the order does not matter, since OR-convolution commutes and
    masking commutes with nonnegative shifts, so this is the last row of
    the per-index table. A type stops early at a fixpoint: a type with rise
    0 only grows the set, and one without it empties it within width + 1
    steps, so a type costs at most width + 2 steps whatever its count.
    """
    types = _rises(degrees, phi)
    width = min(width, _max_rise(types))
    mask = (1 << (width + 1)) - 1
    reach = 1
    for steps, count in types.values():
        for _ in range(count):
            grown = 0
            for x in steps:
                grown |= reach << x
            grown &= mask
            if grown == reach:
                break
            reach = grown
        if not reach:
            break
    return types, width, reach


def _rows(rises: list[tuple[int, ...]], tail: Iterable[tuple[int, ...]], total: int) -> list[int]:
    """Rows 0..m of the per-index table, row i the totals up to total that
    the first i indices can rise by. Every index of rises gets a row; the
    indices of tail follow until a row holds total, and their rises are
    appended to rises, which then holds those of indices 0..m-1."""
    mask = (1 << (total + 1)) - 1
    rows = [prev := 1]
    for steps in rises:
        row = 0
        for x in steps:
            row |= prev << x
        rows.append(prev := row & mask)
    for steps in tail:
        if prev >> total & 1:
            break
        rises.append(steps)
        row = 0
        for x in steps:
            row |= prev << x
        rows.append(prev := row & mask)
    return rows


def _witness(
    degrees: Sequence[int], phi: Sequence[frozenset[int]], types: _Census, total: int
) -> tuple[int, ...]:
    """The witness for a total the indices reach, tie-broken as in
    nce_traceback.

    Let start be one past the last index off its set, the last without rise
    0. From there on the rows only grow, so from the first prefix m >= start
    that reaches total on, the trace from the last index down gives every
    index rise 0. Only rows 0..m are built and traced; each later index
    keeps its degree.
    """
    rise_of = {t: steps for t, (steps, _) in types.items()}.__getitem__
    start = 0
    if any(0 not in steps for steps, _ in types.values()):
        start = len(degrees) - indexOf(map(contains, reversed(phi), reversed(degrees)), False)
    rises = list(map(rise_of, zip(degrees[:start], phi[:start])))
    rows = _rows(rises, map(rise_of, zip(degrees[start:], phi[start:])), total)
    m = len(rows) - 1
    j = total
    final = []
    for d, steps, row in zip(reversed(degrees[:m]), reversed(rises), reversed(rows[:-1])):
        for x in steps:
            if x <= j and row >> (j - x) & 1:
                final.append(d + x)
                j -= x
                break
        else:
            raise InternalInvariantError("positive table entry has no predecessor")
    final.reverse()
    final += degrees[m:]
    _validate_witness(degrees, phi, total, final)
    return tuple(final)


def least_even_total(
    degrees: Sequence[int], phi: Sequence[frozenset[int]], lo: int, hi: int
) -> tuple[int, tuple[int, ...]] | None:
    """The least s in lo..hi whose total 2s the degrees reach on their
    lists, with a witness of final degrees traced as in nce_traceback, or
    None. Edge additions raise the degrees by an even total, so this is
    the numeric question behind both e+ solving and the win-win. Which s
    is least comes from the types alone."""
    types, width, reach = _reach(degrees, phi, 2 * max(hi, 0))
    s = next((s for s in range(lo, min(hi, width // 2) + 1) if reach >> 2 * s & 1), None)
    if s is None:
        return None
    return s, _witness(degrees, phi, types, 2 * s)


def nce_decide_all_targets(
    degrees: Sequence[int], k_max: int, r: int, phi: Sequence[set[int]]
) -> list[bool]:
    """Entry j says whether total increase exactly j is attainable, 0 <= j <= k_max."""
    inst = make_nce(degrees, 0, r, phi)
    if k_max < 0:
        raise InvalidInputError("k_max must be nonnegative")
    reach = _reach(inst.degrees, inst.tau.lists, k_max)[2]
    return [bool(reach >> j & 1) for j in range(k_max + 1)]


def nce_traceback(inst: NceInstance) -> tuple[int, ...] | None:
    """One witness vector of final degrees, or None.

    From the last index down, each index takes the smallest allowed final
    degree whose remaining total the shorter prefix still reaches, which
    makes witnesses deterministic. The answer comes from the types alone;
    a witness builds rows only for the prefix it needs, and a target above
    every reachable total is a NO without a table.
    """
    lists = inst.tau.lists
    types, _, reach = _reach(inst.degrees, lists, inst.k)
    if not reach >> inst.k & 1:
        return None
    return _witness(inst.degrees, lists, types, inst.k)


def _validate_witness(
    degrees: Sequence[int], phi: Sequence[frozenset[int]], total: int, final: Sequence[int]
) -> None:
    if any(map(lt, final, degrees)):
        raise InternalInvariantError("witness decreases a degree")
    if not all(map(contains, phi, final)):
        raise InternalInvariantError("witness leaves an allowed-degree set")
    if sum(map(sub, final, degrees)) != total:
        raise InternalInvariantError("witness has the wrong total increase")
