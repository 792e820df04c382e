"""The number-problem behind degree completion.

Given current degrees d_1..d_n, per-index allowed final degrees phi(i)
within {0..r}, and a target total increase k, decide whether final degrees
d_i' >= d_i with d_i' in phi(i) and sum(d_i' - d_i) = k exist. Solved by
one bitset row per prefix: bit j of a row says the prefix can rise by
exactly j in total. One table answers every target up to its width, and a
witness for any of them is traced back from the same rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from .errors import InternalInvariantError, InvalidInputError


@dataclass(frozen=True)
class NceInstance:
    degrees: tuple[int, ...]
    k: int
    r: int
    phi: tuple[frozenset[int], ...]

    def __post_init__(self):
        if self.k < 0 or self.r < 0:
            raise InvalidInputError("k and r must be nonnegative")
        if len(self.phi) != len(self.degrees):
            raise InvalidInputError("phi must assign a set to every index")
        if any(d < 0 for d in self.degrees):
            raise InvalidInputError("degrees must be nonnegative")
        for s in self.phi:
            if any(x < 0 or x > self.r for x in s):
                raise InvalidInputError(f"allowed degree outside 0..{self.r}")


def make_nce(degrees: Sequence[int], k: int, r: int, phi: Sequence[set[int]]) -> NceInstance:
    return NceInstance(tuple(degrees), k, r, tuple(frozenset(s) for s in phi))


def _rows(degrees: Sequence[int], k_max: int, phi: Sequence[frozenset[int]]) -> list[int]:
    """Row i holds the totals the first i indices can rise by, up to k_max."""
    mask = (1 << (k_max + 1)) - 1
    rows = [1]
    for d, allowed in zip(degrees, phi):
        prev = rows[-1]
        row = 0
        for x in allowed:
            if x >= d:
                row |= prev << (x - d)
        rows.append(row & mask)
    return rows


def _max_rise(degrees: Sequence[int], phi: Sequence[frozenset[int]]) -> int:
    """No index rises past the largest entry of its set, so no total is
    larger; capping a table's width here keeps huge targets cheap."""
    return sum(max(max(allowed, default=0) - d, 0) for d, allowed in zip(degrees, phi))


def _trace(
    degrees: Sequence[int], phi: Sequence[frozenset[int]], total: int, rows: Sequence[int]
) -> tuple[int, ...] | None:
    """A witness for total read from rows at least that wide, or None;
    tie-breaking as in nce_traceback."""
    j = total
    if not rows[-1] >> j & 1:
        return None
    final = [0] * len(degrees)
    for i in range(len(degrees) - 1, -1, -1):
        d = degrees[i]
        for x in sorted(phi[i]):
            if d <= x <= d + j and rows[i] >> (j - (x - d)) & 1:
                final[i] = x
                j -= x - d
                break
        else:
            raise InternalInvariantError("positive table entry has no predecessor")
    _validate_witness(degrees, phi, total, final)
    return tuple(final)


def least_even_total(
    degrees: Sequence[int], phi: Sequence[frozenset[int]], lo: int, hi: int
) -> tuple[int, tuple[int, ...]] | None:
    """The least s in lo..hi whose total 2s the degrees reach on their
    lists, with a witness of final degrees traced as in nce_traceback, or
    None. Edge additions raise the degrees by an even total, so this is
    the numeric question behind both e+ solving and the win-win."""
    top = min(hi, _max_rise(degrees, phi) // 2)
    if top < lo:
        return None
    rows = _rows(degrees, 2 * top, phi)
    s = next((s for s in range(lo, top + 1) if rows[-1] >> 2 * s & 1), None)
    if s is None:
        return None
    return s, _trace(degrees, phi, 2 * s, rows)


def nce_decide_all_targets(
    degrees: Sequence[int], k_max: int, r: int, phi: Sequence[set[int]]
) -> list[bool]:
    """Entry j says whether total increase exactly j is attainable, 0 <= j <= k_max."""
    inst = make_nce(degrees, 0, r, phi)
    if k_max < 0:
        raise InvalidInputError("k_max must be nonnegative")
    last = _rows(inst.degrees, k_max, inst.phi)[-1]
    return [bool(last >> j & 1) for j in range(k_max + 1)]


def nce_traceback(inst: NceInstance) -> tuple[int, ...] | None:
    """One witness vector of final degrees, or None.

    From the last index down, each index takes the smallest allowed final
    degree whose remaining total the shorter prefix still reaches, which
    makes witnesses deterministic.
    """
    return _trace(inst.degrees, inst.phi, inst.k, _rows(inst.degrees, inst.k, inst.phi))


def _validate_witness(
    degrees: Sequence[int], phi: Sequence[frozenset[int]], total: int, final: Sequence[int]
) -> None:
    if any(x < d for x, d in zip(final, degrees)):
        raise InternalInvariantError("witness decreases a degree")
    if any(x not in s for x, s in zip(final, phi)):
        raise InternalInvariantError("witness leaves an allowed-degree set")
    if sum(x - d for x, d in zip(final, degrees)) != total:
        raise InternalInvariantError("witness has the wrong total increase")
