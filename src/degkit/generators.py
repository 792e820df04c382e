"""Seeded instance and graph generators for tests and benchmarks."""

from __future__ import annotations

import math
import random

from .dce import DceInstance, EditKind, make_dce
from .errors import InvalidInputError
from .graph import Edge, Graph
from .reductions import (
    ReductionOutput,
    clique_to_dce_eminus,
    clique_to_dce_vminus,
    is_to_dce_eplus,
    vc_to_dce_vminus,
)

REDUCTION_KINDS = ("vc", "is", "clique-e", "clique-v")


def _gnp_edges(n: int, p: float, rng: random.Random) -> list[Edge]:
    """Skip-sampled G(n, p) edge list, O(n + m) regardless of density."""
    if p <= 0.0 or n < 2:
        return []
    if p >= 1.0:
        return [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = []
    log_q = math.log(1.0 - p)
    v, w = 1, -1
    while v < n:
        w += 1 + int(math.log(1.0 - rng.random()) / log_q)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            edges.append((w, v))
    return edges


def gen_random_graph(n: int, edge_prob: float, seed: int) -> Graph:
    if n < 0 or not (0.0 <= edge_prob <= 1.0):
        raise InvalidInputError("need n >= 0 and edge_prob in [0, 1]")
    return Graph(n, _gnp_edges(n, edge_prob, random.Random(seed)))


def gen_random_dce(
    n: int,
    edge_prob: float,
    k: int,
    r: int,
    list_density: float,
    seed: int,
    op_kind: EditKind = EditKind.EDGE_ADDITION,
) -> DceInstance:
    """Random graph plus random degree lists; identical for identical seeds."""
    if n < 0 or k < 0 or r < 0:
        raise InvalidInputError("n, k, r must be nonnegative")
    if not (0.0 <= edge_prob <= 1.0 and 0.0 <= list_density <= 1.0):
        raise InvalidInputError("probabilities must lie in [0, 1]")
    rng = random.Random(seed)
    graph = Graph(n, _gnp_edges(n, edge_prob, rng))
    lists = [
        {d for d in range(r + 1) if rng.random() < list_density} for _ in range(n)
    ]
    return make_dce(graph, k, r, lists, op_kind)


def gen_cubic(n: int, seed: int) -> Graph:
    """Random 3-regular simple graph by the pairing model: Graph() rejects
    a loop or a repeated pair, and the stubs are drawn again."""
    if n < 4 or n % 2 != 0:
        raise InvalidInputError("cubic graphs need even n >= 4")
    rng = random.Random(seed)
    stubs = [v for v in range(n) for _ in range(3)]
    while True:
        rng.shuffle(stubs)
        try:
            return Graph(n, zip(stubs[::2], stubs[1::2]))
        except InvalidInputError:
            continue


def gen_from_reduction(
    kind: str, source: Graph, h: int, x: set[int] | None = None
) -> ReductionOutput:
    """Apply one of the named constructions to a source graph."""
    if kind == "vc":
        return vc_to_dce_vminus(source, h)
    if kind == "is":
        return is_to_dce_eplus(source, h)
    if kind == "clique-e":
        return clique_to_dce_eminus(source, h, x)
    if kind == "clique-v":
        return clique_to_dce_vminus(source, h, x)
    raise InvalidInputError(f"unknown reduction kind {kind!r}; choose from {REDUCTION_KINDS}")
