"""Instance and solution text formats.

DIMACS-flavored, 1-based indices:

    c free-form comment                      (the first token is exactly c)
    p dce <n> <m> <k> <r> [e+|e-|v-]        (operation defaults to e+)
    p dsc <n> <m> <k> <property> [params]   (regular | anon K | hindex L | balanced L)
    e <u> <v>
    t <v> [d1 d2 ...]                       (DCE only; missing line = empty list)
    d <delta_prime>                         (DSC only, at most once; the cap on
                                             completed degrees, max degree + k
                                             when missing)

Every header field is checked on the `p` line, which also rejects more
than MAX_VERTICES vertices and parameters beyond the one a property
takes; only the edge count m and the `d` cap against the maximum degree
wait for the end, since only the whole file shows them. Solutions are
`NO` or `YES <count>` followed by one edit per line (`add u v`, `del u v`,
`rm v`).

`parse_instance` reads an instance in one pass over its lines: a token goes
through int() at most once, each edge lands in its two endpoints' adjacency
lists (which share one int object per vertex), and each distinct spelling
of a degree list is converted and range-checked once, on the first line
that carries it. `make_dce` then shares one frozenset among equal lists
however they are spelled, and `DegreeListFunction` checks each distinct
list again; the check here exists to name the line. Sorting
the lists exposes repeated edges; only then is the text scanned again, to
name the line of the first repeat. The sorted lists become the Graph
through `Graph.from_sorted_adjacency`, without the checks `Graph(n, edges)`
makes. Every fault raises ParseError on the first line that shows it.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import replace
from typing import NoReturn

from .dce import DceInstance, EditKind, EditSolution, make_dce
from .dsc import (
    DscInstance,
    PiProperty,
    anonymity_property,
    balanced_property,
    h_index_property,
    regular_property,
)
from .errors import InternalInvariantError, InvalidInputError, ParseError
from .graph import Graph, repeated_neighbor

_OP_TOKENS = {kind.value: kind for kind in EditKind}

# The largest n a header may declare: the parser allocates one adjacency
# list per vertex before any edge is read, so an unbounded n would exhaust
# memory. 2^20 is about ten times the 100k-vertex inputs of the kernel-large
# benchmark.
MAX_VERTICES = 1 << 20


def _parameterized() -> dict[str, Callable[[int], PiProperty]]:
    """The properties that take one integer, by file name. Built per call, so
    a factory rebound on this module (a tracer's wrapper) is the one used."""
    return {"anon": anonymity_property, "hindex": h_index_property, "balanced": balanced_property}


def _parse_property(tokens: list[str], line_no: int) -> PiProperty:
    if not tokens:
        raise ParseError("missing property name", line_no)
    name, params = tokens[0], tokens[1:]
    if name == "regular":
        if params:
            raise ParseError("regular takes no parameters", line_no)
        return regular_property()
    factory = _parameterized().get(name)
    if factory is None:
        raise ParseError(f"unknown property {name!r}", line_no)
    if not params:
        raise ParseError(f"property {name} needs a parameter", line_no)
    if len(params) > 1:
        raise ParseError("trailing tokens on the problem line", line_no)
    try:
        return factory(_int(params[0], line_no))
    except InvalidInputError as exc:
        raise ParseError(str(exc), line_no) from exc


def _int(token: str, line_no: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected an integer, got {token!r}", line_no) from None


def _raise_first_repeat(lines: list[str]) -> NoReturn:
    """Raise at the first edge line that repeats an earlier edge.

    Called only once the adjacency lists hold a repeated edge, so every edge
    line up to that one has been read without fault."""
    seen: set[tuple[int, int]] = set()
    for line_no, raw in enumerate(lines, start=1):
        tokens = raw.split()
        if tokens and tokens[0] == "e":
            u, v = int(tokens[1]), int(tokens[2])
            e = (min(u, v), max(u, v))
            if e in seen:
                raise ParseError(f"duplicate edge {u} {v}", line_no)
            seen.add(e)
    raise InternalInvariantError("the adjacency lists repeat an edge no line repeats")


def parse_instance(text: str) -> DceInstance | DscInstance:
    """Parse an instance file; malformed input raises ParseError with a line number.

    A repeated edge shows only once the pass is over, so it is looked for
    both then and at any other fault: the earlier line wins.
    """
    lines = text.splitlines()
    problem: str | None = None
    header_line = 0
    adj: list[list[int]] | None = None
    ids: list[int] = []
    tau: list[frozenset[int] | None] = []
    # A degree list's spelling (its value tokens, joined by single spaces)
    # maps to its frozenset. A string per spelling, not a tuple of token
    # strings, keeps the cache small when most lists are distinct.
    spellings: dict[str, frozenset[int]] = {}
    n = m = k = r = 0
    prop: PiProperty | None = None
    cap: int | None = None
    cap_line = 0

    try:
        for line_no, raw in enumerate(lines, start=1):
            tokens = raw.split()
            if not tokens:
                continue
            kind = tokens[0]
            if kind == "e":
                if adj is None:
                    raise ParseError("edge before the problem line", line_no)
                if len(tokens) != 3:
                    raise ParseError("edge line needs two endpoints", line_no)
                try:
                    u = int(tokens[1]) - 1
                    v = int(tokens[2]) - 1
                except ValueError:
                    for token in tokens[1:]:
                        _int(token, line_no)
                    raise
                if not (0 <= u < n and 0 <= v < n):
                    raise ParseError(f"endpoint out of range 1..{n}", line_no)
                if u == v:
                    raise ParseError("self-loop", line_no)
                adj[u].append(ids[v])
                adj[v].append(ids[u])
            elif kind == "t":
                if problem is None:
                    raise ParseError("degree list before the problem line", line_no)
                if problem != "dce":
                    raise ParseError("degree lists apply to dce instances only", line_no)
                if len(tokens) < 2:
                    raise ParseError("degree-list line needs a vertex", line_no)
                v = _int(tokens[1], line_no) - 1
                if not (0 <= v < n):
                    raise ParseError(f"vertex out of range 1..{n}", line_no)
                if tau[v] is not None:
                    raise ParseError(f"duplicate degree list for vertex {v + 1}", line_no)
                spelling = " ".join(tokens[2:])
                values = spellings.get(spelling)
                if values is None:
                    try:
                        values = frozenset(map(int, tokens[2:]))
                    except ValueError:
                        for token in tokens[2:]:
                            _int(token, line_no)
                        raise
                    if values and (min(values) < 0 or max(values) > r):
                        d = next(d for d in map(int, tokens[2:]) if not 0 <= d <= r)
                        raise ParseError(f"degree {d} outside 0..{r}", line_no)
                    spellings[spelling] = values
                tau[v] = values
            elif kind == "c":
                continue
            elif kind == "p":
                if problem is not None:
                    raise ParseError("duplicate problem line", line_no)
                if len(tokens) < 5:
                    raise ParseError("problem line needs at least 4 fields", line_no)
                if tokens[1] == "dce" and len(tokens) < 6:
                    raise ParseError("dce header needs n m k r", line_no)
                n, m = _int(tokens[2], line_no), _int(tokens[3], line_no)
                if tokens[1] == "dce":
                    r = _int(tokens[5], line_no)
                if n < 0 or m < 0:
                    raise ParseError("n and m must be nonnegative", line_no)
                if n > MAX_VERTICES:
                    raise ParseError(f"n = {n} exceeds the cap {MAX_VERTICES}", line_no)
                k = _int(tokens[4], line_no)
                if tokens[1] == "dce":
                    op = _OP_TOKENS.get(tokens[6]) if len(tokens) > 6 else EditKind.EDGE_ADDITION
                    if op is None:
                        raise ParseError(f"unknown operation {tokens[6]!r}", line_no)
                    if len(tokens) > 7:
                        raise ParseError("trailing tokens on the problem line", line_no)
                    if r < 0:
                        raise ParseError("degree bound r must be nonnegative", line_no)
                    tau = [None] * n
                elif tokens[1] == "dsc":
                    prop = _parse_property(tokens[5:], line_no)
                else:
                    raise ParseError(f"unknown problem kind {tokens[1]!r}", line_no)
                if k < 0:
                    raise ParseError("budget k must be nonnegative", line_no)
                problem, header_line = tokens[1], line_no
                adj = [[] for _ in range(n)]
                # One int object per vertex, shared by every list holding it,
                # keeps the adjacency small and its reads local.
                ids = list(range(n))
            elif kind == "d":
                if problem is None:
                    raise ParseError("degree cap before the problem line", line_no)
                if problem != "dsc":
                    raise ParseError("a degree cap applies to dsc instances only", line_no)
                if cap is not None:
                    raise ParseError("duplicate degree cap", line_no)
                if len(tokens) != 2:
                    raise ParseError("degree-cap line needs one value", line_no)
                cap, cap_line = _int(tokens[1], line_no), line_no
            else:
                raise ParseError(f"unknown line kind {kind!r}", line_no)
    except ParseError:
        # A repeated edge on an earlier line is the first fault in the file.
        if adj is not None and repeated_neighbor(adj) is not None:
            _raise_first_repeat(lines)
        raise

    if adj is None:
        raise ParseError("missing problem line")
    for ns in adj:
        ns.sort()
    if repeated_neighbor(adj) is not None:
        _raise_first_repeat(lines)
    edge_count = sum(map(len, adj)) // 2
    if edge_count != m:
        raise ParseError(
            f"header declares {m} edges but {edge_count} were given", header_line
        )
    graph = Graph.from_sorted_adjacency(adj)
    if problem == "dce":
        missing: frozenset[int] = frozenset()  # shared by every vertex without a t line
        return make_dce(graph, k, r, [missing if s is None else s for s in tau], op)
    if cap is not None and cap < graph.max_degree():
        raise ParseError(
            f"degree cap {cap} below the maximum degree {graph.max_degree()}", cap_line
        )
    return DscInstance(graph, k, prop, cap)


def _property_spec(prop: PiProperty) -> str:
    name, _, param = prop.name.partition("-")
    if name == "regular":
        return "regular"
    if name not in _parameterized():
        raise InvalidInputError(f"property {prop.name!r} has no file syntax")
    return f"{name} {param}"


def serialize_instance(inst: DceInstance | DscInstance) -> str:
    g = inst.graph
    lines = []
    if isinstance(inst, DceInstance):
        lines.append(f"p dce {g.vertex_count} {g.edge_count} {inst.k} {inst.r} {inst.op_kind.value}")
    else:
        lines.append(
            f"p dsc {g.vertex_count} {g.edge_count} {inst.k} {_property_spec(inst.prop)}"
        )
        if inst.delta_prime != replace(inst, delta_prime=None).delta_prime:
            lines.append(f"d {inst.delta_prime}")
    for u, v in g.edges():
        lines.append(f"e {u + 1} {v + 1}")
    if isinstance(inst, DceInstance):
        for v in range(g.vertex_count):
            values = sorted(inst.tau[v])
            if values:
                lines.append(f"t {v + 1} " + " ".join(map(str, values)))
    return "\n".join(lines) + "\n"


def serialize_solution(sol: EditSolution | None) -> str:
    if sol is None:
        return "NO\n"
    lines = [f"YES {len(sol.edits)}"]
    for edit in sol.edits:
        if edit[0] == "rm":
            lines.append(f"rm {edit[1] + 1}")
        else:
            lines.append(f"{edit[0]} {edit[1] + 1} {edit[2] + 1}")
    return "\n".join(lines) + "\n"


def parse_solution(text: str) -> EditSolution | None:
    """Parse a solution; ParseError names the line as numbered in text."""
    lines = [
        (line_no, line.strip())
        for line_no, line in enumerate(text.splitlines(), start=1)
        # Neither blank nor a comment, whose first token is exactly "c".
        if line.split()[:1] not in ([], ["c"])
    ]
    if not lines:
        raise ParseError("empty solution")
    head_line, head = lines[0][0], lines[0][1].split()
    if head[0] == "NO":
        if len(head) > 1:
            raise ParseError("NO takes no tokens", head_line)
        if len(lines) > 1:
            raise ParseError("no line may follow NO", lines[1][0])
        return None
    if head[0] != "YES" or len(head) != 2:
        raise ParseError("solution must start with YES <count> or NO", head_line)
    count = _int(head[1], head_line)
    if count != len(lines) - 1:
        raise ParseError(f"expected {count} edits, found {len(lines) - 1}", head_line)
    edits: list[tuple] = []
    for line_no, line in lines[1:]:
        tokens = line.split()
        if tokens[0] == "rm" and len(tokens) == 2:
            edits.append(("rm", _int(tokens[1], line_no) - 1))
        elif tokens[0] in ("add", "del") and len(tokens) == 3:
            u, v = _int(tokens[1], line_no) - 1, _int(tokens[2], line_no) - 1
            edits.append((tokens[0], min(u, v), max(u, v)))
        else:
            raise ParseError(f"malformed edit {line!r}", line_no)
    return EditSolution(tuple(edits))
