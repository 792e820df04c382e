"""Instance and solution text formats.

DIMACS-flavored, 1-based indices:

    c free-form comment
    p dce <n> <m> <k> <r> [e+|e-|v-]        (operation defaults to e+)
    p dsc <n> <m> <k> <property> [params]   (regular | anon K | hindex L | balanced L)
    e <u> <v>
    t <v> [d1 d2 ...]                       (DCE only; missing line = empty list)
    d <delta_prime>                         (DSC only, at most once; the cap on
                                             completed degrees, max degree + k
                                             when missing)

Headers with more than MAX_VERTICES vertices are rejected. Solutions are
`NO` or `YES <count>` followed by one edit per line (`add u v`, `del u v`,
`rm v`).
"""

from __future__ import annotations

from .dce import DceInstance, EditKind, EditSolution, make_dce
from .dsc import (
    DscInstance,
    PiProperty,
    anonymity_property,
    balanced_property,
    h_index_property,
    regular_property,
)
from .errors import InvalidInputError, ParseError
from .graph import Graph

_OP_TOKENS = {kind.value: kind for kind in EditKind}

# The largest n a header may declare: a Graph allocates one list per vertex
# before any edge is read, so an unbounded n would exhaust memory. 2^20 is
# about ten times the 100k-vertex inputs of the kernel-large benchmark.
MAX_VERTICES = 1 << 20


def _parse_property(tokens: list[str], line_no: int) -> PiProperty:
    if not tokens:
        raise ParseError("missing property name", line_no)
    name, params = tokens[0], tokens[1:]
    try:
        if name == "regular":
            if params:
                raise ParseError("regular takes no parameters", line_no)
            return regular_property()
        if name == "anon":
            return anonymity_property(_int(params[0], line_no))
        if name == "hindex":
            return h_index_property(_int(params[0], line_no))
        if name == "balanced":
            return balanced_property(_int(params[0], line_no))
    except IndexError:
        raise ParseError(f"property {name} needs a parameter", line_no) from None
    raise ParseError(f"unknown property {name!r}", line_no)


def _int(token: str, line_no: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected an integer, got {token!r}", line_no) from None


def parse_instance(text: str) -> DceInstance | DscInstance:
    """Parse an instance file; malformed input raises ParseError with a line number."""
    header: list[str] | None = None
    header_line = 0
    edges: list[tuple[int, int]] = []
    edge_seen: set[tuple[int, int]] = set()
    lists: dict[int, list[int]] = {}
    n = m = r = 0
    cap: int | None = None
    cap_line = 0

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "p":
            if header is not None:
                raise ParseError("duplicate problem line", line_no)
            if len(tokens) < 5:
                raise ParseError("problem line needs at least 4 fields", line_no)
            if tokens[1] == "dce" and len(tokens) < 6:
                raise ParseError("dce header needs n m k r", line_no)
            header, header_line = tokens, line_no
            n, m = _int(tokens[2], line_no), _int(tokens[3], line_no)
            if tokens[1] == "dce":
                r = _int(tokens[5], line_no)
            if n < 0 or m < 0:
                raise ParseError("n and m must be nonnegative", line_no)
            if n > MAX_VERTICES:
                raise ParseError(f"n = {n} exceeds the cap {MAX_VERTICES}", line_no)
        elif kind == "e":
            if header is None:
                raise ParseError("edge before the problem line", line_no)
            if len(tokens) != 3:
                raise ParseError("edge line needs two endpoints", line_no)
            u, v = _int(tokens[1], line_no), _int(tokens[2], line_no)
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"endpoint out of range 1..{n}", line_no)
            if u == v:
                raise ParseError("self-loop", line_no)
            e = (min(u, v) - 1, max(u, v) - 1)
            if e in edge_seen:
                raise ParseError(f"duplicate edge {u} {v}", line_no)
            edge_seen.add(e)
            edges.append(e)
        elif kind == "t":
            if header is None:
                raise ParseError("degree list before the problem line", line_no)
            if header[1] != "dce":
                raise ParseError("degree lists apply to dce instances only", line_no)
            if len(tokens) < 2:
                raise ParseError("degree-list line needs a vertex", line_no)
            v = _int(tokens[1], line_no)
            if not (1 <= v <= n):
                raise ParseError(f"vertex out of range 1..{n}", line_no)
            if v - 1 in lists:
                raise ParseError(f"duplicate degree list for vertex {v}", line_no)
            values = [_int(tok, line_no) for tok in tokens[2:]]
            for d in values:
                if d < 0 or d > r:
                    raise ParseError(f"degree {d} outside 0..{r}", line_no)
            lists[v - 1] = values
        elif kind == "d":
            if header is None:
                raise ParseError("degree cap before the problem line", line_no)
            if header[1] != "dsc":
                raise ParseError("a degree cap applies to dsc instances only", line_no)
            if cap is not None:
                raise ParseError("duplicate degree cap", line_no)
            if len(tokens) != 2:
                raise ParseError("degree-cap line needs one value", line_no)
            cap, cap_line = _int(tokens[1], line_no), line_no
        else:
            raise ParseError(f"unknown line kind {kind!r}", line_no)

    if header is None:
        raise ParseError("missing problem line")
    if len(edges) != m:
        raise ParseError(
            f"header declares {m} edges but {len(edges)} were given", header_line
        )
    graph = Graph(n, edges)
    k = _int(header[4], header_line)

    # Header values the instance constructors reject (a negative budget, a
    # property parameter out of range) are malformed input too.
    try:
        if header[1] == "dce":
            op = EditKind.EDGE_ADDITION
            if len(header) >= 7:
                if header[6] not in _OP_TOKENS:
                    raise ParseError(f"unknown operation {header[6]!r}", header_line)
                op = _OP_TOKENS[header[6]]
            if len(header) > 7:
                raise ParseError("trailing tokens on the problem line", header_line)
            full = [lists.get(v, []) for v in range(n)]
            return make_dce(graph, k, r, full, op)
        if header[1] == "dsc":
            prop = _parse_property(header[5:], header_line)
            if cap is not None and cap < graph.max_degree():
                raise ParseError(
                    f"degree cap {cap} below the maximum degree {graph.max_degree()}",
                    cap_line,
                )
            return DscInstance(graph, k, prop, cap)
    except InvalidInputError as exc:
        raise ParseError(str(exc), header_line) from exc
    raise ParseError(f"unknown problem kind {header[1]!r}", header_line)


def _property_spec(prop: PiProperty) -> str:
    name, _, param = prop.name.partition("-")
    if name == "regular":
        return "regular"
    if name not in ("anon", "hindex", "balanced"):
        raise ParseError(f"property {prop.name!r} has no file syntax")
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
        if inst.delta_prime != g.max_degree() + inst.k:
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
        if line.strip() and not line.strip().startswith("c")
    ]
    if not lines:
        raise ParseError("empty solution")
    head_line, head = lines[0][0], lines[0][1].split()
    if head[0] == "NO":
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
