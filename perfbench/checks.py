"""Answer checks for the benchmark, computed apart from degkit.

Each check reads the instance text with its own small parser and decides
from first principles whether an answer is right; it never calls degkit
and never compares against a stored copy of degkit's output. A failed
check raises CheckError.
"""

from __future__ import annotations

from collections import Counter


class CheckError(Exception):
    pass


def _fail(msg: str) -> None:
    raise CheckError(msg)


class Spec:
    """A parsed instance: n, edge set, degrees, budget k, and for degree-list
    instances the bound r and the lists."""

    def __init__(self, n, edges, k=0, r=0, lists=None):
        self.n = n
        self.edges = set(edges)
        self.k = k
        self.r = r
        self.lists = lists
        self.deg = [0] * n
        for u, v in self.edges:
            self.deg[u] += 1
            self.deg[v] += 1


def read_instance(text: str) -> Spec:
    """Parse the instance-file format the generator writes (0-based result)."""
    head = None
    edges = []
    lists = {}
    for line in text.splitlines():
        tok = line.split()
        if not tok or tok[0] == "c":
            continue
        if tok[0] == "p":
            head = tok
        elif tok[0] == "e":
            u, v = int(tok[1]) - 1, int(tok[2]) - 1
            edges.append((min(u, v), max(u, v)))
        elif tok[0] == "t":
            lists[int(tok[1]) - 1] = {int(x) for x in tok[2:]}
    n, k = int(head[2]), int(head[4])
    if head[1] == "dce":
        return Spec(n, edges, k, int(head[5]), [lists.get(v, set()) for v in range(n)])
    return Spec(n, edges, k)


def _pair(u, v):
    return (u, v) if u < v else (v, u)


def _added_degrees(spec: Spec, added) -> list[int]:
    """Degrees after adding `added`, which must be new, distinct non-edges."""
    deg = list(spec.deg)
    seen = set()
    for u, v in added:
        if not (0 <= u < spec.n and 0 <= v < spec.n) or u == v:
            _fail(f"added pair ({u}, {v}) is not a pair of distinct vertices")
        e = _pair(u, v)
        if e in spec.edges:
            _fail(f"added edge {e} is already an edge")
        if e in seen:
            _fail(f"edge {e} added twice")
        seen.add(e)
        deg[u] += 1
        deg[v] += 1
    return deg


def unsatisfied(spec: Spec) -> list[int]:
    return [v for v in range(spec.n) if spec.deg[v] not in spec.lists[v]]


# -- edge addition with degree lists ------------------------------------------


def check_eplus_witness(spec: Spec, added, k=None, min_edits=None) -> None:
    """Only non-edges, at most k of them, every final degree on its list,
    and, when the minimum is known, exactly that many."""
    budget = spec.k if k is None else k
    if len(added) > budget:
        _fail(f"{len(added)} additions exceed the budget {budget}")
    if min_edits is not None and len(added) != min_edits:
        _fail(f"{len(added)} additions, but the planted minimum is {min_edits}")
    deg = _added_degrees(spec, added)
    for v in range(spec.n):
        if deg[v] not in spec.lists[v]:
            _fail(f"vertex {v} ends at degree {deg[v]}, off its list")


def kernel_bound(k: int, r: int) -> int:
    return 2 * k + r * k * (r + 2)


def check_kernel(spec: Spec, kernel: Spec, old_of_new, k=None, pairs=None) -> None:
    """At most 2k + rk(r+2) vertices, every unsatisfied vertex kept, the
    kernel is the induced subgraph with lists shifted by the removed
    neighbours, and the planted pairs are a solution of the kernel."""
    budget = spec.k if k is None else k
    keep = list(old_of_new)
    if kernel.n != len(keep) or kernel.k != budget or kernel.r != spec.r:
        _fail("kernel header does not match its vertex map or budget")
    if len(keep) > kernel_bound(budget, spec.r):
        _fail(f"kernel has {len(keep)} vertices, above 2k + rk(r+2) = {kernel_bound(budget, spec.r)}")
    if any(b <= a for a, b in zip(keep, keep[1:])) or (keep and not 0 <= keep[0] <= keep[-1] < spec.n):
        _fail("vertex map is not increasing within range")
    new_of_old = {old: new for new, old in enumerate(keep)}
    missing = [v for v in unsatisfied(spec) if v not in new_of_old]
    if missing:
        _fail(f"unsatisfied vertex {missing[0]} was removed")
    induced = {
        _pair(new_of_old[u], new_of_old[v])
        for u, v in spec.edges
        if u in new_of_old and v in new_of_old
    }
    if induced != kernel.edges:
        _fail("kernel graph is not the induced subgraph on the kept vertices")
    lost = [spec.deg[old] - kernel.deg[new] for new, old in enumerate(keep)]
    for new, old in enumerate(keep):
        shifted = {t - lost[new] for t in spec.lists[old] if t >= lost[new]}
        if kernel.lists[new] != shifted:
            _fail(f"list of kept vertex {old} is not shifted by its removed neighbours")
    if pairs is not None:
        mapped = [(new_of_old[u], new_of_old[v]) for u, v in pairs]
        check_eplus_witness(kernel, mapped)


def rule2_applies(spec: Spec, k: int) -> bool:
    """Some vertex overshoots its list, or more than 2k are unsatisfied."""
    if any(not lst or d > max(lst) for d, lst in zip(spec.deg, spec.lists)):
        return True
    return len(unsatisfied(spec)) > 2 * k


def check_rejection(spec: Spec, k=None) -> None:
    """A rule-2 rejection must have an overshooting vertex or more than 2k
    unsatisfied vertices, counted directly."""
    budget = spec.k if k is None else k
    if not rule2_applies(spec, budget):
        _fail(f"rejected with only {len(unsatisfied(spec))} unsatisfied vertices and budget {budget}")


def reachable_totals(spec: Spec, cap: int) -> int:
    """Bitset of the total rises 0..cap reachable by moving every degree
    onto its list from below (bit j set when total j is reachable)."""
    mask = (1 << (cap + 1)) - 1
    reach = 1
    for d, lst in zip(spec.deg, spec.lists):
        step = 0
        for t in lst:
            if t >= d:
                step |= reach << (t - d)
        reach = step & mask
        if not reach:
            break
    return reach


def predict_kernelize_r(spec: Spec):
    """The branch the r-only kernel must take, from the numeric problem.

    Returns ("yes", k') when the smallest k' in [r(r+1)^2, k] with total
    2k' reachable exists (above the threshold only), else ("kr", k'') with
    the budget the type-set kernel then runs on.
    """
    threshold = spec.r * (spec.r + 1) ** 2
    if spec.k <= threshold:
        return ("kr", spec.k)
    rises = [max((t - d for t in lst if t >= d), default=-1) for d, lst in zip(spec.deg, spec.lists)]
    if min(rises, default=0) >= 0:
        upper = min(spec.k, sum(rises) // 2)
        reach = reachable_totals(spec, 2 * upper)
        for kp in range(threshold, upper + 1):
            if reach >> (2 * kp) & 1:
                return ("yes", kp)
    return ("kr", threshold)


# -- factors and matchings ---------------------------------------------------------


def check_factor(spec: Spec, f, factor) -> None:
    """Only edges of G, each once, and degree f(v) at every vertex."""
    deg = [0] * spec.n
    seen = set()
    for u, v in factor:
        e = _pair(u, v)
        if e not in spec.edges:
            _fail(f"factor edge {e} is not an edge of G")
        if e in seen:
            _fail(f"factor edge {e} listed twice")
        seen.add(e)
        deg[u] += 1
        deg[v] += 1
    for v in range(spec.n):
        if deg[v] != f[v]:
            _fail(f"vertex {v} has factor degree {deg[v]}, demand {f[v]}")


def check_perfect_matching(spec: Spec, matching) -> None:
    """Disjoint edges of G covering all n vertices (n/2 edges)."""
    covered = set()
    for u, v in matching:
        if _pair(u, v) not in spec.edges:
            _fail(f"matched pair ({u}, {v}) is not an edge")
        if u in covered or v in covered:
            _fail(f"matching edges meet at ({u}, {v})")
        covered.update((u, v))
    if 2 * len(matching) != spec.n:
        _fail(f"matching has {len(matching)} edges; a perfect one has {spec.n // 2}")


# -- degree sequence completion ------------------------------------------------


def _check_completion(spec: Spec, added, budget: int, cap: int) -> list[int]:
    if len(added) > budget:
        _fail(f"{len(added)} additions exceed the budget {budget}")
    deg = _added_degrees(spec, added)
    if max(deg, default=0) > cap:
        _fail(f"a completed degree exceeds the cap {cap}")
    return deg


def regular_certificate(spec: Spec, cap: int) -> bool:
    """True when no common degree c (max degree <= c <= cap) is reachable:
    n*c - sum(deg) is never an even number in 0..2k."""
    total = sum(spec.deg)
    return not any(
        0 <= spec.n * c - total <= 2 * spec.k and (spec.n * c - total) % 2 == 0
        for c in range(max(spec.deg, default=0), cap + 1)
    )


def check_regular(spec: Spec, added, cap: int) -> None:
    """YES: all completed degrees equal. NO: the numeric certificate holds."""
    if added is None:
        if not regular_certificate(spec, cap):
            _fail("NO without a certificate: some common degree is reachable")
        return
    deg = _check_completion(spec, added, spec.k, cap)
    if len(set(deg)) > 1:
        _fail("completed degrees are not all equal")


def check_anonymous(spec: Spec, added, k_anon: int, budget: int) -> None:
    """Every occurring degree occurs at least k_anon times (YES expected)."""
    if added is None:
        _fail("NO on an instance with a planted anonymization")
    deg = _check_completion(spec, added, budget, max(spec.deg, default=0) + budget)
    if any(c < k_anon for c in Counter(deg).values()):
        _fail(f"some degree occurs fewer than {k_anon} times")


# -- answers of the benchmark's operations --------------------------------------


def _pairs(items):
    return [tuple(p) for p in items]


def _additions(answer) -> list[tuple[int, int]]:
    """The added pairs of an edit list, which must hold additions only."""
    if any(e[0] != "add" or len(e) != 3 for e in answer["edits"]):
        _fail("the edits are not all edge additions")
    return [(u, v) for _, u, v in answer["edits"]]


def _edges_or_none(answer, op):
    if answer["kind"] not in ("edges", "none"):
        _fail(f"{op} answered with a {answer['kind']}")
    return None if answer["kind"] == "none" else _pairs(answer["edges"])


def kernel_spec(answer) -> Spec:
    """The instance of a kernel answer."""
    return Spec(answer["n"], _pairs(answer["edges"]), answer["k"], answer["r"],
                [set(s) for s in answer["lists"]])


def _check_kr(spec: Spec, answer, k: int, pairs) -> None:
    if rule2_applies(spec, k):
        if answer["kind"] != "no":
            _fail("rule 2 applies, but the instance was not rejected")
        return
    if answer["kind"] != "kernel":
        _fail(f"expected a kernel, got a {answer['kind']}")
    check_kernel(spec, kernel_spec(answer), answer["old_of_new"], k, pairs)


def check_answer(entry: dict, answer: dict, spec: Spec | None = None) -> None:
    """Check one operation's answer, given in the plain form the worker
    writes: {"kind": "kernel" | "no" | "yes" | "edits" | "edges" | "none"}
    with the fields of that kind. `spec` is the entry's parsed text."""
    spec = spec or read_instance(entry["text"])
    op, kind = entry["op"], answer["kind"]
    if op == "kernelize_kr":
        _check_kr(spec, answer, spec.k, entry.get("pairs"))
    elif op == "kernelize_r":
        branch, budget = predict_kernelize_r(spec)
        if branch == "kr":
            _check_kr(spec, answer, budget, entry.get("pairs"))
        elif kind != "yes":
            _fail(f"expected a large solution of {budget} edges, got a {kind}")
        else:
            check_eplus_witness(spec, _additions(answer), min_edits=budget)
    elif op == "f_factor":
        factor = _edges_or_none(answer, op)
        if factor is None:
            _fail("no factor, but one was planted")
        check_factor(spec, entry["f"], factor)
    elif op == "max_matching":
        check_perfect_matching(spec, _edges_or_none(answer, op) or [])
    elif op == "dsc_solve":
        check_regular(spec, _edges_or_none(answer, op), max(spec.deg, default=0) + spec.k)
    elif op == "anonymize":
        check_anonymous(spec, _edges_or_none(answer, op), entry["k_anon"], entry["budget"])
    elif op == "solve_e_plus":
        if kind != "edits":
            _fail(f"expected a solution, since one was planted; got a {kind}")
        check_eplus_witness(spec, _additions(answer), min_edits=entry["min_edits"])
    else:
        _fail(f"unknown operation {op}")
