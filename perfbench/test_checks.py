"""Each answer check accepts a right answer and rejects a corrupted one.

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import gen  # noqa: E402
import worker  # noqa: E402  (puts the checkout's src/ on sys.path)

import degkit  # noqa: E402

CheckError = checks.CheckError


def _rng(i=0):
    return gen._rng("test", 7, i)


def _run(entry):
    """degkit's answer to a benchmark entry, in the worker's plain form."""
    return worker.answer(worker.Op(entry, degkit.parse_instance(entry["text"])).call())


def _kernel_spec(result):
    return checks.kernel_spec(worker.answer(result))


def _small_eplus(reject=False):
    entry = gen.planted_eplus(_rng(), 300, (1, 2), 4, {1: 30, 2: 30}, reject=reject)
    return entry, checks.read_instance(entry["text"])


def _non_edge(spec, avoid=()):
    for u in range(spec.n):
        for v in range(u + 1, spec.n):
            if (u, v) not in spec.edges and u not in avoid and v not in avoid:
                return (u, v)
    raise AssertionError("complete graph")


def _induced_kernel(spec, keep, k):
    """The correct kernel instance for a chosen vertex set, built here."""
    new_of_old = {old: new for new, old in enumerate(keep)}
    edges = [(new_of_old[u], new_of_old[v]) for u, v in spec.edges if u in new_of_old and v in new_of_old]
    kernel = checks.Spec(len(keep), edges, k, spec.r, [set() for _ in keep])
    for new, old in enumerate(keep):
        lost = spec.deg[old] - kernel.deg[new]
        kernel.lists[new] = {t - lost for t in spec.lists[old] if t >= lost}
    return kernel


# -- e+ witnesses -----------------------------------------------------------------


def test_eplus_witness_accepts_planted_pairs():
    entry, spec = _small_eplus()
    checks.check_eplus_witness(spec, entry["pairs"], min_edits=entry["min_edits"])


@pytest.mark.parametrize("corrupt", ["existing_edge", "missing_pair", "over_budget", "off_list"])
def test_eplus_witness_rejects(corrupt):
    entry, spec = _small_eplus()
    pairs = list(entry["pairs"])
    ends = {v for p in pairs for v in p}
    if corrupt == "existing_edge":
        pairs[0] = next(iter(spec.edges))
    elif corrupt == "missing_pair":
        pairs.pop()
    elif corrupt == "over_budget":
        pairs.append(_non_edge(spec, ends))
    else:
        u, v = pairs[0]
        pairs[0] = (u, _non_edge(spec, ends | {u})[1])
    with pytest.raises(CheckError):
        checks.check_eplus_witness(spec, pairs, min_edits=entry["min_edits"])


# -- kernels and rule-2 rejections -----------------------------------------------------


def _kernel():
    entry, spec = _small_eplus()
    result = degkit.kernelize_kr(degkit.parse_instance(entry["text"]))
    return entry, spec, result


def test_kernel_check_accepts_degkit_kernel():
    entry, spec, result = _kernel()
    checks.check_kernel(spec, _kernel_spec(result), result.old_of_new, pairs=entry["pairs"])


def test_kernel_check_rejects_removed_unsatisfied_vertex():
    entry, spec, result = _kernel()
    unsat = checks.unsatisfied(spec)[0]
    keep = [v for v in result.old_of_new if v != unsat]
    with pytest.raises(CheckError, match="unsatisfied"):
        checks.check_kernel(spec, _induced_kernel(spec, keep, spec.k), keep)


def test_kernel_check_rejects_oversized_kernel():
    _, spec, _ = _kernel()
    keep = list(range(spec.n))
    assert spec.n > checks.kernel_bound(spec.k, spec.r)
    with pytest.raises(CheckError, match="above"):
        checks.check_kernel(spec, _induced_kernel(spec, keep, spec.k), keep)


def test_kernel_check_rejects_wrong_lists_and_graph():
    entry, spec, result = _kernel()
    kernel = _kernel_spec(result)
    kernel.lists[0] = kernel.lists[0] | {spec.r}
    with pytest.raises(CheckError, match="shifted"):
        checks.check_kernel(spec, kernel, result.old_of_new)
    kernel = _kernel_spec(result)
    kernel.edges.add(_non_edge(kernel))
    with pytest.raises(CheckError, match="induced"):
        checks.check_kernel(spec, kernel, result.old_of_new)


def test_kernel_check_rejects_planted_pairs_that_do_not_solve_it():
    entry, spec, result = _kernel()
    pairs = list(entry["pairs"])[:-1]
    with pytest.raises(CheckError, match="off its list"):
        checks.check_kernel(spec, _kernel_spec(result), result.old_of_new, pairs=pairs)


def test_rejection_check():
    _, spec = _small_eplus(reject=True)
    assert len(checks.unsatisfied(spec)) == 2 * spec.k + 1
    checks.check_rejection(spec)
    _, spec = _small_eplus()
    with pytest.raises(CheckError, match="only"):
        checks.check_rejection(spec)


# -- f-factors and matchings ---------------------------------------------------------------


def test_factor_check():
    entry = gen.planted_factor(_rng(), 16, 0.4)
    spec = checks.read_instance(entry["text"])
    factor = sorted(degkit.f_factor(degkit.parse_instance(entry["text"]).graph, entry["f"]))
    checks.check_factor(spec, entry["f"], factor)
    with pytest.raises(CheckError, match="demand"):
        checks.check_factor(spec, entry["f"], factor[1:])
    with pytest.raises(CheckError, match="not an edge"):
        checks.check_factor(spec, entry["f"], factor[1:] + [_non_edge(spec)])
    with pytest.raises(CheckError, match="twice"):
        checks.check_factor(spec, entry["f"], factor + factor[:1])


def test_matching_check():
    entry = gen.planted_matching(_rng(), 40, 20)
    spec = checks.read_instance(entry["text"])
    matching = sorted(degkit.max_matching(degkit.parse_instance(entry["text"]).graph))
    checks.check_perfect_matching(spec, matching)
    with pytest.raises(CheckError, match="perfect"):
        checks.check_perfect_matching(spec, matching[1:])
    with pytest.raises(CheckError, match="not an edge"):
        checks.check_perfect_matching(spec, matching[1:] + [_non_edge(spec)])
    shared = next(e for e in sorted(spec.edges) if e not in matching)
    with pytest.raises(CheckError, match="meet"):
        checks.check_perfect_matching(spec, matching + [shared])


# -- the r-only kernel ------------------------------------------------------------------


def test_reachable_totals_matches_enumeration():
    spec = checks.Spec(3, [(0, 1)], k=0, r=3, lists=[{1, 3}, {1, 2}, {0, 3}])
    reach = checks.reachable_totals(spec, 8)
    # rises: {0, 2} x {0, 1} x {0, 3}
    totals = {a + b + c for a in (0, 2) for b in (0, 1) for c in (0, 3)}
    assert {j for j in range(9) if reach >> j & 1} == totals


def _winwin(forced):
    entry = gen.winwin_instance(_rng(), 400, 3, 60, 100, 250, forced=forced)
    entry.update(name="w", op="kernelize_r")
    return entry


def test_kernelize_r_prediction_and_branch_check():
    yes, clamp = _winwin(0), _winwin(5)
    assert checks.predict_kernelize_r(checks.read_instance(yes["text"])) == ("yes", 48)
    assert checks.predict_kernelize_r(checks.read_instance(clamp["text"])) == ("kr", 48)
    right_yes, right_clamp = _run(yes), _run(clamp)
    checks.check_answer(yes, right_yes)
    checks.check_answer(clamp, right_clamp)
    # Each answer given to the other instance takes the wrong branch.
    for entry, wrong in ((yes, right_clamp), (clamp, right_yes)):
        with pytest.raises(CheckError):
            checks.check_answer(entry, wrong)


def test_kernelize_r_witness_must_reach_predicted_size():
    entry = _winwin(0)
    short = _run(entry)
    short["edits"] = short["edits"][1:]
    with pytest.raises(CheckError, match="minimum"):
        checks.check_answer(entry, short)


def test_witness_edits_must_be_additions():
    entry = _winwin(0)
    answer = _run(entry)
    answer["edits"][0][0] = "del"
    with pytest.raises(CheckError, match="additions"):
        checks.check_answer(entry, answer)


def test_kernelize_kr_answer_kinds():
    entry, _ = _small_eplus()
    entry.update(name="k", op="kernelize_kr")
    kernel = _run(entry)
    checks.check_answer(entry, kernel)
    with pytest.raises(CheckError, match="expected a kernel"):
        checks.check_answer(entry, {"kind": "no"})
    rejected, _ = _small_eplus(reject=True)
    rejected.update(name="k", op="kernelize_kr")
    assert _run(rejected) == {"kind": "no"}
    checks.check_answer(rejected, {"kind": "no"})
    with pytest.raises(CheckError, match="rule 2"):
        checks.check_answer(rejected, kernel)


def test_later_answer_must_equal_the_first():
    entry = gen.regular_yes(_rng(), 14)
    entry.update(name="d", op="dsc_solve")
    op = worker.Op(entry, degkit.parse_instance(entry["text"]))
    first = op.call()
    assert op.record(first) is None
    assert op.record(op.call()) is None
    assert "differs" in op.record(set(sorted(first)[1:]))


# -- degree sequence completion ---------------------------------------------------------------


def _dsc(entry):
    entry.update(name="d", op="dsc_solve")
    return entry


def test_regular_yes_and_corruptions():
    entry = _dsc(gen.regular_yes(_rng(), 14))
    answer = _run(entry)
    checks.check_answer(entry, answer)
    spec = checks.read_instance(entry["text"])
    cap = max(spec.deg) + spec.k
    added = [tuple(e) for e in answer["edges"]]
    with pytest.raises(CheckError, match="equal"):
        checks.check_answer(entry, {"kind": "edges", "edges": added[1:]})
    with pytest.raises(CheckError, match="equal"):
        checks.check_regular(spec, added[1:], cap)
    with pytest.raises(CheckError, match="certificate"):
        checks.check_answer(entry, {"kind": "none"})


def test_regular_no_needs_certificate():
    entry = _dsc(gen.regular_no(_rng(), 16, 36, 3))
    assert _run(entry) == {"kind": "none"}
    checks.check_answer(entry, {"kind": "none"})
    spec = checks.read_instance(entry["text"])
    assert checks.regular_certificate(spec, max(spec.deg) + spec.k)
    with pytest.raises(ValueError):
        gen.regular_no(_rng(), 16, 40, 3)  # 16*5 - 80 = 0 is reachable


def test_anonymity_check():
    entry = gen.anonymize_yes(_rng(), 6, 8, 2, 2)
    spec = checks.read_instance(entry["text"])
    answer = sorted(degkit.anonymize(degkit.parse_instance(entry["text"]).graph, 2, 2))
    checks.check_anonymous(spec, answer, 2, 2)
    with pytest.raises(CheckError, match="NO"):
        checks.check_anonymous(spec, None, 2, 2)
    with pytest.raises(CheckError, match="already"):
        checks.check_anonymous(spec, answer + [next(iter(spec.edges))], 2, 3)
    path = checks.Spec(3, [(0, 1), (1, 2)], k=0)
    with pytest.raises(CheckError, match="fewer"):
        checks.check_anonymous(path, [], 2, 0)
