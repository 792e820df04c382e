"""One workload in a fresh single-threaded process: set up, loop, answer.

Run by run.py, not by hand:

    python3 perfbench/worker.py INPUTS.json --seconds S [--trace 0|1]

Set-up (`import degkit` plus parsing every input file) happens here
untimed; run.py times it in separate probes (probe.py). The loop is
closed, with one caller: it runs whole passes over the fixed instance list
until the operations have taken `--seconds` (see WALL_LIMIT). Times
are wall clock scaled to a reference host speed (see probe.py).

The first answer of each operation is written in a plain form to
`answers-<stem>.json` beside the inputs, and run.py checks it; later passes
must return the same answer, since the operations are deterministic. The
checks run in run.py, so the peak resident memory this process reports
covers only the inputs and degkit.

Prints one JSON object on its last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))
import degkit as dk  # noqa: E402
import layers  # noqa: E402
from probe import calibration, scaled  # noqa: E402

# A loop also ends once its wall time, calibration included, reaches
# WALL_LIMIT times `seconds`, so that a run ends in time even when every
# operation fails at once or takes less time than the calibration around it.
WALL_LIMIT = 3


def answer(result):
    """A complete, comparable, JSON-ready form of an answer."""
    if isinstance(result, dk.Kernel):
        inst = result.instance
        adj = inst.graph.adj
        return {
            "kind": "kernel",
            "old_of_new": list(result.old_of_new),
            "n": len(adj),
            "edges": [[u, v] for u in range(len(adj)) for v in sorted(adj[u]) if v > u],
            "k": inst.k,
            "r": inst.tau.r,
            "lists": [sorted(s) for s in inst.tau.lists],
        }
    if isinstance(result, dk.TrivialNo):
        return {"kind": "no"}
    if isinstance(result, dk.TrivialYes):
        return {"kind": "yes", "edits": [list(e) for e in result.witness.edits]}
    if isinstance(result, dk.EditSolution):
        return {"kind": "edits", "edits": [list(e) for e in result.edits]}
    if result is None:
        return {"kind": "none"}
    return {"kind": "edges", "edges": sorted([min(u, v), max(u, v)] for u, v in result)}


class Op:
    """One operation of a pass: an instance, its call, and its first answer."""

    def __init__(self, entry, inst):
        self.name = entry["name"]
        self.op = entry["op"]
        self.entry = entry
        self.inst = inst
        self.first = None  # the first answer, in answer() form
        self.vertices = 0

    def call(self):
        e, inst = self.entry, self.inst
        if self.op == "kernelize_kr":
            return dk.kernelize_kr(inst)
        if self.op == "kernelize_r":
            return dk.kernelize_r(inst)
        if self.op == "f_factor":
            return dk.f_factor(inst.graph, e["f"])
        if self.op == "max_matching":
            return dk.max_matching(inst.graph)
        if self.op == "dsc_solve":
            # `degkit solve` on a dsc instance: delta' defaults to max degree + k.
            delta = inst.graph.max_degree() + inst.k
            return dk.dsc_solve(dk.DscInstance(inst.graph, inst.k, inst.prop, delta))
        if self.op == "anonymize":
            return dk.anonymize(inst.graph, e["k_anon"], e["budget"])
        if self.op == "solve_e_plus":
            return dk.solve_e_plus(inst)
        raise ValueError(f"unknown operation {self.op}")

    def record(self, result):
        """Keep the first answer; return an error text if a later one differs."""
        form = answer(result)
        if self.first is None:
            self.first = form
            self.vertices = self.kernel_vertices(result)
        elif form != self.first:
            return f"{self.name}: answer differs from the one of an earlier pass"
        return None

    def kernel_vertices(self, result):
        """Vertices left for exact solving after this operation: a kernel's
        size, none after a decided reduction, the whole input otherwise."""
        if isinstance(result, dk.Kernel):
            return len(result.old_of_new)
        if isinstance(result, (dk.TrivialNo, dk.TrivialYes)):
            return 0
        return self.inst.graph.vertex_count


def run_passes(ops, seconds, tracer=None):
    """Whole passes until the operations have used `seconds`.

    Returns the scaled and unscaled time of every attempted operation, the
    pass count, the failed count, and the first failed operation and the
    first differing answer (or None).
    """
    raw, norm = [], []
    passes = failed = 0
    spent = 0.0
    error = wrong = None
    loop_start = time.perf_counter()
    while passes == 0 or (spent < seconds and time.perf_counter() - loop_start < WALL_LIMIT * seconds):
        for op in ops:
            before = calibration()
            if tracer is not None:
                tracer.enter(layers.ROOT)
            start = time.perf_counter()
            try:
                result = op.call()
            except dk.DegkitError as exc:
                result = exc
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.leave()
            raw.append(elapsed)
            norm.append(scaled(elapsed, before, calibration()))
            spent += elapsed
            if isinstance(result, dk.DegkitError):
                failed += 1
                error = error or f"{op.name}: {type(result).__name__}: {result}"
            else:
                wrong = wrong or op.record(result)
        passes += 1
        if tracer is not None:
            tracer.keep_spans = False
    return raw, norm, passes, failed, error, wrong


def traced_run(entries, texts, ops, seconds, spans_path):
    """Half the time untraced, then a traced set-up and half the time traced.

    Returns (passes, failed, error, wrong, metrics); the metrics are the
    per-layer figures (unscaled span times) plus the traced pass time and
    the tracing overhead, both from scaled pass times.
    """
    _, norm_a, passes_a, failed_a, error_a, wrong_a = run_passes(ops, seconds / 2)
    tracer = layers.Tracer()
    tracer.install()
    # Re-parse under tracing: the set-up layers get their figures, and the
    # properties of dsc instances get counted `fulfills` callables.
    traced_ops = [Op(e, dk.parse_instance(t)) for e, t in zip(entries, texts)]
    setup_figures = tracer.take()
    for old, new in zip(ops, traced_ops):
        new.first, new.vertices = old.first, old.vertices
    _, norm_b, passes_b, failed_b, error_b, wrong_b = run_passes(traced_ops, seconds / 2, tracer)
    per_pass = tracer.take()
    metrics = layers.layer_metrics(setup_figures, passes_b, per_pass)
    pass_a, pass_b = sum(norm_a) / passes_a, sum(norm_b) / passes_b
    metrics["bench.op.ms"] = (pass_b * 1e3, "ms")
    overhead = pass_b / pass_a - 1
    metrics["trace.overhead_pct"] = (overhead * 100, "%")
    print(layers.table(setup_figures, passes_b, per_pass), file=sys.stderr)
    print(f"tracing overhead on a scaled pass: {overhead * 100:+.1f}%", file=sys.stderr)
    with open(spans_path, "w") as fh:
        for span_id, parent, name, start, end in tracer.spans:
            fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                 "start_ns": start, "end_ns": end}) + "\n")
    return (passes_a + passes_b, failed_a + failed_b, error_a or error_b,
            wrong_a or wrong_b, metrics)


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("inputs")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    inputs = Path(args.inputs)
    entries = json.loads(inputs.read_text())
    # The texts are kept for the traced re-parse only, so that they stay out
    # of the untraced run's peak memory.
    texts = [(inputs.parent / e["file"]).read_text() for e in entries] if args.trace else None
    ops = [Op(e, dk.parse_instance((inputs.parent / e["file"]).read_text())) for e in entries]
    out = {"ops_per_pass": len(ops)}
    if args.trace:
        spans = inputs.with_name(f"spans-{inputs.stem}.jsonl")
        passes, failed, error, wrong, metrics = traced_run(entries, texts, ops, args.seconds, spans)
        out["layers"] = metrics
    else:
        raw, norm, passes, failed, error, wrong = run_passes(ops, args.seconds)
        out.update(
            # Only answered operations count, over the time of all of them,
            # so an operation that turns into a fast failure lowers the rate.
            raw_ops_per_s=(len(raw) - failed) / sum(raw),
            raw_op_p50_ms=statistics.median(raw) * 1e3,
            ops_per_s=(len(norm) - failed) / sum(norm),
            op_p50_ms=statistics.median(norm) * 1e3,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            kernel_vertices=sum(op.vertices for op in ops),
        )
    answers = inputs.with_name(f"answers-{inputs.stem}.json")
    answers.write_text(json.dumps([op.first for op in ops]))
    out.update(passes=passes, failed=failed, error=error, wrong=wrong, answers=answers.name)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
