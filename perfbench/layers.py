"""Spans and counts around degkit's layer functions, installed from outside.

`install()` replaces each traced function at every name a degkit module
binds it to, so callers that look the name up at call time reach the
wrapper. Each wrapper records a span (id, parent, name, start, end) and
accumulates calls and self time, meaning span time minus the time of the
traced spans it encloses. Counting extras (sizes handed to a layer) are
recorded at the same boundaries.
"""

from __future__ import annotations

import dataclasses
import sys
import time

# (module, function) pairs; `Graph` is traced through its constructor. The
# operations the benchmark calls are traced too, so that their own bodies
# are attributed to their layer.
TRACED = (
    ("dce", "kernelize_kr"),
    ("winwin", "kernelize_r"),
    ("dce", "solve_e_plus"),
    ("dsc", "dsc_solve"),
    ("dsc", "anonymize"),
    ("formats", "parse_instance"),
    ("graph", "Graph"),
    ("dce", "make_dce"),
    ("dce", "rule2_check"),
    ("dce", "core_set"),
    ("dce", "safely_remove"),
    ("nce", "nce_decide_all_targets"),
    ("nce", "nce_traceback"),
    ("winwin", "try_large_solution"),
    ("winwin", "realize_demands"),
    ("graph", "complement"),
    ("graph", "induced_subgraph"),
    ("factors", "f_factor"),
    ("matching", "max_matching"),
    ("dsc", "block_set"),
    ("dsc", "dsc_fpt_solve"),
    ("dsc", "pi_nsc_decide"),
    ("dce", "brute_force_solve"),
    ("dce", "validate_solution"),
)

COUNTS = (
    "graph.Graph.elements",
    "dce.core_set.kept",
    "nce.cells",
    "winwin.affected",
    "matching.vertices",
    "matching.edges",
    "dsc.block_set.size",
    "dsc.fulfills.calls",
)

# Property factories whose `fulfills` callables are counted, not timed:
# they run once per enumerated candidate.
_PROPERTY_FACTORIES = ("regular_property", "anonymity_property")

ROOT = "bench.op"
NAMES = [f"{m}.{f}" for m, f in TRACED] + [ROOT]


def _extras(name, args, result):
    """Counting extras for one call, as (counter, amount) pairs."""
    if name == "dce.core_set":
        return (("dce.core_set.kept", len(result)),)
    if name == "nce.nce_decide_all_targets":
        return (("nce.cells", len(args[0]) * (args[1] + 1)),)
    if name == "nce.nce_traceback":
        return (("nce.cells", len(args[0].degrees) * (args[0].k + 1)),)
    if name == "winwin.realize_demands":
        return (("winwin.affected", sum(1 for x in args[1] if x > 0)),)
    if name == "matching.max_matching":
        g = args[0]
        return (("matching.vertices", g.vertex_count), ("matching.edges", g.edge_count))
    if name == "dsc.block_set":
        return (("dsc.block_set.size", len(result)),)
    return ()


class Tracer:
    def __init__(self):
        self.self_ns = {}
        self.calls = {}
        self.counts = dict.fromkeys(COUNTS, 0)
        self.spans = []
        self.keep_spans = True
        self._stack = []  # [span id, name, start, child ns]
        self._next_id = 0

    def take(self):
        """Return the accumulated (self ns, calls, counts) and start afresh."""
        taken = (self.self_ns, self.calls, self.counts)
        self.self_ns = {}
        self.calls = {}
        self.counts = dict.fromkeys(COUNTS, 0)
        return taken

    def enter(self, name):
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter_ns(), 0])

    def leave(self):
        end = time.perf_counter_ns()
        span_id, name, start, child = self._stack.pop()
        total = end - start
        self.self_ns[name] = self.self_ns.get(name, 0) + total - child
        self.calls[name] = self.calls.get(name, 0) + 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += total
        if self.keep_spans:
            self.spans.append((span_id, parent[0] if parent else 0, name, start, end))

    # -- installation ----------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave()
            for key, amount in _extras(name, args, result):
                tracer.counts[key] += amount
            return result

        return wrapper

    def _wrap_init(self, name, init):
        tracer = self

        def wrapper(graph, *args, **kwargs):
            tracer.enter(name)
            try:
                init(graph, *args, **kwargs)
            finally:
                tracer.leave()
            tracer.counts["graph.Graph.elements"] += graph.vertex_count + graph.edge_count

        return wrapper

    def _wrap_factory(self, factory):
        tracer = self

        def wrapper(*args, **kwargs):
            prop = factory(*args, **kwargs)
            fulfills = prop.fulfills

            def counted(t):
                tracer.counts["dsc.fulfills.calls"] += 1
                return fulfills(t)

            return dataclasses.replace(prop, fulfills=counted)

        return wrapper

    def _rebind(self, original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "degkit" and not mod_name.startswith("degkit."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)

    def install(self):
        """Wrap every traced function at each name degkit binds it to."""
        for mod_name, fn_name in TRACED:
            mod = sys.modules[f"degkit.{mod_name}"]
            original = getattr(mod, fn_name)
            name = f"{mod_name}.{fn_name}"
            if isinstance(original, type):
                original.__init__ = self._wrap_init(name, original.__init__)
            else:
                self._rebind(original, self._wrap(name, original))
        dsc = sys.modules["degkit.dsc"]
        for fn_name in _PROPERTY_FACTORIES:
            original = getattr(dsc, fn_name)
            self._rebind(original, self._wrap_factory(original))


def layer_metrics(setup, passes, per_pass):
    """Per-layer metrics of one command-line invocation: the traced set-up
    (parse every input once) plus one pass, averaged over `passes` traced
    passes. `setup` and `per_pass` are results of Tracer.take()."""
    out = {}
    for name in NAMES:
        ns = setup[0].get(name, 0) + per_pass[0].get(name, 0) / passes
        out[f"{name}.self_ms"] = (ns / 1e6, "ms")
        if name != ROOT:
            calls = setup[1].get(name, 0) + per_pass[1].get(name, 0) / passes
            out[f"{name}.calls"] = (calls, "count")
    for key in COUNTS:
        out[key] = (setup[2][key] + per_pass[2][key] / passes, "count")
    return out


def table(setup, passes, per_pass):
    """Readable per-layer figures: set-up once, then per pass with each
    function's share of the traced operations' time."""
    pass_ms = sum(per_pass[0].values()) / passes / 1e6
    lines = [f"{'function':32s} {'set-up ms':>10s} {'pass ms':>10s} {'share':>7s} {'calls/pass':>11s}"]
    rows = []
    for name in NAMES:
        once = setup[0].get(name, 0) / 1e6
        ms = per_pass[0].get(name, 0) / passes / 1e6
        if once or ms:
            calls = per_pass[1].get(name, 0) / passes
            rows.append((ms, once, f"{name:32s} {once:10.2f} {ms:10.2f} {100 * ms / pass_ms:6.1f}% {calls:11.1f}"))
    lines += [text for _, _, text in sorted(rows, reverse=True)]
    for key in COUNTS:
        if setup[2][key] or per_pass[2][key]:
            lines.append(f"{key:32s} {setup[2][key]:10.0f} {per_pass[2][key] / passes:10.1f}")
    lines.append(f"traced operations {pass_ms:.1f} ms per pass over {passes} passes")
    return "\n".join(lines)
