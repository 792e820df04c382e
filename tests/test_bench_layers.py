"""The benchmark's traced run reaches degkit by name; these names must resolve.

`perfbench/layers.py` wraps the functions it lists and the property
factories whose `fulfills` it counts, and reads the arguments or results
of some of them. A rename or a signature change in degkit would otherwise
surface only when the traced benchmark runs.
"""

import dataclasses
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import degkit

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _load_layers()


@pytest.mark.parametrize("mod_name, fn_name", layers.TRACED)
def test_traced_names_resolve(mod_name, fn_name):
    module = importlib.import_module(f"degkit.{mod_name}")
    assert callable(getattr(module, fn_name))


@pytest.mark.parametrize("fn_name", layers._PROPERTY_FACTORIES)
def test_counted_factories_keep_their_properties(fn_name):
    factory = getattr(importlib.import_module("degkit.dsc"), fn_name)
    # Every built-in factory accepts 1 for each of its parameters.
    args = [1] * len(inspect.signature(factory).parameters)
    prop = factory(*args)
    assert dataclasses.replace(prop, fulfills=prop.fulfills) == prop

    tracer = layers.Tracer()
    counted = tracer._wrap_factory(factory)(*args)
    assert counted == prop
    assert counted.fulfills(()) == prop.fulfills(())
    assert tracer.counts["dsc.fulfills.calls"] == 1
    assert counted.nsc_solver([1, 1], range(3), 2) == prop.nsc_solver([1, 1], range(3), 2)
    assert counted.one_per_total == prop.one_per_total


# Installs the tracer and calls, once each on a tiny instance, every traced
# function whose arguments or result the tracer reads; prints the calls and
# counts. It runs in its own process, so the rebinding cannot leak.
_READ_CALLS = """
import importlib.util, json, sys
from degkit import dce, dsc, formats, matching, nce, winwin
from degkit.graph import Graph
spec = importlib.util.spec_from_file_location("perfbench_layers", sys.argv[1])
layers = importlib.util.module_from_spec(spec)
spec.loader.exec_module(layers)
tracer = layers.Tracer()
tracer.install()
nce.nce_traceback(nce.make_nce([0, 0, 0], 6, 2, [{2}, {0, 2}, {0, 2}]))
nce.nce_decide_all_targets([0, 0], 2, 1, [{1}, {1}])
winwin.realize_demands(Graph(2), [1, 1])
matching.max_matching(Graph(2, [(0, 1)]))
dce.core_set(dce.make_dce(Graph(3, [(0, 1)]), 1, 2, [{1}, {1}, {1}]))
dsc.block_set(Graph(3, [(0, 1)]), 1)
print(json.dumps({"calls": tracer.calls, "counts": tracer.counts}))
"""


def test_the_tracer_reads_every_argument_and_result_it_counts():
    env = dict(os.environ, PYTHONPATH=str(Path(degkit.__file__).resolve().parents[1]))
    run = subprocess.run(
        [sys.executable, "-c", _READ_CALLS, str(LAYERS)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    out = json.loads(run.stdout)
    for name in (
        "nce.nce_traceback",
        "nce.nce_decide_all_targets",
        "winwin.realize_demands",
        "matching.max_matching",
        "dce.core_set",
        "dsc.block_set",
    ):
        assert out["calls"][name] == 1, name
    for key in (
        "nce.cells",
        "winwin.affected",
        "matching.vertices",
        "dce.core_set.kept",
        "dsc.block_set.size",
    ):
        assert out["counts"][key] > 0, key
