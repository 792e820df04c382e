"""The benchmark's traced run reaches degkit by name; these names must resolve.

`perfbench/layers.py` wraps the functions it lists and the property
factories whose `fulfills` it counts. A rename or a signature change in
degkit would otherwise surface only when the traced benchmark runs.
"""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

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
