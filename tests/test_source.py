"""Properties of the library source itself."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import degkit

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "degkit").glob("*.py"))


def test_sources_found():
    assert any(path.name == "__init__.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_assert_statements(path):
    # `python -O` strips assert statements, so a check written as one is no check.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} uses assert on lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_private_imports_between_modules(path):
    # A name another module needs is part of its home module's interface,
    # so it carries no leading underscore.
    tree = ast.parse(path.read_text(), filename=str(path))
    private = [
        f"line {node.lineno}: {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == [], f"{path.name} imports private names: {private}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_the_standard_library(path):
    # The runtime stays pure standard library: every absolute import names a
    # stdlib module or degkit itself (relative ones cannot leave the package).
    tree = ast.parse(path.read_text(), filename=str(path))
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    names += [
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module
    ]
    outside = sorted(
        name
        for name in names
        if name.partition(".")[0] not in sys.stdlib_module_names | {"degkit"}
    )
    assert outside == [], f"{path.name} imports {outside}"


def callers(name):
    """The functions, as file:function, that call `name`, a bare or an
    attribute name or a dotted path such as `sys.stdout.write`; a call inside
    a nested function counts for every function around it."""
    found = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call) and name in (
                        getattr(node.func, "id", None),
                        getattr(node.func, "attr", None),
                        ast.unparse(node.func),
                    ):
                        found.add(f"{path.name}:{fn.name}")
    return found


def test_one_function_realizes_demands():
    # Every completion problem maps its numeric witnesses back to the graph
    # through the one loop in factors, so no copy of that loop can return.
    assert callers("realize_demands") == {"factors.py:realize_least"}


def test_one_function_applies_edits():
    # Both validators read what an edit list leaves through the one checked
    # loop in dce, so no second copy can name a fault another way.
    assert callers("edited_degrees") == {"dce.py:validate_solution", "dsc.py:validate_completion"}


def test_one_search_for_every_edit_kind():
    # Edge addition, edge deletion and vertex deletion share one anchored
    # search, so a second copy with its own bookkeeping cannot return.
    assert callers("_search") == {"dce.py:brute_force_solve"}


def test_only_the_two_exact_searches_raise_a_resource_limit():
    # The anchored search counts its nodes and the block-set enumeration its
    # candidates; nothing else stops on a budget, so one run-statistics
    # object has exactly these two places to take over.
    assert callers("ResourceLimitError") == {"dce.py:_search", "dce.py:dfs", "dsc.py:dsc_fpt_solve"}


@pytest.mark.parametrize(
    "module, name",
    [("dce", "safely_remove"), ("nce", "nce_decide_all_targets"), ("dsc", "pi_nsc_decide")],
)
def test_uncalled_functions_stay_off_the_package_root(module, name):
    # No library code calls these; they live on in their modules, where the
    # benchmark's tracer names them, but the package root does not export them.
    assert not hasattr(degkit, name)
    assert name not in degkit.__all__
    assert callable(getattr(importlib.import_module(f"degkit.{module}"), name))


def test_one_function_orders_search_and_realization():
    # Both completion problems hand realize_least only their exact search;
    # the order of search and realization from the threshold lives there,
    # so no caller can build its own fallback again.
    assert callers("realize_least") == {"dce.py:realize_e_plus", "dsc.py:dsc_solve"}


def test_one_function_seeds_factors():
    # The repaired partial factor and the gadget that finishes it meet in one
    # function, so no second realization path can skip the seed or the
    # exact matching behind it.
    assert callers("_partial_factor") == {"factors.py:_factor_via_gadget"}
    assert callers("max_matching") == {"factors.py:_factor_via_gadget"}
    # The gadget builds a cell for every vertex and a bridge for every stub,
    # so it needs every demand positive; f_factor's support filter, which
    # drops the zero-demand vertices, is what makes them so.
    assert callers("_factor_via_gadget") == {"factors.py:f_factor"}


def test_one_constructor_shares_lists_and_one_type_checks_them():
    # make_dce is the one place where equal degree lists come to share a
    # frozenset, and DegreeListFunction the one type that range-checks them;
    # the number problem takes the completion instance's own lists, so
    # neither a second sharing dict nor a second check can return.
    assert callers("DegreeListFunction") == {"dce.py:make_dce", "nce.py:make_nce"}
    assert callers("NceInstance") == {"nce.py:make_nce", "cli.py:_cmd_nce"}


def test_one_table_path_for_every_number_problem_entry():
    # The three public NCE entries read the reachable totals from one type
    # census, and the two that need a witness build prefix rows in one
    # place, so no second per-index table can return beside it.
    entries = {"nce.py:least_even_total", "nce.py:nce_traceback", "nce.py:nce_decide_all_targets"}
    assert callers("_reach") == entries
    assert callers("_rises") == {"nce.py:_reach"}
    assert callers("_witness") == entries - {"nce.py:nce_decide_all_targets"}
    assert callers("_rows") == {"nce.py:_witness"}


@pytest.mark.parametrize("writer", ["write_text", "sys.stdout.write", "print"])
def test_only_main_writes_command_output(writer):
    # Every subcommand returns its text and main writes it once, to -o or to
    # stdout, so a line appended to every command's output has one place to go.
    assert callers(writer) == {"cli.py:main"}
