"""The names the benchmark in perfbench/ relies on still exist in the package.

perfbench/spans.py traces functions by "module.function" name and
perfbench/run.py gates every certificate op on a fixed check count.  Both
files are read as source, never imported or edited, so a rename or a dropped
check in the package fails here instead of silently in a benchmark run.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from cubeforge.construct import CHECK_NAMES

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _assigned(filename: str, name: str) -> ast.expr:
    tree = ast.parse((PERFBENCH / filename).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node.value
    raise LookupError(f"{filename} assigns no {name}")


TRACED = [ast.literal_eval(key) for key in _assigned("spans.py", "TARGETS").keys]


@pytest.mark.parametrize("target", TRACED)
def test_traced_name_is_a_package_function(target):
    module_name, func_name = target.split(".")
    module = importlib.import_module(f"cubeforge.{module_name}")
    func = getattr(module, func_name, None)
    assert inspect.isfunction(func), target
    assert func.__module__ == module.__name__, target


def test_check_count_matches_check_names():
    check_count = ast.literal_eval(_assigned("run.py", "CHECK_COUNT"))
    assert len(CHECK_NAMES) == check_count
    assert len(set(CHECK_NAMES)) == len(CHECK_NAMES)
