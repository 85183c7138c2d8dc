"""Every name the benchmark's tracer wraps must exist in guiflux.

bench/tracing.py patches the functions listed in its SPANNED and COUNTED
tables, and counts boxes through BBox.__post_init__. Renaming or deleting
one of them breaks the benchmark, whose own tests are outside this suite.
The tables are read from the file's source, without importing it.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _traced_names():
    tree = ast.parse(TRACING.read_text())
    tables = {
        target.id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in ("SPANNED", "COUNTED")
    }
    assert set(tables) == {"SPANNED", "COUNTED"}
    return [(module, attr) for module, attr, _ in tables["SPANNED"] + tables["COUNTED"]]


@pytest.mark.parametrize("module, attr", _traced_names())
def test_traced_function_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


def test_bbox_constructor_hook_exists():
    from guiflux.geometry import BBox

    assert "__post_init__" in vars(BBox)
