"""
The traced benchmark run wraps every function named in TRACED of
perfbench/tracer.py and looks each one up with getattr, so a rename in the
library must not leave a name there behind. The file is read with ast, not
imported, so the check needs nothing from the benchmark harness.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).parent.parent / "perfbench" / "tracer.py"


def traced_names() -> dict[str, list[str]]:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TRACED")


def test_every_traced_name_is_a_module_attribute():
    traced = traced_names()
    assert traced
    missing = [
        f"garside.{module}.{name}"
        for module, names in traced.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"garside.{module}"), name, None))
    ]
    assert missing == []
