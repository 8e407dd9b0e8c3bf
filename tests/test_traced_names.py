"""
The traced benchmark run wraps every function named in TRACED of
perfbench/tracer.py and looks each one up with getattr, so a rename in the
library must not leave a name there behind. The file is read with ast, not
imported, so the check needs nothing from the benchmark harness.

Its RESULT_COUNTERS read fields of some results (the simples of a validated
germ, the vertices of a cover ball, ...), so a record that changes shape
would fail the traced run. tracer.py imports only the standard library, so
the counter check loads it from its path and applies each counter to its
function's result on A₂.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

from garside import parse_germ, parse_word

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


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# span name -> the arguments of one call on A₂, from its text and its germ
A2_CALLS = {
    "germ.validate": lambda text, a2: (parse_germ(text),),
    "conjugacy.summit_set": lambda text, a2: (a2, parse_word(a2, "s t")),
    "divided.build_divided_germ": lambda text, a2: (a2, 2),
    "nerve.cover_ball": lambda text, a2: (a2, 0, 1),
}


def test_every_result_counter_reads_its_result_on_a2(a2_text, a2):
    counters = load_tracer().RESULT_COUNTERS
    assert counters
    assert sorted(set(counters) - set(A2_CALLS)) == [], "a result counter has no A₂ call"
    for span, by_counter in counters.items():
        module, name = span.split(".")
        fn = getattr(importlib.import_module(f"garside.{module}"), name)
        result = fn(*A2_CALLS[span](a2_text, a2))
        for counter, count in by_counter.items():
            value = count(result)
            assert type(value) is int and value > 0, (span, counter, value)
