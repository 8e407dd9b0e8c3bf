"""
Which modules a CLI process loads: `import garside.cli` brings in only the
germ and word modules, and each subcommand adds the library modules it runs,
starting with the one that holds its handler. No case loads `dataclasses` or `inspect`
(records are slot classes and NamedTuples), and none loads `fractions`:
`zpoly` counts strict chains in integers. Every case runs in a fresh
interpreter, so a module-level import that pulls the rest back in fails
here, with no timing involved.

`python -m garside.cli`, the way the benchmark runs a request, is checked
too, without a bytecode cache, as each module it imports is then compiled:
the builtin module only for `--builtin`, and never `garside.cli` itself
beside `__main__`, which would compile and run the module twice.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import garside

SRC = str(Path(garside.__file__).resolve().parent.parent)
A2 = str(Path(__file__).parent / "data" / "a2.germ")

BASE = {"garside", "garside.cli", "garside.germ", "garside.words"}
# Standard-library modules a request should load only where it needs them.
WATCHED = ["dataclasses", "fractions", "inspect"]

# name -> (argv of main, or None for the import alone; modules loaded besides BASE)
CASES = {
    "import": (None, set()),
    "nf": (["nf", "--file", A2, "--word", "s t"], set()),
    "validate": (["validate", "--file", A2], {"garside.nerve"}),
    "summit": (["summit", "--file", A2, "--word", "s t t"], {"garside.conjugacy"}),
    "divide": (["divide", "--file", A2, "--m", "2"], {"garside.divided"}),
    "theta": (["theta", "--file", A2, "--word", "s t", "--m", "3"], {"garside.divided"}),
    "classify": (
        ["classify", "--file", A2, "--p", "4", "--q", "3"],
        {"garside.conjugacy", "garside.divided", "garside.periodic"},
    ),
    # the fixed germ at q = 1 reads ladders and twists from `divided`
    "centralizer": (
        ["centralizer", "--file", A2, "--p", "1"],
        {"garside.conjugacy", "garside.divided", "garside.periodic"},
    ),
    "periodic": (
        ["periodic", "--file", A2, "--word", "s D^1", "--p", "4", "--q", "3", "--certify"],
        {"garside.conjugacy", "garside.divided", "garside.periodic"},
    ),
    "periodic_no_certify": (
        ["periodic", "--file", A2, "--word", "s D^1", "--p", "4", "--q", "3"],
        {"garside.periodic"},
    ),
    "nerve": (["nerve", "--file", A2], {"garside.nerve"}),
    "zpoly": (["zpoly", "--file", A2], {"garside.nerve"}),
    "cover": (["cover", "--file", A2, "--radius", "2"], {"garside.nerve"}),
}

PROBE = f"""
import contextlib, io, json, sys
import garside.cli
if len(sys.argv) > 1:
    with contextlib.redirect_stdout(io.StringIO()):
        assert garside.cli.main(sys.argv[1:]) == 0
watched = {WATCHED!r}
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "garside" or m in watched)))
"""


def run(args: list[str]) -> subprocess.CompletedProcess:
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        check=True,
    )


def loaded_modules(argv: list[str]) -> set[str]:
    return set(json.loads(run(["-c", PROBE, *argv]).stdout))


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_loads_only_the_modules_it_runs(name):
    argv, extra = CASES[name]
    assert loaded_modules(argv or []) == BASE | extra


# Runs garside.cli as `__main__` the way `python -m garside.cli` and the
# benchmark's request process do, then prints the exit code and the modules.
MAIN_PROBE = """
import json, runpy, sys
sys.argv = ["garside.cli", *sys.argv[1:]]
try:
    runpy.run_module("garside.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    print(json.dumps([exc.code, sorted(m for m in sys.modules if m.startswith("garside"))]))
"""

# argv -> the garside modules besides the package that the request imports
MAIN_CASES = {
    "file": (["nf", "--file", A2, "--word", "s t"], {"garside.germ", "garside.words"}),
    "builtin": (
        ["nf", "--builtin", "artin_symmetric", "--param", "3", "--word", "s t"],
        {"garside.builtins", "garside.germ", "garside.words"},
    ),
    "handler_module": (["zpoly", "--file", A2], {"garside.germ", "garside.nerve", "garside.words"}),
}


@pytest.mark.parametrize("name", sorted(MAIN_CASES))
def test_cli_run_as_main_imports_only_what_it_runs(name):
    argv, modules = MAIN_CASES[name]
    code, loaded = json.loads(run(["-c", MAIN_PROBE, *argv]).stdout.splitlines()[-1])
    assert code == 0
    assert set(loaded) == {"garside"} | modules    # garside.cli is never imported
