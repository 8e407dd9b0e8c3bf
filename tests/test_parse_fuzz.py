"""
parse_germ and validate on mutated germ files: deleted, duplicated, shuffled
and swapped tokens and lines, and hostile names. Every input ends in a
GermError subclass or a germ, and `garside validate --file` in exit code 0,
1 or 2, never in another exception.
"""

from functools import cache
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from garside import GermError, builtins, parse_germ, table_to_text, validate
from garside.cli import main

A2_TEXT = (Path(__file__).parent / "data" / "a2.germ").read_text(encoding="utf-8")
EXPORTS = [("dual_braid", 3), ("dihedral_chamber", 3), ("rank2_counterexample", None),
           ("artin_symmetric", 3)]
HOSTILE = ["a,b", "id@x", "\0", "(", "x)", "->", ":", "=", "len", "product", "-1", "0",
           "99999999999999999999", "D^1", "garside-germ", "v2"]


@cache
def sources() -> list[str]:
    return [A2_TEXT] + [table_to_text(builtins.build(f, p)) for f, p in EXPORTS]


@st.composite
def mutated_text(draw) -> str:
    lines = [line.split(" ") for line in draw(st.sampled_from(sources())).splitlines()]
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        j = draw(st.integers(0, max(len(line) - 1, 0)))
        kind = draw(st.sampled_from(
            ["delete", "duplicate", "shuffle", "swap", "hostile", "drop line", "copy line"]
        ))
        if kind == "delete" and line:
            del line[j]
        elif kind == "duplicate" and line:
            line.insert(j, line[j])
        elif kind == "shuffle":
            line[:] = draw(st.permutations(line))
        elif kind == "swap" and line:
            other = lines[draw(st.integers(0, len(lines) - 1))]
            if other:
                k = draw(st.integers(0, len(other) - 1))
                line[j], other[k] = other[k], line[j]
        elif kind == "hostile":
            line.insert(j, draw(st.sampled_from(HOSTILE)))
        elif kind == "drop line" and len(lines) > 1:
            del lines[i]
        elif kind == "copy line":
            lines.insert(i, list(line))
    return "\n".join(" ".join(line) for line in lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(mutated_text())
def test_mutated_germ_files_raise_only_germ_errors(text):
    try:
        validate(parse_germ(text))
    except GermError:
        pass


@settings(max_examples=100, deadline=None)
@given(text=mutated_text())
def test_validate_command_exits_0_1_or_2_on_mutated_files(tmp_path_factory, text):
    germ_file = tmp_path_factory.getbasetemp() / "fuzz.germ"
    germ_file.write_text(text, encoding="utf-8")
    assert main(["validate", "--file", str(germ_file)]) in (0, 1, 2)
