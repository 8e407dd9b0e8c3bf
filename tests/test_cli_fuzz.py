"""
`cli.main` in-process on drawn requests: every subcommand over the A₂ file,
the rank-2 germ and a one-object germ whose Δ is the identity, with integer
flags drawn from {0…4} ∪ {10⁶…10¹²}. The middle values are left out so that
each request stays fast: a small value is answered, a huge one must be
refused by a budget or answered without work in proportion to it. So is
`--budget`, except that divide, theta, classify, centralizer, nerve, zpoly
and cover draw it from {0…4} ∪ {10⁶…DEFAULT_BUDGET}: each spends up to its
budget on one walk, so a larger one would ask for the work it admits. Every
request ends in one of the exit codes 0–4 with its message: 5 is an internal
error, and an escaped exception would end the process in a traceback and
exit 1, which reads as a validation failure.

The same holds for hostile germ files: the A₂ file, the one-object file and
the rank-2 export with lines deleted, duplicated or swapped, or a token
replaced by a name holding "(", ")" or ",", a reserved word, `len 0`,
`len -1` or a 20-digit length, fed to the subcommands that read a germ and
build from it.
"""

import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from garside.builtins import rank2_counterexample
from garside.cli import COMMANDS, main
from garside.germ import DEFAULT_BUDGET, RESERVED, table_to_text

DATA = Path(__file__).parent / "data"
POINT = str(DATA / "point.germ")

# source arguments -> (object names, loop words)
GERMS = {
    ("--file", str(DATA / "a2.germ")): (["x"], ["s t", "t D^-1", "D^1"]),
    ("--builtin", "rank2_counterexample"): (["x", "y"], ["aa_x", "a_x b_y", "bb_x D^2"]),
    ("--file", POINT): (["x"], ["@x", "@x D^1"]),
}
OUT = "<out>"    # replaced by a file in a temporary directory
INTEGERS = st.one_of(st.integers(0, 4), st.integers(10**6, 10**12))
INTEGER_FLAGS = {"--m", "--p", "--q", "--radius", "--dim", "--samples", "--budget"}
SPEND_IN_FULL = {"divide", "theta", "classify", "centralizer", "nerve", "zpoly", "cover"}
CAPPED_BUDGETS = st.one_of(st.integers(0, 4), st.integers(10**6, DEFAULT_BUDGET))


@st.composite
def requests(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(COMMANDS)))
    _, _, n_words, flags = COMMANDS[command]
    source = draw(st.sampled_from(sorted(GERMS)))
    objects, loops = GERMS[source]
    argv = [command, *source]
    for _ in range(n_words):
        argv += ["--word", draw(st.sampled_from(loops))]
    for flag in flags:
        if flag in INTEGER_FLAGS:
            if draw(st.booleans()):
                capped = flag == "--budget" and command in SPEND_IN_FULL
                argv += [flag, str(draw(CAPPED_BUDGETS if capped else INTEGERS))]
        elif flag == "--source":
            if draw(st.booleans()):
                argv += [flag, draw(st.sampled_from(objects))]
        elif flag == "--out":
            if draw(st.booleans()):
                argv += [flag, OUT]
        elif flag in ("--count", "--certify"):
            if draw(st.booleans()):
                argv.append(flag)
    if draw(st.booleans()):
        argv.append("--json-like")
    return argv


@pytest.fixture(scope="module")
def out_file(tmp_path_factory) -> str:
    return str(tmp_path_factory.mktemp("fuzz") / "out")


@settings(max_examples=60, deadline=None)
@given(requests())
# Where Δ is the identity the forecast of a divided germ is only m + 1, so a
# huge m passes it and reaches the word limit.
@example(["divide", "--file", POINT, "--m", "1000000"])
def test_cli_requests_end_in_an_answer_or_a_refusal(out_file, argv):
    argv = [out_file if a == OUT else a for a in argv]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert 0 <= code <= 4, (argv, code, err.getvalue())


HOSTILE_FILES = [
    (DATA / "a2.germ").read_text(encoding="utf-8"),
    Path(POINT).read_text(encoding="utf-8"),
    table_to_text(rank2_counterexample()),
]
HOSTILE_TOKENS = ["(s)", "s,t", "a(b", "x)", *sorted(RESERVED),
                  "len 0", "len -1", "len 12345678901234567890"]
HOSTILE_REQUESTS = [
    ["validate"], ["nf", "--word", "s t"], ["nf", "--word", "a_x a_y"], ["nf", "--word", "@x D^1"],
    ["divide", "--m", "2"], ["classify", "--p", "4", "--q", "3"], ["classify", "--p", "1"],
    ["centralizer", "--p", "1"], ["nerve"], ["cover", "--radius", "2"],
]


@st.composite
def hostile_files(draw) -> str:
    lines = draw(st.sampled_from(HOSTILE_FILES)).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["delete", "duplicate", "swap", "replace"]))
        if kind == "delete" and len(lines) > 1:
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "replace":
            tokens = lines[i].split(" ")
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(HOSTILE_TOKENS))
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(text=hostile_files(), request=st.sampled_from(HOSTILE_REQUESTS))
# A germ with every object line deleted validates; a cover ball needs a basepoint.
@example(text="garside-germ v1\n", request=["cover", "--radius", "2"])
def test_cli_on_hostile_germ_files_ends_in_an_answer_or_a_refusal(tmp_path_factory, text, request):
    germ_file = tmp_path_factory.getbasetemp() / "hostile.germ"
    germ_file.write_text(text, encoding="utf-8")
    argv = [request[0], "--file", str(germ_file), *request[1:]]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert 0 <= code <= 4, (text, argv, code, err.getvalue())
