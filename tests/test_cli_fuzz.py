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
"""

import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from garside.cli import COMMANDS, main
from garside.germ import DEFAULT_BUDGET

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
