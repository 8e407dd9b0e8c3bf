"""
The counting polynomial from strict chains, against the routes it replaced
(oracles.py): the Newton fit of the multichain walk, with its out-of-sample
checks, and the m-step walk itself. The chain counts are also the
nondegenerate simplices of the nerve, object by object.
"""

import os
import subprocess
import sys
from collections import Counter
from functools import cache
from pathlib import Path

import pytest

from garside import InternalError, builtins, divided, parse_germ, validate
from garside import nerve
from garside.cli import main
from garside.germ import chain_counts, subdivision_count
from garside.nerve import enumerate_nondegenerate, fit_z_polynomial, garside_dimension

import oracles

A2 = str(Path(__file__).parent / "data" / "a2.germ")

FAMILIES = {
    "artin": ("artin_symmetric", range(2, 6)),
    "dual": ("dual_braid", range(2, 7)),
    "chamber": ("dihedral_chamber", range(2, 13)),
}
BUILTINS = {f"{short}{n}": (family, n) for short, (family, ns) in FAMILIES.items() for n in ns}
BUILTINS["rank2"] = ("rank2_counterexample", None)
GERMS = [*BUILTINS, "a2_div2", "a2_div3"]


@cache
def germ_named(name: str):
    if name in BUILTINS:
        return validate(builtins.build(*BUILTINS[name]))
    a2 = validate(parse_germ(Path(A2).read_text(encoding="utf-8")))
    return divided.build_divided_germ(a2, int(name[-1])).germ


@pytest.mark.parametrize("name", GERMS)
def test_coefficients_equal_the_newton_fit(name):
    germ = germ_named(name)
    dim = garside_dimension(germ)
    counts = fit_z_polynomial(germ)
    assert type(counts) is tuple and all(type(n) is int for n in counts)
    assert len(counts) == dim + 1
    for samples in (dim + 2, dim + 4):
        fit = oracles.newton_fit(germ, samples)
        assert counts + (0,) * (samples - len(counts)) == fit


@pytest.mark.parametrize("name", GERMS)
def test_count_subdivisions_equals_the_walk(name):
    germ = germ_named(name)
    for m in range(1, 7):
        assert divided.count_subdivisions(germ, m) == oracles.walk_count_subdivisions(germ, m)


# These germs have at most 20,000 (dim+2)-subdivisions, which bounds their
# strict chains. The others run from 41,088 (chamber6) to 2.5·10^8 (chamber12).
ENUMERABLE = [
    "artin2", "artin3", "artin4", "dual2", "dual3", "dual4", "dual5",
    "chamber2", "chamber3", "chamber4", "chamber5", "rank2", "a2_div2", "a2_div3",
]


@pytest.mark.parametrize("name", ENUMERABLE)
def test_chain_counts_are_the_nondegenerate_simplices(name):
    germ = germ_named(name)
    dim = garside_dimension(germ)
    assert sum(divided.count_subdivisions(germ, dim + 2).values()) <= 20_000
    per_object = {obj.id: chain_counts(germ, obj.id) for obj in germ.objects}
    levels = enumerate_nondegenerate(germ, dim + 1)
    assert len(levels) == dim + 1
    for n in range(dim + 2):
        at = Counter(sx.basepoint for sx in (levels[n] if n < len(levels) else []))
        want = {x: counts[n] if n < len(counts) else 0 for x, counts in per_object.items()}
        assert {x: at[x] for x in per_object} == want


def test_chain_counts_a2(a2, rank2):
    assert chain_counts(a2, 0) == [1, 5, 6, 2]
    assert [chain_counts(rank2, obj.id) for obj in rank2.objects] == [[1, 5, 6, 2]] * 2


def test_polynomial_is_evaluated_not_walked(a2):
    assert divided.count_subdivisions(a2, 10**6) == {0: 333334333333000000}
    assert fit_z_polynomial(a2) == (1, 5, 6, 2)
    assert subdivision_count(fit_z_polynomial(a2), 10**6) == 333334333333000000


def test_samples_are_bounded_by_the_default_budget(capsys):
    assert main(["zpoly", "--file", A2, "--samples", str(10**12)]) == 3
    assert capsys.readouterr() == ("", (
        "error: computation budget exceeded (2000000 steps): "
        "the polynomial would have 1000000000000 coefficients\n"
    ))


def test_zpoly_many_samples(capsys):
    argv = ["zpoly", "--builtin", "artin_symmetric", "--param", "4", "--samples", "100000"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "degree: 6"
    coefficients = lines[1].split(": ")[1].split()
    assert coefficients[:8] == "1 23 104 196 184 86 16 0".split()
    assert len(coefficients) == 100000 and set(coefficients[7:]) == {"0"}
    assert len(lines) == 2 + 100002 and lines[-1].startswith("Z(100002): ")


SRC = str(Path(nerve.__file__).resolve().parent.parent)
# VmHWM, not ru_maxrss: a child's ru_maxrss keeps the peak of the process it
# was forked from, and VmHWM starts afresh at exec.
PEAK_RSS = """
import os, re, sys
from contextlib import redirect_stdout
from garside.cli import main
with open(os.devnull, "w") as sink, redirect_stdout(sink):
    assert main(["zpoly", "--builtin", "artin_symmetric", "--param", "4", "--samples", sys.argv[1]]) == 0
with open("/proc/self/status") as status:
    print(re.search(r"VmHWM:\\s*(\\d+) kB", status.read()).group(1))
"""


def zpoly_peak_rss_kb(samples: int) -> int:
    """Peak RSS of a fresh interpreter that runs an artin4 `zpoly`, its output sent to devnull."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS, str(samples)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True,
    )
    return int(proc.stdout)


def test_zpoly_memory_does_not_grow_with_samples():
    # The Z(m) lines are printed as they are computed and the padding zeros
    # of the coefficients are a count; 400,000 samples once held 43 MB more.
    assert zpoly_peak_rss_kb(400_000) - zpoly_peak_rss_kb(10) < 3 * 1024


def test_failed_zpoly_prints_nothing(capsys):
    assert main(["zpoly", "--builtin", "artin_symmetric", "--param", "4", "--samples", "4"]) == 2
    assert capsys.readouterr() == ("", "error: need at least dim+2 = 8 samples\n")


def test_degree_mismatch_is_an_internal_error(a2, monkeypatch, capsys):
    # zpoly and nerve print their counts from one checked source.
    monkeypatch.setattr(nerve, "garside_dimension", lambda germ: 2)
    with pytest.raises(InternalError, match="in dimension 2"):
        fit_z_polynomial(a2)
    for request in ("zpoly", "nerve"):
        assert main([request, "--file", A2]) == 5
        assert capsys.readouterr() == (
            "", "internal error: strict chains of length 3 in dimension 2\n"
        )


def test_forecast_refusal_names_the_evaluated_count(capsys):
    # The simple count is the one the multichain walk gave after 2·10^5 steps.
    assert main(["divide", "--file", A2, "--m", "100000"]) == 3
    assert capsys.readouterr().err == (
        "error: computation budget exceeded (2000000 steps): "
        "the 100000-divided germ would have 2666706666600000 simples of 100000 columns"
        " and 4000020000000000 products\n"
    )


def test_germ_without_objects_has_the_zero_polynomial(tmp_path, capsys):
    assert fit_z_polynomial(validate(parse_germ("garside-germ v1\n"))) == ()
    empty = tmp_path / "empty.germ"
    empty.write_text("garside-germ v1\n", encoding="utf-8")
    assert main(["zpoly", "--file", str(empty), "--json-like"]) == 0
    assert capsys.readouterr().out.splitlines()[:4] == [
        "degree: -1", "newton_coefficients: 0 0", "Z(1): 0", "Z(2): 0",
    ]
