"""
CLI outputs pinned byte for byte: each case's stdout is stored verbatim in
tests/data/pinned/<name>.out, and `--out` exports are pinned by SHA-256.
The files were captured from the CLI before divided and fixed germs were
assembled from ids, so they also pin that the id layout matches the one the
name-based route produced.
"""

import hashlib
from pathlib import Path

import pytest

from garside.cli import main

DATA = Path(__file__).parent / "data"
A2 = str(DATA / "a2.germ")
EXPORT = "export.germ"

ARTIN = ["--builtin", "artin_symmetric", "--param"]
DUAL = ["--builtin", "dual_braid", "--param"]
CHAMBER = ["--builtin", "dihedral_chamber", "--param"]
RANK2 = ["--builtin", "rank2_counterexample"]

# name -> (argv, exit code, SHA-256 of the --out export or None)
CASES = {
    "divide_a2_m3": (
        ["divide", "--file", A2, "--m", "3", "--out", EXPORT], 0,
        "cece24253dffc275b5d561a5d3f6448ef3fe430fb08d5e4a7c0b1e803220d2a8",
    ),
    "divide_rank2_m3": (
        ["divide", *RANK2, "--m", "3", "--out", EXPORT], 0,
        "48a868c424750bf5eb8ac7184b9ca3ef04572a430c2209a55f31d39de24d8ddc",
    ),
    "divide_chamber3_m2": (
        ["divide", *CHAMBER, "3", "--m", "2", "--out", EXPORT], 0,
        "6b1a977ba67a64bb4c8bc98258e3d4f3e47e5f632df64dd73d83c12a8ad84c40",
    ),
    "divide_dual3_m2": (
        ["divide", *DUAL, "3", "--m", "2", "--out", EXPORT], 0,
        "dd9c580b02f2c9ad7345c953a59e42076d9f028002113f1e09f10c9e3e317baf",
    ),
    "divide_artin4_m2": (
        ["divide", *ARTIN, "4", "--m", "2", "--out", EXPORT], 0,
        "855dd5435e03f1afe52936123638248162ae87253412a9317e5f91666e2bc9b5",
    ),
    "classify_a2_4_3": (["classify", "--file", A2, "--p", "4", "--q", "3"], 0, None),
    "classify_dual4_5_4": (["classify", *DUAL, "4", "--p", "5", "--q", "4"], 0, None),
    "classify_artin4_3_2": (["classify", *ARTIN, "4", "--p", "3", "--q", "2"], 0, None),
    "periodic_a2_certify": (
        ["periodic", "--file", A2, "--word", "s D^1", "--p", "4", "--q", "3", "--certify"],
        0, None,
    ),
    "periodic_a2_no_length_one": (
        ["periodic", "--file", A2, "--word", "s t", "--p", "2", "--q", "3", "--certify"],
        4, None,
    ),
    "theta_a2_m3": (["theta", "--file", A2, "--word", "s t t D^-1", "--m", "3"], 0, None),
    "theta_rank2_m2": (["theta", *RANK2, "--word", "a_x b_y a_x D^-1", "--m", "2"], 0, None),
    "summit_artin3": (["summit", *ARTIN, "3", "--word", "s s t s t t D^-1"], 0, None),
    "summit_dual4": (
        ["summit", *DUAL, "4", "--word", "2134 1324 1243 2134 D^-1"], 0, None,
    ),
    "centralizer_chamber4_p2": (["centralizer", *CHAMBER, "4", "--p", "2"], 0, None),
    "centralizer_artin4_p1": (["centralizer", *ARTIN, "4", "--p", "1"], 0, None),
    "centralizer_artin4_p2": (["centralizer", *ARTIN, "4", "--p", "2"], 0, None),
    "centralizer_rank2_p1": (["centralizer", *RANK2, "--p", "1"], 4, None),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_pinned(name, tmp_path, monkeypatch, capsys):
    argv, code, digest = CASES[name]
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    want = (DATA / "pinned" / f"{name}.out").read_text(encoding="utf-8")
    assert capsys.readouterr().out == want
    if digest is not None:
        assert hashlib.sha256((tmp_path / EXPORT).read_bytes()).hexdigest() == digest
