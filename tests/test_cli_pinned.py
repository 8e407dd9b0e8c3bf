"""
CLI outputs pinned byte for byte: each case's stdout is stored verbatim in
tests/data/pinned/<name>.out, and `--out` exports are pinned by SHA-256.
The divide, classify, periodic, theta, summit and centralizer files were
captured from the CLI before divided and fixed germs were assembled from ids,
so they also pin that the id layout matches the one the name-based route
produced; the other files were captured before the parser was rebuilt from
one table of flags per subcommand. The a2 `divide` cases with m = 10^5 and
10^6 were captured from the m-step multichain walk that the strict-chain
count replaced. The artin4 and dual4 `divide` cases with m = 3 were
captured from the ladder search that the 2m- and 3m-subdivisions replaced.
The classify cases artin4 5/4 and artin5 3/2 were captured from the route
that built and filtered the whole divided germ 𝒢_q; artin5 6/5 and a2
1001/1000 were captured from the fixed-germ builder, as that route refused
them (exit 3, 𝒢_q too large), and the artin5 6/5 count is checked by hand in
test_periodic.py.
The flags each subcommand accepts are pinned too.
"""

import hashlib
from pathlib import Path

import pytest

from garside.cli import build_parser, main

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
    "divide_artin4_m3": (
        ["divide", *ARTIN, "4", "--m", "3", "--out", EXPORT], 0,
        "2929b089a07b47294d5808791348c9c5e9c0809e979bc4a25fdb7fba3688b8cd",
    ),
    "divide_dual4_m3": (
        ["divide", *DUAL, "4", "--m", "3", "--out", EXPORT], 0,
        "08fc1317b9fc1aaf7a03715452849a13a5e61b0c434f97df8cd15088ae126edf",
    ),
    "classify_a2_4_3": (["classify", "--file", A2, "--p", "4", "--q", "3"], 0, None),
    "classify_dual4_5_4": (["classify", *DUAL, "4", "--p", "5", "--q", "4"], 0, None),
    "classify_artin4_3_2": (["classify", *ARTIN, "4", "--p", "3", "--q", "2"], 0, None),
    "classify_artin4_5_4": (["classify", *ARTIN, "4", "--p", "5", "--q", "4"], 0, None),
    "classify_artin5_3_2": (["classify", *ARTIN, "5", "--p", "3", "--q", "2"], 0, None),
    "classify_artin5_6_5": (["classify", *ARTIN, "5", "--p", "6", "--q", "5"], 0, None),
    "classify_a2_1001_1000": (["classify", "--file", A2, "--p", "1001", "--q", "1000"], 0, None),
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
    "validate_a2": (
        ["validate", "--file", A2, "--out", "atoms.dot"], 0,
        "c249cbd63c7801d030586578fca6c5cdbd19cc9d0f09a17a48ed079323ff4aa9",
    ),
    "validate_dual3_json": (["validate", *DUAL, "3", "--json-like"], 0, None),
    "nf_a2": (["nf", "--file", A2, "--word", "s t s t t D^-2"], 0, None),
    "mul_rank2": (["mul", *RANK2, "--word", "a_x b_y", "--word", "a_x D^-1"], 0, None),
    "inv_dual4": (["inv", *DUAL, "4", "--word", "2134 1324 D^1"], 0, None),
    "conj_a2": (["conj", "--file", A2, "--word", "s t t", "--word", "t s"], 0, None),
    "isconj_artin3_yes": (["isconj", *ARTIN, "3", "--word", "s s t", "--word", "t s s"], 0, None),
    "isconj_dual4_no": (["isconj", *DUAL, "4", "--word", "2134", "--word", "2134 1324"], 4, None),
    "divide_chamber4_count": (["divide", *CHAMBER, "4", "--m", "3", "--count"], 0, None),
    "divide_artin6_m3_refused": (["divide", *ARTIN, "6", "--m", "3"], 3, None),
    "divide_a2_m1000000_count": (["divide", "--file", A2, "--m", "1000000", "--count"], 0, None),
    "divide_a2_m100000_refused": (["divide", "--file", A2, "--m", "100000"], 3, None),
    "periodic_a2_not_periodic": (
        ["periodic", "--file", A2, "--word", "s", "--p", "4", "--q", "3"], 4, None,
    ),
    "periodic_a2_not_periodic_huge_q": (
        ["periodic", "--file", A2, "--word", "s", "--p", "4", "--q", "300000000"], 4, None,
    ),
    "periodic_a2_huge_q": (
        ["periodic", "--file", A2, "--word", "s D^1", "--p", "400000000", "--q", "300000000"],
        0, None,
    ),
    "nerve_dual3_dim2": (
        ["nerve", *DUAL, "3", "--dim", "2", "--out", "nerve.txt"], 0,
        "24ebb2daa58d2864884cb749a3260c1b59d5c5cdb3bd93d2071c3bf681be6913",
    ),
    "cover_a2_r2": (
        ["cover", "--file", A2, "--source", "x", "--radius", "2", "--out", "ball.dot"], 0,
        "d330ccacf13bd03549b5658d7647e70fe707f14af54253b6767d047f9acbba7b",
    ),
    "builtin_chamber3": (
        ["builtin", *CHAMBER, "3", "--out", "chamber3.germ"], 0,
        "f68752ed5a7417f661939784118f05d55bf92205504bd8f45caea1ba9a9dc81c",
    ),
    "zpoly_a2_json": (["zpoly", "--file", A2, "--json-like"], 0, None),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_pinned(name, tmp_path, monkeypatch, capsys):
    argv, code, digest = CASES[name]
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    want = (DATA / "pinned" / f"{name}.out").read_text(encoding="utf-8")
    assert capsys.readouterr().out == want
    if digest is not None:
        export = tmp_path / argv[argv.index("--out") + 1]
        assert hashlib.sha256(export.read_bytes()).hexdigest() == digest


SOURCE = ["--builtin", "--file", "--json-like", "--param"]

# subcommand -> the flags it takes besides SOURCE
OWN_FLAGS = {
    "validate": ["--out"],
    "nf": ["--word"],
    "mul": ["--word"],
    "inv": ["--word"],
    "conj": ["--word"],
    "summit": ["--budget", "--word"],
    "isconj": ["--budget", "--word"],
    "divide": ["--budget", "--count", "--m", "--out"],
    "theta": ["--budget", "--m", "--word"],
    "periodic": ["--budget", "--certify", "--p", "--q", "--word"],
    "classify": ["--budget", "--p", "--q"],
    "centralizer": ["--budget", "--p"],
    "nerve": ["--budget", "--dim", "--out"],
    "zpoly": ["--budget", "--samples"],
    "cover": ["--budget", "--out", "--radius", "--source"],
    "builtin": ["--out"],
}


def test_each_subcommand_takes_only_its_own_flags():
    subparsers = next(a for a in build_parser()._actions if a.dest == "command").choices
    taken = {
        name: sorted(
            opt for action in sub._actions for opt in action.option_strings
            if opt.startswith("--") and opt != "--help"
        )
        for name, sub in subparsers.items()
    }
    assert taken == {name: sorted(SOURCE + own) for name, own in OWN_FLAGS.items()}
    assert sum(len(flags) for flags in taken.values()) == 100
