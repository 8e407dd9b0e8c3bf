import importlib
from pathlib import Path

import pytest

from garside import Budget, parse_germ, parse_word, validate
from garside.cli import main
from garside.conjugacy import summit_set
from garside.divided import theta_morphism

DATA = Path(__file__).parent / "data"
A2 = str(DATA / "a2.germ")
POINT = str(DATA / "point.germ")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


def test_validate(capsys):
    code, out = run(capsys, "validate", "--file", A2)
    assert code == 0
    assert "objects: 1" in out
    assert "simples: 6" in out
    assert "phi_order: 2" in out


def test_validate_builtin(capsys):
    code, out = run(capsys, "validate", "--builtin", "dual_braid", "--param", "3")
    assert code == 0
    assert "simples: 5" in out


def test_validate_broken_germ(tmp_path, capsys):
    bad = tmp_path / "bad.germ"
    bad.write_text(
        Path(A2).read_text().replace("product st s = D\n", ""), encoding="utf-8"
    )
    code, _ = run(capsys, "validate", "--file", str(bad))
    assert code == 1


def test_syntax_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.germ"
    bad.write_text("object x\n", encoding="utf-8")
    code, _ = run(capsys, "validate", "--file", str(bad))
    assert code == 2


def test_usage_error_unknown_word(capsys):
    code, _ = run(capsys, "nf", "--file", A2, "--word", "zz")
    assert code == 2


def test_nf_mul_inv_conj(capsys):
    code, out = run(capsys, "nf", "--file", A2, "--word", "s t s t")
    assert code == 0 and "nf: s D^1" in out
    code, out = run(capsys, "mul", "--file", A2, "--word", "s", "--word", "t")
    assert code == 0 and "product: st" in out
    code, out = run(capsys, "inv", "--file", A2, "--word", "s")
    assert code == 0 and "inverse: ts D^-1" in out
    code, out = run(capsys, "conj", "--file", A2, "--word", "s t", "--word", "s")
    assert code == 0 and "conjugate: ts" in out


def test_summit(capsys):
    code, out = run(capsys, "summit", "--file", A2, "--word", "s t")
    assert code == 0
    assert "summit_set_size: 2" in out


def test_isconj_positive_and_negative(capsys):
    code, out = run(capsys, "isconj", "--file", A2, "--word", "s", "--word", "t")
    assert code == 0 and "witness" in out
    code, out = run(capsys, "isconj", "--file", A2, "--word", "s", "--word", "s t")
    assert code == 4
    assert "not conjugate" in out


def test_divide_count(capsys):
    code, out = run(
        capsys, "divide", "--builtin", "artin_symmetric", "--param", "3", "--m", "3",
        "--count",
    )
    assert code == 0
    assert out.strip() == "17"


def test_divide_full_and_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "c3.germ"
    code, out = run(
        capsys, "divide", "--file", A2, "--m", "3", "--out", str(out_file)
    )
    assert code == 0
    assert "phi_order: 6" in out
    code, out = run(capsys, "validate", "--file", str(out_file))
    assert code == 0
    assert "objects: 17" in out


def test_divide_refuses_a_divided_germ_over_the_budget(capsys):
    # 𝒢_3 of artin6 would have |D_6| = 36,559,946 simples; the forecast
    # refuses it before anything is built.
    code = main(["divide", "--builtin", "artin_symmetric", "--param", "6", "--m", "3"])
    assert code == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        "error: computation budget exceeded (2000000 steps): "
        "the 3-divided germ would have 36559946 simples of 3 columns and 3424176456 products\n"
    )


def test_theta(capsys):
    code, out = run(capsys, "theta", "--file", A2, "--word", "s", "--m", "2")
    assert code == 0
    assert "theta_source: (id@x,D)" in out


def test_periodic_certify(capsys):
    code, out = run(
        capsys, "periodic", "--builtin", "artin_symmetric", "--param", "3",
        "--word", "s D^1", "--p", "4", "--q", "3", "--certify",
    )
    assert code == 0
    assert "Bestvina form: (s, k=1)" in out
    assert "object: (s,t,s)" in out
    assert "conjugation verified" in out


def test_periodic_negative(capsys):
    code, out = run(
        capsys, "periodic", "--file", A2, "--word", "s", "--p", "4", "--q", "3"
    )
    assert code == 4


def test_periodic_spends_the_request_budget(capsys):
    # s^j stays within both early bounds until j = q - p, so the search for a
    # Δ-power ends on the budget
    code = main([
        "periodic", "--file", A2, "--word", "s", "--p", "150000000", "--q", "300000000",
        "--budget", "1000",
    ])
    assert code == 3
    assert capsys.readouterr().err == (
        "error: computation budget exceeded (1000 steps): "
        "raising the word to the power 300000000 reached power 44\n"
    )


def test_periodic_certify_builds_the_divided_germ_on_the_request_budget(capsys):
    # is_periodic and the summit search spend 26 steps, the forecast of the
    # 3-divided germ 550 more (106 simples of 3 columns and 126 products), and
    # the necklace 9: β₂ slides 3 ladders of 3 columns
    argv = ["periodic", "--file", A2, "--word", "s D^1", "--p", "4", "--q", "3", "--certify"]
    assert main(argv + ["--budget", "575"]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        "error: computation budget exceeded (575 steps): "
        "the 3-divided germ would have 106 simples of 3 columns and 126 products\n"
    )
    assert main(argv + ["--budget", "584"]) == 3
    assert capsys.readouterr().err.endswith("the necklace would slide 3 ladders of 3 columns\n")
    assert main(argv + ["--budget", "585"]) == 0
    pinned = DATA / "pinned" / "periodic_a2_certify.out"
    assert capsys.readouterr().out == pinned.read_text(encoding="utf-8")


def test_periodic_certify_at_a_huge_delta_power(capsys):
    # k = 10^9 + 1: the Bestvina object is checked by p mod (q·|φ|) shifts
    code, out = run(
        capsys, "periodic", "--file", A2, "--word", "s D^1000000001",
        "--p", "3000000004", "--q", "3", "--certify",
    )
    assert code == 0
    assert "object: (s,t,s)" in out
    assert "conjugation verified" in out


def test_periodic_no_length_one(capsys):
    code, out = run(
        capsys, "periodic", "--file", A2, "--word", "s t", "--p", "2", "--q", "3",
        "--certify",
    )
    assert code == 4
    assert "no length-one representative" in out


def test_classify(capsys):
    code, out = run(capsys, "classify", "--file", A2, "--p", "4", "--q", "3")
    assert code == 0
    assert "classes: 1" in out
    assert "(s,t,s)" in out and "(t,s,t)" in out


def test_classify_bad_pq_is_usage_error(capsys):
    code, _ = run(capsys, "classify", "--file", A2, "--p", "2", "--q", "3")
    assert code == 2


def test_centralizer(capsys):
    code, out = run(capsys, "centralizer", "--file", A2, "--p", "1")
    assert code == 0
    assert "atoms: D" in out
    code, out = run(capsys, "centralizer", "--file", A2, "--p", "2")
    assert code == 0
    assert "fixed_simples: 6" in out


def test_centralizer_no_fixed_objects(capsys):
    code, out = run(
        capsys, "centralizer", "--builtin", "rank2_counterexample", "--p", "1"
    )
    assert code == 4


def test_nerve_and_export(tmp_path, capsys):
    out_file = tmp_path / "nerve.txt"
    code, out = run(capsys, "nerve", "--file", A2, "--out", str(out_file))
    assert code == 0
    assert "nondegenerate_0: 1" in out
    assert "nondegenerate_3: 2" in out
    assert "euler: 0" in out
    assert "cyclic_identities: ok" in out
    lines = out_file.read_text().splitlines()
    assert len(lines) == 1 + 5 + 6 + 2


def test_nerve_counts_above_the_dimension_are_zero(capsys):
    code, out = run(capsys, "nerve", "--file", A2, "--dim", "5")
    assert code == 0
    assert "nondegenerate_3: 2\nnondegenerate_4: 0\nnondegenerate_5: 0\neuler: 0\n" in out


def test_nerve_answers_artin5_at_its_dimension(capsys):
    # its count lines and an O(|S|) cyclic-identity check; no simplex is listed
    code, out = run(capsys, "nerve", "--builtin", "artin_symmetric", "--param", "5")
    assert code == 0
    assert out.startswith("garside_dimension: 10\nnondegenerate_0: 1\n")
    assert out.endswith("nondegenerate_10: 768\neuler: 0\ncyclic_identities: ok\n")


def test_nerve_spends_its_lines_from_the_default_budget(capsys, tmp_path):
    assert main(["nerve", "--file", A2, "--dim", "1000000000"]) == 3
    assert capsys.readouterr() == ("", (
        "error: computation budget exceeded (2000000 steps): "
        "nerve would print 1000000001 simplex counts\n"
    ))
    # at a budget of 20: 20 count lines pass; 6 count lines and the 14
    # simplices of A₂ pass with --out, 7 count lines and 14 simplices do not
    nerve = ["nerve", "--file", A2, "--budget", "20", "--dim"]
    out_file = tmp_path / "nerve.txt"
    assert main(nerve + ["19"]) == 0
    assert main(nerve + ["5", "--out", str(out_file)]) == 0
    assert len(out_file.read_text().splitlines()) == 14
    capsys.readouterr()
    assert main(nerve + ["20"]) == 3
    assert capsys.readouterr().err.endswith("nerve would print 21 simplex counts\n")
    out_file.unlink()
    assert main(nerve + ["6", "--out", str(out_file)]) == 3
    assert capsys.readouterr() == ("", (
        "error: computation budget exceeded (20 steps): "
        "the simplex list would hold 14 simplices\n"
    ))
    assert not out_file.exists()


def test_zpoly(capsys):
    code, out = run(capsys, "zpoly", "--file", A2, "--json-like")
    assert code == 0
    assert "degree: 3" in out
    assert "Z(5): 65" in out
    assert "Z(6): 106" in out


def test_cover_dot(tmp_path, capsys):
    out_file = tmp_path / "ball.dot"
    code, out = run(
        capsys, "cover", "--file", A2, "--source", "x", "--radius", "1",
        "--out", str(out_file),
    )
    assert code == 0
    assert "vertices: 6" in out and "edges: 11" in out
    assert out_file.read_text().startswith("graph cover_ball {")


def test_builtin_export_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "dual3.germ"
    code, _ = run(
        capsys, "builtin", "--builtin", "dual_braid", "--param", "3",
        "--out", str(out_file),
    )
    assert code == 0
    code, out = run(capsys, "validate", "--file", str(out_file))
    assert code == 0
    assert "simples: 5" in out


def test_output_byte_stable(capsys):
    _, out1 = run(capsys, "classify", "--file", A2, "--p", "4", "--q", "3")
    _, out2 = run(capsys, "classify", "--file", A2, "--p", "4", "--q", "3")
    assert out1 == out2
    _, out3 = run(capsys, "summit", "--file", A2, "--word", "s t", "--json-like")
    _, out4 = run(capsys, "summit", "--file", A2, "--word", "s t", "--json-like")
    assert out3 == out4


def test_budget_exit_code(capsys):
    code, _ = run(
        capsys, "summit", "--file", A2, "--word", "s t s t", "--budget", "1"
    )
    assert code == 3
    code, _ = run(capsys, "summit", "--file", A2, "--word", "s", "--budget", "-4")
    assert code == 2


def test_summit_spends_the_summit_set_budget_once(capsys):
    # The summit printed first is summit_set's own to_summit witness, so the
    # command needs no more budget than summit_set alone.
    germ = validate(parse_germ(Path(A2).read_text(encoding="utf-8")))
    budget = Budget(10**9)
    summit_set(germ, parse_word(germ, "s t s t t"), budget)
    code, out = run(
        capsys, "summit", "--file", A2, "--word", "s t s t t", "--budget", str(budget.used)
    )
    assert code == 0
    assert "summit_set_size: " in out


def test_validate_atom_graph_export(tmp_path, capsys):
    out_file = tmp_path / "atoms.dot"
    code, _ = run(capsys, "validate", "--file", A2, "--out", str(out_file))
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("digraph atom_graph {") and text.count("->") == 2


def test_missing_source_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["validate"])
    assert err.value.code == 2


# The A₂ germ with names holding commas: st,s and s,ts used to print alike.
COMMA_NAMES = {"s": "a,b", "t": "c", "st": "a,b,q", "ts": "q,a,b"}


def test_divide_keeps_tuple_names_apart(tmp_path, capsys):
    lines = Path(A2).read_text(encoding="utf-8").splitlines()
    text = "\n".join(" ".join(COMMA_NAMES.get(tok, tok) for tok in line.split()) for line in lines)
    germ_file, export = tmp_path / "commas.germ", tmp_path / "divided.germ"
    germ_file.write_text(text + "\n", encoding="utf-8")
    assert run(capsys, "validate", "--file", str(germ_file))[0] == 0
    code, out = run(capsys, "divide", "--file", str(germ_file), "--m", "2", "--out", str(export))
    assert code == 0
    assert "objects: 6" in out
    divided_germ = validate(parse_germ(export.read_text(encoding="utf-8")))
    names = {o.name for o in divided_germ.objects}
    assert {"((5'a,b,q),(3'a,b))", "((3'a,b),(5'q,a,b))"} <= names


def test_internal_error_exits_5(monkeypatch, capsys):
    from garside import divided

    # Break the ladder check once the divided germ is built, so that the
    # first slide of the necklace conjugator fails it.
    build = divided.build_divided_germ

    def build_then_break(*args, **kwargs):
        dg = build(*args, **kwargs)
        monkeypatch.setattr(divided, "ladder_target", lambda *args: None)
        return dg

    monkeypatch.setattr(divided, "build_divided_germ", build_then_break)
    argv = ["periodic", "--file", A2, "--word", "s D^1", "--p", "4", "--q", "3", "--certify"]
    assert main(argv) == 5
    assert capsys.readouterr().err == "internal error: slide does not map to a ladder\n"


CERTIFY = ["periodic", "--file", A2, "--word", "s D^1", "--p", "4", "--q", "3", "--certify"]
# argv, module and name to patch, replacement, message of the consistency check
BROKEN = {
    "divided_target": (["divide", "--file", A2, "--m", "2"], "divided", "ladder_target",
                       lambda *args: (-1,), "ladder target escapes the subdivision set"),
    "fixed_target": (["centralizer", "--file", A2, "--p", "1"], "divided", "ladder_target",
                     lambda *args: (-1,), "a fixed ladder ends outside the fixed objects"),
    "classify_target": (["classify", "--file", A2, "--p", "4", "--q", "3"], "divided",
                        "ladder_target", lambda *args: (-1,),
                        "a fixed ladder ends outside the fixed objects"),
    # Θ_q(γΔ) = Θ_q(γ)·Δ_q^q, one Δ_q^q off the power the check compares with
    "necklace": (CERTIFY, "divided", "theta_morphism",
                 lambda dg, f: theta_morphism(dg, f._replace(delta_exp=f.delta_exp + 1)),
                 "necklace conjugation equation failed verification"),
}


@pytest.mark.parametrize("name", sorted(BROKEN))
def test_failed_consistency_check_exits_5_without_traceback(name, monkeypatch, capsys):
    argv, module, attr, replacement, message = BROKEN[name]
    monkeypatch.setattr(importlib.import_module(f"garside.{module}"), attr, replacement)
    assert main(argv) == 5
    assert capsys.readouterr() == ("", f"internal error: {message}\n")


def usage_error(capsys, *argv) -> str:
    """Run a command that must be a usage error; return its stderr."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] == err.splitlines()[-1:]
    return err


def test_flag_of_another_subcommand_is_usage_error(capsys):
    err = usage_error(capsys, "nf", "--file", A2, "--word", "s", "--m", "3")
    assert "unrecognized arguments: --m 3" in err


def test_param_with_file_is_usage_error(capsys):
    err = usage_error(capsys, "validate", "--file", A2, "--param", "7")
    assert err == "error: --param goes with --builtin, not --file\n"


def test_param_with_rank2_is_usage_error(capsys):
    err = usage_error(capsys, "validate", "--builtin", "rank2_counterexample", "--param", "7")
    assert err == "error: builtin family 'rank2_counterexample' takes no --param\n"


def test_negative_nerve_dimension_is_usage_error(capsys):
    err = usage_error(capsys, "nerve", "--file", A2, "--dim", "-1")
    assert err == "error: dimension must be non-negative\n"


def test_divide_count_needs_a_positive_m(capsys):
    err = usage_error(capsys, "divide", "--file", A2, "--m", "-1", "--count")
    assert err == "error: m must be a positive integer\n"


def test_zero_budget_is_usage_error(capsys):
    err = usage_error(capsys, "summit", "--file", A2, "--word", "s", "--budget", "0")
    assert err == "error: --budget must be positive\n"


def test_delta_zero_before_the_first_simple(capsys):
    code, out = run(capsys, "nf", "--file", A2, "--word", "D^0 s")
    assert (code, out) == run(capsys, "nf", "--file", A2, "--word", "s")
    assert code == 0 and "nf: s" in out


def test_unknown_simple_name_is_printed_without_quotes(capsys):
    err = usage_error(capsys, "nf", "--file", A2, "--word", "s zz")
    assert err == "error: no simple named 'zz'\n"


def test_unknown_object_name_is_printed_without_quotes(capsys):
    err = usage_error(capsys, "cover", "--file", A2, "--source", "zz")
    assert err == "error: no object named 'zz'\n"


def test_non_composable_word_is_usage_error(capsys):
    err = usage_error(capsys, "nf", "--builtin", "rank2_counterexample", "--word", "a_x a_x")
    assert err == "error: multiply: endpoint mismatch\n"


def test_delta_powers_are_identities_where_delta_is_one(capsys):
    # the one object of point.germ has Δ = 1_x, so Δ^k = 1 in normal form
    code, out = run(capsys, "nf", "--file", POINT, "--word", "@x D^1")
    assert code == 0 and out.startswith("nf: @x\n") and "nf_inf: 0\n" in out
    code, out = run(capsys, "isconj", "--file", POINT, "--word", "@x D^1", "--word", "@x")
    assert (code, out) == (0, "conjugate\nwitness: @x\n")
    for word, p in (("@x", "0"), ("@x D^1", "1")):
        code, out = run(capsys, "periodic", "--file", POINT, "--word", word, "--p", p, "--certify")
        assert code == 0 and out.endswith("conjugation verified\n")
    # there every q is periodic, and a q-letter Bestvina object is refused past the word limit
    argv = ["periodic", "--file", POINT, "--word", "@x", "--p", "1", "--q", str(10**12)]
    assert main(argv) == 0
    assert main(argv + ["--certify"]) == 3
    assert capsys.readouterr().err == (
        "error: a 1000000000000-letter Bestvina object exceeds the 65536-factor computation limit\n"
    )


# subcommand -> a request that a budget of one step refuses and the default admits
SMALL_BUDGET = {
    "divide": ["divide", "--file", A2, "--m", "2"],
    "theta": ["theta", "--file", A2, "--word", "s", "--m", "2"],
    "classify": ["classify", "--file", A2, "--p", "4", "--q", "3"],
    "centralizer": ["centralizer", "--builtin", "dihedral_chamber", "--param", "4", "--p", "2"],
    "nerve": ["nerve", "--file", A2],
    "zpoly": ["zpoly", "--file", A2],
    "cover": ["cover", "--file", A2, "--radius", "2"],
}


@pytest.mark.parametrize("name", sorted(SMALL_BUDGET))
def test_request_budget_reaches_the_subcommand(name, capsys):
    argv = SMALL_BUDGET[name]
    assert main(argv + ["--budget", "1"]) == 3
    assert capsys.readouterr().err.startswith("error: computation budget exceeded (1 steps): ")
    assert main(argv) == 0


def test_unknown_builtin_family_is_a_usage_error(capsys):
    # builtins.build names the families; the parser does not load that module
    assert main(["validate", "--builtin", "nosuch"]) == 2
    assert capsys.readouterr() == ("", (
        "error: unknown builtin family 'nosuch'; choose from ('artin_symmetric', "
        "'dual_braid', 'dihedral_chamber', 'rank2_counterexample')\n"
    ))
