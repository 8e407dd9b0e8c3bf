import hashlib

import pytest

import oracles
from garside import builtins as germ_builtins
from garside import parse_word, validate
from garside.builtins import (
    artin_symmetric,
    build,
    dihedral_chamber,
    dual_braid,
    rank2_counterexample,
)
from garside.germ import GermError, table_to_text
from garside.nerve import garside_dimension
from garside.words import delta_power_nf, is_loop
from paper_checks import common_multiple_report, left_divides_morphism


@pytest.mark.parametrize(
    "family,param",
    [
        ("artin_symmetric", 2),
        ("artin_symmetric", 3),
        ("artin_symmetric", 4),
        ("dual_braid", 2),
        ("dual_braid", 3),
        ("dual_braid", 4),
        ("dihedral_chamber", 2),
        ("dihedral_chamber", 3),
        ("dihedral_chamber", 5),
        ("rank2_counterexample", None),
    ],
)
def test_every_builtin_validates(family, param):
    validate(build(family, param))


# SHA-256 of table_to_text(build(family, param)) for every family and
# parameter, recorded before the generators computed each length only once:
# ids, names and product order must not move.
TABLE_SHA256 = {
    ("artin_symmetric", 2): "46041aa142deff29a139d8ccdd73dce3ad1386363bfe66e68721bb8fd9a6bafd",
    ("artin_symmetric", 3): "9ec45ff3472835e3eb8e7e36e4be11e8062f99eb20c0519d6bfc8763ecd72d1f",
    ("artin_symmetric", 4): "a31680cee12f1241ba0e5c575cafb78146814274d19ca487a753f7f2301c87de",
    ("artin_symmetric", 5): "dd78246c9de16ff0661f29d88f00a4d49013ce16db5ddca51c6100ecac5e9189",
    ("artin_symmetric", 6): "81f959233573dacd55821b069ead75303a9cfae830735cc0dd095105da2bd246",
    ("dual_braid", 2): "2a75ae4a91676f227871951085e666b8482345a501f2835e483874f2b752fb52",
    ("dual_braid", 3): "789d0560d15ca2a1d43f8697a5db23ebd4df9588cb04807c9f43a17f5705a9b6",
    ("dual_braid", 4): "088659186ca86d004a40306fd821d82f731445ba960b0c91e43b7f4dba58145b",
    ("dual_braid", 5): "fda6cc39a3adbf4ebe43064dc243073e880ce8f8d28aa41e7242398cb21672a5",
    ("dual_braid", 6): "291e6ea8d84161e843c6dd171219a2c74f931c4c5211a82dc5e10d6f28706419",
    ("dihedral_chamber", 2): "39b285544e75a97342c2bf79468e200b19246913311b9bb58cce2346a49f1347",
    ("dihedral_chamber", 3): "f68752ed5a7417f661939784118f05d55bf92205504bd8f45caea1ba9a9dc81c",
    ("dihedral_chamber", 4): "9f828d3d4efba6f349e1a99255c9b5a6167c3e9ed4daaf418d72794d3bfb87c6",
    ("dihedral_chamber", 5): "f7708e3df3aebc6eacad087747750f68258e1117128c8a4ae9553a9a86fce680",
    ("dihedral_chamber", 6): "d7139a023c268b0aaf0e959ad86571bf89ea92e5a71d56ce552325f7e0957481",
    ("dihedral_chamber", 7): "748abb58941f3da6a1c07376da6742631c90d476bdd25a573d36d08c9932b761",
    ("dihedral_chamber", 8): "86154d4bd1ea2bc771524ab14a2f0918b33a935f99e075edb3c4c0b1c6b07635",
    ("dihedral_chamber", 9): "e0579765d2bb5b2161d3b80abcfbe0941e9b171dc77c8c5357d58dd78e474d2c",
    ("dihedral_chamber", 10): "f32536bd96ded7d84f484332eccbdfb8ad91cb0aa6f020b4849edd152bc5cd1f",
    ("dihedral_chamber", 11): "99895efbcd241c7c1c79587ea2f6837e7b9c8e0ae0f4efda728639e9f3962760",
    ("dihedral_chamber", 12): "12dc13d67e5910cdcd5f39400140381953a4fa63e5408200e855f535da2c9c6d",
    ("rank2_counterexample", None): "7b07f91b2ec0f9c9d39058f0c1fa5afa8e15e3d5920e186aad59a02316cdbc15",
}


@pytest.mark.parametrize("family,param", sorted(TABLE_SHA256, key=str))
def test_builtin_tables_are_pinned(family, param):
    text = table_to_text(build(family, param))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == TABLE_SHA256[(family, param)]


@pytest.mark.parametrize("family", ["artin_symmetric", "dual_braid"])
@pytest.mark.parametrize("n", range(2, 7))
def test_interval_germs_match_the_pair_scan(monkeypatch, family, n):
    table = build(family, n)
    monkeypatch.setattr(germ_builtins, "_interval_germ", oracles.reference_interval_germ)
    want = build(family, n)
    assert table == want
    assert list(table.product.items()) == list(want.product.items())


# Permutation compositions per build: n! to find the simples, |S|·|atoms| for
# the lower covers, one per non-unit product, and for artin the descent steps
# of the names. Composing every pair of non-identity simples would add
# (|S| - 1)², 516,961 at artin6.
COMPOSITIONS = {
    ("artin_symmetric", 3): 33,
    ("artin_symmetric", 4): 326,
    ("artin_symmetric", 5): 3_640,
    ("artin_symmetric", 6): 49_557,
    ("dual_braid", 3): 24,
    ("dual_braid", 4): 136,
    ("dual_braid", 5): 730,
    ("dual_braid", 6): 3_865,
}


@pytest.mark.parametrize("family,n", sorted(COMPOSITIONS))
def test_interval_germ_compositions_are_pinned(monkeypatch, family, n):
    calls = 0
    compose = germ_builtins._compose

    def counting(p, q):
        nonlocal calls
        calls += 1
        return compose(p, q)

    monkeypatch.setattr(germ_builtins, "_compose", counting)
    build(family, n)
    assert calls == COMPOSITIONS[(family, n)]


def test_param_ranges():
    for bad in (1, 7):
        with pytest.raises(GermError):
            artin_symmetric(bad)
        with pytest.raises(GermError):
            dual_braid(bad)
    with pytest.raises(GermError):
        dihedral_chamber(13)
    with pytest.raises(GermError):
        build("nosuch", 3)
    with pytest.raises(GermError):
        build("dual_braid", None)


def test_rank2_takes_no_param():
    with pytest.raises(GermError, match="takes no --param"):
        build("rank2_counterexample", 7)
    assert table_to_text(build("rank2_counterexample", None)) == table_to_text(
        rank2_counterexample()
    )


def test_artin_sizes(artin3, artin4):
    assert len(artin3.simples) == 6
    assert len(artin4.simples) == 24
    assert garside_dimension(artin4) == 6


def test_artin2_trivial():
    germ = validate(artin_symmetric(2))
    assert len(germ.simples) == 2
    assert germ.phi_order == 1


def test_dual_braid_sizes(dual3):
    assert len(dual3.simples) == 5  # Catalan(3)
    assert dual3.phi_order == 3
    assert len(validate(dual_braid(4)).simples) == 14  # Catalan(4)


def test_artin_vs_dual_same_group_different_germs(artin3, dual3):
    assert len(artin3.simples) == 6
    assert len(dual3.simples) == 5


def test_dual_braid_lengths_are_reflection_lengths(dual3):
    by_len = sorted(s.length for s in dual3.simples)
    assert by_len == [0, 1, 1, 1, 2]


def test_dihedral_chamber_structure(chamber3):
    assert len(chamber3.objects) == 6
    assert len(chamber3.simples) == 36
    assert chamber3.phi_order == 2
    # every ordered chamber pair is simple: all sources have full out-degree
    for obj in chamber3.objects:
        assert len(chamber3.by_source[obj.id]) == 6


@pytest.mark.parametrize("m", range(2, 13))
def test_dihedral_delta_squared_is_loop(m):
    germ = validate(dihedral_chamber(m))
    assert germ.phi_order == 2
    for obj in germ.objects:
        assert is_loop(germ, delta_power_nf(obj.id, 2))


def test_rank2_lattice_shape(rank2):
    x = rank2.object_named("x")
    a, b = rank2.simple_named("a_x"), rank2.simple_named("b_x")
    assert rank2.simple_name(rank2.join(a, b)) == "D_x"
    assert rank2.meet(a, b) == rank2.identity[x]
    assert rank2.simple_name(rank2.complement(a)) == "aa_y"


def test_rank2_common_multiples_no_least(rank2):
    a2sq = parse_word(rank2, "@x aa_x")
    b2sq = parse_word(rank2, "@x bb_x")
    report = common_multiple_report(rank2, a2sq, b2sq, length_bound=8)
    multiples = report["common_multiples"]
    assert delta_power_nf(rank2.object_named("x"), 2) in multiples
    assert report["least"] == []
    # the divisibility-minimal common multiples are a^4 = Δa and b^4 = Δb
    minimal = [
        f
        for f in multiples
        if not any(
            g != f and left_divides_morphism(rank2, g, f) for g in multiples
        )
    ]
    assert len(minimal) == 2
    assert {parse_word(rank2, "a_x D^1"), parse_word(rank2, "b_x D^1")} == set(minimal)
