import pytest

from garside import (
    GermError,
    components,
    identity_nf,
    multiply,
    parse_word,
    table_to_text,
    validate,
)
from garside import builtins as germ_builtins
from garside.conjugacy import (
    are_conjugate,
    conjugate,
    fixed_subgerm,
    summit_set,
    to_summit,
)
from garside.divided import tuple_name

import oracles


def test_conjugate_examples(a2):
    w = lambda text: parse_word(a2, text)
    assert conjugate(a2, w("s t"), w("s")) == w("t s")
    assert conjugate(a2, w("s"), w("@x D^1")) == w("t")
    assert conjugate(a2, w("t t"), w("@x")) == w("t t")


def test_conjugate_endpoint_mismatch(rank2):
    w = lambda text: parse_word(rank2, text)
    with pytest.raises(GermError):
        conjugate(rank2, w("@x aa_x"), w("@y a_y"))


def test_to_summit_examples(a2):
    w = lambda text: parse_word(a2, text)
    wit = to_summit(a2, w("s t"))
    assert wit.h == w("s t") and wit.c == identity_nf(0)
    wit = to_summit(a2, w("@x t s D^-1"))
    assert (wit.h.inf, wit.h.sup) == (-1, 0)
    wit = to_summit(a2, w("@x D^3"))
    assert wit.h == w("@x D^3")


def test_witness_equation_holds(a2):
    w = lambda text: parse_word(a2, text)
    for g_text, c_text in [("s t", "s"), ("s", "t s"), ("t t", "s t D^-1")]:
        g, c = w(g_text), w(c_text)
        h = conjugate(a2, g, c)
        assert multiply(a2, g, c) == multiply(a2, c, h)


def test_summit_set_examples(a2):
    w = lambda text: parse_word(a2, text)
    assert set(summit_set(a2, w("s t"))) == {w("s t"), w("t s")}
    assert set(summit_set(a2, w("s"))) == {w("s"), w("t")}
    assert set(summit_set(a2, w("@x D^1"))) == {w("@x D^1")}


def test_summit_set_witnesses_verify(a2):
    w = lambda text: parse_word(a2, text)
    g = w("s s t")
    for h, c in summit_set(a2, g).items():
        assert multiply(a2, g, c) == multiply(a2, c, h)


def test_summit_set_uniform_inf_sup_and_closure(a2):
    w = lambda text: parse_word(a2, text)
    sset = summit_set(a2, w("s t s t"))
    keys = {(h.inf, h.sup) for h in sset}
    assert len(keys) == 1
    key = keys.pop()
    for h in sset:
        for sid in a2.by_source[h.source]:
            if a2.is_identity(sid):
                continue
            h2 = conjugate(a2, h, parse_word(a2, a2.simple_name(sid)))
            if (h2.inf, h2.sup) == key:
                assert h2 in sset


def test_are_conjugate_examples(a2):
    w = lambda text: parse_word(a2, text)
    wit = are_conjugate(a2, w("s"), w("t"))
    assert wit is not None
    assert multiply(a2, w("s"), wit.c) == multiply(a2, wit.c, w("t"))
    # the Δ-witness from the naturality relation also works
    assert conjugate(a2, w("s"), w("@x D^1")) == w("t")
    wit2 = are_conjugate(a2, w("s t"), w("t s"))
    assert wit2 is not None
    assert are_conjugate(a2, w("s"), w("s t")) is None


def test_summit_sets_match_oracle_small(a2):
    w = lambda text: parse_word(a2, text)
    for text in ("s", "s t", "t t", "@x s D^-1"):
        g = w(text)
        assert set(summit_set(a2, g)) == oracles.brute_summit_set(a2, g, conj_len=4)


def test_fixed_subgerm_phi(a2):
    rep = fixed_subgerm(a2, 1)
    assert [rep.subgerm.object_name(o) for o in range(len(rep.subgerm.objects))] == ["x"]
    assert sorted(s.name for s in rep.subgerm.simples) == ["D", "id@x"]
    assert [rep.subgerm.simple_name(a) for a in rep.subgerm.atoms] == ["D"]
    assert rep.components == [[0]]
    # psi_* closure of either atom is the join of the full orbit: s ∨ t = Δ
    s = a2.simple_named("s")
    assert a2.simple_name(oracles.reference_psi_star(a2, oracles.phi_automorphism(a2, 1), s)) == "D"


def test_fixed_subgerm_identity_power(a2):
    rep = fixed_subgerm(a2, 2)
    assert len(rep.subgerm.simples) == len(a2.simples)


def test_fixed_subgerm_empty(rank2):
    rep = fixed_subgerm(rank2, 1)
    assert rep.is_empty
    assert rep.components == []


def test_fixed_subgerm_validates(a2, a2_div3):
    # at q = 1 a fixed object is (Δ_y,) for an object y of the ambient germ
    g = a2_div3.germ
    rep = fixed_subgerm(g, 2)
    assert not rep.is_empty
    names = sorted(
        tuple_name(a2, a2_div3.objects[g.simples[rep.object_inclusion[o][0]].source])
        for o in range(len(rep.subgerm.objects))
    )
    assert names == ["(s,t,s)", "(t,s,t)"]
    assert len(rep.components) == 1  # Δ_3 at (s,t,s) is invariant and joins them


FIXED_GERMS = [
    "artin_symmetric-2", "artin_symmetric-3", "dual_braid-2", "dual_braid-3",
    "dihedral_chamber-2", "dihedral_chamber-3", "rank2_counterexample", "a2_div2", "a2_div3",
]


@pytest.mark.parametrize("name", FIXED_GERMS)
def test_fixed_subgerm_matches_the_automorphism_route(request, name):
    # fixed_subgerm(germ, p) against the general route: φ^p as explicit maps,
    # the full automorphism check, and the fixed subgerm of that map
    if name.startswith("a2_"):
        germ = request.getfixturevalue(name).germ
    else:
        family, _, param = name.partition("-")
        germ = validate(germ_builtins.build(family, int(param) if param else None))
    # at q = 1 the fixed objects are the 1-tuples (Δ_x,) and the columns (s,)
    for p in range(2 * germ.phi_order + 1):
        psi = oracles.phi_automorphism(germ, p)
        got, want = fixed_subgerm(germ, p), oracles.reference_fixed_subgerm(germ, psi)
        assert got.is_empty == want.is_empty
        assert got.object_inclusion == [(germ.delta[o],) for o in want.object_inclusion]
        assert got.simple_inclusion == [(s,) for s in want.simple_inclusion]
        assert got.components == want.components
        assert got.atoms_realized == want.atoms_realized
        if got.is_empty:
            continue
        assert table_to_text(got.subgerm) == table_to_text(want.subgerm)
        assert got.subgerm.product == want.subgerm.product
        for b, a in got.atoms_realized.items():
            assert oracles.reference_psi_star(germ, psi, a) == got.simple_inclusion[b][0]


def test_components(a2, rank2, a2_div3):
    assert components(a2) == [[0]]
    assert components(rank2) == [[0, 1]]
    assert components(a2_div3.germ) == [list(range(17))]


def test_budget_exceeded(a2):
    from garside import Budget, BudgetExceeded

    with pytest.raises(BudgetExceeded):
        summit_set(a2, parse_word(a2, "s t s t"), Budget(1))


def test_components_of_disconnected_germ():
    text = (
        "garside-germ v1\nobject x\nobject y\n"
        "simple g : x -> x\nsimple h : y -> y\n"
        "delta x = g\ndelta y = h\n"
    )
    germ = validate(__import__("garside").parse_germ(text))
    assert components(germ) == [[0], [1]]
