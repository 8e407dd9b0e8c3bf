import random
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from garside import (
    Budget,
    BudgetExceeded,
    multiply,
    normal_form,
    parse_germ,
    parse_word,
    table_to_text,
    validate,
)
from garside.cli import main
from garside.conjugacy import fixed_subgerm
from garside.divided import (
    build_divided_germ,
    count_subdivisions,
    enumerate_subdivisions,
    theta_morphism,
    theta_object,
    tuple_name,
)
from garside.words import MAX_WORD_FACTORS, NormalForm, delta_power, identity_nf, invert

import oracles
from paper_checks import subdivision_iso


# (base, m) -> |simples of the m-divided germ| = |D_2m| of the base; the
# forecast spends m + 1 steps per simple (it and its m columns) and one per
# non-unit product
DIVIDED_SIZES = {
    ("a2", 2): 36, ("a2", 3): 106, ("rank2", 3): 212, ("dual3", 2): 22, ("chamber3", 2): 216,
}


@pytest.mark.parametrize("base,m", sorted(DIVIDED_SIZES))
def test_divided_simples_are_the_forecast_2m_subdivisions(request, base, m):
    germ = request.getfixturevalue(base)
    forecast = sum(count_subdivisions(germ, 2 * m).values())
    budget = Budget(10**9)
    dg = build_divided_germ(germ, m, budget)
    assert len(dg.germ.simples) == forecast == DIVIDED_SIZES[(base, m)]
    units = set(dg.germ.identity)
    products = sum(1 for a, b in dg.germ.product if a not in units and b not in units)
    assert budget.used == (m + 1) * forecast + products
    with pytest.raises(BudgetExceeded):
        build_divided_germ(germ, m, Budget(budget.used - 1))


def test_divided_germ_over_budget_is_refused_before_building(a2, monkeypatch):
    import garside.divided as divided

    monkeypatch.setattr(divided, "enumerate_subdivisions", None)  # never reached
    with pytest.raises(BudgetExceeded) as exc:
        build_divided_germ(a2, 3, Budget(549))
    assert str(exc.value) == (
        "computation budget exceeded (549 steps): "
        "the 3-divided germ would have 106 simples of 3 columns and 126 products"
    )


def test_forecast_counts_the_columns_and_products(monkeypatch, capsys):
    # |D_60| = 75,580 simples alone would pass the default budget; with their
    # 30 columns each and the 109,800 products they are refused before the build
    import garside.divided as divided

    monkeypatch.setattr(divided, "enumerate_subdivisions", None)  # never reached
    t0 = time.perf_counter()
    assert main(["divide", "--file", str(POINT.with_name("a2.germ")), "--m", "30"]) == 3
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err == (
        "error: computation budget exceeded (2000000 steps): "
        "the 30-divided germ would have 75580 simples of 30 columns and 109800 products\n"
    )


POINT = Path(__file__).parent / "data" / "point.germ"


def test_subdivisions_need_no_recursion():
    # Δ is the identity: one m-subdivision for every m, its m identities
    point = validate(parse_germ(POINT.read_text(encoding="utf-8")))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(120)
    try:
        subs = enumerate_subdivisions(point, 5000)
    finally:
        sys.setrecursionlimit(limit)
    assert subs == [(point.identity[0],) * 5000]


def test_divided_germ_past_the_word_limit_is_refused(capsys):
    point = validate(parse_germ(POINT.read_text(encoding="utf-8")))
    assert len(build_divided_germ(point, 5000).objects[0]) == 5000
    with pytest.raises(BudgetExceeded, match=f"exceeds the {MAX_WORD_FACTORS}-factor"):
        build_divided_germ(point, MAX_WORD_FACTORS + 1)
    assert main(["divide", "--file", str(POINT), "--m", "1000000"]) == 3
    assert capsys.readouterr() == ("", (
        "error: the 1000000-divided germ exceeds the 65536-factor computation limit\n"
    ))
    # the |D_2m| forecast comes first
    assert main(["divide", "--file", str(POINT.with_name("a2.germ")), "--m", "1000000000"]) == 3
    assert "the 1000000000-divided germ would have" in capsys.readouterr().err


def test_enumerate_counts_a2(a2):
    assert len(enumerate_subdivisions(a2, 1)) == 1
    assert len(enumerate_subdivisions(a2, 2)) == 6
    assert len(enumerate_subdivisions(a2, 3)) == 17
    assert len(enumerate_subdivisions(a2, 4)) == 36


def test_enumerate_matches_bruteforce(a2, rank2):
    for germ, m in [(a2, 2), (a2, 3), (rank2, 2)]:
        brute = sorted(
            tup
            for obj in germ.objects
            for tup in oracles.subdivision_tuples(germ, obj.id, m)
        )
        assert enumerate_subdivisions(germ, m) == brute
        counted = sum(count_subdivisions(germ, m).values())
        assert counted == len(brute)


def test_single_subdivision_is_delta(a2):
    (obj,) = enumerate_subdivisions(a2, 1)
    assert obj == (a2.delta[0],)


def test_ladders_between_examples(a2, a2_div3):
    f = theta_object(a2, 0, 3)
    identity_ladder = [
        lad for lad in oracles.ladders_between(a2, f, f)
        if all(a2.is_identity(c) for c in lad.columns)
    ]
    assert len(identity_ladder) == 1
    g = tuple(a2.simple_named(n) for n in ("id@x", "s", "ts"))
    lads = oracles.ladders_between(a2, f, g)
    assert len(lads) == 1
    assert [a2.simple_name(c) for c in lads[0].columns] == ["id@x", "id@x", "s"]
    assert [a2.simple_name(d) for d in oracles.diagonals(a2, lads[0])] == ["id@x", "id@x", "ts"]
    # every object carries its shift ladder with columns (f_1, ..., f_m)
    for h in enumerate_subdivisions(a2, 3):
        shifted = tuple(h[1:]) + (a2.phi_simple[h[0]],)
        assert any(lad.columns == h for lad in oracles.ladders_between(a2, h, shifted))


def test_build_divided_m1_recovers_base(a2):
    dg = build_divided_germ(a2, 1)
    assert oracles.germ_isomorphism(dg.germ, a2) is not None


def test_build_divided_a2_3(a2_div3):
    assert len(a2_div3.objects) == 17
    assert a2_div3.germ.phi_order == 6


def test_divided_atom_graph_adjacency(a2, a2_div3):
    dg = a2_div3
    expected = {
        "(id@x,id@x,D)": {"(id@x,s,ts)", "(id@x,t,st)"},
        "(id@x,D,id@x)": {"(t,st,id@x)", "(s,ts,id@x)"},
        "(D,id@x,id@x)": {"(ts,id@x,t)", "(st,id@x,s)"},
    }
    for name, targets in expected.items():
        f = tuple(a2.simple_named(p) for p in name.strip("()").split(","))
        src = dg.object_of(f)
        outgoing = {
            tuple_name(a2, dg.ladder_of[atom].tgt)
            for atom in dg.germ.atoms
            if dg.germ.simples[atom].source == src
        }
        assert outgoing == targets


def test_build_divided_rank2(rank2):
    dg = build_divided_germ(rank2, 2)
    brute = sum(
        len(oracles.subdivision_tuples(rank2, obj.id, 2)) for obj in rank2.objects
    )
    assert len(dg.objects) == brute


def test_divided_phi_cycles_objects(a2, a2_div3):
    dg = a2_div3
    for i, f in enumerate(dg.objects):
        at = i
        for _ in range(3):
            at = dg.germ.phi_obj[at]
        assert dg.objects[at] == tuple(a2.phi_simple[s] for s in f)


def test_divided_dimension_stable(a2):
    from garside.nerve import garside_dimension

    base = garside_dimension(a2)
    for m in (1, 2, 3, 4):
        assert garside_dimension(build_divided_germ(a2, m).germ) == base


def test_fixed_divided_dimension_bound(a2, dual3):
    # opportunistic: m × dim(C_m fixed under its shift) ≤ dim(C fixed under φ),
    # checked whenever the fixed subgerms are non-empty
    from garside.conjugacy import fixed_subgerm
    from garside.nerve import garside_dimension

    checked = 0
    for germ in (a2, dual3):
        base_fixed = fixed_subgerm(germ, 1)
        if base_fixed.is_empty:
            continue
        bound = garside_dimension(base_fixed.subgerm)
        for m in (1, 2, 3):
            dg = build_divided_germ(germ, m)
            rep = fixed_subgerm(dg.germ, 1)
            if rep.is_empty:
                continue
            assert garside_dimension(rep.subgerm) * m <= bound
            checked += 1
    assert checked >= 1  # at least the m = 1 cases are non-empty


def test_theta_object_examples(a2, rank2):
    assert [a2.simple_name(s) for s in theta_object(a2, 0, 3)] == ["id@x", "id@x", "D"]
    assert [a2.simple_name(s) for s in theta_object(a2, 0, 1)] == ["D"]
    x = rank2.object_named("x")
    assert [rank2.simple_name(s) for s in theta_object(rank2, x, 2)] == ["id@x", "D_x"]


def test_theta_simple_functorial(a2, a2_div3):
    s, t, D = (a2.simple_named(n) for n in ("s", "t", "D"))
    ths, tht, thD = (oracles.theta_simple(a2_div3, sid) for sid in (s, t, D))
    comp = multiply(a2_div3.germ, multiply(a2_div3.germ, ths, tht), ths)
    assert comp == thD


def test_theta_m1_is_identity_functor(a2):
    dg = build_divided_germ(a2, 1)
    s = a2.simple_named("s")
    img = oracles.theta_simple(dg, s)
    assert img.canonical_length == 1
    lad = dg.ladder_of[img.factors[0]]
    assert lad.columns == (s,)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("name", ["a2", "rank2", "chamber3", "dual3"])
def test_theta_of_delta_is_garside_power(name, m, request):
    # Θ_m(Δ_x) = Δ_m^m at every object; theta_morphism relies on it for Δ-powers.
    germ = request.getfixturevalue(name)
    dg = build_divided_germ(germ, m)
    for x in range(len(germ.objects)):
        src = dg.object_of(theta_object(germ, x, m))
        img = oracles.theta_simple(dg, germ.delta[x])
        assert img == NormalForm(src, (), m)
        assert theta_morphism(dg, delta_power(germ, x, 1)) == img
        before = germ.delta[germ.phi_obj.index(x)]
        want = invert(dg.germ, oracles.theta_simple(dg, before))
        assert theta_morphism(dg, delta_power(germ, x, -1)) == want
        assert theta_morphism(dg, delta_power(germ, x, 3)) == NormalForm(src, (), 3 * m)


def test_theta_morphism_identity_and_greedy(a2, a2_div3):
    img = theta_morphism(a2_div3, identity_nf(0))
    assert img == identity_nf(a2_div3.object_of(theta_object(a2, 0, 3)))
    f = parse_word(a2, "s t s t D^-1")
    img = theta_morphism(a2_div3, f)
    assert oracles.is_greedy(a2_div3.germ, img)


def test_theta_functorial_random_pairs(a2, a2_div2, a2_div3):
    rng = random.Random(7)
    sids = [s.id for s in a2.simples]
    for dg in (a2_div2, a2_div3):
        for _ in range(50):
            w1 = [rng.choice(sids) for _ in range(rng.randint(0, 3))]
            w2 = [rng.choice(sids) for _ in range(rng.randint(0, 3))]
            k1, k2 = rng.randint(-1, 1), rng.randint(-1, 1)
            f = normal_form(a2, w1, k1) if w1 else parse_word(a2, f"@x D^{k1}")
            g = normal_form(a2, w2, k2) if w2 else parse_word(a2, f"@x D^{k2}")
            fg = multiply(a2, f, g)
            lhs = theta_morphism(dg, fg)
            rhs = multiply(dg.germ, theta_morphism(dg, f), theta_morphism(dg, g))
            assert lhs == rhs


def test_theta_preserves_equality_samples(a2, a2_div2):
    pairs = [("s t s", "t s t"), ("s s t s", "s t s t"), ("s t D^-1 s", "s t D^-1 s")]
    for w1, w2 in pairs:
        f, g = parse_word(a2, w1), parse_word(a2, w2)
        assert f == g
        assert theta_morphism(a2_div2, f) == theta_morphism(a2_div2, g)


@pytest.mark.parametrize("e,q", [(2, 2), (2, 3), (3, 2)])
def test_subdivision_iso(a2, e, q):
    iso = subdivision_iso(a2, e, q)
    assert len(iso.eq_divided.objects) == len(iso.iterated.objects)
    assert len(iso.eq_divided.germ.simples) == len(iso.iterated.germ.simples)


def test_subdivision_iso_identity_case(a2):
    iso = subdivision_iso(a2, 1, 3)
    assert len(iso.eq_divided.objects) == 17
    assert sorted(iso.object_map) == sorted(iso.object_map.values())


def test_subdivision_iso_fixed_subgerm_check(a2):
    # The check runs at p = q+1: the φ_2^4-fixed part of C_2 matches the
    # 2-divided germ of A_2^{φ^2} = A_2, and the φ_6^8-fixed part of C_6 the
    # 2-divided germ of C_3^{φ_3^4}, which holds the 4/3-periodic loops.
    assert subdivision_iso(a2, 2, 1).fixed_check == "verified"
    assert subdivision_iso(a2, 2, 3).fixed_check == "verified"
    # no s·Δ loop of A_2 is 3/2-periodic, so φ_2^3 fixes no object of C_2
    assert subdivision_iso(a2, 2, 2).fixed_check == "skipped (empty fixed subgerm)"


@pytest.mark.parametrize("base,top", [("a2", 3), ("dual3", 2)])
def test_subdivision_iso_fixed_check_agrees_with_isomorphism_search(request, base, top):
    # The explicit regrouping map verifies C_{eq}^{φ_{eq}^{ep}} ≅ (C_q^{φ_q^p})_e
    # at p = q+1 exactly when the backtracking search finds an isomorphism.
    germ = request.getfixturevalue(base)
    verified = 0
    for e in range(1, top + 1):
        for q in range(1, top + 1):
            iso = subdivision_iso(germ, e, q)
            left = fixed_subgerm(iso.eq_divided.germ, e * (q + 1))
            right_base = fixed_subgerm(iso.q_divided.germ, q + 1)
            if left.is_empty or right_base.is_empty:
                assert iso.fixed_check == "skipped (empty fixed subgerm)"
                continue
            right = build_divided_germ(right_base.subgerm, e)
            assert oracles.germ_isomorphism(left.subgerm, right.germ) is not None
            assert iso.fixed_check == "verified"
            verified += 1
    # a2: q = 1 and q = 3 for every e; dual3: q = 1 and q = 2
    assert verified == {"a2": 6, "dual3": 4}[base]


def test_enumerate_matches_count_on_builtins(dual3, chamber3):
    for germ in (dual3, chamber3):
        for m in range(1, 7):
            assert len(enumerate_subdivisions(germ, m)) == sum(
                count_subdivisions(germ, m).values()
            )


def test_divided_nerve_counts_are_base_subdivisions(a2, a2_div2, a2_div3):
    # (k-1)-simplices of the divided nerve are km-fold subdivisions of the base
    for dg in (a2_div2, a2_div3):
        for k in (1, 2, 3):
            assert len(oracles.walk_simplices(dg.germ, k - 1)) == sum(
                count_subdivisions(a2, k * dg.m).values()
            )


def test_subdivision_counts_agree_with_iterated(a2):
    for e, q in [(2, 2), (2, 3), (3, 2)]:
        dq = build_divided_germ(a2, q)
        assert sum(count_subdivisions(a2, e * q).values()) == sum(
            count_subdivisions(dq.germ, e).values()
        )


def test_divided_germ_of_dual3(dual3):
    dg = build_divided_germ(dual3, 2)
    assert len(dg.objects) == sum(count_subdivisions(dual3, 2).values())
    assert dg.germ.phi_order in (3, 6)
    assert (2 * dual3.phi_order) % dg.germ.phi_order == 0


def assert_text_roundtrip(g):
    """The id-assembled germ and its re-parse through names agree exactly."""
    back = validate(parse_germ(table_to_text(g)))
    assert back.simples == g.simples
    assert back.product == g.product
    assert back.delta == g.delta
    assert table_to_text(back) == table_to_text(g)


@pytest.mark.parametrize("base,m", [("a2", 3), ("rank2", 3), ("chamber3", 2), ("dual3", 2)])
def test_divided_and_fixed_germs_roundtrip_through_text(request, base, m):
    dg = build_divided_germ(request.getfixturevalue(base), m)
    g = dg.germ
    assert len(g.objects) > 1
    assert_text_roundtrip(g)
    for sid, lad in dg.ladder_of.items():
        s = g.simples[sid]
        assert (dg.objects[s.source], dg.objects[s.target]) == (lad.src, lad.tgt)
        assert dg.simple_ix[(lad.src, lad.columns)] == sid
    fixed = 0
    for p in range(1, g.phi_order + 1):
        rep = fixed_subgerm(g, p)
        if rep.is_empty:
            continue
        fixed += 1
        assert_text_roundtrip(rep.subgerm)
        # at q = 1 the inclusions hold (s,) for a simple s and (Δ_y,) for an object y
        inc = [s for (s,) in rep.simple_inclusion]
        obj = [g.simples[d].source for (d,) in rep.object_inclusion]
        for s in rep.subgerm.simples:
            amb = g.simples[inc[s.id]]
            assert (amb.name, amb.length) == (s.name, s.length)
            assert (amb.source, amb.target) == (obj[s.source], obj[s.target])
        for (a, b), c in rep.subgerm.product.items():
            assert g.product[(inc[a], inc[b])] == inc[c]
    assert fixed > 0


NAMES = st.from_regex(r"[a-c1',()]{1,4}", fullmatch=True)


@given(st.lists(st.lists(NAMES, min_size=1, max_size=3), min_size=2, max_size=2))
def test_tuple_names_are_injective(tuples):
    names = sorted({n for t in tuples for n in t})
    germ = SimpleNamespace(simple_name=names.__getitem__)
    f, g = (tuple(names.index(n) for n in t) for t in tuples)
    assert (tuple_name(germ, f) == tuple_name(germ, g)) == (f == g)
    if all(set(n).isdisjoint("(),") for n in names):
        assert tuple_name(germ, f) == "(" + ",".join(names[i] for i in f) + ")"
