import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from garside import multiply, normal_form, parse_germ, parse_word, power, validate
from garside import periodic
from garside.conjugacy import fixed_subgerm
from garside.divided import beta1_slides, ladder_nf, slide, theta_morphism, theta_object
from garside.germ import Budget, BudgetExceeded, GermError
from garside.periodic import (
    BestvinaForm,
    NoLengthOneRepresentative,
    beta2_slides,
    bestvina_object,
    classify_periodic,
    find_bestvina_form,
    is_periodic,
    necklace_conjugator,
)
from garside.words import delta_power_nf

import oracles
from test_normal_form_oracle import CountingDict


def test_is_periodic_examples(a2):
    w = lambda text: parse_word(a2, text)
    assert is_periodic(a2, w("s t"), 2, 3) is not None
    # (st)^3 = Δ^2 is the first Δ-power, so (st)^4 = Δ^2·st is none
    assert is_periodic(a2, w("s t"), 4, 6) is not None
    assert is_periodic(a2, w("s t"), 2, 4) is None
    assert is_periodic(a2, w("s D^1"), 4, 3) is not None
    for p in range(-8, 9):
        for q in range(1, 9):
            assert is_periodic(a2, w("s"), p, q) is None


def loop_at_first_object(germ, choices: list[int], k: int):
    """
    A loop γ·Δ^k at object 0: atoms picked by `choices` along a walk, closed
    by a shortest atom path to the object that Δ^k carries back to 0.
    """
    word, at = [], 0
    for c in choices:
        out = [a for a in germ.atoms if germ.simples[a].source == at]
        word.append(out[c % len(out)])
        at = germ.simples[word[-1]].target
    goal = germ.phi_power_obj(0, -k)
    paths, frontier = {at: []}, [at]
    while goal not in paths:
        assert frontier, "atom graph is not strongly connected"
        new = []
        for x in frontier:
            for a in germ.atoms:
                y = germ.simples[a].target
                if germ.simples[a].source == x and y not in paths:
                    paths[y] = paths[x] + [a]
                    new.append(y)
        frontier = new
    word += paths[goal]
    return normal_form(germ, word, k) if word else delta_power_nf(0, k)


@settings(max_examples=200, deadline=None)
@given(
    name=st.sampled_from(["a2", "rank2", "dual3", "chamber3"]),
    choices=st.lists(st.integers(0, 7), max_size=5),
    k=st.integers(-2, 2),
    q=st.integers(1, 12),
    near=st.booleans(),
    p=st.integers(-6, 8),
)
def test_is_periodic_matches_reference(a2, rank2, dual3, chamber3, name, choices, k, q, near, p):
    germ = {"a2": a2, "rank2": rank2, "dual3": dual3, "chamber3": chamber3}[name]
    gamma = loop_at_first_object(germ, choices, k)
    if near:
        # p next to inf(γ^q), where the early bounds are tightest
        p += power(germ, gamma, q).inf - 1
    want = oracles.reference_is_periodic(germ, gamma, p, q)
    cert = is_periodic(germ, gamma, p, q)
    assert (cert is not None) == want
    if want:
        assert (cert.gamma, cert.p, cert.q) == (gamma, p, q)


def test_is_periodic_stops_at_the_first_broken_bound(a2, monkeypatch):
    calls = []

    def counting_multiply(*args):
        calls.append(args)
        assert len(calls) < 100, "is_periodic is computing every power"
        return multiply(*args)

    monkeypatch.setattr(periodic, "multiply", counting_multiply)
    # sup(s^j) = j, and s^5 breaks sup(s^j) <= 4 - (q - j)·inf(s) = 4
    assert is_periodic(a2, parse_word(a2, "s"), 4, 300_000_000) is None
    assert len(calls) == 4
    calls.clear()
    # a periodic loop stops at its first Δ-power: (sΔ)^3 = Δ^4
    assert is_periodic(a2, parse_word(a2, "s D^1"), 4, 3) is not None
    assert len(calls) == 2
    calls.clear()
    assert is_periodic(a2, parse_word(a2, "s D^1"), 400_000_000, 300_000_000) is not None
    assert is_periodic(a2, parse_word(a2, "s D^1"), 400_000_001, 300_000_000) is None
    assert is_periodic(a2, parse_word(a2, "s D^1"), 4, 4) is None
    assert len(calls) == 4


def test_is_periodic_spends_one_step_per_factor(a2):
    # s^j has j factors and keeps within both bounds until j = q - p, so only
    # the budget ends this search
    budget = Budget(1000)
    with pytest.raises(BudgetExceeded, match="reached power 44$"):
        is_periodic(a2, parse_word(a2, "s"), 150_000_000, 300_000_000, budget)
    assert budget.used == sum(j + 1 for j in range(1, 45))


def test_is_periodic_needs_loop_power(rank2):
    w = parse_word(rank2, "@x aa_x")
    # (a²)³ = Δ²  at x
    assert is_periodic(rank2, w, 2, 3) is not None
    assert is_periodic(rank2, w, 1, 3) is None


def test_find_bestvina_form_examples(a2):
    w = lambda text: parse_word(a2, text)
    for letter in ("s", "t"):
        cert = is_periodic(a2, w(f"{letter} D^1"), 4, 3)
        bf = find_bestvina_form(a2, cert)
        assert isinstance(bf, BestvinaForm)
        assert a2.simple_name(bf.s) == letter and bf.k == 1
        assert bf.conjugator == parse_word(a2, "@x")
        oracles.check_bestvina(a2, bf, 4)

    cert = is_periodic(a2, w("s t"), 2, 3)
    res = find_bestvina_form(a2, cert)
    assert isinstance(res, NoLengthOneRepresentative)
    assert "not congruent" in res.reason


def test_find_bestvina_after_conjugation(a2):
    # an ugly representative of the class of sΔ still finds a length-one form
    from garside.conjugacy import conjugate

    g = conjugate(a2, parse_word(a2, "s D^1"), parse_word(a2, "s t t"))
    assert g.canonical_length > 1
    cert = is_periodic(a2, g, 4, 3)
    assert cert is not None
    bf = find_bestvina_form(a2, cert)
    assert isinstance(bf, BestvinaForm)
    target = parse_word(a2, f"{a2.simple_name(bf.s)} D^1")
    assert multiply(a2, g, bf.conjugator) == multiply(a2, bf.conjugator, target)


def test_bestvina_object_examples(a2):
    w = lambda text: parse_word(a2, text)
    bf = find_bestvina_form(a2, is_periodic(a2, w("s D^1"), 4, 3))
    assert [a2.simple_name(s) for s in bestvina_object(a2, bf)] == ["s", "t", "s"]
    bf_t = find_bestvina_form(a2, is_periodic(a2, w("t D^1"), 4, 3))
    assert [a2.simple_name(s) for s in bestvina_object(a2, bf_t)] == ["t", "s", "t"]
    bf_d = find_bestvina_form(a2, is_periodic(a2, w("@x D^1"), 1, 1))
    assert [a2.simple_name(s) for s in bestvina_object(a2, bf_d)] == ["D"]


def test_slide_words():
    assert beta1_slides(3) == [3, 2, 1]
    assert beta2_slides(3) == [3, 2, 3]
    assert beta2_slides(1) == []
    assert beta2_slides(4) == [4, 3, 2, 4, 3, 4]


def test_necklace_conjugator_a2(a2, a2_div3):
    w = lambda text: parse_word(a2, text)
    bf = find_bestvina_form(a2, is_periodic(a2, w("s D^1"), 4, 3))
    nc = necklace_conjugator(a2, bf)
    lhs = multiply(a2_div3.germ, nc.theta_image, nc.conjugator)
    rhs = multiply(a2_div3.germ, nc.conjugator, nc.delta_power)
    assert lhs == rhs
    assert nc.delta_power == delta_power_nf(
        a2_div3.object_of(tuple(a2.simple_named(n) for n in ("s", "t", "s"))), 4
    )
    assert a2_div3.objects[nc.conjugator.source] == theta_object(a2, 0, 3)


def test_necklace_trivial_q1(a2):
    bf = find_bestvina_form(a2, is_periodic(a2, parse_word(a2, "@x D^1"), 1, 1))
    nc = necklace_conjugator(a2, bf)
    assert nc.conjugator.factors == () and nc.conjugator.delta_exp == 0


def test_theta_equals_beta1_power(a2, a2_div3):
    # Θ_q(sΔ^k) = ψ(β₁^{qk+1}) interpreted from (ε, ε, s₁s₂s₃)
    f = parse_word(a2, "s D^1")
    bf = find_bestvina_form(a2, is_periodic(a2, f, 4, 3))
    src = theta_object(a2, f.source, 3)
    start = ((), (), oracles.twisted_letters(a2, bf.s, bf.k, bf.q))
    ladders, end, final = slide(a2_div3, src, start, beta1_slides(3) * 4)
    assert ladder_nf(a2_div3, src, ladders) == theta_morphism(a2_div3, f)
    assert (end, final) == (src, start)  # β₁^{qk+1} is a loop on the word tuple


def test_psi_beta1_is_garside_map(a2, a2_div3):
    bf = find_bestvina_form(a2, is_periodic(a2, parse_word(a2, "s D^1"), 4, 3))
    b1 = oracles.psi_of_beta1(a2, bf, a2_div3)
    assert b1.factors == () and b1.delta_exp == 1
    assert a2_div3.objects[b1.source] == tuple(
        a2.simple_named(n) for n in ("s", "t", "s")
    )


def test_necklace_multi_object_germ(rank2):
    w = parse_word(rank2, "a_x D^1")
    cert = is_periodic(rank2, w, 4, 3)
    assert cert is not None
    bf = find_bestvina_form(rank2, cert)
    assert isinstance(bf, BestvinaForm)
    nc = necklace_conjugator(rank2, bf)
    assert (
        multiply(nc.divided.germ, nc.theta_image, nc.conjugator)
        == multiply(nc.divided.germ, nc.conjugator, nc.delta_power)
    )


def test_theta_of_periodic_is_conjugate_to_delta_power(a2, a2_div3):
    # cross-module consistency: Θ_3(sΔ) normalizes with inf 3, sup 6 and is
    # conjugate (via the necklace witness) to Δ_3^4, inf = sup = 4
    f = parse_word(a2, "s D^1")
    th = theta_morphism(a2_div3, f)
    assert (th.inf, th.sup) == (3, 6)
    bf = find_bestvina_form(a2, is_periodic(a2, f, 4, 3))
    nc = necklace_conjugator(a2, bf)
    assert (nc.delta_power.inf, nc.delta_power.sup) == (4, 4)


def test_classify_periodic_a2(a2):
    cl = classify_periodic(a2, 4, 3)
    assert len(cl.components) == 1
    names = {
        "(" + ",".join(a2.simple_name(s) for s in t) + ")" for t in cl.components[0]
    }
    assert names == {"(s,t,s)", "(t,s,t)"}
    assert cl.representatives[0] in (parse_word(a2, "s D^1"), parse_word(a2, "t D^1"))


def test_classify_periodic_trivial(a2):
    cl = classify_periodic(a2, 1, 1)
    assert len(cl.components) == 1
    assert cl.representatives == [parse_word(a2, "@x D^1")]


def test_classify_periodic_rank2(rank2):
    # Δ_x is not a loop: no 1/1-periodic loops at all
    cl = classify_periodic(rank2, 1, 1)
    assert cl.components == []
    # but 4/3-periodic loops exist and fall into exactly two classes
    cl43 = classify_periodic(rank2, 4, 3)
    assert len(cl43.components) == 2
    from garside.conjugacy import are_conjugate

    a, b = parse_word(rank2, "a_x D^1"), parse_word(rank2, "b_x D^1")
    assert are_conjugate(rank2, a, b) is None
    reps = {r for r in cl43.representatives}
    assert len(reps) == 2


def test_classify_rejects_bad_pq(a2):
    with pytest.raises(GermError):
        classify_periodic(a2, 2, 3)


def test_dual_braid_half_twist_class(dual3):
    # loops γ with γ² = δ³ (the half twist over the dual structure): all three
    # atoms s satisfy s·s^{φ^{-1}} = δ and they form a single class
    for a in dual3.atoms:
        prod = dual3.product_of(a, dual3.phi_power(a, -1))
        assert prod is not None and dual3.is_delta(prod)
    cl = classify_periodic(dual3, 3, 2)
    assert len(cl.components) == 1
    assert len(cl.components[0]) == 3
    rep = cl.representatives[0]
    cert = is_periodic(dual3, rep, 3, 2)
    assert cert is not None
    bf = find_bestvina_form(dual3, cert)
    assert isinstance(bf, BestvinaForm) and bf.k == 1
    nc = necklace_conjugator(dual3, bf)
    assert (
        multiply(nc.divided.germ, nc.theta_image, nc.conjugator)
        == multiply(nc.divided.germ, nc.conjugator, nc.delta_power)
    )


def test_dual_braid_no_43_periodic(dual3):
    # 3·length(s) = length(δ) = 2 has no solution: no 4/3-periodic loops
    assert classify_periodic(dual3, 4, 3).components == []


def test_braid4_periodic_classes_both_structures(artin4):
    # classical structure on B_4: one class of loops with γ² = Δ³
    cl = classify_periodic(artin4, 3, 2)
    assert len(cl.components) == 1
    bf = find_bestvina_form(artin4, is_periodic(artin4, cl.representatives[0], 3, 2))
    assert isinstance(bf, BestvinaForm)
    nc = necklace_conjugator(artin4, bf)
    assert len(nc.divided.objects) == 24  # |D_2| = one subdivision per simple
    # dual structure: one class of loops with γ³ = δ⁴
    from garside import validate
    from garside.builtins import dual_braid

    d4 = validate(dual_braid(4))
    cl2 = classify_periodic(d4, 4, 3)
    assert len(cl2.components) == 1 and len(cl2.components[0]) == 4
    bf2 = find_bestvina_form(d4, is_periodic(d4, cl2.representatives[0], 4, 3))
    nc2 = necklace_conjugator(d4, bf2)
    assert (
        multiply(nc2.divided.germ, nc2.theta_image, nc2.conjugator)
        == multiply(nc2.divided.germ, nc2.conjugator, nc2.delta_power)
    )


def test_chamber_periodic_loops(chamber3):
    # Δ^p is a loop only for even p; the only small classes are Δ-power ones
    cl = classify_periodic(chamber3, 2, 1)
    assert len(cl.components) == 1
    assert len(cl.components[0]) == len(chamber3.objects)
    # a 4/3-periodic loop would need a length-1 simple from C to its antipode
    assert classify_periodic(chamber3, 4, 3).components == []


def test_classify_artin5_six_fifths_is_the_class_of_delta_cubed():
    # Hand count: p = 6 is even, so Δ⁶ is central; every periodic 5-braid is
    # conjugate to a power of δ = σ₁σ₂σ₃σ₄ or ε = δσ₁ with δ⁵ = ε⁴ = Δ²
    # (Brouwer–Kerékjártó–Eilenberg), and γ⁵ = Δ⁶ holds for δ³ only (ε^j would
    # need 5j = 12). So exactly one class. 𝒢₅ itself has 17,753,440 simples.
    from garside.builtins import artin_symmetric
    from garside.conjugacy import are_conjugate

    artin5 = validate(artin_symmetric(5))
    cl = classify_periodic(artin5, 6, 5)
    assert len(cl.components) == 1
    delta_cubed = parse_word(artin5, "s t u v " * 3)
    assert is_periodic(artin5, delta_cubed, 6, 5) is not None
    assert is_periodic(artin5, cl.representatives[0], 6, 5) is not None
    assert are_conjugate(artin5, delta_cubed, cl.representatives[0]) is not None


def test_classify_with_q_beyond_delta_is_empty_at_once(a2):
    # no simple f has len(f)·1000 = ‖Δ‖ = 3: no fixed object, nothing built
    assert classify_periodic(a2, 1001, 1000).components == []


def test_an_identity_delta_spends_its_q_letters():
    # At an object whose Δ is the identity every q admits a fixed object, the
    # q-letter tuple of identities; past the default budget it is refused.
    point = validate(parse_germ("garside-germ v1\nobject x\n"))
    cl = classify_periodic(point, 6, 5)
    assert [[point.simple_name(s) for s in t] for t in cl.components[0]] == [["id@x"] * 5]
    with pytest.raises(BudgetExceeded, match="fixed objects of 3000000 letters"):
        classify_periodic(point, 3_000_001, 3_000_000)


def product_lookups(germ, run, *args) -> int:
    """Base-germ product lookups of run(germ, *args)."""
    saved = germ.product
    germ.product = counting = CountingDict(saved)
    try:
        run(germ, *args)
    finally:
        germ.product = saved
    return counting.lookups


def test_product_lookups_where_delta_is_the_identity():
    # classify at q = 10^6 reads its one ladder's target (1); its one fixed
    # object, q identities, is decided by lengths (a fold would add 999,999).
    # The necklace at q = 156 reads one product per slide of β₂ (12,090),
    # after 778 to build 𝒢_156 (a fold would add 155). Reading each target
    # column by column would cost 1,999,999 and 1,886,973.
    point = validate(parse_germ("garside-germ v1\nobject x\n"))
    assert product_lookups(point, classify_periodic, 1, 10**6) == 1
    cert = is_periodic(point, parse_word(point, "@x"), 157, 156)
    bf = find_bestvina_form(point, cert)
    assert product_lookups(point, necklace_conjugator, bf) == 12_868


def test_centralizer_examples(a2, rank2):
    rep = fixed_subgerm(a2, 1)
    assert [rep.subgerm.simple_name(x) for x in rep.subgerm.atoms] == ["D"]
    rep2 = fixed_subgerm(a2, 2)
    assert len(rep2.subgerm.simples) == len(a2.simples)
    rep3 = fixed_subgerm(rank2, 2)
    assert len(rep3.subgerm.simples) == len(rank2.simples)
    assert fixed_subgerm(rank2, 1).is_empty
