"""
The slide evaluator of garside.divided and the nondegenerate nerve
simplices walked as strict chains, against the loops they replaced
(oracles.py): Θ_m of every simple and of drawn words, ψ(β₁) and ψ(β₂) of
every Bestvina form, and the n-simplex lists without identity factors, in
the same order.
"""

from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from garside import GermError, builtins, divided, normal_form, parse_germ, validate
from garside.nerve import enumerate_nondegenerate
from garside.periodic import (
    BestvinaForm,
    beta2_slides,
    bestvina_object,
    necklace_conjugator,
)
from garside.words import delta_power_nf, identity_nf

import oracles

DATA = Path(__file__).parent / "data"
BASES = {
    "a2": lambda: parse_germ((DATA / "a2.germ").read_text(encoding="utf-8")),
    "rank2": builtins.rank2_counterexample,
    "dual3": lambda: builtins.dual_braid(3),
    "dual4": lambda: builtins.dual_braid(4),
    "chamber3": lambda: builtins.dihedral_chamber(3),
    "artin4": lambda: builtins.artin_symmetric(4),
}

THETA = [(n, m) for n in ("a2", "rank2", "dual3", "chamber3") for m in (1, 2, 3)]
THETA += [("artin4", 1), ("artin4", 2)]
NECKLACE = [(n, (1, 2, 3)) for n in ("a2", "dual3", "dual4", "rank2")] + [("artin4", (2,))]
# name -> number of Bestvina forms over the q of NECKLACE
NECKLACE_FORMS = {"a2": 4, "dual3": 6, "dual4": 8, "rank2": 6, "artin4": 4}


@cache
def base(name):
    return validate(BASES[name]())


@cache
def divided_germ(name, m):
    return divided.build_divided_germ(base(name), m)


@pytest.mark.parametrize("name,m", THETA)
def test_theta_of_every_simple_matches_slide_loop(name, m):
    dg = divided_germ(name, m)
    for s in dg.base.simples:
        assert oracles.theta_simple(dg, s.id) == oracles.reference_theta_simple(dg, s.id)


@st.composite
def theta_case(draw):
    """A divided germ and a base morphism: a composable word times Δ^k, k in -2..2."""
    name, m = draw(st.sampled_from(THETA))
    germ = base(name)
    source = at = draw(st.integers(0, len(germ.objects) - 1))
    word = []
    for _ in range(draw(st.integers(0, 6))):
        word.append(draw(st.sampled_from(germ.by_source[at])))
        at = germ.simples[word[-1]].target
    k = draw(st.integers(-2, 2))
    f = normal_form(germ, word, k) if word else delta_power_nf(source, k)
    return divided_germ(name, m), f


@settings(max_examples=300, deadline=None)
@given(theta_case())
def test_theta_morphism_matches_one_product_per_factor(case):
    dg, f = case
    assert divided.theta_morphism(dg, f) == oracles.reference_theta_morphism(dg, f)


def bestvina_forms(germ, q):
    """
    Every (s, k, q) meeting the twisted product condition whose letter tuple
    the p-th shift fixes, p = qk+1; one k per φ-twist.
    """
    out = []
    for s in germ.simples:
        for k in range(germ.phi_order):
            bf = BestvinaForm(s.id, k, q, identity_nf(s.source))
            try:
                bestvina_object(germ, bf)
            except GermError:
                continue
            out.append(bf)
    return out


@pytest.mark.parametrize("name,qs", NECKLACE, ids=[n for n, _ in NECKLACE])
def test_psi_of_beta1_and_beta2_match_slide_loop(name, qs):
    germ = base(name)
    checked = 0
    for q in qs:
        dg = divided_germ(name, q)
        for bf in bestvina_forms(germ, q):
            letters = list(oracles.twisted_letters(germ, bf.s, bf.k, q))
            singles = [[sid] for sid in letters]
            beta1 = divided.beta1_slides(q)
            want, want_words = oracles.reference_apply_slides(germ, dg, singles, beta1)
            assert oracles.psi_of_beta1(germ, bf, dg) == want
            _, _, words = divided.slide(dg, tuple(letters), tuple(map(tuple, singles)), beta1)
            assert list(map(list, words)) == want_words

            start = [[] for _ in range(q - 1)] + [letters]
            want, final = oracles.reference_apply_slides(germ, dg, start, beta2_slides(q))
            assert final == singles
            assert necklace_conjugator(germ, bf).conjugator == want
            checked += 1
    assert checked == NECKLACE_FORMS[name]


@pytest.mark.parametrize("name", sorted(BASES))
def test_simplices_are_the_walked_tuples_in_order(name):
    germ = base(name)
    for n in range(4):
        levels = enumerate_nondegenerate(germ, n)
        got = [(sx.basepoint, sx.factors) for sx in (levels[n] if n < len(levels) else [])]
        assert got == [
            (x, f) for x, f in oracles.walk_simplices(germ, n)
            if not any(map(germ.is_identity, f))
        ]
