"""
The append-and-repair kernel of garside.words against the fixpoint kernel in
oracles.py: the same NormalForm from normal_form, multiply and parse_word on
every builtin and on divided germs, invert against the closed-form inverse,
and a pinned count of the meet lookups that shows the work saved.
"""

import random
from functools import cache
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from garside import (
    GermError, builtins, divided, invert, multiply, normal_form, parse_germ, parse_word, validate,
)
from garside.words import delta_power_nf, identity_nf, target

import oracles

BUILTINS = (
    [("artin_symmetric", n) for n in range(2, 6)]
    + [("dual_braid", n) for n in range(2, 7)]
    + [("dihedral_chamber", m) for m in range(2, 9)]
    + [("rank2_counterexample", None)]
)
DIVIDED = [("a2", 3), ("rank2", 3), ("chamber3", 2), ("dual3", 2)]
GERMS = BUILTINS + [("divided", case) for case in DIVIDED]

BASES = {
    "a2": lambda: parse_germ((Path(__file__).parent / "data" / "a2.germ").read_text(encoding="utf-8")),
    "rank2": builtins.rank2_counterexample,
    "chamber3": lambda: builtins.dihedral_chamber(3),
    "dual3": lambda: builtins.dual_braid(3),
}


@cache
def germ_for(family, param):
    if family == "divided":
        name, m = param
        return divided.build_divided_germ(validate(BASES[name]()), m).germ
    return validate(builtins.build(family, param))


def draw_simple(draw, germ, at: int) -> int:
    """A simple out of `at`, with Δ's, identities and atoms drawn often."""
    pick = draw(st.integers(0, 7))
    atoms = [a for a in germ.atoms if germ.simples[a].source == at]
    if pick == 0:
        return germ.delta[at]
    if pick == 1:
        return germ.identity[at]
    if pick <= 3 and atoms:
        return draw(st.sampled_from(atoms))
    return draw(st.sampled_from(germ.by_source[at]))


@st.composite
def germ_and_word(draw, max_len: int = 16):
    """A germ, an object of it, and a composable word of simples out of that object."""
    germ = germ_for(*draw(st.sampled_from(GERMS)))
    source = at = draw(st.integers(0, len(germ.objects) - 1))
    word = []
    for _ in range(draw(st.integers(0, max_len))):
        word.append(draw_simple(draw, germ, at))
        at = germ.simples[word[-1]].target
    return germ, source, word


shifts = st.integers(-3, 3)


@settings(max_examples=400, deadline=None)
@given(germ_and_word(), shifts)
def test_normal_form_matches_fixpoint(case, shift):
    germ, source, word = case
    got = normal_form(germ, word, shift) if word else delta_power_nf(source, shift)
    assert got == oracles.fixpoint_normalize(germ, source, list(word), shift)


@settings(max_examples=300, deadline=None)
@given(st.data(), germ_and_word(), shifts, shifts)
def test_multiply_matches_fixpoint(data, case, shift_f, shift_g):
    germ, source, word = case
    f = oracles.fixpoint_normalize(germ, source, list(word), shift_f)
    at = g_source = target(germ, f)
    g_word = []
    for _ in range(data.draw(st.integers(0, 16))):
        g_word.append(draw_simple(data.draw, germ, at))
        at = germ.simples[g_word[-1]].target
    g = oracles.fixpoint_normalize(germ, g_source, g_word, shift_g)
    assert multiply(germ, f, g) == oracles.fixpoint_multiply(germ, f, g)


def outcome(parse, germ, text):
    try:
        return parse(germ, text)
    except (GermError, KeyError) as exc:
        return type(exc).__name__, exc.args


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from(GERMS))
def test_parse_word_matches_fixpoint(data, key):
    # Mostly composable words with D^k tokens; now and then any simple, so
    # that the endpoint-mismatch error is compared too.
    germ = germ_for(*key)
    source = at = data.draw(st.integers(0, len(germ.objects) - 1))
    toks = [f"@{germ.object_name(source)}"]
    for _ in range(data.draw(st.integers(0, 16))):
        kind = data.draw(st.integers(0, 9))
        if kind <= 1:
            k = data.draw(shifts)
            toks.append(f"D^{k}")
            at = germ.phi_power_obj(at, k)
            continue
        if kind == 2:
            sid = data.draw(st.integers(0, len(germ.simples) - 1))
        else:
            sid = draw_simple(data.draw, germ, at)
        toks.append(germ.simple_name(sid))
        at = germ.simples[sid].target
    text = " ".join(toks)
    assert outcome(parse_word, germ, text) == outcome(oracles.fixpoint_parse_word, germ, text)


@settings(max_examples=300, deadline=None)
@given(germ_and_word(), shifts)
def test_invert_matches_the_closed_form(case, shift):
    # On every builtin and divided germ, not only A₂: invert gives the closed
    # form, is an involution, and f·f⁻¹ and f⁻¹·f are identities.
    germ, source, word = case
    f = normal_form(germ, word, shift) if word else delta_power_nf(source, shift)
    inverse = invert(germ, f)
    assert inverse == oracles.closed_form_inverse(germ, f)
    assert invert(germ, inverse) == f
    assert multiply(germ, f, inverse) == identity_nf(source)
    assert multiply(germ, inverse, f) == identity_nf(target(germ, f))


class CountingDict(dict):
    """A dict that counts its reads."""

    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)


def meet_lookups(germ, kernel, *args):
    """Run kernel(germ, *args) with the dicts of germ.lkey counting; return (lookups, result)."""
    saved = germ.lkey
    germ.lkey = counting = [CountingDict(keys) for keys in saved]
    try:
        result = kernel(germ, *args)
    finally:
        germ.lkey = saved
    return sum(keys.lookups for keys in counting), result


# Meet lookups of the append-and-repair kernel on the word below; the
# fixpoint kernel spends 1,074,435. An append can cost up to the canonical
# length so far, so the count is not linear in the word length: the same
# construction with n atoms and seed n gives 574, 1,890, 4,656 and 20,312
# lookups at n = 200, 400, 800 and 1600.
ARTIN4_1600_MEETS = 20_312


def test_meet_lookups_of_a_long_artin4_word(artin4):
    rng = random.Random(1600)
    word = [rng.choice(artin4.atoms) for _ in range(1600)]
    fast, got = meet_lookups(artin4, normal_form, word)
    slow, want = meet_lookups(artin4, oracles.fixpoint_normalize, 0, list(word), 0)
    assert got == want
    assert fast == ARTIN4_1600_MEETS
    assert slow >= 50 * fast
