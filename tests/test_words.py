from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from garside import (
    GermError,
    NormalForm,
    format_word,
    identity_nf,
    invert,
    multiply,
    normal_form,
    parse_germ,
    parse_word,
    power,
    validate,
)
from garside.words import (
    delta_power_nf,
    is_loop,
    target,
)

import oracles

# hypothesis @given cannot consume pytest fixtures; build the germ once here
A2 = validate(parse_germ((Path(__file__).parent / "data" / "a2.germ").read_text()))


def test_normal_form_examples(a2):
    s, t = a2.simple_named("s"), a2.simple_named("t")
    assert normal_form(a2, [s]) == NormalForm(0, (s,), 0)
    assert normal_form(a2, [s, t, s]) == NormalForm(0, (), 1)
    assert normal_form(a2, [s, t, s, t]) == NormalForm(0, (s,), 1)
    assert normal_form(a2, [t, t]) == NormalForm(0, (t, t), 0)


def test_normal_form_with_shift(a2):
    s = a2.simple_named("s")
    f = normal_form(a2, [s], -1)
    assert f == NormalForm(0, (s,), -1)
    assert f.inf == -1 and f.sup == 0 and f.canonical_length == 1


def test_non_composable_word(rank2):
    ax = rank2.simple_named("a_x")
    with pytest.raises(GermError):
        normal_form(rank2, [ax, ax])  # a_x: x->y cannot follow itself


def test_multiply_examples(a2):
    s, t, st = (a2.simple_named(n) for n in ("s", "t", "st"))
    assert multiply(a2, normal_form(a2, [s]), normal_form(a2, [t])) == NormalForm(0, (st,), 0)
    f = multiply(a2, normal_form(a2, [s], 1), normal_form(a2, [s]))
    assert f == NormalForm(0, (st,), 1)
    assert multiply(a2, delta_power_nf(0, 1), delta_power_nf(0, -1)) == identity_nf(0)


def test_invert_examples(a2):
    s, ts = a2.simple_named("s"), a2.simple_named("ts")
    assert invert(a2, normal_form(a2, [s])) == NormalForm(0, (ts,), -1)
    assert invert(a2, delta_power_nf(0, 1)) == delta_power_nf(0, -1)


def test_equal_examples(a2):
    s, t = a2.simple_named("s"), a2.simple_named("t")
    assert normal_form(a2, [s, t, s]) == normal_form(a2, [t, s, t])
    assert normal_form(a2, [s, s, t, s]) == normal_form(a2, [s, t, s, t])
    assert normal_form(a2, [s]) != normal_form(a2, [t])


def test_phi_on_morphism_examples(a2):
    st, ts, s = (a2.simple_named(n) for n in ("st", "ts", "s"))
    assert oracles.phi_on_morphism(a2, normal_form(a2, [st]), 1) == NormalForm(0, (ts,), 0)
    assert oracles.phi_on_morphism(a2, normal_form(a2, [s], 1), 2) == NormalForm(0, (s,), 1)
    assert oracles.phi_on_morphism(a2, identity_nf(0), 5) == identity_nf(0)


def test_power_examples(a2):
    st, s = a2.simple_named("st"), a2.simple_named("s")
    assert power(a2, normal_form(a2, [st]), 3) == delta_power_nf(0, 2)
    assert power(a2, normal_form(a2, [s], 1), 3) == delta_power_nf(0, 4)
    f = normal_form(a2, [st])
    assert power(a2, f, 0) == identity_nf(0)
    assert power(a2, f, -2) == invert(a2, power(a2, f, 2))
    for n in range(-3, 4):
        assert oracles.is_greedy(a2, power(a2, f, n))


def test_power_requires_loop(rank2):
    ax = rank2.simple_named("a_x")
    f = normal_form(rank2, [ax])
    with pytest.raises(GermError):
        power(rank2, f, 2)


def test_target_twists_with_delta(rank2):
    x, y = rank2.object_named("x"), rank2.object_named("y")
    assert target(rank2, delta_power_nf(x, 1)) == y
    assert target(rank2, delta_power_nf(x, 2)) == x
    assert target(rank2, delta_power_nf(x, -1)) == y
    ax = rank2.simple_named("a_x")
    assert is_loop(rank2, normal_form(rank2, [ax], 1))


def test_word_syntax(a2):
    f = parse_word(a2, "@x s t D^-1")
    assert f == NormalForm(0, (a2.simple_named("st"),), -1)
    assert parse_word(a2, "@x") == identity_nf(0)
    assert parse_word(a2, "@x D^3") == delta_power_nf(0, 3)
    with pytest.raises(GermError):
        parse_word(a2, "D^2")  # ambiguous without @object
    with pytest.raises(KeyError):
        parse_word(a2, "nosuch")


def test_delta_zero_before_the_first_simple(a2):
    assert parse_word(a2, "D^0 s") == parse_word(a2, "s")


def test_format_word_roundtrip(a2):
    for text in ("@x", "@x D^-2", "s", "t t", "s t D^1"):
        f = parse_word(a2, text)
        assert parse_word(a2, format_word(a2, f)) == f


def test_confluence_short_words(a2):
    # every one-step rewrite preserves the normal form (length <= 3 here;
    # the acceptance suite runs the full length-5 sweep)
    for word in oracles.all_words(a2, 0, 3):
        if not word:
            continue
        base = normal_form(a2, list(word))
        for rewritten in oracles.word_rewrites(a2, word):
            got = (
                normal_form(a2, list(rewritten))
                if rewritten
                else identity_nf(0)
            )
            assert got == base


def test_inf_sup_subadditive(a2):
    elements = {normal_form(a2, list(w)) for w in oracles.all_words(a2, 0, 4) if w}
    elements = sorted(elements, key=lambda f: (f.delta_exp, f.factors))
    for f in elements:
        for g in elements:
            h = multiply(a2, f, g)
            assert h.inf >= f.inf + g.inf
            assert h.sup <= f.sup + g.sup


def test_naturality_on_simples(a2):
    for s in a2.simples:
        f = normal_form(a2, [s.id])
        lhs = multiply(a2, f, delta_power_nf(target(a2, f), 1))
        rhs = multiply(a2, delta_power_nf(f.source, 1), oracles.phi_on_morphism(a2, f, 1))
        assert lhs == rhs


def test_positive_word_validation(a2):
    # a positive word is a list or tuple of composable simple ids
    s = a2.simple_named("s")
    assert normal_form(a2, (s, s)) == normal_form(a2, [s, s]) == NormalForm(0, (s, s), 0)


words_strategy = st.lists(st.integers(min_value=0, max_value=5), min_size=0, max_size=7)


@settings(max_examples=300, deadline=None)
@given(words_strategy, st.integers(min_value=-2, max_value=2))
def test_normal_form_is_greedy_hypothesis(word, shift):
    f = normal_form(A2, word, shift) if word else delta_power_nf(0, shift)
    assert oracles.is_greedy(A2, f)


@settings(max_examples=200, deadline=None)
@given(words_strategy)
def test_invert_involutive_hypothesis(word):
    f = normal_form(A2, word) if word else identity_nf(0)
    assert invert(A2, invert(A2, f)) == f
    assert multiply(A2, f, invert(A2, f)) == identity_nf(0)
    assert multiply(A2, invert(A2, f), f) == identity_nf(0)


@settings(max_examples=200, deadline=None)
@given(words_strategy, words_strategy)
def test_multiply_matches_concatenation_hypothesis(w1, w2):
    f = normal_form(A2, w1) if w1 else identity_nf(0)
    g = normal_form(A2, w2) if w2 else identity_nf(0)
    assert multiply(A2, f, g) == (normal_form(A2, w1 + w2) if w1 + w2 else identity_nf(0))


@pytest.mark.parametrize(
    "germ_name,text,kind,message",
    [
        ("a2", "s zz", KeyError, "no simple named 'zz'"),
        ("a2", "D^2", GermError, "ambiguous word: prefix it with @<object>"),
        ("a2", "@zz s", KeyError, "no object named 'zz'"),
        ("rank2", "a_x a_x", GermError, "multiply: endpoint mismatch"),
        ("rank2", "@x D^1 a_x", GermError, "multiply: endpoint mismatch"),
    ],
)
def test_parse_word_errors(request, germ_name, text, kind, message):
    germ = request.getfixturevalue(germ_name)
    with pytest.raises(kind) as err:
        parse_word(germ, text)
    assert type(err.value) is kind and err.value.args == (message,)
