from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from garside import (
    GermError,
    GermSyntaxError,
    GermTable,
    GermValidationError,
    parse_germ,
    table_to_text,
    validate,
)
from garside import builtins as germ_builtins
from garside import divided

import oracles


def test_parse_a2(a2_text):
    table = parse_germ(a2_text)
    assert [o.name for o in table.objects] == ["x"]
    assert len(table.simples) == 6  # identity included
    names = {s.name for s in table.simples}
    assert names == {"id@x", "s", "t", "st", "ts", "D"}


def test_parse_single_object():
    table = parse_germ("garside-germ v1\nobject x\n")
    assert len(table.objects) == 1
    assert len(table.simples) == 1
    assert table.simples[0].length == 0


def test_empty_germ_is_allowed():
    germ = validate(parse_germ("garside-germ v1\n"))
    assert germ.objects == [] and germ.phi_order == 1


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("object x\n", "header"),
        ("garside-germ v1\nobject x\nobject x\n", "duplicate"),
        ("garside-germ v1\nobject x\nsimple s : x -> y\n", "unknown object"),
        ("garside-germ v1\nobject x\nwhatever s\n", "unknown directive"),
        ("garside-germ v1\nobject x\nsimple s : x -> x\nsimple t : x -> x\n"
         "simple u : x -> x\nproduct s t = u\n", "non-additive"),
        ("garside-germ v1\nobject x\nsimple product : x -> x\n", "illegal name"),
        ("garside-germ v1\nobject x\nsimple s : x -> x\ndelta y = s\n",
         "delta y = s references unknown object 'y'"),
        ("garside-germ v1\nobject x\nsimple s : x -> x\ndelta x = u\n",
         "delta x = u references unknown simple 'u'"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(GermSyntaxError) as err:
        parse_germ(text)
    assert fragment in str(err.value)


def test_parse_endpoint_mismatch():
    text = (
        "garside-germ v1\nobject x\nobject y\n"
        "simple s : x -> x\nsimple t : y -> y\nsimple u : x -> y len 2\n"
        "product s t = u\n"
    )
    with pytest.raises(GermSyntaxError) as err:
        parse_germ(text)
    assert "endpoints mismatched" in str(err.value)


def test_syntax_error_reports_line():
    with pytest.raises(GermSyntaxError) as err:
        parse_germ("garside-germ v1\nobject x\nsimple s x -> x\n")
    assert err.value.line == 3


def test_validate_a2(a2):
    assert [a2.simple_name(d) for d in a2.delta] == ["D"]
    comp = {s.name: a2.simple_name(a2.complement[s.id]) for s in a2.simples}
    assert comp == {"id@x": "D", "s": "ts", "t": "st", "st": "s", "ts": "t", "D": "id@x"}
    phi = {s.name: a2.simple_name(a2.phi_simple[s.id]) for s in a2.simples}
    assert phi == {"id@x": "id@x", "s": "t", "t": "s", "st": "ts", "ts": "st", "D": "D"}
    assert a2.phi_order == 2
    assert sorted(a2.simple_name(a) for a in a2.atoms) == ["s", "t"]


def test_validate_rank2(rank2):
    # Delta at x points to y and phi swaps the objects
    dx = rank2.simples[rank2.delta[rank2.object_named("x")]]
    assert rank2.object_name(dx.target) == "y"
    assert rank2.phi_order == 2
    assert rank2.phi_obj[rank2.object_named("x")] == rank2.object_named("y")


def test_validate_missing_product_breaks_garside(a2_text):
    broken = a2_text.replace("product st s = D\n", "")
    with pytest.raises(GermValidationError):
        validate(parse_germ(broken))


def test_validate_cancellativity_witness():
    text = (
        "garside-germ v1\nobject x\n"
        "simple a : x -> x\nsimple u : x -> x\nsimple v : x -> x\n"
        "simple c : x -> x len 2\n"
        "product a u = c\nproduct a v = c\n"
    )
    with pytest.raises(GermValidationError) as err:
        validate(parse_germ(text))
    assert "cancellativity" in str(err.value)


# Passes every axiom up to and including the complement anti-isomorphism,
# but (u, v) has two maximal common lower bounds.
NON_LATTICE = """garside-germ v1
object x
simple a : x -> x
simple b : x -> x
simple u : x -> x len 2
simple v : x -> x len 2
simple D : x -> x len 3
product a a = v
product a b = u
product b a = u
product b b = v
product a v = D
product b u = D
product u b = D
product v a = D
"""


def test_validate_lattice_failure_with_witness():
    with pytest.raises(GermValidationError) as err:
        validate(parse_germ(NON_LATTICE))
    # (a, b) has two minimal upper bounds u, v; the witness pair is reported
    assert "lacks a" in str(err.value)
    assert "(a, b)" in str(err.value)


# Δ_x = a has length 2 and Δ_y = b length 1: every axiom before φ holds, but
# φ = ∂² sends a to b and so does not preserve lengths.
UNEVEN_DELTAS = """garside-germ v1
object x
object y
simple a : x -> y len 2
simple b : y -> x
delta x = a
delta y = b
"""


def test_validate_phi_failure_says_phi():
    with pytest.raises(GermValidationError) as err:
        validate(parse_germ(UNEVEN_DELTAS))
    assert "phi" in str(err.value)
    assert "'a'" in str(err.value)


def test_left_divides_and_quotient(a2):
    # a ≼ c is `a in divisors[c]`, and the quotient b with a·b = c is divisors[c][a].
    s, t = a2.simple_named("s"), a2.simple_named("t")
    st, ts, D = a2.simple_named("st"), a2.simple_named("ts"), a2.simple_named("D")
    one = a2.identity[0]
    assert s in a2.divisors[st]
    assert s not in a2.divisors[ts]
    assert one in a2.divisors[ts]
    assert a2.simple_name(a2.divisors[st][s]) == "t"
    assert a2.simple_name(a2.divisors[D][s]) == "ts"
    assert a2.divisors[t][t] == one
    assert st not in a2.divisors[s]


def test_meet_join_examples(a2):
    s, t, st = a2.simple_named("s"), a2.simple_named("t"), a2.simple_named("st")
    assert a2.meet(s, t) == a2.identity[0]
    assert oracles.minima(a2, oracles.upper_bounds(a2, s, t)) == [a2.simple_named("D")]
    assert oracles.minima(a2, oracles.upper_bounds(a2, s, st)) == [st]


def test_meet_needs_a_common_source(rank2):
    ax, ay = rank2.simple_named("a_x"), rank2.simple_named("a_y")
    with pytest.raises(GermError, match="^meet: source mismatch$"):
        rank2.meet(ax, ay)


@pytest.mark.parametrize("family,param", [("artin_symmetric", 5), ("dihedral_chamber", 6)])
def test_validated_germ_holds_no_table_larger_than_its_products(family, param):
    # Meets are bitmask lookups and quotients sit in one row per
    # simple; apart from the product itself, no table over pairs of simples
    # (artin5 has 14,400 same-source pairs, 1,899 divisor pairs) may come back.
    germ = validate(germ_builtins.build(family, param))
    bound = len(germ.simples) + len(germ.objects)
    sizes = {
        k: len(v) for k, v in vars(germ).items()
        if isinstance(v, (list, dict)) and k != "product"
    }
    assert sizes and all(n <= bound for n in sizes.values()), (bound, sizes)


@cache
def order_base(name: str) -> GermTable:
    if name == "a2":
        return parse_germ((Path(__file__).parent / "data" / "a2.germ").read_text(encoding="utf-8"))
    if name == "a2/2":
        return divided.build_divided_germ(validate(order_base("a2")), 2).germ
    family, _, param = name.partition(":")
    return germ_builtins.build(family, int(param) if param else None)


ORDER_BASES = [
    "a2", "a2/2", "artin_symmetric:4", "dual_braid:3", "dihedral_chamber:3", "rank2_counterexample"
]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ORDER_BASES), st.randoms(use_true_random=False))
def test_validation_does_not_depend_on_product_order(name, rnd):
    # The divisor index fills its rows in product order; everything derived
    # from it, and the divided germ built on it, must not.
    table = oracles.copy_table(order_base(name))
    items = list(table.product.items())
    rnd.shuffle(items)
    shuffled = table._replace(product=dict(items))
    want, got = validate(table), validate(shuffled)
    for attr in ("delta", "complement", "phi_simple", "atoms"):
        assert getattr(got, attr) == getattr(want, attr), attr
    assert [sorted(row) for row in got.divisors] == [sorted(row) for row in want.divisors]
    if name == "a2":
        texts = [table_to_text(divided.build_divided_germ(g, 3).germ) for g in (got, want)]
        assert texts[0] == texts[1]


def test_complement_examples(a2):
    s, D, one = a2.simple_named("s"), a2.simple_named("D"), a2.identity[0]
    assert a2.simple_name(a2.complement[s]) == "ts"
    assert a2.complement[D] == one
    assert a2.complement[one] == D


def test_phi_power(a2):
    s, D = a2.simple_named("s"), a2.simple_named("D")
    assert a2.simple_name(a2.phi_power(s, 1)) == "t"
    assert a2.phi_power(s, 2) == s
    assert a2.phi_power(s, -1) == a2.phi_power(s, 1)
    for n in (-3, 0, 5):
        assert a2.phi_power(D, n) == D


@pytest.mark.parametrize("germ_name", ["a2", "dual3", "chamber3", "rank2"])
def test_lattice_laws_exhaustive(germ_name, request):
    germ = request.getfixturevalue(germ_name)
    for obj in germ.objects:
        out = germ.by_source[obj.id]
        for a in out:
            for b in out:
                m = germ.meet(a, b)
                lows = oracles.lower_bounds(germ, a, b)
                assert m in lows
                assert all(oracles.divides(germ, c, m) for c in lows)


@pytest.mark.parametrize("germ_name", ["a2", "dual3", "rank2"])
def test_double_complement_is_phi(germ_name, request):
    germ = request.getfixturevalue(germ_name)
    for s in germ.simples:
        assert germ.complement[germ.complement[s.id]] == germ.phi_simple[s.id]


@pytest.mark.parametrize("germ_name", ["a2", "dual3", "rank2"])
def test_quotient_associativity(germ_name, request):
    germ = request.getfixturevalue(germ_name)
    for s in germ.simples:
        dx = germ.delta[s.source]
        for t in germ.by_source[s.source]:
            if s.id not in germ.divisors[t]:
                continue
            left = germ.divisors[t][s.id]
            right = germ.divisors[dx][t]
            prod = germ.product_of(left, right)
            assert prod == germ.divisors[dx][s.id]


@pytest.mark.parametrize("germ_name", ["a2", "dual3", "chamber3", "rank2"])
def test_phi_is_automorphism(germ_name, request):
    germ = request.getfixturevalue(germ_name)
    for (a, b), c in germ.product.items():
        assert germ.product[(germ.phi_simple[a], germ.phi_simple[b])] == germ.phi_simple[c]
    for s in germ.simples:
        img = germ.simples[germ.phi_simple[s.id]]
        assert img.length == s.length
        assert img.source == germ.phi_obj[s.source]


def test_artin3_matches_handwritten_a2(artin3, a2):
    assert oracles.germ_isomorphism(artin3, a2) is not None
    # and the name-preserving map is itself an isomorphism
    to_a2 = {s.id: a2.simple_named(s.name) for s in artin3.simples}
    for (a, b), c in artin3.product.items():
        assert a2.product[(to_a2[a], to_a2[b])] == to_a2[c]
    assert len(artin3.product) == len(a2.product)


def test_serialization_roundtrip(a2):
    text = table_to_text(a2)
    again = validate(parse_germ(text))
    assert oracles.germ_isomorphism(a2, again) is not None
    assert table_to_text(again) == text
