"""
validate against the set-based reference validator in oracles.py: the same
derived tables, the same quotient of every divisor pair, and the same meet
and join of every same-source pair, on every builtin, divided and fixed germ,
and the same verdict and message on mutated product tables, on those germs
cut below their longest Δ, on cyclic crowns, which fail only the lattice,
and on hand-made tables for the checks that no other table trips.
"""

import re
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from garside import GermError, GermTable, builtins, divided, parse_germ, validate
from garside.conjugacy import fixed_subgerm
from garside.germ import assemble_table

import oracles
from test_germ import NON_LATTICE, UNEVEN_DELTAS

DERIVED = ("delta", "complement_", "phi_simple", "phi_order", "atoms")

BUILTINS = (
    [("artin_symmetric", n) for n in range(2, 6)]
    + [("dual_braid", n) for n in range(2, 7)]
    + [("dihedral_chamber", m) for m in range(2, 13)]
    + [("rank2_counterexample", None)]
)


def copy_table(t) -> GermTable:
    """A fresh GermTable with the same ids and product order (also from a validated germ)."""
    return GermTable(t.objects, t.simples, dict(t.product), list(t.identity), dict(t.declared_delta))


def lattice(germ) -> tuple[dict, dict]:
    """germ.meet and germ.join of every same-source pair, keyed by the pair."""
    pairs = [(a, b) for out in germ.by_source for a in out for b in out]
    return {p: germ.meet(*p) for p in pairs}, {p: germ.join(*p) for p in pairs}


def outcome(check, table):
    try:
        germ = check(copy_table(table))
    except GermError as exc:
        return type(exc).__name__, str(exc)
    if check is oracles.reference_validate:
        tables = (germ.lquot, germ.meet_table, germ.join_table)
    else:
        quotients = {(a, c): b for c, row in enumerate(germ.divisors) for a, b in row.items()}
        tables = (quotients, *lattice(germ))
    return "ok", tuple(getattr(germ, attr) for attr in DERIVED) + tables


def assert_agrees(table) -> None:
    got, want = outcome(validate, table), outcome(oracles.reference_validate, table)
    assert got == want


@cache
def base_table(name: str) -> GermTable:
    if name == "a2":
        return parse_germ((Path(__file__).parent / "data" / "a2.germ").read_text(encoding="utf-8"))
    return {
        "rank2": builtins.rank2_counterexample,
        "chamber3": lambda: builtins.dihedral_chamber(3),
        "dual3": lambda: builtins.dual_braid(3),
    }[name]()


DIVIDED = [("a2", 3), ("rank2", 3), ("chamber3", 2), ("dual3", 2)]


@cache
def divided_germ(name: str, m: int):
    return divided.build_divided_germ(validate(base_table(name)), m).germ


@pytest.mark.parametrize("family,param", BUILTINS)
def test_builtin_matches_reference(family, param):
    assert_agrees(builtins.build(family, param))


@pytest.mark.parametrize("name,m", DIVIDED)
def test_divided_germ_matches_reference(name, m):
    assert_agrees(divided_germ(name, m))


def fixed_germs():
    cases = [(name, None) for name in ("a2", "rank2", "chamber3", "dual3")] + DIVIDED
    for name, m in cases:
        germ = validate(base_table(name)) if m is None else divided_germ(name, m)
        for p in range(1, germ.phi_order):
            report = fixed_subgerm(germ, p)
            if not report.is_empty:
                yield pytest.param(report.subgerm, id=f"{name}-m{m}-p{p}")
    # the φ_q^p-fixed part of 𝒢_q, read off the base germ
    for name in ("a2", "rank2", "dual3"):
        for q in (2, 3):
            report = fixed_subgerm(validate(base_table(name)), q + 1, q)
            if not report.is_empty:
                yield pytest.param(report.subgerm, id=f"{name}-q{q}-p{q + 1}")


@pytest.mark.parametrize("sub", list(fixed_germs()))
def test_fixed_subgerm_matches_reference(sub):
    assert_agrees(sub)


# NON_LATTICE with u and v declared first, so the pair (u, v) lacking a meet
# comes before the pair (a, b) lacking a join.
NO_MEET = NON_LATTICE.replace("simple u : x -> x len 2\nsimple v : x -> x len 2\n", "").replace(
    "object x\n", "object x\nsimple u : x -> x len 2\nsimple v : x -> x len 2\n"
)


# a·c = b·c = d with a ≠ b: associative and left cancellative, but not right
# cancellative.
RIGHT_CANCEL = """garside-germ v1
object x
simple a : x -> x
simple b : x -> x
simple c : x -> x
simple d : x -> x len 2
product a c = d
product b c = d
"""


LATER_FAILURES = {"non_lattice": NON_LATTICE, "no_meet": NO_MEET, "uneven_deltas": UNEVEN_DELTAS}


@pytest.mark.parametrize(
    "text,message",
    [
        (NON_LATTICE, "pair (a, b) lacks a join"),
        (NO_MEET, "pair (u, v) lacks a meet"),
        (UNEVEN_DELTAS, "phi does not preserve the graph at 'a'"),
        pytest.param(RIGHT_CANCEL, "right cancellativity fails: a·c = b·c = d", id="right_cancel"),
    ],
)
def test_known_failures_match_reference(text, message):
    table = parse_germ(text)
    assert outcome(validate, table) == outcome(oracles.reference_validate, table)
    assert outcome(validate, table) == ("GermValidationError", message)


# Tables to mutate: the base germs, their divided germs, and hand-made tables
# that pass associativity, cancellativity and Δ but fail a later check.
FUZZ_BASES = (
    ["a2", "rank2", "chamber3", "dual3"]
    + [f"{name}/{m}" for name, m in DIVIDED]
    + sorted(LATER_FAILURES)
)


@cache
def fuzz_base(name: str):
    if name in LATER_FAILURES:
        return parse_germ(LATER_FAILURES[name])
    base, _, m = name.partition("/")
    return divided_germ(base, int(m)) if m else base_table(base)


@st.composite
def mutated_table(draw):
    """A fuzz base with one to three products dropped, redirected or added."""
    table = copy_table(fuzz_base(draw(st.sampled_from(FUZZ_BASES))))
    simples, product = table.simples, table.product
    units = set(table.identity)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["drop", "redirect", "add"]))
        steps = [k for k in product if k[0] not in units and k[1] not in units]
        if kind == "add":
            a = draw(st.sampled_from([s for s in simples if s.id not in units]))
            after = [s.id for s in simples if s.source == a.target and s.id not in units]
            b = simples[draw(st.sampled_from(after))]
            fitting = [
                s.id for s in simples
                if (s.source, s.target, s.length) == (a.source, b.target, a.length + b.length)
            ]
            pool = fitting if fitting and draw(st.booleans()) else range(len(simples))
            product.setdefault((a.id, b.id), draw(st.sampled_from(sorted(pool))))
        elif steps:
            key = draw(st.sampled_from(steps))
            if kind == "drop":
                del product[key]
            else:
                c = simples[product[key]]
                others = [
                    s.id for s in simples
                    if s.id != c.id and (s.source, s.target, s.length) == (c.source, c.target, c.length)
                ]
                if others:
                    product[key] = draw(st.sampled_from(others))
    return table


@settings(max_examples=400, deadline=None)
@given(mutated_table())
def test_mutated_tables_match_reference(table):
    assert_agrees(table)


def truncated(table, length: int) -> GermTable:
    """
    The table cut to its simples of length at most `length` and the products
    among them. The divisors of a simple are shorter than it, so the cut keeps
    units, associativity and cancellativity, and validation reaches Δ.
    """
    n = len(table.objects)
    kept = [s for s in table.simples if 0 < s.length <= length]
    ids = {sid: x for x, sid in enumerate(table.identity)}
    ids.update({s.id: n + i for i, s in enumerate(kept)})
    products = [
        (ids[a], ids[b], ids[c]) for (a, b), c in table.product.items()
        if c in ids and table.simples[a].length and table.simples[b].length
    ]
    delta = {x: ids[d] for x, d in table.declared_delta.items() if d in ids}
    simples = [(s.name, s.source, s.target, s.length) for s in kept]
    return assemble_table([obj.name for obj in table.objects], simples, products, delta)


@cache
def truncation_bases() -> list:
    """The builtin, divided and fixed germs compared above."""
    return (
        [builtins.build(family, param) for family, param in BUILTINS]
        + [divided_germ(name, m) for name, m in DIVIDED]
        + [param.values[0] for param in fixed_germs()]
    )


@st.composite
def truncated_table(draw):
    """A base cut below the length of its longest Δ."""
    bases = truncation_bases()
    table = bases[draw(st.integers(0, len(bases) - 1))]
    top = max(s.length for s in table.simples)
    return truncated(table, draw(st.integers(0, top - 1)))


@settings(max_examples=200, deadline=None)
@given(truncated_table())
def test_truncated_tables_match_reference(table):
    oracles.reference_check_table(copy_table(table))
    got = outcome(validate, table)
    assert got == outcome(oracles.reference_validate, table)
    assert got[0] == "ok" or "cancellativity" not in got[1]


def antitone_witnesses(table) -> list | None:
    """
    The oracle's antitone check on every object of a table that passes the
    reference's checks through Δ; None if the table fails one of those.
    The oracle's complement existence check must not fire on such a table.
    """
    try:
        germ = oracles.reference_delta(copy_table(table))
    except GermError:
        return None
    assert oracles.missing_complement(germ) is None
    germ.complement_ = [germ.lquot[(s.id, germ.delta[s.source])] for s in germ.simples]
    return [oracles.antitone_witness(germ, germ.by_source[obj.id]) for obj in germ.objects]


@pytest.mark.parametrize("name", sorted(LATER_FAILURES))
def test_antitone_check_is_reached_by_tables_that_fail_later(name):
    table = parse_germ(LATER_FAILURES[name])
    assert outcome(oracles.reference_validate, table)[0] == "GermValidationError"
    assert antitone_witnesses(table) == [None] * len(table.objects)


@settings(max_examples=400, deadline=None)
@given(mutated_table())
def test_antitone_check_never_fires_past_delta(table):
    # Why garside.validate omits the complement existence and antitone
    # checks: see oracles.missing_complement and oracles.antitone_witness.
    witnesses = antitone_witnesses(table)
    assert witnesses is None or witnesses == [None] * len(witnesses)


def crown(k: int, order: list[int]) -> GermTable:
    """
    The cyclic crown C_k: atoms a_i and length-2 simples w_c for i, c in Z/k,
    declared in `order` (a_i is i, w_c is k + c, D is 2k), with a_i·a_j =
    w_{i+j} and a_i·w_c = w_c·a_i = D iff i + c ≡ 0 (mod k). It passes units,
    associativity, cancellativity and Δ. Every w_c is above every atom, so for
    k ≥ 2 two atoms have no join and two w's no meet; C_2 is NON_LATTICE.
    """
    decls = [(f"a{i}", 0, 0, 1) for i in range(k)] + [(f"w{c}", 0, 0, 2) for c in range(k)]
    decls.append(("D", 0, 0, 3))
    ids = {j: 1 + pos for pos, j in enumerate(order)}
    products = [(ids[i], ids[j], ids[k + (i + j) % k]) for i in range(k) for j in range(k)]
    for i in range(k):
        w = ids[k + -i % k]
        products += [(ids[i], w, ids[2 * k]), (w, ids[i], ids[2 * k])]
    return assemble_table(["x"], [decls[j] for j in order], products, {})


@st.composite
def crown_table(draw):
    k = draw(st.integers(1, 6))
    return k, crown(k, draw(st.permutations(range(2 * k + 1))))


@settings(max_examples=200, deadline=None)
@given(crown_table())
def test_crowns_fail_the_lattice_alike(crown_k):
    k, table = crown_k
    oracles.reference_delta(copy_table(table))  # raises if a check up to Δ fails
    got = outcome(validate, table)
    assert got == outcome(oracles.reference_validate, table)
    if k == 1:
        assert got[0] == "ok"
    else:
        assert got[0] == "GermValidationError"
        assert re.fullmatch(r"pair \((a\d, a\d\) lacks a join|w\d, w\d\) lacks a meet)", got[1])


def test_crowns_reach_both_lattice_messages():
    seen = set()

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(crown_table())
    def collect(crown_k):
        if crown_k[0] > 1:
            seen.add(outcome(validate, crown_k[1])[1].split()[-1])

    collect()
    assert {"join", "meet"} <= seen
    # C_2 declared a0, a1, w1, w0, D is NON_LATTICE's a, b, u, v, D
    c2, non_lattice = crown(2, [0, 1, 3, 2, 4]), parse_germ(NON_LATTICE)
    assert c2.product == non_lattice.product
    assert [s.length for s in c2.simples] == [s.length for s in non_lattice.simples]


def unit_dropped(pair) -> GermTable:
    """a2 with the unit product (id, s) or (s, id) removed."""
    table = copy_table(base_table("a2"))
    s = next(x.id for x in table.simples if x.name == "s")
    del table.product[(0, s) if pair == "left" else (s, 0)]
    return table


# A table that trips each check validate runs and no test above trips, with
# the message it produces. The complement bijection and φ's product law are
# not here: they follow from the checks before them (see garside.validate).
HAND_MADE = {
    "duplicate simple name 's'": lambda: assemble_table(
        ["x"], [("s", 0, 0, 1), ("s", 0, 0, 1)], [], {}
    ),
    "length 0 iff identity violated at 'z'": lambda: assemble_table(
        ["x"], [("z", 0, 0, 0)], [], {}
    ),
    "left unit fails at 's'": lambda: unit_dropped("left"),
    "right unit fails at 's'": lambda: unit_dropped("right"),
    # Δ_x = a and Δ_y = g both end at y.
    "targets of the delta simples do not permute objects": lambda: parse_germ(
        "garside-germ v1\nobject x\nobject y\nsimple a : x -> y\nsimple g : y -> y\n"
    ),
    "declared delta 'a' at 'x' is not the maximum": lambda: parse_germ(
        "garside-germ v1\nobject x\nsimple a : x -> x\nsimple b : x -> x len 2\n"
        "product a a = b\ndelta x = a\n"
    ),
}


@pytest.mark.parametrize("message", sorted(HAND_MADE))
def test_hand_made_failures_match_reference(message):
    table = HAND_MADE[message]()
    assert outcome(validate, table) == outcome(oracles.reference_validate, table)
    assert outcome(validate, table) == ("GermValidationError", message)


def test_mutations_reach_the_checks_after_delta():
    # On fixed examples, count the mutated tables that pass the reference's
    # checks through Δ, and those of them that a later check rejects: 101 and
    # 26 of 400 with hypothesis 6.155.
    past_delta, rejected_later = 0, 0

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(mutated_table())
    def count(table):
        nonlocal past_delta, rejected_later
        if antitone_witnesses(table) is not None:
            past_delta += 1
            rejected_later += outcome(oracles.reference_validate, table)[0] != "ok"

    count()
    assert past_delta >= 80 and rejected_later >= 20
