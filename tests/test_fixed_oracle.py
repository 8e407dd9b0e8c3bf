"""
The φ_q^p-fixed subgerm read off the base germ, against the materialized
route it replaced (oracles.py): build the q-divided germ 𝒢_q, then keep the
φ_q^p-invariant simples at its fixed objects. Same fixed objects, column
tuples, product triples and components; at q = 1 the same realized atoms.
And the twist tests of garside.divided against the ones they replaced: the
φ^p s = s test of `fixed_twist` against the built and compared shifted
tuple, and `fixed_object` against that and the Δ-product of the letters.
And the fixed ladders, whose targets are read off their first letters,
against every fixed twist filtered through the column rule
`oracles.ladder_target`.
"""

from functools import cache
from pathlib import Path

import pytest

from garside import GermError, builtins, parse_germ, validate
from garside.conjugacy import fixed_subgerm
from garside.divided import build_divided_germ, fixed_object, fixed_twist
from garside.periodic import BestvinaForm
from garside.words import identity_nf

import oracles

DATA = Path(__file__).parent / "data"
BASES = {
    "a2": lambda: parse_germ((DATA / "a2.germ").read_text(encoding="utf-8")),
    "rank2": builtins.rank2_counterexample,
    "artin3": lambda: builtins.artin_symmetric(3),
    "artin4": lambda: builtins.artin_symmetric(4),
    "dual3": lambda: builtins.dual_braid(3),
    "dual4": lambda: builtins.dual_braid(4),
    "chamber3": lambda: builtins.dihedral_chamber(3),
    "chamber4": lambda: builtins.dihedral_chamber(4),
    "chamber6": lambda: builtins.dihedral_chamber(6),
}

# 𝒢_q takes over about 0.2 s to build for these (name, q), so their cases
# (p = q + 1 and 2q + 1) are left out: artin4 at q = 3 and 4 (0.3 and 1.8 s),
# chamber4 at q = 4 (0.2 s), chamber6 at q = 3 and 4 (0.7 and 4.6 s), each
# one build on a shared 2-core machine.
SLOW = {("artin4", 3), ("artin4", 4), ("chamber4", 4), ("chamber6", 3), ("chamber6", 4)}
CASES = [
    (name, p, q)
    for name in BASES
    for q in range(1, 5)
    for p in sorted({q + 1, 2 * q + 1} | ({1} if q == 1 else set()))
    if (name, q) not in SLOW
]


@cache
def base(name):
    return validate(BASES[name]())


@cache
def divided_germ(name, q):
    return build_divided_germ(base(name), q)


def product_triples(report, objects, columns):
    """(source, a, b, a·b) for every product, in columns of the base germ."""
    sub = report.subgerm
    return {
        (objects[sub.simples[a].source], columns[a], columns[b], columns[c])
        for (a, b), c in sub.product.items()
    }


@pytest.mark.parametrize("name,p,q", CASES)
def test_fixed_subgerm_matches_the_materialized_route(name, p, q):
    dg = divided_germ(name, q)
    got = fixed_subgerm(base(name), p, q)
    want = oracles.reference_fixed_subgerm(dg.germ, oracles.phi_automorphism(dg.germ, p))
    assert got.is_empty == want.is_empty
    if got.is_empty:
        return
    objects = [dg.objects[o] for o in want.object_inclusion]
    columns = [dg.ladder_of[s].columns for s in want.simple_inclusion]
    assert sorted(got.object_inclusion) == sorted(objects)

    def ladders(report, objs, cols):
        return sorted((objs[s.source], c) for s, c in zip(report.subgerm.simples, cols))

    assert ladders(got, got.object_inclusion, got.simple_inclusion) == ladders(
        want, objects, columns
    )
    assert product_triples(got, got.object_inclusion, got.simple_inclusion) == product_triples(
        want, objects, columns
    )

    def classes(report, objs):
        return sorted(sorted(objs[o] for o in comp) for comp in report.components)

    assert classes(got, got.object_inclusion) == classes(want, objects)
    if q == 1:
        realized = {columns[b]: dg.ladder_of[a].columns for b, a in want.atoms_realized.items()}
        assert {got.simple_inclusion[b]: (a,) for b, a in got.atoms_realized.items()} == realized


def test_every_case_is_counted():
    # 9 bases × 9 (p, q) pairs, less the 10 cases of SLOW
    assert len(CASES) == 71


TWIST_BASES = {
    **{f"artin{n}": (builtins.artin_symmetric, n) for n in (2, 3, 4, 5)},
    **{f"dual{n}": (builtins.dual_braid, n) for n in (3, 4, 5, 6)},
    **{f"chamber{n}": (builtins.dihedral_chamber, n) for n in (2, 3, 4, 6)},
    "rank2": (builtins.rank2_counterexample,),
}


@pytest.mark.parametrize("name", sorted(TWIST_BASES))
def test_twist_tests_match_the_shifted_tuple_and_the_delta_product(name):
    build, *param = TWIST_BASES[name]
    germ = validate(build(*param))
    outcomes = set()
    for q in range(1, 7):
        for k in range(2 * germ.phi_order + 1):
            p = k * q + 1
            for s in germ.simples:
                want = oracles.reference_fixed_twist(germ, s.id, p, q)
                assert fixed_twist(germ, s.id, k, q) == want
                try:
                    oracles.check_bestvina(germ, BestvinaForm(s.id, k, q, identity_nf(s.source)), p)
                except GermError:
                    want = None
                assert fixed_object(germ, s.id, k, q) == want
                outcomes.add(want is None)
    # Δ_x is a fixed object at q = 1, k = |φ| - 1; most twists are none
    assert outcomes == {True, False}


@pytest.mark.parametrize("name", sorted(TWIST_BASES))
def test_fixed_ladders_follow_the_column_rule(name):
    build, *param = TWIST_BASES[name]
    germ = validate(build(*param))
    ladders = 0
    for q in range(1, 7):
        for k in range(2 * germ.phi_order + 1):
            report = fixed_subgerm(germ, k * q + 1, q)
            objs = report.object_inclusion
            got = set() if report.is_empty else {
                (objs[s.source], cols, objs[s.target])
                for s, cols in zip(report.subgerm.simples, report.simple_inclusion)
            }
            want = set()
            for t in objs:
                for s in germ.divisors[t[0]]:
                    cols = fixed_twist(germ, s, k, q)
                    tgt = cols and oracles.ladder_target(germ, t, cols)
                    if tgt:
                        want.add((t, cols, tgt))
            assert got == want
            ladders += len(got)
    assert ladders > 0
