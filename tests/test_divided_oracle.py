"""
The m-divided germ read off 2m- and 3m-subdivisions, against the search it
replaced (oracles.py): every column tuple of divisors filtered into ladders,
and every pair of ladders tried for a product. Same ladders, same ids, same
product table in the same order. And the ladder targets read off the
2m-subdivisions and the slides against the column-by-column rule
`oracles.ladder_target`, on every ladder and on every slide of Θ_m and of
the necklace.
"""

from functools import cache
from pathlib import Path

import pytest

from garside import builtins, divided, parse_germ, validate
from garside.divided import Ladder, beta1_slides, fixed_object, theta_object
from garside.periodic import beta2_slides

import oracles

DATA = Path(__file__).parent / "data"
BASES = {
    "a2": lambda: parse_germ((DATA / "a2.germ").read_text(encoding="utf-8")),
    "rank2": builtins.rank2_counterexample,
    "chamber3": lambda: builtins.dihedral_chamber(3),
    "chamber4": lambda: builtins.dihedral_chamber(4),
    "dual3": lambda: builtins.dual_braid(3),
    "dual4": lambda: builtins.dual_braid(4),
    "artin3": lambda: builtins.artin_symmetric(3),
    "artin4": lambda: builtins.artin_symmetric(4),
}

CASES = [("a2", m) for m in (1, 2, 3, 4)] + [("rank2", m) for m in (1, 2, 3)]
CASES += [("chamber3", 2), ("chamber4", 2), ("dual3", 2), ("dual4", 2), ("dual4", 3)]
CASES += [("artin3", 2), ("artin3", 6), ("artin4", 2), ("artin4", 3)]


@cache
def base(name):
    return validate(BASES[name]())


@cache
def divided_germ(name, m):
    return divided.build_divided_germ(base(name), m)


@pytest.mark.parametrize("name,m", CASES)
def test_divided_germ_matches_the_ladder_search(name, m):
    dg = divided_germ(name, m)
    ladder_of, table = oracles.reference_divided_table(base(name), m)
    assert dg.ladder_of == ladder_of
    assert list(dg.germ.product.items()) == list(table.product.items())


@pytest.mark.parametrize("name,m", CASES)
def test_products_are_the_3m_subdivisions(name, m):
    # A product a·b is the 3m-subdivision (s_i, t_i, d_i/t_i); those with all
    # s_i or all t_i identities are the (s_i, d_i) or (t_i, d_i/t_i) of one
    # 2m-subdivision, and those with both are the m-subdivisions (d_i).
    germ = base(name)
    dg = divided_germ(name, m)

    def z(n):
        return sum(divided.count_subdivisions(germ, n).values())

    units = set(dg.germ.identity)
    non_unit = sum(1 for a, b in dg.germ.product if a not in units and b not in units)
    assert non_unit == z(3 * m) - 2 * z(2 * m) + z(m)



@pytest.mark.parametrize("name,m", CASES)
def test_ladder_targets_follow_the_column_rule(name, m):
    germ = base(name)
    for lad in divided_germ(name, m).ladder_of.values():
        assert oracles.ladder_target(germ, lad.src, lad.columns) == lad.tgt


def check_slides(dg, src, words, slides) -> None:
    """Run a slide word and check each of its ladders against the column rule."""
    ladders, end, final = divided.slide(dg, src, words, slides)
    germ, cur, words = dg.base, src, [list(w) for w in words]
    for i, lid in zip(slides, ladders, strict=True):
        a = words[i - 1].pop(0)
        cols = tuple(
            a if j == i - 1 else germ.identity[germ.simples[f].source] for j, f in enumerate(cur)
        )
        assert dg.ladder_of[lid] == Ladder(cur, cols, oracles.ladder_target(germ, cur, cols))
        cur = dg.ladder_of[lid].tgt
        words[i - 2].append(a if i > 1 else germ.phi_simple[a])
    assert (end, final) == (cur, tuple(map(tuple, words)))


@pytest.mark.parametrize("name,m", CASES)
def test_slides_of_theta_and_the_necklace_follow_the_column_rule(name, m):
    germ, dg = base(name), divided_germ(name, m)
    for s in germ.simples:
        words = ((),) * (m - 1) + ((s.id, germ.complement[s.id]),)
        check_slides(dg, theta_object(germ, s.source, m), words, beta1_slides(m))
    # the necklace of every fixed object of 𝒢_m, p = km + 1 (8 of the cases have none)
    for s in germ.simples:
        for k in range(germ.phi_order):
            letters = fixed_object(germ, s.id, k, m)
            if letters is not None:
                words = ((),) * (m - 1) + (letters,)
                check_slides(dg, theta_object(germ, s.source, m), words, beta2_slides(m))
