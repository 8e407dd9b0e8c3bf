"""
Acceptance suite: one test per criterion, each printing a pass/fail line
(run with `pytest tests/test_acceptance.py -s` to see them live).

All checks are exact; the only tolerances are the per-criterion wall-clock
budgets, asserted as stated.
"""

import random
import time
from contextlib import contextmanager
from pathlib import Path

from garside import (
    identity_nf,
    invert,
    multiply,
    normal_form,
    parse_germ,
    parse_word,
    validate,
)
from garside.builtins import dual_braid, rank2_counterexample
from garside.conjugacy import are_conjugate, fixed_subgerm, summit_set
from garside.divided import build_divided_germ, count_subdivisions
from garside.nerve import (
    enumerate_nondegenerate,
    fit_z_polynomial,
    garside_dimension,
)
from garside.periodic import (
    classify_periodic,
    find_bestvina_form,
    is_periodic,
    necklace_conjugator,
)
from garside.words import delta_power_nf, is_loop

import oracles
from paper_checks import common_multiple_report, cyclic_identities_on_every_simplex

A2 = validate(parse_germ((Path(__file__).parent / "data" / "a2.germ").read_text()))
DUAL3 = validate(dual_braid(3))


@contextmanager
def criterion(number: int, title: str, seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({title}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"criterion {number} exceeded {seconds}s ({elapsed:.2f}s)"
    print(f"ACCEPTANCE {number} ({title}): PASS in {elapsed:.2f}s")


def tuple_name(germ, f):
    return "(" + ",".join(germ.simple_name(s) for s in f) + ")"


def test_criterion_1_divided_category_reproduction(a2_div3):
    with criterion(1, "3-divided category of A_2", 1.0):
        dg = a2_div3
        assert len(dg.objects) == 17
        assert dg.germ.phi_order == 6
        expected = {
            "(id@x,id@x,D)": {"(id@x,s,ts)", "(id@x,t,st)"},
            "(id@x,D,id@x)": {"(t,st,id@x)", "(s,ts,id@x)"},
            "(D,id@x,id@x)": {"(ts,id@x,t)", "(st,id@x,s)"},
        }
        for name, want in expected.items():
            f = tuple(A2.simple_named(p) for p in name.strip("()").split(","))
            src = dg.object_of(f)
            outgoing = [
                atom for atom in dg.germ.atoms if dg.germ.simples[atom].source == src
            ]
            assert len(outgoing) == 2
            assert {tuple_name(A2, dg.ladder_of[a].tgt) for a in outgoing} == want


def test_criterion_2_rank2_counterexample():
    with criterion(2, "two-object germ with no lcm at x", 1.0):
        germ = validate(rank2_counterexample())
        x = germ.object_named("x")
        a2sq = parse_word(germ, "@x aa_x")
        b2sq = parse_word(germ, "@x bb_x")
        report = common_multiple_report(germ, a2sq, b2sq, length_bound=8)
        assert delta_power_nf(x, 2) in report["common_multiples"]
        assert report["common_multiples"] != []
        assert report["least"] == []


def test_criterion_3_necklace_conjugation(a2_div3):
    with criterion(3, "theta image of s·Δ conjugates to Δ_3^4", 5.0):
        gamma = parse_word(A2, "s D^1")
        cert = is_periodic(A2, gamma, 4, 3)
        assert cert is not None
        bf = find_bestvina_form(A2, cert)
        assert A2.simple_name(bf.s) == "s" and bf.k == 1
        nc = necklace_conjugator(A2, bf)
        under = tuple(A2.simple_named(n) for n in ("s", "t", "s"))
        assert nc.delta_power == delta_power_nf(a2_div3.object_of(under), 4)
        lhs = multiply(a2_div3.germ, nc.theta_image, nc.conjugator)
        rhs = multiply(a2_div3.germ, nc.conjugator, nc.delta_power)
        assert lhs == rhs


def test_criterion_4_periodic_classification():
    with criterion(4, "one class of 4/3-periodic loops", 5.0):
        cl = classify_periodic(A2, 4, 3)
        assert len(cl.components) == 1
        names = {tuple_name(A2, t) for t in cl.components[0]}
        assert names == {"(s,t,s)", "(t,s,t)"}
        witness = are_conjugate(A2, parse_word(A2, "s D^1"), parse_word(A2, "t D^1"))
        assert witness is not None


def test_criterion_5_counting_polynomial():
    with criterion(5, "subdivision counts and Z polynomial", 10.0):
        counts = [sum(count_subdivisions(A2, m).values()) for m in (1, 2, 3, 4)]
        assert counts == [1, 6, 17, 36]
        z = fit_z_polynomial(A2, 5)
        assert z.degree == 3
        assert z(5) == sum(count_subdivisions(A2, 5).values()) == 65
        assert z(6) == sum(count_subdivisions(A2, 6).values()) == 106
        for e, q in ((2, 2), (2, 3), (3, 2)):
            dq = build_divided_germ(A2, q)
            assert sum(count_subdivisions(A2, e * q).values()) == sum(
                count_subdivisions(dq.germ, e).values()
            )


def test_criterion_6_cyclic_identities():
    with criterion(6, "cyclic identities up to dimension 3", 10.0):
        for germ in (A2, DUAL3):
            report = cyclic_identities_on_every_simplex(germ, 3)
            assert report.ok and report.checked > 0


def test_criterion_7_centralizers():
    with criterion(7, "centralizer germs of Δ and Δ^2", 1.0):
        rep = fixed_subgerm(A2, 1)
        assert [rep.subgerm.simple_name(a) for a in rep.subgerm.atoms] == ["D"]
        rep2 = fixed_subgerm(A2, 2)
        assert len(rep2.subgerm.simples) == len(A2.simples)
        assert len(rep2.subgerm.objects) == len(A2.objects)


def test_criterion_8_confluence_and_random_compositions():
    with criterion(8, "rewriting confluence and greedy invariants", 60.0):
        failures = 0
        for germ, max_len in ((A2, 5), (DUAL3, 4)):
            for word in oracles.all_words(germ, 0, max_len):
                if not word:
                    continue
                base = normal_form(germ, list(word))
                for rewritten in oracles.word_rewrites(germ, word):
                    got = (
                        normal_form(germ, list(rewritten))
                        if rewritten
                        else identity_nf(0)
                    )
                    if got != base:
                        failures += 1
        assert failures == 0

        rng = random.Random(20240)
        sids = [s.id for s in A2.simples]
        pool = [identity_nf(0), delta_power_nf(0, 1), delta_power_nf(0, -1)]
        for _ in range(10_000):
            op = rng.randrange(3)
            if op == 0:
                f = normal_form(A2, [rng.choice(sids) for _ in range(rng.randint(1, 4))])
                pool.append(f)
            elif op == 1:
                f, g = rng.choice(pool), rng.choice(pool)
                h = multiply(A2, f, g)
                assert oracles.is_greedy(A2, h)
                assert h.inf >= f.inf + g.inf and h.sup <= f.sup + g.sup
                pool.append(h)
            else:
                f = rng.choice(pool)
                ff = invert(A2, f)
                assert oracles.is_greedy(A2, ff)
                assert multiply(A2, f, ff) == identity_nf(0)
            if len(pool) > 400:
                del pool[: len(pool) - 200]


def test_criterion_9_summit_oracle():
    with criterion(9, "summit sets match brute-force BFS", 60.0):
        loops = [delta_power_nf(0, k) for k in (-1, 0, 1)]
        elements = sorted(
            oracles.positive_elements(A2, 0, 2),
            key=lambda f: (f.delta_exp, f.factors),
        )
        for f in elements:
            if f.canonical_length in (1, 2):
                for k in (-1, 0, 1):
                    loops.append(normal_form(A2, list(f.factors), k))
        assert len(loops) > 30
        for g in loops:
            assert is_loop(A2, g)
            mine = set(summit_set(A2, g))
            brute = oracles.brute_summit_set(A2, g, conj_len=6)
            assert mine == brute


def test_criterion_10_nerve_counts():
    with criterion(10, "nerve simplex counts", 1.0):
        counts = [len(level) for level in enumerate_nondegenerate(A2, 3)]
        assert counts == [1, 5, 6, 2]
        assert sum((-1) ** n * c for n, c in enumerate(counts)) == 0
        assert garside_dimension(A2) == 3
