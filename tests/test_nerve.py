import copy
import sys
from fractions import Fraction
from math import comb

import pytest

from garside import builtins as germ_builtins
from garside import NormalForm, parse_germ, validate
from garside.cli import main
from garside.divided import count_subdivisions
from garside.germ import BudgetExceeded, GermError, enumerate_subdivisions
from garside.nerve import (
    NerveSimplex,
    ZPolynomial,
    atom_graph_dot,
    check_cyclic_identities,
    cover_ball,
    cover_ball_dot,
    enumerate_nondegenerate,
    face_zero,
    fit_z_polynomial,
    garside_dimension,
    nerve_export_lines,
    nondegenerate_counts,
    special_degeneracy,
)

import oracles
from paper_checks import cyclic_identities_on_every_simplex


def test_garside_dimension(a2, rank2, free_loop, artin4):
    assert garside_dimension(a2) == 3
    assert garside_dimension(rank2) == 3
    assert garside_dimension(free_loop) == 1
    assert garside_dimension(artin4) == 6


def chain_germ(n: int):
    """One object, simples a_1..a_n with a_i of length i and a_i·a_j = a_{i+j}."""
    lines = ["garside-germ v1", "object x"]
    lines += [f"simple a{i} : x -> x len {i}" for i in range(1, n + 1)]
    lines += [
        f"product a{i} a{j} = a{i + j}" for i in range(1, n) for j in range(1, n - i + 1)
    ]
    lines.append(f"delta x = a{n}")
    return validate(parse_germ("\n".join(lines) + "\n"))


def test_garside_dimension_needs_no_recursion():
    germ = chain_germ(150)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(120)
    try:
        dim = garside_dimension(germ)
    finally:
        sys.setrecursionlimit(limit)
    assert dim == 150


@pytest.mark.parametrize(
    "family,param",
    [
        ("artin_symmetric", 2), ("artin_symmetric", 3), ("artin_symmetric", 4),
        ("dual_braid", 2), ("dual_braid", 3), ("dual_braid", 4),
        ("dihedral_chamber", 2), ("dihedral_chamber", 3), ("dihedral_chamber", 5),
        ("rank2_counterexample", None),
    ],
)
def test_garside_dimension_matches_recursive_oracle(family, param):
    germ = validate(germ_builtins.build(family, param))
    assert garside_dimension(germ) == oracles.recursive_garside_dimension(germ)


def test_garside_dimension_of_divided_and_chain_germs(a2_div3, rank2):
    from garside.divided import build_divided_germ

    for germ in (a2_div3.germ, build_divided_germ(rank2, 2).germ, chain_germ(20)):
        assert garside_dimension(germ) == oracles.recursive_garside_dimension(germ)


def test_dimension_identity_only_germ():
    germ = validate(parse_germ("garside-germ v1\nobject x\n"))
    assert garside_dimension(germ) == 0


def test_nondegenerate_counts_a2(a2):
    # the levels end before dimension 4, which has no simplex
    counts = [len(level) for level in enumerate_nondegenerate(a2, 4)]
    assert counts == [1, 5, 6, 2]
    assert sum((-1) ** n * c for n, c in enumerate(counts)) == 0
    assert [len(level) for level in enumerate_nondegenerate(a2, 1)] == [1, 5]


def test_nondegenerate_are_strict_chains(a2):
    for n, level in enumerate(enumerate_nondegenerate(a2, 3)):
        for sx in level:
            assert len(sx.factors) == n
            prefix = a2.identity[sx.basepoint]
            seen = {prefix}
            for sid in sx.factors:
                prefix = a2.product_of(prefix, sid)
                assert prefix is not None and prefix not in seen
                seen.add(prefix)


def test_rank2_counts_match_chain_oracle(rank2):
    # brute-force strict chain counting per basepoint
    def chains(oid, n):
        dx = rank2.delta[oid]
        out = [[rank2.identity[oid]]]
        for _ in range(n):
            out = [
                ch + [v]
                for ch in out
                for v in rank2.by_source[oid]
                if v != ch[-1]
                and oracles.divides(rank2, ch[-1], v)
                and oracles.divides(rank2, v, dx)
            ]
        return len(out)

    counts = [len(level) for level in enumerate_nondegenerate(rank2, 3)]
    assert counts == [
        sum(chains(obj.id, n) for obj in rank2.objects) for n in range(4)
    ]
    assert sum((-1) ** n * c for n, c in enumerate(counts)) == 0


def test_special_degeneracy_examples(a2):
    s, t = a2.simple_named("s"), a2.simple_named("t")
    got = special_degeneracy(a2, NerveSimplex(0, (s, t)))
    assert [a2.simple_name(x) for x in got.factors] == ["s", "t", "s"]
    got = face_zero(a2, NerveSimplex(0, (s, t, s)))
    assert [a2.simple_name(x) for x in got.factors] == ["t", "s"]
    got = special_degeneracy(a2, NerveSimplex(0, ()))
    assert [a2.simple_name(x) for x in got.factors] == ["D"]


def test_face_zero_rebases(rank2):
    ax = rank2.simple_named("a_x")
    ay = rank2.simple_named("a_y")
    got = face_zero(rank2, NerveSimplex(rank2.object_named("x"), (ax, ay)))
    assert got.basepoint == rank2.object_named("y")


def test_special_degeneracy_image_is_subdivisions(a2):
    for n in (1, 2):
        image = {
            special_degeneracy(a2, NerveSimplex(*sx)).factors
            for sx in oracles.walk_simplices(a2, n)
        }
        assert image == set(enumerate_subdivisions(a2, n + 1))


@pytest.mark.parametrize("germ_name", ["a2", "dual3", "free_loop", "rank2"])
def test_cyclic_identities(germ_name, request):
    germ = request.getfixturevalue(germ_name)
    report = check_cyclic_identities(germ)
    assert report.ok
    # one 2-simplex (s, s̄) and one 1-simplex (s) per simple
    assert report.checked == 2 * len(germ.simples)
    # every simplex up to dimension 3: Σ_k N_k·C(4, k + 1) of them
    listed = cyclic_identities_on_every_simplex(germ, 3)
    assert listed.ok
    counts = nondegenerate_counts(germ)
    assert listed.checked == sum(n * comb(4, k + 1) for k, n in enumerate(counts)) > 0


@pytest.mark.parametrize("family,param", [
    ("artin_symmetric", 3), ("artin_symmetric", 4), ("dual_braid", 3), ("dual_braid", 4),
    ("dihedral_chamber", 3), ("dihedral_chamber", 6),
])
def test_cyclic_identities_hold_on_every_simplex_of_the_builtins(family, param):
    germ = validate(germ_builtins.build(family, param))
    assert check_cyclic_identities(germ).ok
    assert cyclic_identities_on_every_simplex(germ, 3).ok


def test_cyclic_identities_catch_a_wrong_shift(a2):
    # φ replaced by the identity: s̄ is completed by φ(s) = t, not by s.
    broken = copy.copy(a2)
    broken.phi_simple = list(range(len(a2.simples)))
    report = check_cyclic_identities(broken)
    listed = cyclic_identities_on_every_simplex(broken, 3)
    assert not report.ok and not listed.ok
    s, t = a2.simple_named("s"), a2.simple_named("t")
    assert NerveSimplex(0, (s, a2.complement(s))) in report.shift_counterexamples
    assert NerveSimplex(0, (t,)) in report.power_counterexamples
    assert {sx.factors for sx in report.shift_counterexamples} <= {
        sx.factors for sx in listed.shift_counterexamples
    }


def test_nondegenerate_simplices_need_a_non_negative_dimension(a2):
    with pytest.raises(GermError, match="dimension must be non-negative"):
        enumerate_nondegenerate(a2, -1)
    with pytest.raises(GermError, match="dimension must be non-negative"):
        nerve_export_lines(a2, -1)
    assert enumerate_nondegenerate(a2, 0) == [[NerveSimplex(0, ())]]


def test_double_shift_on_atom(a2):
    s = a2.simple_named("s")
    cur = NerveSimplex(0, (s,))
    for _ in range(2):
        cur = face_zero(a2, special_degeneracy(a2, cur))
    assert [a2.simple_name(x) for x in cur.factors] == ["t"]


def test_count_factorizations(a2, rank2):
    assert [sum(count_subdivisions(a2, r).values()) for r in (1, 2, 3, 4)] == [1, 6, 17, 36]
    assert sum(count_subdivisions(a2, 1).values()) == len(a2.objects)
    assert sum(count_subdivisions(rank2, 1).values()) == len(rank2.objects)
    # counting agrees with the raw cartesian oracle
    for r in (2, 3):
        brute = sum(
            len(oracles.subdivision_tuples(rank2, obj.id, r)) for obj in rank2.objects
        )
        assert sum(count_subdivisions(rank2, r).values()) == brute


def test_count_consistency_with_divided(a2):
    from garside.divided import build_divided_germ

    dq = build_divided_germ(a2, 3)
    for e in (1, 2):
        assert sum(count_subdivisions(dq.germ, e).values()) == sum(
            count_subdivisions(a2, 3 * e).values()
        )


def test_fit_z_polynomial_a2(a2):
    z = fit_z_polynomial(a2, 5)
    assert z.degree == 3
    assert [z(m) for m in (1, 2, 3, 4, 5)] == [1, 6, 17, 36, 65]
    assert z(6) == sum(count_subdivisions(a2, 6).values()) == 106


def test_fit_z_polynomial_trivial_germ():
    germ = validate(parse_germ("garside-germ v1\nobject x\n"))
    z = fit_z_polynomial(germ, 2)
    assert z.degree == 0
    assert z(17) == 1


def test_fit_z_polynomial_rank2(rank2):
    z = fit_z_polynomial(rank2, 5)
    assert z.degree <= 3


def test_fit_z_polynomial_needs_samples(a2):
    with pytest.raises(GermError):
        fit_z_polynomial(a2, 4)


def test_z_polynomial_integer_valued():
    z = ZPolynomial((Fraction(1), Fraction(5), Fraction(6), Fraction(2)))
    assert z.degree == 3
    assert all(z(m).denominator == 1 for m in range(1, 10))


def test_cover_ball_radius_one(a2):
    ball = cover_ball(a2, 0, 1)
    labels = {tuple(v.factors): v for v in ball.vertices}
    assert len(ball.vertices) == 6
    # comparability graph of the hexagon minus loops: 11 edges
    assert len(ball.edges) == 11
    for i, j in ball.edges:
        assert (j, i) not in ball.edges


def test_cover_ball_radius_zero(a2):
    ball = cover_ball(a2, 0, 0)
    assert len(ball.vertices) == 1 and ball.edges == []


COVER_CASES = [("a2", r) for r in range(4)] + [
    ("artin3", 3), ("dual3", 3), ("chamber3", 2), ("rank2", 3)
]


@pytest.mark.parametrize("name,radius", COVER_CASES)
def test_cover_ball_edges_match_pairwise_oracle(name, radius, request):
    germ = request.getfixturevalue(name)
    for x in range(len(germ.objects)):
        ball = cover_ball(germ, x, radius)
        assert ball.edges == oracles.pairwise_cover_edges(germ, ball.vertices)


@pytest.mark.parametrize(
    "name,sizes",
    [("a2", [1, 6, 19, 48]), ("chamber3", [1, 6, 19, 48]), ("rank2", [1, 6, 19, 48]),
     ("artin4", [1, 24, 211, 1380])],
)
def test_cover_ball_size_counts_greedy_sequences(name, sizes, request):
    # Σ_{l ≤ r} G_l·(r − l + 1), G_l the greedy words of l factors
    germ = request.getfixturevalue(name)
    assert [len(cover_ball(germ, 0, r).vertices) for r in range(4)] == sizes


def test_cover_ball_spends_its_products_before_the_search(capsys):
    # artin4 at radius 60: the words stop at the level where the products
    # the edges need pass the default budget.
    assert main(["cover", "--builtin", "artin_symmetric", "--param", "4", "--radius", "60"]) == 3
    assert capsys.readouterr() == ("", (
        "error: computation budget exceeded (2000000 steps): the cover ball of radius 60 "
        "would form at least 8811507 products\n"
    ))
    with pytest.raises(BudgetExceeded, match="radius 1000000000000 would form"):
        cover_ball(validate(parse_germ("garside-germ v1\nobject x\n"
                                       "simple g : x -> x\n")), 0, 10**12)


BFS_CASES = [("a2", r) for r in range(7)] + [
    ("artin4", 3), ("dual4", 3), ("chamber3", 4), ("rank2", 5)
]


def test_cover_ball_matches_the_bfs_oracle(a2, artin4, chamber3, rank2):
    germs = {"a2": a2, "artin4": artin4, "chamber3": chamber3, "rank2": rank2,
             "dual4": validate(germ_builtins.dual_braid(4))}
    for name, radius in BFS_CASES:
        germ = germs[name]
        for x in range(len(germ.objects)):
            ball = cover_ball(germ, x, radius)
            assert (ball.vertices, ball.edges) == oracles.bfs_cover_ball(germ, x, radius)


def test_cover_ball_where_delta_is_an_identity(a2_text, capsys, tmp_path):
    # Δ_y = 1_y: Δ^k is the identity for every k, so the ball is one vertex
    germ = validate(parse_germ(a2_text + "object y\n"))
    y = germ.object_named("y")
    for radius in (0, 3, 10**12):
        ball = cover_ball(germ, y, radius)
        assert ball.vertices == [NormalForm(y, (), 0)] and ball.edges == []
    assert len(cover_ball(germ, 0, 3).vertices) == 48
    path = tmp_path / "x.germ"
    path.write_text("garside-germ v1\nobject x\n", encoding="utf-8")
    assert main(["cover", "--file", str(path), "--radius", "3"]) == 0
    assert capsys.readouterr() == ("vertices: 1\nedges: 0\n", "")


def test_cover_ball_vertices_positive(a2):
    ball = cover_ball(a2, 0, 2)
    for v in ball.vertices:
        assert v.inf >= 0 and v.sup <= 2


def test_exports(a2):
    lines = nerve_export_lines(a2, 2)
    assert lines[0] == "simplex 0 @ x :"
    assert "simplex 1 @ x : s" in lines
    assert all(line.startswith("simplex ") for line in lines)
    dot = cover_ball_dot(a2, cover_ball(a2, 0, 1))
    assert dot.startswith("graph cover_ball {")
    assert dot.count(" -- ") == 11
    atoms = atom_graph_dot(a2)
    assert atoms.startswith("digraph atom_graph {")
    assert atoms.count("->") == 2
