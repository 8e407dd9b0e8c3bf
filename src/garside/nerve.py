"""
nerve: combinatorics of the Garside nerve.

Simplices are composable tuples (f_1, ..., f_n) of simples whose product
left-divides Δ at the basepoint; since every simple at an object divides Δ
there, a tuple is a simplex exactly when all its partial products are defined
in the germ. The unique factor completing the product to Δ makes the
n-simplices the (n+1)-subdivisions of Δ without their last factor.
Nondegenerate simplices have no identity factor and biject with strict
chains 1 < u_1 < ... < u_n ≼ Δ: `chain_counts` counts them and
`enumerate_nondegenerate` lists them, each in one walk of the chains. No
request lists the degenerate simplices.

The special degeneracy (complete the product to Δ) and the first face
satisfy two cyclic identities in every dimension; `check_cyclic_identities`
proves them from one 2-simplex and one 1-simplex per simple. Also here: the
counting polynomial Z(m) = |D_m| read off the nondegenerate simplex counts,
and the bounded universal-cover ball, whose vertices are the greedy words
w·Δ^k and whose edges come from one normal form per word and simple.
"""

from __future__ import annotations

from itertools import zip_longest
from math import comb
from pathlib import Path
from typing import NamedTuple

from .germ import Budget, GarsideGerm, GermError, InternalError, as_budget, chain_counts, components
from .words import NormalForm, format_word, multiply


class NerveSimplex(NamedTuple):
    basepoint: int
    factors: tuple[int, ...]


def garside_dimension(germ: GarsideGerm) -> int:
    """
    Longest strict divisibility chain among simples sharing a source: the
    longest path in the divisor DAG, filled in order of length (a strict
    left divisor is shorter), so it needs no recursion.
    """
    depth = [0] * len(germ.simples)
    for sid in sorted(range(len(germ.simples)), key=lambda s: germ.simples[s].length):
        depth[sid] = max((depth[d] + 1 for d in germ.divisors[sid] if d != sid), default=0)
    return max(depth, default=0)


def nondegenerate_counts(germ: GarsideGerm) -> list[int]:
    """Nondegenerate n-simplices for n = 0 … dim: Σ_x N_n(x) over `chain_counts`."""
    per_object = [chain_counts(germ, obj.id) for obj in germ.objects]
    return [sum(col) for col in zip_longest(*per_object, fillvalue=0)]


def enumerate_nondegenerate(germ: GarsideGerm, up_to_dim: int) -> list[list[NerveSimplex]]:
    """
    The nondegenerate n-simplices for n = 0 … up_to_dim, one sorted list per
    n, ending before the first n that has none: the strict chains
    1 < u_1 < ... < u_n ≼ Δ_x, grown by the non-identity divisors of the rest
    of Δ_x as in `chain_counts`, with each chain kept.
    """
    if up_to_dim < 0:
        raise GermError("dimension must be non-negative")
    levels: list[list[NerveSimplex]] = []
    frontier = [(obj.id, (), germ.identity[obj.id]) for obj in germ.objects]
    while frontier:
        levels.append(sorted(NerveSimplex(x, f) for x, f, _ in frontier))
        if len(levels) > up_to_dim:
            break
        frontier = [
            (x, f + (q,), germ.product[(u, q)])
            for x, f, u in frontier
            for q in germ.divisors[germ.divisors[germ.delta[x]][u]]
            if germ.simples[q].length
        ]
    return levels


def special_degeneracy(germ: GarsideGerm, sx: NerveSimplex) -> NerveSimplex:
    """Append the unique factor completing the product to Δ at the basepoint."""
    prod = germ.fold_product(germ.identity[sx.basepoint], sx.factors)
    if prod is None:
        raise GermError("tuple is not a nerve simplex (product escapes the simples)")
    last = germ.quotient(prod, germ.delta[sx.basepoint])
    return NerveSimplex(sx.basepoint, sx.factors + (last,))


def face_zero(germ: GarsideGerm, sx: NerveSimplex) -> NerveSimplex:
    """d_0: drop the first factor and rebase."""
    if not sx.factors:
        raise GermError("d_0 is undefined on 0-simplices")
    return NerveSimplex(germ.simples[sx.factors[0]].target, sx.factors[1:])


class CyclicReport(NamedTuple):
    checked: int
    shift_counterexamples: list[NerveSimplex]
    power_counterexamples: list[NerveSimplex]

    @property
    def ok(self) -> bool:
        return not self.shift_counterexamples and not self.power_counterexamples


def check_cyclic_identities(germ: GarsideGerm) -> CyclicReport:
    """
    (a) degeneracy-after-face is the φ-twisted cyclic shift on Δ-subdivisions;
    (b) (n+1)-fold face-after-degeneracy applies φ factor-wise on n-simplices.

    Both hold in every dimension once (a) holds on the 2-subdivision (s, s̄)
    of every simple s, which is checked here with (b) on every 1-simplex (s).
    (a): if s_1·s_2⋯s_n = Δ_x, then s_2⋯s_n = s̄_1 by left cancellation, so the
    factor completing it after d_0 is complement(s̄_1), whatever n is; (a) on
    (s_1, s̄_1) says that this factor is φ(s_1). (b): one face-after-degeneracy
    takes the n-simplex (s_1, …, s_n), completed by c, to (s_2, …, s_n, c),
    completed by φ(s_1) by (a). So it rotates the subdivision (s_1, …, s_n, c)
    one place with a φ-twist, and n+1 rotations twist every factor once.
    """
    bad_shift: list[NerveSimplex] = []
    bad_power: list[NerveSimplex] = []
    for s in germ.simples:
        bar = germ.complement(s.id)
        sx = NerveSimplex(s.source, (s.id, bar))
        if special_degeneracy(germ, face_zero(germ, sx)) != NerveSimplex(
            s.target, (bar, germ.phi_simple[s.id])
        ):
            bad_shift.append(sx)
        edge = cur = NerveSimplex(s.source, (s.id,))
        for _ in range(2):
            cur = face_zero(germ, special_degeneracy(germ, cur))
        if cur != NerveSimplex(germ.phi_obj[s.source], (germ.phi_simple[s.id],)):
            bad_power.append(edge)
    return CyclicReport(2 * len(germ.simples), bad_shift, bad_power)


class ZPolynomial:
    """Z(m) = Σ_j c_j·C(m-1, j); the zeros padding c past its degree are a count."""

    __slots__ = ("head", "zeros")

    def __init__(self, coefficients: tuple, zeros: int = 0):
        k = max((j + 1 for j, c in enumerate(coefficients) if c), default=0)
        self.head, self.zeros = tuple(coefficients[:k]), len(coefficients) - k + zeros

    @property
    def coefficients(self) -> tuple:
        return self.head + (0,) * self.zeros

    @property
    def degree(self) -> int:
        return len(self.head) - 1

    def __eq__(self, other):
        return type(other) is ZPolynomial and (self.head, self.zeros) == (other.head, other.zeros)

    def __hash__(self) -> int:
        return hash((self.head, self.zeros))

    def __repr__(self) -> str:
        return f"ZPolynomial(coefficients={self.coefficients!r})"

    def __call__(self, m: int) -> int:
        return sum(c * comb(m - 1, j) for j, c in enumerate(self.head))


def fit_z_polynomial(
    germ: GarsideGerm, samples: int, budget: Budget | int | None = None
) -> ZPolynomial:
    """
    Z(m) = |D_m|: coefficient n is Σ_x N_n(x) (`chain_counts`), padded with
    zeros to `samples` terms, one budget step each. The degree must be the
    Garside dimension, found by an independent divisor-DAG walk.
    """
    dim = garside_dimension(germ)
    if samples < dim + 2:
        raise GermError(f"need at least dim+2 = {dim + 2} samples")
    as_budget(budget).spend(samples, f": the polynomial would have {samples} coefficients")
    totals = nondegenerate_counts(germ)
    if germ.objects and len(totals) != dim + 1:
        raise InternalError(f"strict chains of length {len(totals) - 1} in dimension {dim}")
    return ZPolynomial(tuple(totals), samples - len(totals))


# -- bounded universal-cover ball -------------------------------------------

class CoverBall(NamedTuple):
    basepoint: int
    radius: int
    vertices: list[NormalForm]
    edges: list[tuple[int, int]]    # indices into vertices, i < j


def cover_ball(
    germ: GarsideGerm, basepoint: int, radius: int, budget: Budget | int | None = None
) -> CoverBall:
    """
    Positive morphisms from the basepoint with sup ≤ radius; edges join f, g
    when f^{-1}g or g^{-1}f is simple, that is when g = f·s or f = g·s for a
    non-identity simple s (Δ included).

    The vertices are w·Δ^k, k ≤ r − l, for the greedy words w = s_1…s_l out
    of the basepoint (no factor an identity or a Δ), made level by level.
    Before each next level, the products the edges need (one per vertex and
    non-identity simple at its target; φ keeps out-degrees) are spent from
    the budget. As w·Δ^k·s = w·φ^{-k}(s)·Δ^k, the edges out of
    w·Δ^k are those out of w shifted by Δ^k: one normal form w·t per word w
    and simple t gives them all. Where Δ is an identity, Δ^k is that
    identity and no other simple leaves the basepoint: the ball is one vertex.
    """
    if radius < 0:
        raise GermError("radius must be non-negative")
    budget = as_budget(budget)
    simples = germ.simples
    inner = [[s for s in out if simples[s].length and not germ.is_delta(s)]
             for out in germ.by_source]
    start = germ.identity[basepoint]
    follow = {start: inner[basepoint]}                 # a -> the b with a·b greedy
    levels: list[list[tuple[int, ...]]] = []           # the greedy words by length
    words: list[tuple[int, ...]] = [()]
    products = 0
    for spare in range(radius, -1, -1):                # spare = r − l at level l
        if not words:
            break
        ends = [w[-1] if w else start for w in words]
        level = (spare + 1) * sum(len(germ.by_source[simples[a].target]) - 1 for a in ends)
        products += level
        budget.spend(level, f": the cover ball of radius {radius} would form "
                            f"at least {products} products")
        levels.append(words)
        nxt = []
        for w, a in zip(words, ends):
            if a not in follow:
                bar = germ.complement(a)
                follow[a] = [b for b in inner[simples[a].target]
                             if germ.is_identity(germ.meet(bar, b))]
            nxt.extend(w + (b,) for b in follow[a])
        words = nxt

    top = 0 if germ.is_identity(germ.delta[basepoint]) else radius
    vertices = sorted(
        (NormalForm(basepoint, w, k) for l, level in enumerate(levels) for w in level
         for k in range(min(top, radius - l) + 1)),
        key=lambda f: (f.sup, f.delta_exp, f.factors),
    )
    index = {f: i for i, f in enumerate(vertices)}
    edges = []        # no pair twice: g = f·s fixes s, and f = g·s' cannot hold too
    for level in levels:
        for w in level:
            at = simples[w[-1]].target if w else basepoint
            for t in germ.by_source[at]:
                if not simples[t].length:
                    continue
                g = multiply(germ, NormalForm(basepoint, w, 0), NormalForm(at, (t,), 0))
                for k in range(radius - g.sup + 1):
                    i = index[NormalForm(basepoint, w, k)]
                    j = index[NormalForm(basepoint, g.factors, g.delta_exp + k)]
                    edges.append((i, j) if i < j else (j, i))
    return CoverBall(basepoint, radius, vertices, sorted(edges))


# -- exports -----------------------------------------------------------------

def nerve_export_lines(germ: GarsideGerm, up_to_dim: int) -> list[str]:
    lines = []
    for n, level in enumerate(enumerate_nondegenerate(germ, up_to_dim)):
        for sx in level:
            names = " ".join(germ.simple_name(s) for s in sx.factors)
            lines.append(
                f"simplex {n} @ {germ.object_name(sx.basepoint)} : {names}".rstrip()
            )
    return lines


def cover_ball_dot(germ: GarsideGerm, ball: CoverBall) -> str:
    lines = [
        "graph cover_ball {",
        f'  // ball of radius {ball.radius} at {germ.object_name(ball.basepoint)}'
        " in the universal cover (finite approximation)",
    ]
    for i, f in enumerate(ball.vertices):
        lines.append(f'  v{i} [label="{format_word(germ, f)}"];')
    for i, j in ball.edges:
        lines.append(f"  v{i} -- v{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def atom_graph_dot(germ: GarsideGerm) -> str:
    lines = ["digraph atom_graph {"]
    for obj in germ.objects:
        lines.append(f'  o{obj.id} [label="{obj.name}"];')
    for a in germ.atoms:
        s = germ.simples[a]
        lines.append(f'  o{s.source} -> o{s.target} [label="{s.name}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_validate(germ: GarsideGerm, forms, args, rep) -> bool:
    rep.add("objects", len(germ.objects))
    rep.add("simples", len(germ.simples))
    rep.add("atoms", len(germ.atoms))
    rep.add("phi_order", germ.phi_order)
    rep.add("garside_dimension", garside_dimension(germ))
    rep.add("components", len(components(germ)))
    if args.out:
        Path(args.out).write_text(atom_graph_dot(germ), encoding="utf-8")
        rep.add("out", args.out, f"wrote atom graph to {args.out}")
    return True


def cmd_nerve(germ: GarsideGerm, forms, args, rep) -> bool:
    dim = garside_dimension(germ)
    top = args.dim if args.dim is not None else dim
    if top < 0:
        raise GermError("dimension must be non-negative")
    # One budget pays for the count lines and the listed simplices.
    budget = Budget(args.budget)
    budget.spend(top + 1, f": nerve would print {top + 1} simplex counts")
    totals = nondegenerate_counts(germ)[: top + 1]
    if args.out:
        listed = sum(totals)
        budget.spend(listed, f": the simplex list would hold {listed} simplices")
    cyc = check_cyclic_identities(germ)
    rep.add("garside_dimension", dim)
    rep.add_lazy(
        (f"nondegenerate_{n}", totals[n] if n < len(totals) else 0) for n in range(top + 1)
    )
    rep.add("euler", sum((-1) ** n * c for n, c in enumerate(totals)))
    rep.add("cyclic_identities", "ok" if cyc.ok else "FAIL")
    if args.out:
        lines = nerve_export_lines(germ, top)
        Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
        rep.add("out", args.out, f"wrote {len(lines)} simplices to {args.out}")
    return True


def cmd_zpoly(germ: GarsideGerm, forms, args, rep) -> bool:
    samples = args.samples if args.samples is not None else garside_dimension(germ) + 2
    z = fit_z_polynomial(germ, samples, Budget(args.budget))
    rep.add("degree", z.degree)
    rep.add("newton_coefficients", (" ".join(map(str, z.head)) + " 0" * z.zeros).lstrip())
    rep.add_lazy((f"Z({m})", z(m)) for m in range(1, samples + 3))
    return True


def cmd_cover(germ: GarsideGerm, forms, args, rep) -> bool:
    basepoint = germ.object_named(args.source) if args.source else 0
    ball = cover_ball(germ, basepoint, args.radius, Budget(args.budget))
    rep.add("vertices", len(ball.vertices))
    rep.add("edges", len(ball.edges))
    if args.out:
        Path(args.out).write_text(cover_ball_dot(germ, ball), encoding="utf-8")
        rep.add("out", args.out, f"wrote DOT graph to {args.out}")
    return True
