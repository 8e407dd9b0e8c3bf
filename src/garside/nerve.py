"""
nerve: combinatorics of the Garside nerve.

Simplices are composable tuples (f_1, ..., f_n) of simples whose product
left-divides Δ at the basepoint; since every simple at an object divides Δ
there, a tuple is a simplex exactly when all its partial products are defined
in the germ. The unique factor completing the product to Δ makes the
n-simplices the (n+1)-subdivisions of Δ without their last factor, and they
are enumerated so. Nondegenerate simplices have no identity factor and
biject with strict chains 1 < u_1 < ... < u_n ≤ Δ, so they are counted
from `chain_counts` without being listed.

Also here: the special degeneracy (complete the product to Δ) and first face
operators with their cyclic-shift identities, the counting polynomial
Z(m) = |D_m| read off the nondegenerate simplex counts, and the bounded
universal-cover ball export.
"""

from __future__ import annotations

from itertools import zip_longest
from math import comb
from typing import NamedTuple

from .germ import (
    GarsideGerm,
    GermError,
    InternalError,
    as_budget,
    chain_counts,
    enumerate_subdivisions,
)
from .words import NormalForm, format_word, identity_nf, multiply, target


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


def enumerate_simplices(germ: GarsideGerm, n: int) -> list[NerveSimplex]:
    """All n-simplices of the Garside nerve (identity factors allowed)."""
    if n < 0:
        raise GermError("dimension must be non-negative")
    simplices = [
        NerveSimplex(germ.simples[f[0]].source, f[:-1])
        for f in enumerate_subdivisions(germ, n + 1)
    ]
    return sorted(simplices, key=lambda sx: (sx.basepoint, sx.factors))


def enumerate_nondegenerate(germ: GarsideGerm, n: int) -> list[NerveSimplex]:
    """Simplices with no identity factor: strict chains 1 < u_1 < ... < u_n ≤ Δ."""
    return [
        sx
        for sx in enumerate_simplices(germ, n)
        if all(not germ.is_identity(s) for s in sx.factors)
    ]


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


def check_cyclic_identities(germ: GarsideGerm, up_to_dim: int) -> CyclicReport:
    """
    (a) degeneracy-after-face is the φ-twisted cyclic shift on Δ-subdivisions;
    (b) (n+1)-fold face-after-degeneracy applies φ factor-wise on n-simplices.
    It visits Σ_k N_k·C(up_to_dim + 1, k + 1) simplices, spent from the default budget first.
    """
    if up_to_dim < 0:
        raise GermError("dimension must be non-negative")
    total = sum(n * comb(up_to_dim + 1, k + 1) for k, n in enumerate(nondegenerate_counts(germ)))
    as_budget(None).spend(total, f": the cyclic-identity check would visit {total} simplices")
    checked = 0
    bad_shift: list[NerveSimplex] = []
    bad_power: list[NerveSimplex] = []
    for n in range(up_to_dim + 1):
        for sx in enumerate_simplices(germ, n):
            checked += 1
            if n >= 1:
                if germ.is_delta(germ.fold_product(germ.identity[sx.basepoint], sx.factors)):
                    got = special_degeneracy(germ, face_zero(germ, sx))
                    want = NerveSimplex(
                        germ.simples[sx.factors[0]].target,
                        sx.factors[1:] + (germ.phi_simple[sx.factors[0]],),
                    )
                    if got != want:
                        bad_shift.append(sx)
            cur = sx
            for _ in range(n + 1):
                cur = face_zero(germ, special_degeneracy(germ, cur))
            want = NerveSimplex(
                germ.phi_obj[sx.basepoint],
                tuple(germ.phi_simple[s] for s in sx.factors),
            )
            if cur != want:
                bad_power.append(sx)
    return CyclicReport(checked, bad_shift, bad_power)


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


def fit_z_polynomial(germ: GarsideGerm, samples: int) -> ZPolynomial:
    """
    Z(m) = |D_m|: coefficient n is Σ_x N_n(x) (`chain_counts`), padded with
    zeros to `samples` terms, one default-budget step each. The degree must
    be the Garside dimension, found by an independent divisor-DAG walk.
    """
    dim = garside_dimension(germ)
    if samples < dim + 2:
        raise GermError(f"need at least dim+2 = {dim + 2} samples")
    as_budget(None).spend(samples, f": the polynomial would have {samples} coefficients")
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


def cover_ball_size(germ: GarsideGerm, basepoint: int, radius: int) -> int:
    """
    The vertex count Σ_{l ≤ r} G_l·(r − l + 1) of the cover ball: a vertex is
    s_1…s_l·Δ^k with k ≤ r − l, and G_l counts the greedy s_1…s_l out of the
    basepoint, no factor an identity or a Δ, by a DP over the last factor.
    The ball's search forms one product per vertex and non-identity simple at
    its target (φ keeps out-degrees); those are spent from the default budget
    level by level, so the DP stops once they pass it.
    """
    inner = [[s for s in out if germ.simples[s].length and not germ.is_delta(s)]
             for out in germ.by_source]
    follow = {germ.identity[basepoint]: inner[basepoint]}    # a -> the b with a·b greedy
    count = {germ.identity[basepoint]: 1}                    # last factor -> G_l
    vertices = products = 0
    for spare in range(radius, -1, -1):                      # spare = r − l
        if not count:
            break
        vertices += (spare + 1) * sum(count.values())
        products += (spare + 1) * sum(
            n * (len(germ.by_source[germ.simples[a].target]) - 1) for a, n in count.items()
        )
        as_budget(None).spend(products, f": the cover ball of radius {radius} would form "
                              f"at least {products} products")
        nxt: dict[int, int] = {}
        for a, n in count.items():
            if a not in follow:
                bar = germ.complement(a)
                follow[a] = [b for b in inner[germ.simples[a].target]
                             if germ.is_identity(germ.meet(bar, b))]
            for b in follow[a]:
                nxt[b] = nxt.get(b, 0) + n
        count = nxt
    return vertices


def cover_ball(germ: GarsideGerm, basepoint: int, radius: int) -> CoverBall:
    """
    Positive morphisms from the basepoint with sup ≤ radius; edges join f, g
    when f^{-1}g or g^{-1}f is simple, that is when g = f·s or f = g·s for a
    non-identity simple s (Δ included). The breadth-first search computes
    every such f·s inside the ball, so it records the edges as it goes; its
    vertex count must match `cover_ball_size`, which spends its products first.
    """
    if radius < 0:
        raise GermError("radius must be non-negative")
    size = cover_ball_size(germ, basepoint, radius)
    seen = {identity_nf(basepoint)}
    frontier = list(seen)
    steps = set()
    while frontier:
        new = []
        for f in frontier:
            at = target(germ, f)
            for sid in germ.by_source[at]:
                if germ.is_identity(sid):
                    continue
                g = multiply(germ, f, NormalForm(at, (sid,), 0))
                if g.sup <= radius:
                    steps.add((f, g))
                    if g not in seen:
                        seen.add(g)
                        new.append(g)
        frontier = new
    if len(seen) != size:
        raise InternalError(f"the cover ball has {len(seen)} vertices, forecast {size}")
    vertices = sorted(seen, key=lambda f: (f.sup, f.delta_exp, f.factors))
    index = {f: i for i, f in enumerate(vertices)}
    edges = sorted({tuple(sorted((index[f], index[g]))) for f, g in steps})
    return CoverBall(basepoint, radius, vertices, edges)


# -- exports -----------------------------------------------------------------

def nerve_export_lines(germ: GarsideGerm, up_to_dim: int) -> list[str]:
    lines = []
    for n in range(up_to_dim + 1):
        for sx in enumerate_nondegenerate(germ, n):
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
