"""
Brute-force oracles, kept independent of the library code paths they check.
Everything here works straight off the product dict by exhaustive scanning.
"""

import math
from fractions import Fraction
from itertools import permutations, product as cartesian

from typing import NamedTuple

from garside import NormalForm, invert, multiply, normal_form, power
from garside.builtins import _compose, _perm_inv
from garside.conjugacy import FixedGermReport
from garside.germ import (
    BudgetExceeded,
    GarsideGerm,
    GermError,
    GermTable,
    GermValidationError,
    InternalError,
    assemble_table,
    components,
    validate,
)
from garside.words import MAX_WORD_FACTORS, _delta_token, delta_power, identity_nf, target


def divides(germ, a: int, b: int) -> bool:
    """a ≤ b read off the raw product table."""
    if a == b:
        return True
    return any(c == b and x == a for (x, _), c in germ.product.items())


def lower_bounds(germ, a: int, b: int) -> set[int]:
    out = germ.by_source[germ.simples[a].source]
    return {c for c in out if divides(germ, c, a) and divides(germ, c, b)}


def upper_bounds(germ, a: int, b: int) -> set[int]:
    out = germ.by_source[germ.simples[a].source]
    return {c for c in out if divides(germ, a, c) and divides(germ, b, c)}


def maxima(germ, subset: set[int]) -> list[int]:
    return [m for m in subset if all(divides(germ, c, m) for c in subset)]


def minima(germ, subset: set[int]) -> list[int]:
    return [m for m in subset if all(divides(germ, m, c) for c in subset)]


def join(germ, a: int, b: int) -> int:
    """a ∨ b: the shortest simple that a and b both left-divide, read off germ.divisors."""
    out = germ.by_source[germ.simples[a].source]
    ups = [c for c in out if a in germ.divisors[c] and b in germ.divisors[c]]
    return min(ups, key=lambda c: germ.simples[c].length)


def copy_table(t) -> GermTable:
    """
    A fresh GermTable with the same ids and product order. A validated germ
    copies as a table that declares every Δ_x, as the divided and fixed germs
    are built.
    """
    delta = t.declared_delta if isinstance(t, GermTable) else dict(enumerate(t.delta))
    return GermTable(t.objects, t.simples, dict(t.product), list(t.identity), dict(delta))


def subdivision_tuples(germ, oid: int, m: int) -> list[tuple[int, ...]]:
    """All m-tuples of simples with product Δ, by raw cartesian scan."""
    out = []
    dx = germ.delta[oid]
    for tup in cartesian(*([range(len(germ.simples))] * m)):
        if germ.simples[tup[0]].source != oid:
            continue
        prod = tup[0]
        ok = True
        for sid in tup[1:]:
            prod2 = germ.product.get((prod, sid))
            if prod2 is None:
                ok = False
                break
            prod = prod2
        if ok and prod == dx:
            out.append(tup)
    return sorted(out)


def word_rewrites(germ, word: tuple[int, ...]) -> list[tuple[int, ...]]:
    """One-step germ rewrites: contract a product (I) or drop an identity (II)."""
    out = []
    for i in range(len(word) - 1):
        c = germ.product.get((word[i], word[i + 1]))
        if c is not None:
            out.append(word[:i] + (c,) + word[i + 2 :])
    for i, sid in enumerate(word):
        if germ.simples[sid].length == 0:
            out.append(word[:i] + word[i + 1 :])
    return out


def all_words(germ, source: int, max_len: int) -> list[tuple[int, ...]]:
    words = [()]
    frontier = [((), source)]
    for _ in range(max_len):
        new = []
        for word, at in frontier:
            for sid in germ.by_source[at]:
                w2 = word + (sid,)
                new.append((w2, germ.simples[sid].target))
                words.append(w2)
        frontier = new
    return words


def positive_elements(germ, source: int, max_factors: int) -> set[NormalForm]:
    """Distinct elements represented by words of at most max_factors simples."""
    seen = {NormalForm(source, (), 0)}
    frontier = [NormalForm(source, (), 0)]
    for _ in range(max_factors):
        new = []
        for f in frontier:
            at = _target(germ, f)
            for sid in germ.by_source[at]:
                if germ.simples[sid].length == 0:
                    continue
                g = multiply(germ, f, NormalForm(at, (sid,), 0))
                if g not in seen:
                    seen.add(g)
                    new.append(g)
        frontier = new
    return seen


def _target(germ, f: NormalForm) -> int:
    at = f.source
    for sid in f.factors:
        at = germ.simples[sid].target
    return germ.phi_power_obj(at, f.delta_exp)


def brute_summit_set(germ, g: NormalForm, conj_len: int = 6) -> set[NormalForm]:
    """
    Conjugate by every element w·Δ^j with w positive of ≤ conj_len factors and
    j in range(phi_order); keep the (max inf, min sup) slice.
    """
    conjugates = set()
    for w in positive_elements(germ, g.source, conj_len):
        for j in range(germ.phi_order):
            c = multiply(germ, w, delta_power(germ, _target(germ, w), j))
            h = multiply(germ, invert(germ, c), multiply(germ, g, c))
            conjugates.add(h)
    best_inf = max(h.inf for h in conjugates)
    best_sup = min(h.sup for h in conjugates)
    return {h for h in conjugates if h.inf == best_inf and h.sup == best_sup}


def pairwise_cover_edges(germ, vertices: list[NormalForm]) -> list[tuple[int, int]]:
    """
    The edges of a cover ball by their definition: every pair i < j of
    vertices with f^{-1}g or g^{-1}f a simple morphism (a non-identity
    simple, Δ included), tried with an invert and a multiply per pair.
    """
    def is_positive_simple(f: NormalForm) -> bool:
        return f.inf >= 0 and f.sup <= 1 and f != identity_nf(f.source)

    edges = []
    for i in range(len(vertices)):
        for j in range(i + 1, len(vertices)):
            d = multiply(germ, invert(germ, vertices[i]), vertices[j])
            if is_positive_simple(d) or is_positive_simple(invert(germ, d)):
                edges.append((i, j))
    return edges


def recursive_garside_dimension(germ) -> int:
    """
    Longest strict divisibility chain at each object, by memoised recursion
    upward from the identity: one stack frame per chain step.
    """
    best = 0
    for obj in germ.objects:
        depth: dict[int, int] = {}

        def longest(sid: int) -> int:
            if sid in depth:
                return depth[sid]
            d = 0
            for c in germ.by_source[obj.id]:
                if c != sid and sid in germ.divisors[c]:
                    d = max(d, 1 + longest(c))
            depth[sid] = d
            return d

        best = max(best, longest(germ.identity[obj.id]))
    return best


def reference_check_table(table) -> None:
    """
    GermTable invariants, with the full associativity walk: each product
    a·b is tried against every simple on the far side of b.
    """
    simples = table.simples
    product = table.product
    names = set()
    for s in simples:
        if s.name in names:
            raise GermValidationError(f"duplicate simple name {s.name!r}")
        names.add(s.name)
        if (s.length == 0) != (s.id in table.identity):
            raise GermValidationError(f"length 0 iff identity violated at {s.name!r}")
    for (a, b), c in product.items():
        sa, sb, sc = simples[a], simples[b], simples[c]
        if sa.target != sb.source or sc.source != sa.source or sc.target != sb.target:
            raise GermValidationError(f"product {sa.name}·{sb.name} endpoints mismatched")
        if sa.length + sb.length != sc.length:
            raise GermValidationError(f"length non-additive at {sa.name}·{sb.name}")
    for s in simples:
        if product.get((table.identity[s.source], s.id)) != s.id:
            raise GermValidationError(f"left unit fails at {s.name!r}")
        if product.get((s.id, table.identity[s.target])) != s.id:
            raise GermValidationError(f"right unit fails at {s.name!r}")

    by_source: dict[int, list[int]] = {}
    by_target: dict[int, list[int]] = {}
    for s in simples:
        by_source.setdefault(s.source, []).append(s.id)
        by_target.setdefault(s.target, []).append(s.id)

    # (assoc): both bracketings agree, including definedness. Triples where
    # neither adjacent pair multiplies are vacuous, so it is enough to walk
    # defined products and attach a third factor on either side.
    for (a, b), ab in product.items():
        for c in by_source.get(simples[b].target, ()):
            e1 = product.get((ab, c))
            bc = product.get((b, c))
            e2 = product.get((a, bc)) if bc is not None else None
            if e1 != e2:
                raise GermValidationError(
                    "associativity fails at "
                    f"({simples[a].name}, {simples[b].name}, {simples[c].name})"
                )
    for (b, c), bc in product.items():
        for a in by_target.get(simples[b].source, ()):
            e2 = product.get((a, bc))
            ab = product.get((a, b))
            e1 = product.get((ab, c)) if ab is not None else None
            if e1 != e2:
                raise GermValidationError(
                    "associativity fails at "
                    f"({simples[a].name}, {simples[b].name}, {simples[c].name})"
                )


def reference_delta(table):
    """
    The reference's checks up to Δ: the table invariants, cancellativity,
    the divisor and quotient tables, and Δ_x as the maximum of S_{x->}.
    These are what the complement's order reversal rests on.
    """
    reference_check_table(table)
    germ = GarsideGerm(table)
    germ.right_divs, germ.lquot, germ.rquot = [], {}, {}
    simples = germ.simples
    product = germ.product

    # Cancellativity, with witness triples.
    seen: dict[tuple[int, int], int] = {}
    for (a, b), c in product.items():
        key = (a, c)
        if key in seen and seen[key] != b:
            raise GermValidationError(
                f"left cancellativity fails: {simples[a].name}·{simples[seen[key]].name} "
                f"= {simples[a].name}·{simples[b].name} = {simples[c].name}"
            )
        seen[key] = b
    seen.clear()
    for (a, b), c in product.items():
        key = (b, c)
        if key in seen and seen[key] != a:
            raise GermValidationError(
                f"right cancellativity fails: {simples[seen[key]].name}·{simples[b].name} "
                f"= {simples[a].name}·{simples[b].name} = {simples[c].name}"
            )
        seen[key] = a

    # Divisibility and quotient tables.
    ldivs: list[set[int]] = [{germ.identity[s.source], s.id} for s in simples]
    rdivs: list[set[int]] = [{germ.identity[s.target], s.id} for s in simples]
    for (a, b), c in product.items():
        ldivs[c].add(a)
        rdivs[c].add(b)
        germ.lquot[(a, c)] = b
        germ.rquot[(b, c)] = a
    germ.left_divs = [frozenset(d) for d in ldivs]
    germ.right_divs = [frozenset(d) for d in rdivs]

    # Δ_x: the maximum of (S_{x->}, ≤). Uniqueness follows from antisymmetry
    # (homogeneity makes ≤ a partial order).
    germ.delta = [-1] * len(germ.objects)
    for obj in germ.objects:
        out = germ.by_source[obj.id]
        top = [s for s in out if all(t in germ.left_divs[s] for t in out)]
        if len(top) != 1:
            raise GermValidationError(
                f"no maximum in simples out of object {obj.name!r}"
            )
        germ.delta[obj.id] = top[0]
        declared = table.declared_delta.get(obj.id)
        if declared is not None and declared != top[0]:
            raise GermValidationError(
                f"declared delta {simples[declared].name!r} at {obj.name!r} is not the maximum"
            )
    return germ


def antitone_witness(germ, out: list[int]) -> tuple[int, int] | None:
    """
    The first pair (a, b) of simples out of one object where a ≤ b and
    "complement(b) right-divides complement(a)" disagree, or None.

    garside.validate does not run this check, because it cannot fail once
    associativity, cancellativity and Δ hold: b = a·c gives ā = c·b̄ by
    associativity and left cancellation, and ā = c·b̄ gives b = a·c by
    associativity and right cancellation.
    """
    for a in out:
        for b in out:
            le = a in germ.left_divs[b]
            ge = germ.complement[b] in germ.right_divs[germ.complement[a]]
            if le != ge:
                return a, b
    return None


def missing_complement(germ) -> int | None:
    """
    The first simple s with no s̄ such that s·s̄ = Δ_source(s), or None.

    garside.validate does not run this check, because it cannot fail once Δ
    passes: Δ_x has every simple out of x as a left divisor, and every left
    divisor of Δ_x has an lquot entry under it. An identity and Δ_x itself
    get one from the unit products, and every other divisor s from its
    product s·s̄ = Δ_x.
    """
    return next(
        (s.id for s in germ.simples if (s.id, germ.delta[s.source]) not in germ.lquot), None
    )


def reference_validate(table):
    """
    The set-based validator: Δ by an all-pairs scan, meets and joins as the
    longest common divisor checked against every common divisor, and the
    atom closure over every atom. Same checks, order and messages as
    garside.validate, plus the complement existence and antitone checks
    that it omits.
    """
    germ = reference_delta(table)
    germ.meet_table = {}
    simples = germ.simples
    product = germ.product
    germ.phi_obj = [simples[germ.delta[oid]].target for oid in range(len(germ.objects))]
    if sorted(germ.phi_obj) != list(range(len(germ.objects))):
        raise GermValidationError("targets of the delta simples do not permute objects")

    # Complement s̄: s·s̄ = Δ_source(s); a bijection S_{x->} -> S_{->xφ}
    # reversing order (axiom (iii)).
    missing = missing_complement(germ)
    if missing is not None:
        raise GermValidationError(
            f"no complement: {simples[missing].name!r} does not left-divide its delta"
        )
    germ.complement = [germ.lquot[(s.id, germ.delta[s.source])] for s in simples]
    by_target: list[set[int]] = [set() for _ in germ.objects]
    for s in simples:
        by_target[s.target].add(s.id)
    for obj in germ.objects:
        out = germ.by_source[obj.id]
        image = {germ.complement[s] for s in out}
        if len(image) != len(out) or image != by_target[germ.phi_obj[obj.id]]:
            raise GermValidationError(
                f"complement is not a bijection at object {obj.name!r}"
            )
        pair = antitone_witness(germ, out)
        if pair is not None:
            a, b = pair
            raise GermValidationError(
                f"complement not antitone at pair ({simples[a].name}, {simples[b].name})"
            )

    # φ = double complement; must be a germ automorphism.
    germ.phi_simple = [germ.complement[germ.complement[s.id]] for s in simples]
    check_automorphism(germ, Automorphism(tuple(germ.phi_obj), tuple(germ.phi_simple)), "phi")
    germ.phi_simple_inv = [0] * len(simples)
    for a, b in enumerate(germ.phi_simple):
        germ.phi_simple_inv[b] = a

    germ.phi_order = permutation_order(germ.phi_simple)

    # Lattice: meets exist for every same-source pair; joins then exist too
    # (finite meet-semilattice with top), computed via the complement duality.
    length = [s.length for s in simples]
    for obj in germ.objects:
        out = germ.by_source[obj.id]
        for a in out:
            for b in out:
                common = germ.left_divs[a] & germ.left_divs[b]
                m = max(common, key=lambda c: (length[c], -c))
                if any(c not in germ.left_divs[m] for c in common):
                    raise GermValidationError(
                        f"pair ({simples[a].name}, {simples[b].name}) lacks a meet"
                    )
                germ.meet_table[(a, b)] = m
                # join(a, b) = complement^{-1} of the greatest common
                # right-divisor of the complements.
                ca, cb = germ.complement[a], germ.complement[b]
                rcommon = germ.right_divs[ca] & germ.right_divs[cb]
                g = max(rcommon, key=lambda c: (length[c], -c))
                if any(c not in germ.right_divs[g] for c in rcommon):
                    raise GermValidationError(
                        f"pair ({simples[a].name}, {simples[b].name}) lacks a join"
                    )
                j = germ.rquot.get((g, germ.delta[obj.id]))
                if j is None or a not in germ.left_divs[j] or b not in germ.left_divs[j]:
                    raise GermValidationError(
                        f"pair ({simples[a].name}, {simples[b].name}) lacks a join"
                    )

    # Atoms generate: every simple is a product of atoms.
    nontrivial_products = {
        c for (a, b), c in product.items()
        if length[a] > 0 and length[b] > 0
    }
    germ.atoms = sorted(
        s.id for s in simples if length[s.id] > 0 and s.id not in nontrivial_products
    )
    reach = set(germ.identity)
    frontier = list(reach)
    while frontier:
        new = []
        for u in frontier:
            for a in germ.atoms:
                c = product.get((u, a))
                if c is not None and c not in reach:
                    reach.add(c)
                    new.append(c)
        frontier = new
    if len(reach) != len(simples):
        missing = next(s for s in simples if s.id not in reach)
        raise GermValidationError(f"simple {missing.name!r} is not a product of atoms")

    return germ


def permutation_order(perm: list[int]) -> int:
    """The order of a permutation, by walking each cycle and folding gcds."""
    order = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        n = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            n += 1
        order = order * n // math.gcd(order, n)
    return order


def fixpoint_normalize(germ, source: int, factors: list[int], k: int) -> NormalForm:
    """
    Normal form of factors·Δ^k by rewriting to a fixpoint: drop identities,
    migrate every Δ to the right end, and sweep the greedy transfers from
    left to right, until a pass changes nothing.
    """
    if len(factors) > MAX_WORD_FACTORS:
        raise BudgetExceeded(
            f"word exceeds the {MAX_WORD_FACTORS}-factor computation limit"
        )
    changed = True
    while changed:
        changed = False
        # Drop identity factors (case (II) rewriting).
        kept = [s for s in factors if not germ.is_identity(s)]
        if len(kept) != len(factors):
            factors = kept
            changed = True
        # Migrate Δ factors to the right end: Δ·g = g^{φ^{-1}}·Δ.
        i = 0
        while i < len(factors):
            if germ.is_delta(factors[i]):
                for j in range(i + 1, len(factors)):
                    factors[j] = germ.phi_simple_inv[factors[j]]
                del factors[i]
                k += 1
                changed = True
            else:
                i += 1
        # One left-to-right greedy sweep.
        for i in range(len(factors) - 1):
            a, b = factors[i], factors[i + 1]
            u = germ.meet(germ.complement[a], b)
            if not germ.is_identity(u):
                prod = germ.product_of(a, u)
                if prod is None:
                    raise InternalError("normal form: a·u is not simple although u ≤ complement(a)")
                factors[i] = prod
                factors[i + 1] = germ.divisors[b][u]
                changed = True
    return NormalForm(source, tuple(factors), k)


def fixpoint_multiply(germ, f: NormalForm, g: NormalForm) -> NormalForm:
    """The composite f·g through fixpoint_normalize."""
    if target(germ, f) != g.source:
        raise GermError("multiply: endpoint mismatch")
    twisted = [germ.phi_power(s, -f.delta_exp) for s in g.factors]
    return fixpoint_normalize(
        germ, f.source, list(f.factors) + twisted, f.delta_exp + g.delta_exp
    )


def fixpoint_parse_word(germ, text: str) -> NormalForm:
    """The word syntax of garside.parse_word, read as one fixpoint_multiply per token."""
    toks = text.split()
    source = None
    if toks and toks[0].startswith("@"):
        source = germ.object_named(toks[0][1:])
        toks = toks[1:]
    if source is None:
        for tok in toks:
            if not _delta_token(tok):
                source = germ.simples[germ.simple_named(tok)].source
                break
    if source is None:
        raise GermError("ambiguous word: prefix it with @<object>")
    res = identity_nf(source)
    for tok in toks:
        d = _delta_token(tok)
        if d is not None:
            res = fixpoint_multiply(germ, res, delta_power(germ, target(germ, res), d))
        else:
            sid = germ.simple_named(tok)
            piece = fixpoint_normalize(germ, germ.simples[sid].source, [sid], 0)
            res = fixpoint_multiply(germ, res, piece)
    return res


def closed_form_inverse(germ, f: NormalForm) -> NormalForm:
    """
    The normal form of f⁻¹ read off f = s_1…s_ℓ·Δ^k with no normalization
    (El-Rifai–Morton 1994): from the target of f, the factors
    φ^{k+ℓ−i}(s̄_i) for i = ℓ, …, 1, then Δ^{−k−ℓ}.
    """
    ell, k = len(f.factors), f.delta_exp
    factors = tuple(
        germ.phi_power(germ.complement[f.factors[i - 1]], k + ell - i) for i in range(ell, 0, -1)
    )
    return NormalForm(target(germ, f), factors, -k - ell)


def reference_is_periodic(germ, gamma: NormalForm, p: int, q: int) -> bool:
    """γ^q = Δ^p, decided by computing all of γ^q (q - 1 products)."""
    return power(germ, gamma, q) == delta_power(germ, gamma.source, p)


# -- general automorphisms: the materialized route fixed_subgerm(germ, p, q) replaced

class Automorphism(NamedTuple):
    """A germ automorphism, given by its action on object and simple ids."""

    obj_map: tuple[int, ...]
    simple_map: tuple[int, ...]


def phi_automorphism(germ, power: int = 1) -> Automorphism:
    """φ^power as explicit maps, composed one φ at a time."""
    obj_map, simple_map = tuple(range(len(germ.objects))), tuple(range(len(germ.simples)))
    for _ in range(power % germ.phi_order):
        obj_map = tuple(germ.phi_obj[x] for x in obj_map)
        simple_map = tuple(germ.phi_simple[s] for s in simple_map)
    return Automorphism(obj_map, simple_map)


def check_automorphism(germ, psi: Automorphism, name: str = "psi") -> None:
    """Raise unless psi is an automorphism of the Garside structure; errors say `name`."""
    if sorted(psi.obj_map) != list(range(len(germ.objects))):
        raise GermValidationError(f"{name} does not permute objects")
    if sorted(psi.simple_map) != list(range(len(germ.simples))):
        raise GermValidationError(f"{name} does not permute simples")
    for s in germ.simples:
        img = germ.simples[psi.simple_map[s.id]]
        if (
            img.source != psi.obj_map[s.source]
            or img.target != psi.obj_map[s.target]
            or img.length != s.length
        ):
            raise GermValidationError(f"{name} does not preserve the graph at {s.name!r}")
    inv = [0] * len(psi.simple_map)
    for a, b in enumerate(psi.simple_map):
        inv[b] = a
    for (a, b), c in germ.product.items():
        if germ.product.get((psi.simple_map[a], psi.simple_map[b])) != psi.simple_map[c]:
            raise GermValidationError(f"{name} does not preserve the product")
        if (inv[a], inv[b]) not in germ.product:
            raise GermValidationError(f"{name} inverse does not preserve definedness")
    for sid in range(len(germ.simples)):
        if psi.simple_map[germ.phi_simple[sid]] != germ.phi_simple[psi.simple_map[sid]]:
            raise GermValidationError(f"{name} does not commute with phi")
    for oid in range(len(germ.objects)):
        if psi.simple_map[germ.delta[oid]] != germ.delta[psi.obj_map[oid]]:
            raise GermValidationError(f"{name} does not map delta to delta")


def reference_psi_star(germ, psi: Automorphism, sid: int) -> int:
    """Iterated join of the psi-orbit of a simple."""
    u = sid
    while True:
        v = join(germ, u, psi.simple_map[u])
        if v == u:
            return u
        u = v


def reference_fixed_subgerm(germ, psi: Automorphism) -> FixedGermReport:
    """
    The subgerm of psi-invariant simples at psi-fixed objects, for any
    automorphism psi. Its inclusions hold ids of the ambient germ; with germ
    the q-divided germ and psi = φ^p, this is the materialized route to
    fixed_subgerm(base, p, q).
    """
    check_automorphism(germ, psi)
    fixed_objs = [o.id for o in germ.objects if psi.obj_map[o.id] == o.id]
    for oid in fixed_objs:
        if psi.simple_map[germ.delta[oid]] != germ.delta[oid]:
            raise GermValidationError("psi does not fix delta at a fixed object")
    if not fixed_objs:
        return FixedGermReport(None, [], [], [], {})
    obj_pos = {o: i for i, o in enumerate(fixed_objs)}
    steps = [
        s for s in germ.simples
        if s.length > 0 and psi.simple_map[s.id] == s.id
        and s.source in obj_pos and s.target in obj_pos
    ]
    inclusion = [germ.identity[o] for o in fixed_objs] + [s.id for s in steps]
    sub_id = {amb: i for i, amb in enumerate(inclusion)}
    products = []
    for (a, b), c in germ.product.items():
        if a in sub_id and b in sub_id and not germ.is_identity(a) and not germ.is_identity(b):
            if c not in sub_id:
                raise GermValidationError("product of invariant simples is not invariant")
            products.append((sub_id[a], sub_id[b], sub_id[c]))
    simples = [(s.name, obj_pos[s.source], obj_pos[s.target], s.length) for s in steps]
    delta = {i: sub_id[germ.delta[o]] for i, o in enumerate(fixed_objs)}
    sub = validate(assemble_table(
        [germ.object_name(o) for o in fixed_objs], simples, products, delta
    ))
    atoms_realized = {}
    for b in sub.atoms:
        amb_atom = next(a for a in germ.atoms if a in germ.divisors[inclusion[b]])
        if reference_psi_star(germ, psi, amb_atom) != inclusion[b]:
            raise GermValidationError(
                f"subgerm atom {sub.simple_name(b)!r} is not a psi_* closure"
            )
        atoms_realized[b] = amb_atom
    return FixedGermReport(sub, fixed_objs, inclusion, components(sub), atoms_realized)


def germ_isomorphism(g1: GarsideGerm, g2: GarsideGerm) -> dict[int, int] | None:
    """
    Search for a germ isomorphism (a simple-id map preserving everything).
    Backtracking; intended for desk-scale germs only. Returns None if the
    germs are not isomorphic.
    """
    if (
        len(g1.objects) != len(g2.objects)
        or len(g1.simples) != len(g2.simples)
        or len(g1.product) != len(g2.product)
    ):
        return None

    def profile(g: GarsideGerm, sid: int) -> tuple:
        s = g.simples[sid]
        return (s.length, len(g.divisors[sid]), g.is_delta(sid),
                g.simples[g.phi_simple[sid]].length)

    p1 = {s.id: profile(g1, s.id) for s in g1.simples}
    buckets: dict[tuple, list[int]] = {}
    for s in g2.simples:
        buckets.setdefault(profile(g2, s.id), []).append(s.id)
    order = sorted(range(len(g1.simples)), key=lambda sid: len(buckets.get(p1[sid], [])))

    smap: dict[int, int] = {}
    omap: dict[int, int] = {}
    used: set[int] = set()

    def objects_ok(sid: int, tid: int) -> bool:
        s, t = g1.simples[sid], g2.simples[tid]
        for o1, o2 in ((s.source, t.source), (s.target, t.target)):
            if omap.get(o1, o2) != o2:
                return False
        return True

    def assign(sid: int, tid: int, undo: list) -> bool:
        s, t = g1.simples[sid], g2.simples[tid]
        for o1, o2 in ((s.source, t.source), (s.target, t.target)):
            if o1 not in omap:
                omap[o1] = o2
                undo.append(o1)
        smap[sid] = tid
        used.add(tid)
        for a, ta in list(smap.items()):
            for x, y in ((sid, a), (a, sid)):
                c = g1.product.get((x, y))
                c2 = g2.product.get((smap[x], smap[y]))
                if (c is None) != (c2 is None):
                    return False
                if c is not None and c in smap and smap[c] != c2:
                    return False
        return True

    def backtrack(i: int) -> bool:
        if i == len(order):
            return all(smap[c] == g2.product.get((smap[a], smap[b]))
                       for (a, b), c in g1.product.items())
        sid = order[i]
        if sid in smap:
            return backtrack(i + 1)
        for tid in buckets.get(p1[sid], []):
            if tid in used or not objects_ok(sid, tid):
                continue
            undo: list[int] = []
            ok = assign(sid, tid, undo)
            if ok and backtrack(i + 1):
                return True
            del smap[sid]
            used.discard(tid)
            for o in undo:
                del omap[o]
        return False

    if backtrack(0):
        return dict(smap)
    return None


# -- the ladder target rule that the subdivision, twist and slide reads replaced --

def ladder_target(
    germ: GarsideGerm, src: tuple[int, ...], cols: tuple[int, ...]
) -> tuple[int, ...] | None:
    """Target of the would-be ladder, or None if a diagonal product is undefined."""
    m = len(src)
    # The diagonal quotient(s_i, f_i) is None exactly when s_i ≼ f_i fails.
    diag = [germ.divisors[f].get(s) for s, f in zip(cols, src)]
    if None in diag:
        return None
    tgt = []
    for i in range(m):
        nxt = cols[i + 1] if i + 1 < m else germ.phi_simple[cols[0]]
        g = germ.product_of(diag[i], nxt)
        if g is None:
            return None
        tgt.append(g)
    return tuple(tgt)


# -- the slide loops `divided.slide` replaced ----------------------------------

def reference_theta_simple(dg, sid: int) -> NormalForm:
    """
    Θ_m of a base simple: slide the column holding s from the Δ slot leftward
    one place per step, one product per ladder.
    """
    from garside.divided import theta_object

    base, m = dg.base, dg.m
    s = base.simples[sid]
    cur = theta_object(base, s.source, m)
    res = identity_nf(dg.object_of(cur))
    for pos in range(m - 1, -1, -1):
        cols = tuple(
            sid if i == pos else base.identity[base.simples[cur[i]].source] for i in range(m)
        )
        tgt = ladder_target(base, cur, cols)
        if tgt is None:
            raise InternalError("theta slide produced an invalid ladder")
        res = multiply(dg.germ, res, normal_form(dg.germ, [dg.ladder_simple(cur, cols)]))
        cur = tgt
    if cur != theta_object(base, s.target, m):
        raise InternalError("theta did not land on the expected object")
    return res


def reference_theta_morphism(dg, f: NormalForm) -> NormalForm:
    """Θ_m as one product per factor, with Θ_m(Δ^k) = Δ_m^{mk}."""
    from garside.divided import theta_object

    res = identity_nf(dg.object_of(theta_object(dg.base, f.source, dg.m)))
    for sid in f.factors:
        res = multiply(dg.germ, res, reference_theta_simple(dg, sid))
    return NormalForm(res.source, res.factors, res.delta_exp + dg.m * f.delta_exp)


def _tuple_object_at(germ, words_t: list[list[int]], i: int) -> int:
    """Source object of slot i in a word tuple; scan forward for a letter."""
    q = len(words_t)
    for j in range(i, q):
        if words_t[j]:
            return germ.simples[words_t[j][0]].source
    for j in range(0, i):
        if words_t[j]:
            # past every letter: the target of Δ at the start object
            return germ.phi_obj[germ.simples[words_t[j][0]].source]
    raise GermError("empty word tuple has no anchor object")


def reference_apply_slides(germ, dg, word_tuple, slides) -> tuple[NormalForm, list[list[int]]]:
    """
    A slide word through ψ, re-evaluating every slot of the word tuple before
    each slide. Returns (ψ-image, final word tuple).
    """
    q = len(word_tuple)
    words_t = [list(w) for w in word_tuple]

    def evaluate() -> tuple[int, ...]:
        out = []
        for i, w in enumerate(words_t):
            if not w:
                out.append(germ.identity[_tuple_object_at(germ, words_t, i)])
                continue
            prod = w[0]
            for sid in w[1:]:
                prod = germ.product.get((prod, sid))
                if prod is None:
                    raise GermError("slide word does not evaluate to a simple")
            out.append(prod)
        return tuple(out)

    res = identity_nf(dg.object_of(evaluate()))
    for i in slides:
        w = words_t[i - 1]
        if not w:
            raise InternalError(f"slide σ_{i} incompatible with the word tuple")
        a = w[0]
        cur = evaluate()
        cols = tuple(
            a if j == i - 1 else germ.identity[germ.simples[cur[j]].source] for j in range(q)
        )
        if ladder_target(germ, cur, cols) is None:
            raise InternalError("slide does not map to a ladder")
        res = multiply(dg.germ, res, normal_form(dg.germ, [dg.ladder_simple(cur, cols)]))
        del w[0]
        if i > 1:
            words_t[i - 2].append(a)
        else:
            words_t[q - 1].append(germ.phi_simple[a])
    return res, words_t


# -- the ladder search that 2m- and 3m-subdivisions replaced --------------------

def ladders_from(germ, src: tuple[int, ...]) -> list:
    """All ladders with the given source, in column-lexicographic order."""
    from garside.divided import Ladder

    out = []
    for cols in cartesian(*(sorted(germ.divisors[f]) for f in src)):
        tgt = ladder_target(germ, src, cols)
        if tgt is not None:
            out.append(Ladder(src, cols, tgt))
    return out


def reference_divided_table(germ, m: int):
    """
    ladder_of and the GermTable of the m-divided germ by search: every column
    tuple of divisors is filtered through ladder_target, and every pair of
    non-identity ladders a, b with b at a's target is tried by columnwise
    products and a lookup. Simple names are left out.
    """
    from garside.germ import enumerate_subdivisions

    objs = enumerate_subdivisions(germ, m)
    object_ix = {f: i for i, f in enumerate(objs)}
    ladders = [lad for f in objs for lad in ladders_from(germ, f)]
    length = {lad: sum(germ.simples[c].length for c in lad.columns) for lad in ladders}
    order = [lad for lad in ladders if length[lad] == 0]
    order += [lad for lad in ladders if length[lad] > 0]
    simple_ix = {(lad.src, lad.columns): sid for sid, lad in enumerate(order)}
    by_src: dict = {}
    for b in range(len(objs), len(order)):
        by_src.setdefault(order[b].src, []).append(b)
    products = []
    for a in range(len(objs), len(order)):
        s = order[a]
        for b in by_src.get(s.tgt, ()):
            cols = tuple(germ.product_of(x, y) for x, y in zip(s.columns, order[b].columns))
            c = simple_ix.get((s.src, cols))
            if c is not None:
                products.append((a, b, c))
    simples = [
        ("", object_ix[lad.src], object_ix[lad.tgt], length[lad]) for lad in order[len(objs):]
    ]
    table = assemble_table([""] * len(objs), simples, products, {})
    return dict(enumerate(order)), table


# -- the nerve walk that subdivisions replaced ---------------------------------

def walk_simplices(germ, n: int) -> list[tuple[int, tuple[int, ...]]]:
    """(basepoint, factors) of every n-simplex: tuples whose partial products are defined."""
    out = []
    for obj in germ.objects:
        def extend(prefix: list[int], prod: int) -> None:
            if len(prefix) == n:
                out.append((obj.id, tuple(prefix)))
                return
            for sid in germ.by_source[germ.simples[prod].target]:
                nxt = germ.product.get((prod, sid))
                if nxt is not None:
                    extend(prefix + [sid], nxt)

        extend([], germ.identity[obj.id])
    return sorted(out)


# -- the cover-ball search that the greedy-word levels replaced -----------------

def bfs_cover_ball(germ, basepoint: int, radius: int) -> tuple[list[NormalForm], list[tuple[int, int]]]:
    """
    Vertices and edges of the cover ball by breadth-first search: every
    f·s with s a non-identity simple and sup ≤ radius, one product per
    vertex and simple, the vertices in (sup, inf, factors) order.
    """
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
    vertices = sorted(seen, key=lambda f: (f.sup, f.delta_exp, f.factors))
    index = {f: i for i, f in enumerate(vertices)}
    return vertices, sorted({tuple(sorted((index[f], index[g]))) for f, g in steps})


# -- the subdivision counts that strict chains replaced -------------------------

def walk_count_subdivisions(germ, m: int) -> dict[int, int]:
    """
    |D_m| per object via multichain counting in (S_{x->}, ≤): an
    m-subdivision at x is an (m-1)-multichain 1 ≤ u_1 ≤ ... ≤ u_{m-1} ≤ Δ_x,
    walked one step per u_i, identity steps included.
    """
    if m < 1:
        raise GermError("m must be a positive integer")
    counts: dict[int, int] = {}
    for obj in germ.objects:
        # chains[u] = number of multichains of the current depth ending at u
        chains = {germ.identity[obj.id]: 1}
        below_delta = germ.divisors[germ.delta[obj.id]]
        for _ in range(m - 1):
            nxt: dict[int, int] = {}
            for u, n in chains.items():
                for q in germ.divisors[below_delta[u]]:
                    v = germ.product_of(u, q)
                    nxt[v] = nxt.get(v, 0) + n
            chains = nxt
        counts[obj.id] = sum(chains.values())
    return counts


def newton_fit(germ, samples: int) -> tuple[Fraction, ...]:
    """
    Newton forward-difference interpolation of m -> |D_m| through
    m = 1..samples, from the multichain walk. Checks degree ≤ Garside
    dimension and two out-of-sample predictions, at samples + 1 and + 2.
    """
    dim = recursive_garside_dimension(germ)
    if samples < dim + 2:
        raise GermError(f"need at least dim+2 = {dim + 2} samples")
    row = [Fraction(sum(walk_count_subdivisions(germ, m).values()))
           for m in range(1, samples + 1)]
    coeffs = []
    while row:
        coeffs.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    degree = max((j for j, c in enumerate(coeffs) if c), default=-1)
    if degree > dim:
        raise GermError(f"fitted degree {degree} exceeds the Garside dimension {dim}")
    for m in (samples + 1, samples + 2):
        predicted = sum(c * math.comb(m - 1, j) for j, c in enumerate(coeffs))
        if predicted != sum(walk_count_subdivisions(germ, m).values()):
            raise GermError(f"polynomial prediction fails at m = {m}")
    return tuple(coeffs)


# -- the twist tests `divided.fixed_twist` and `divided.fixed_object` replaced --

def twisted_letters(germ, s: int, k: int, q: int) -> tuple[int, ...]:
    """(s, φ^{-k}s, ..., φ^{-(q-1)k}s), one φ-power per letter."""
    return tuple(germ.phi_power(s, -i * k) for i in range(q))


def reference_fixed_twist(germ, s: int, p: int, q: int) -> tuple[int, ...] | None:
    """
    The twist of s for p = kq + 1 if φ_q^p fixes it, else None: its image
    (φ^k f_2, ..., φ^k f_q, φ^{k+1} f_1) is built and compared entry by entry.
    """
    k = (p - 1) // q
    f = twisted_letters(germ, s, k, q)
    shifted = tuple(germ.phi_power(t, k) for t in f[1:]) + (germ.phi_power(s, k + 1),)
    return f if shifted == f else None


def check_bestvina(germ, bf, p: int) -> None:
    """Both defining invariants of a Bestvina form, recomputed; raises on any mismatch."""
    if p != bf.q * bf.k + 1:
        raise GermError("Bestvina form violates p = qk+1")
    letters = twisted_letters(germ, bf.s, bf.k, bf.q)
    prod = germ.fold_product(letters[0], letters[1:])
    if prod is None or not germ.is_delta(prod):
        raise GermError("Bestvina product is not delta")


# -- helpers only the tests call ------------------------------------------------

def is_greedy(germ, f: NormalForm) -> bool:
    """Factor-wise greedy invariant: no identity or Δ factor, and s̄_i ∧ s_{i+1} = 1."""
    for sid in f.factors:
        if germ.is_identity(sid) or germ.is_delta(sid):
            return False
    for a, b in zip(f.factors, f.factors[1:]):
        if not germ.is_identity(germ.meet(germ.complement[a], b)):
            return False
    return True


def phi_on_morphism(germ, f: NormalForm, n: int) -> NormalForm:
    """φ^n applied factor by factor; the Δ-power is φ-invariant."""
    return NormalForm(
        germ.phi_power_obj(f.source, n),
        tuple(germ.phi_power(s, n) for s in f.factors),
        f.delta_exp,
    )


def diagonals(germ, lad) -> tuple[int, ...]:
    """The diagonals quotient(s_i, f_i) of a ladder with columns s_i at the object f."""
    return tuple(germ.divisors[f][c] for c, f in zip(lad.columns, lad.src))


def theta_simple(dg, sid: int) -> NormalForm:
    """Θ_m of one simple: `theta_morphism` of the one-letter word."""
    from garside.divided import theta_morphism

    return theta_morphism(dg, NormalForm(dg.base.simples[sid].source, (sid,), 0))


def ladders_between(germ, f: tuple[int, ...], g: tuple[int, ...]) -> list:
    """The ladders from the subdivision f to the subdivision g."""
    return [lad for lad in ladders_from(germ, f) if lad.tgt == g]


def psi_of_beta1(germ, bf, dg=None) -> NormalForm:
    """ψ(β₁) based at the letter tuple; normalizes to one Garside map Δ_q."""
    from garside.divided import beta1_slides, build_divided_germ, slide

    if dg is None:
        dg = build_divided_germ(germ, bf.q)
    letters = twisted_letters(germ, bf.s, bf.k, bf.q)
    ladders, _, _ = slide(dg, letters, tuple((sid,) for sid in letters), beta1_slides(bf.q))
    return normal_form(dg.germ, ladders)


# -- the all-pairs product scan that `builtins._interval_germ`'s lower intervals replaced --

def reference_interval_germ(n: int, length, top: tuple[int, ...], name) -> GermTable:
    """
    One object x; the simples are the permutations p of n letters below top,
    length(p) + length(p⁻¹·top) = length(top), in lexicographic order (the
    identity first), and the products are the length-additive pairs whose
    product stays below top. Δ is top.
    """
    ln = {
        p: length(p) for p in permutations(range(n))
        if length(p) + length(_compose(_perm_inv(p), top)) == length(top)
    }
    ix = {p: i for i, p in enumerate(ln)}
    below = list(ln)[1:]
    products = [
        (ix[p], ix[q], ix[r])
        for p in below for q in below
        if (r := _compose(p, q)) in ln and ln[p] + ln[q] == ln[r]
    ]
    simples = [(name(p), 0, 0, ln[p]) for p in below]
    return assemble_table(["x"], simples, products, {0: ix[top]})
