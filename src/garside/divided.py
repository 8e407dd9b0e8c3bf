"""
divided: the m-divided Garside category of a germ.

Objects of the m-divided category are m-subdivisions of Δ: composable tuples
(f_1, ..., f_m) of simples multiplying to Δ at the source of f_1. Simples are
"ladders": column tuples (s_1, ..., s_m) with s_i a left divisor of f_i, so
that f_i = s_i·d_i for the diagonal d_i; every diagonal product d_i·s_{i+1}
is then a simple (indices wrap with a φ twist: s_{m+1} = φ(s_1)) and these
products are the target. So a ladder is the 2m-subdivision (s_1, d_1, ...,
s_m, d_m), and a composable pair a·b is the 3m-subdivision (s_i, t_i, d_i/t_i)
of b's columns t_i ≼ d_i. The Garside map at f is the shift ladder with
columns (f_1, ..., f_m), and the diagram automorphism is the cyclic shift
(f_1, ..., f_m) -> (f_2, ..., f_m, φ(f_1)).

The construction is assembled as a plain germ table from ids and pushed
through the full validator; a validation failure here means a bug, not bad
input. Names (a subdivision prints as its factor tuple) serve display only.

One evaluator, `slide`, reads a slide word as ladders: σ_i moves the first
letter of slot i of a word tuple one slot left, and is the ladder with that
letter as its only non-identity column. Θ_m(s) is ψ(β₁) for β₁ = σ_m…σ₁ read
from (ε, ..., ε, s·s̄) over (1_x, ..., 1_x, Δ_x); the necklace conjugator of
`periodic` is ψ(β₂) from the same object.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Iterable
from math import comb
from pathlib import Path
from typing import NamedTuple

from .germ import (
    Budget,
    BudgetExceeded,
    GarsideGerm,
    GermError,
    InternalError,
    as_budget,
    assemble_table,
    chain_counts,
    enumerate_subdivisions,
    table_to_text,
    validate,
)
from .words import MAX_WORD_FACTORS, NormalForm, delta_power, normal_form, report_nf

DividedObject = tuple[int, ...]


def count_subdivisions(germ: GarsideGerm, m: int) -> dict[int, int]:
    """
    |D_m| per object: an m-subdivision is a multichain 1 ≼ u_1 ≼ ... ≼ u_{m-1}
    ≼ Δ_x, and C(m-1, n) of them run through a given strict chain of n
    non-identity steps. So |D_m| = Σ_n N_n·C(m-1, n), in O(dim) for any m.
    """
    if m < 1:
        raise GermError("m must be a positive integer")
    return {
        obj.id: sum(n * comb(m - 1, k) for k, n in enumerate(chain_counts(germ, obj.id)))
        for obj in germ.objects
    }


def ladder_target(
    germ: GarsideGerm, src: DividedObject, cols: tuple[int, ...]
) -> DividedObject | None:
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


def fixed_twist(germ: GarsideGerm, s: int, p: int, q: int) -> DividedObject | None:
    """
    The twist (s, φ^{-k}s, ..., φ^{-(q-1)k}s) of s for p = kq + 1, if φ_q^p
    fixes it, else None. φ_q shifts (f_1, ..., f_q) to (f_2, ..., f_q, φf_1),
    so q shifts apply φ to every entry and φ_q^p maps (f_1, ..., f_q) to
    (φ^k f_2, ..., φ^k f_q, φ^{k+1} f_1): a tuple it fixes is the twist of f_1.
    """
    k = (p - 1) // q
    f = tuple(germ.phi_power(s, -i * k) for i in range(q))
    shifted = tuple(germ.phi_power(t, k) for t in f[1:]) + (germ.phi_power(s, k + 1),)
    return f if shifted == f else None


class Ladder(NamedTuple):
    src: DividedObject
    columns: tuple[int, ...]
    tgt: DividedObject


def tuple_name(germ: GarsideGerm, f: tuple[int, ...]) -> str:
    """
    Display name of a tuple of simples, e.g. a subdivision: (s,t,s). A name
    holding "(", ")" or "," is written (<length>'<name>), so a left-to-right
    read recovers the tuple and distinct tuples never print alike.
    """
    names = (germ.simple_name(s) for s in f)
    return "(" + ",".join(f"({len(n)}'{n})" if set(n) & set("(),") else n for n in names) + ")"


class DividedGerm(NamedTuple):
    """The validated m-divided germ plus the dictionaries tying it to the base."""

    germ: GarsideGerm
    base: GarsideGerm
    m: int
    objects: list[DividedObject]                  # divided object id -> factor tuple
    object_ix: dict[DividedObject, int]
    ladder_of: dict[int, Ladder]                  # simple id -> ladder
    simple_ix: dict[tuple[DividedObject, tuple[int, ...]], int]

    def object_of(self, f: DividedObject) -> int:
        return self.object_ix[f]

    def ladder_simple(self, src: DividedObject, cols: tuple[int, ...]) -> int:
        sid = self.simple_ix.get((src, cols))
        if sid is None:
            raise GermError("not a ladder of the divided germ")
        return sid


def build_divided_germ(
    germ: GarsideGerm, m: int, budget: Budget | int | None = None
) -> DividedGerm:
    """Construct and fully validate the m-divided germ, after spending what it will hold."""
    if m < 1:
        raise GermError("m must be a positive integer")
    # Z(2m) = |D_2m| simples of m columns each, and the products: a product is
    # a 3m-subdivision (s_i, t_i, d_i/t_i), with a unit factor when all s_i or
    # all t_i are identities, so Z(3m) − 2·Z(2m) + Z(m) have none.
    chains = [chain_counts(germ, obj.id) for obj in germ.objects]
    z1, z2, z3 = (sum(n * comb(j * m - 1, i) for c in chains for i, n in enumerate(c))
                  for j in (1, 2, 3))
    products = z3 - 2 * z2 + z1
    as_budget(budget).spend((m + 1) * z2 + products, f": the {m}-divided germ would have "
                            f"{z2} simples of {m} columns and {products} products")
    # Where Δ is an identity the forecast is only m + 1; each object holds m factors.
    if m > MAX_WORD_FACTORS:
        raise BudgetExceeded(
            f"the {m}-divided germ exceeds the {MAX_WORD_FACTORS}-factor computation limit"
        )
    objs = enumerate_subdivisions(germ, m)
    object_ix = {f: i for i, f in enumerate(objs)}
    # The 2m-subdivision (s_1, d_1, ..., s_m, d_m) is the ladder with columns
    # s_i at (s_1·d_1, ..., s_m·d_m).
    ladders = []
    for sub in enumerate_subdivisions(germ, 2 * m):
        cols = sub[0::2]
        src = tuple(germ.product[(s, d)] for s, d in zip(cols, sub[1::2]))
        tgt = ladder_target(germ, src, cols)
        if tgt not in object_ix:
            raise InternalError("ladder target escapes the subdivision set")
        ladders.append(Ladder(src, cols, tgt))

    # Simple ids follow the GermTable layout: the identity ladder at objs[i]
    # (the only one of length 0 there) is simple i, the others follow in
    # (source id, columns) order, which is tuple order as objs is sorted.
    length = {lad: sum(germ.simples[c].length for c in lad.columns) for lad in ladders}
    order = sorted(ladders, key=lambda lad: (length[lad] > 0, lad))
    ladder_of = dict(enumerate(order))
    simple_ix = {(lad.src, lad.columns): sid for sid, lad in ladder_of.items()}

    # a·b is defined exactly when b's columns t_i left-divide a's diagonals
    # d_i; it is the ladder with columns s_i·t_i at a's source. Both factors
    # are non-identities, and the column tuples come in lexicographic order,
    # so the products come in (a, b) order.
    products = []
    for a in range(len(objs), len(order)):
        lad = order[a]
        diag = [germ.divisors[f][s] for s, f in zip(lad.columns, lad.src)]
        for t in itertools.product(*map(germ.divisor_list, diag)):
            b = simple_ix[(lad.tgt, t)]
            if b >= len(objs):
                cols = tuple(germ.product[(s, u)] for s, u in zip(lad.columns, t))
                products.append((a, b, simple_ix[(lad.src, cols)]))

    delta = {}
    for i, f in enumerate(objs):
        if (f, f) not in simple_ix:
            raise InternalError("shift ladder missing; base germ is not Garside")
        delta[i] = simple_ix[(f, f)]

    # Non-identity ladders need unique names; identical column tuples can
    # occur at distinct sources, so disambiguate with the source when needed.
    col_names = [tuple_name(germ, lad.columns) for lad in order]
    uses = Counter(col_names)
    simples = [
        (f"lad{n}" + (f"@{tuple_name(germ, lad.src)}" if uses[n] > 1 else ""),
         object_ix[lad.src], object_ix[lad.tgt], length[lad])
        for n, lad in zip(col_names[len(objs):], order[len(objs):])
    ]
    obj_names = [tuple_name(germ, f) for f in objs]
    dgerm = validate(assemble_table(obj_names, simples, products, delta))
    dg = DividedGerm(dgerm, germ, m, objs, object_ix, ladder_of, simple_ix)

    # Cross-check the derived automorphism against the defining cyclic shift.
    for i, f in enumerate(objs):
        shifted = tuple(f[1:]) + (germ.phi_simple[f[0]],)
        if dgerm.phi_obj[i] != object_ix[shifted]:
            raise InternalError("divided phi is not the cyclic shift on objects")
    if dgerm.phi_order % germ.phi_order != 0 or (m * germ.phi_order) % dgerm.phi_order != 0:
        raise InternalError("divided phi order does not divide m × base phi order")
    return dg


# -- slides and the functor Θ_m --------------------------------------------

WordTuple = tuple[tuple[int, ...], ...]


def slide(
    dg: DividedGerm, src: DividedObject, words: WordTuple, slides: Iterable[int]
) -> tuple[list[int], DividedObject, WordTuple]:
    """
    Evaluate a slide word through ψ from the object src, which the word tuple
    subdivides. The slide σ_i moves the first letter a of word i to the end of
    word i-1 (σ_1 moves φ(a) to the last word); it is the ladder with the
    single non-identity column a in slot i. Returns the ladder ids, the final
    object and the final word tuple.
    """
    base, m = dg.base, len(src)
    words_t = [list(w) for w in words]
    ladders = []
    cur = src
    for i in slides:
        w = words_t[i - 1]
        if not w:
            raise InternalError(f"slide σ_{i} incompatible with the word tuple")
        a = w.pop(0)
        cols = tuple(
            a if j == i - 1 else base.identity[base.simples[cur[j]].source] for j in range(m)
        )
        tgt = ladder_target(base, cur, cols)
        if tgt is None:
            raise InternalError("slide does not map to a ladder")
        ladders.append(dg.ladder_simple(cur, cols))
        cur = tgt
        if i > 1:
            words_t[i - 2].append(a)
        else:
            words_t[-1].append(base.phi_simple[a])
    return ladders, cur, tuple(map(tuple, words_t))


def ladder_nf(
    dg: DividedGerm, src: DividedObject, ladders: list[int], shift: int = 0
) -> NormalForm:
    """Normal form of the ladder word·Δ^shift at src; a bare Δ-power for no ladders."""
    if not ladders:
        return delta_power(dg.germ, dg.object_of(src), shift)
    return normal_form(dg.germ, ladders, shift)


def beta1_slides(q: int) -> list[int]:
    """β₁ = σ_q σ_{q-1} ... σ₁."""
    return list(range(q, 0, -1))


def theta_object(germ: GarsideGerm, oid: int, m: int) -> DividedObject:
    """(1_x, ..., 1_x, Δ_x)."""
    return tuple([germ.identity[oid]] * (m - 1) + [germ.delta[oid]])


def _theta_ladders(dg: DividedGerm, sid: int) -> list[int]:
    """β₁ on the word tuple (ε, ..., ε, s·s̄) over (1_x, ..., 1_x, Δ_x)."""
    base, m = dg.base, dg.m
    s = base.simples[sid]
    words = ((),) * (m - 1) + ((sid, base.complement(sid)),)
    ladders, end, _ = slide(dg, theta_object(base, s.source, m), words, beta1_slides(m))
    if end != theta_object(base, s.target, m):
        raise InternalError("theta did not land on the expected object")
    return ladders


def theta_morphism(dg: DividedGerm, f: NormalForm) -> NormalForm:
    """
    Multiplicative extension of Θ_m over factors and Δ-powers. Every step of
    the slide of Δ_x is the shift ladder, so Θ_m(Δ^k) = Δ_m^{mk}.
    """
    ladders = [lid for sid in f.factors for lid in _theta_ladders(dg, sid)]
    src = theta_object(dg.base, f.source, dg.m)
    return ladder_nf(dg, src, ladders, dg.m * f.delta_exp)


def cmd_divide(germ: GarsideGerm, forms, args, rep) -> bool:
    counts = count_subdivisions(germ, args.m)
    total = sum(counts.values())
    if args.count:
        rep.add("objects", total, str(total))
        return True
    rep.add("m", args.m)
    rep.add("objects", total)
    for oid in sorted(counts):
        rep.add(f"objects_at_{germ.object_name(oid)}", counts[oid])
    dg = build_divided_germ(germ, args.m, Budget(args.budget))
    rep.add("simples", len(dg.germ.simples))
    rep.add("atoms", len(dg.germ.atoms))
    rep.add("phi_order", dg.germ.phi_order)
    if args.out:
        Path(args.out).write_text(table_to_text(dg.germ), encoding="utf-8")
        rep.add("out", args.out, f"wrote divided germ to {args.out}")
    return True


def cmd_theta(germ: GarsideGerm, forms, args, rep) -> bool:
    dg = build_divided_germ(germ, args.m, Budget(args.budget))
    return report_nf(rep, dg.germ, theta_morphism(dg, *forms), "theta")
