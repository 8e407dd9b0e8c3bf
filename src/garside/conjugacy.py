"""
conjugacy: cycling/decycling to summits, summit-set closure, conjugacy
decision with witnesses, and fixed subcategories under a power of φ.

A summit is a loop whose infimum is maximal and supremum minimal in its
conjugacy class. Any conjugator between summits factors through summits
simple factor by simple factor, so the full summit set is the BFS closure
of one summit under conjugation by simples that preserve (inf, sup); Δ is
itself a simple, so the φ-twists are covered by the same edges.
"""

from __future__ import annotations

from typing import NamedTuple

from .germ import (
    Budget,
    GarsideGerm,
    GermError,
    InternalError,
    as_budget,
    assemble_table,
    components,
    validate,
)
from .words import (
    NormalForm, as_loop, format_word, identity_nf, invert, multiply, normal_form, report_nf,
)


class ConjugacyWitness(NamedTuple):
    g: NormalForm
    c: NormalForm
    h: NormalForm

    def check(self, germ: GarsideGerm) -> "ConjugacyWitness":
        if multiply(germ, self.g, self.c) != multiply(germ, self.c, self.h):
            raise InternalError("broken conjugacy witness")
        return self


def conjugate(germ: GarsideGerm, g: NormalForm, c: NormalForm) -> NormalForm:
    """h = c^{-1}·g·c; requires source(c) = source(g)."""
    as_loop(germ, g)
    if c.source != g.source:
        raise GermError("conjugate: source(c) must equal source(g)")
    return multiply(germ, invert(germ, c), multiply(germ, g, c))


def _cycle_conjugator(germ: GarsideGerm, g: NormalForm) -> NormalForm:
    s1 = g.factors[0]
    return NormalForm(g.source, (s1,), 0)


def _decycle_conjugator(germ: GarsideGerm, g: NormalForm) -> NormalForm:
    # The rightmost letter once Δ^k is fully migrated right is φ^k(s_l).
    sl = germ.phi_power(g.factors[-1], g.delta_exp)
    return invert(germ, NormalForm(germ.simples[sl].source, (sl,), 0))


def to_summit(
    germ: GarsideGerm, g: NormalForm, budget: Budget | None = None
) -> ConjugacyWitness:
    """
    Cycle and decycle until (inf, sup) stops improving for
    canonical_length × |simples| consecutive steps.
    """
    as_loop(germ, g)
    budget = as_budget(budget)
    conj = identity_nf(g.source)
    h = g
    improved = True
    while improved:
        improved = False
        for step in (_cycle_conjugator, _decycle_conjugator):
            stall = 0
            limit = max(1, h.canonical_length * len(germ.simples))
            while h.factors and stall < limit:
                budget.spend()
                c = step(germ, h)
                h2 = conjugate(germ, h, c)
                if (h2.inf, -h2.sup) > (h.inf, -h.sup):
                    improved = True
                    stall = 0
                else:
                    stall += 1
                h = h2
                conj = multiply(germ, conj, c)
    return ConjugacyWitness(g, conj, h).check(germ)


def summit_set(
    germ: GarsideGerm, g: NormalForm, budget: Budget | None = None
) -> dict[NormalForm, NormalForm]:
    """
    The full summit set of g, as a map summit -> conjugator (from g).
    BFS closure under conjugation by simples preserving (inf, sup). The first
    entry is the to_summit witness: the summit reached by cycling and
    decycling g, with its conjugator.
    """
    budget = as_budget(budget)
    first = to_summit(germ, g, budget)
    key = (first.h.inf, first.h.sup)
    found: dict[NormalForm, NormalForm] = {first.h: first.c}
    frontier = [first.h]
    while frontier:
        new = []
        for h in frontier:
            for sid in germ.by_source[h.source]:
                if germ.is_identity(sid):
                    continue
                budget.spend()
                c = normal_form(germ, [sid])
                h2 = conjugate(germ, h, c)
                if (h2.inf, h2.sup) != key or h2 in found:
                    continue
                found[h2] = multiply(germ, found[h], c)
                new.append(h2)
        frontier = new
    return found


def are_conjugate(
    germ: GarsideGerm, g: NormalForm, h: NormalForm, budget: Budget | None = None
) -> ConjugacyWitness | None:
    """
    A witness if the summit sets intersect, else None. Negative answers come
    from the complete summit-set computation, never from an iteration cutoff.
    """
    budget = as_budget(budget)
    sg = summit_set(germ, g, budget)
    sh = summit_set(germ, h, budget)
    common = sorted(
        set(sg) & set(sh), key=lambda m: (m.source, m.delta_exp, m.factors)
    )
    if not common:
        return None
    m = common[0]
    c = multiply(germ, sg[m], invert(germ, sh[m]))
    return ConjugacyWitness(g, c, h).check(germ)


class FixedGermReport(NamedTuple):
    subgerm: GarsideGerm | None                # None when there are no fixed objects
    object_inclusion: list[tuple[int, ...]]    # subgerm object id -> fixed object of 𝒢_q
    simple_inclusion: list[tuple[int, ...]]    # subgerm simple id -> its column tuple
    components: list[list[int]]                # partition of subgerm objects
    atoms_realized: dict[int, int]             # subgerm atom b -> base atom α, ψ_*(α) = b

    @property
    def is_empty(self) -> bool:
        return self.subgerm is None


def fixed_subgerm(
    germ: GarsideGerm, p: int, q: int = 1, budget: Budget | None = None
) -> FixedGermReport:
    """
    The φ_q^p-fixed subgerm of 𝒢_q, p = kq + 1, from the base germ; empty when no
    object is fixed. `divided.twist_exponent` refuses other p/q before any spending.
    At q = 1 it is the φ^p-fixed subgerm, base names kept, which presents the
    centralizer of Δ^p where that is a loop. Objects are the `divided.fixed_object`
    twists of the f with q·len(f) = ‖Δ_x‖, ladders the fixed twists of the s ≼ f.
    a·b is defined when each column t_i of b left-divides the diagonal d_i of a,
    and is (a_i·t_i). Validated in full.
    """
    from .divided import fixed_object, fixed_twist, tuple_name, twist_exponent
    k = twist_exponent(p, q)
    norm = [germ.simples[d].length for d in germ.delta]
    firsts = [f.id for f in germ.simples if q * f.length == norm[f.source]]
    # Only an object whose Δ is the identity admits q > ‖Δ‖.
    as_budget(budget).spend(q * len(firsts), f": fixed objects of {q} letters")
    objs = [t for t in (fixed_object(germ, f, k, q) for f in firsts) if t is not None]
    if not objs:
        return FixedGermReport(None, [], [], [], {})
    # A twist is determined by its first letter, so first letters key the
    # objects and order objects and ladders as their tuples would.
    objs.sort(key=lambda t: (germ.simples[t[0]].source, t[0]))
    obj_ix = {t[0]: i for i, t in enumerate(objs)}
    lads = []  # (columns, source, target); identities sort first, in object order (1_x = x)
    for i, t in enumerate(objs):
        for s, d in germ.divisors[t[0]].items():
            # The twist of s (fixed iff φ^p s = s) at t has the twist of d = s\t_1
            # for diagonals: φ^{-k} carries column i and diagonal i to column i+1
            # and diagonal i+1, and as φ^p s = s, φ^{-k} of the last column is
            # φ(s), which closes the wrap. So it is a ladder iff g = d·φ^{-k}(s)
            # is defined, and then it ends at the twist of g.
            cols = fixed_twist(germ, s, k, q)
            g = cols and germ.product_of(d, germ.phi_power(s, -k))
            if g is not None:
                if g not in obj_ix:
                    raise InternalError("a fixed ladder ends outside the fixed objects")
                lads.append((cols, i, obj_ix[g]))
    lads.sort(key=lambda lad: (germ.simples[lad[0][0]].length > 0, lad[0][0], lad[1]))
    inclusion = [cols for cols, _, _ in lads]
    ix = {(i, cols[0]): n for n, (cols, i, _) in enumerate(lads)}
    # b at a's target multiplies a iff each t_i ≼ d_i; twists (a's diagonals too)
    # divide as their first entries, so t_1 ≼ d_1 decides, and a·b has a_1·t_1.
    products = []
    for a, (cols, i, j) in enumerate(lads[len(objs):], len(objs)):
        for t1 in germ.divisors[germ.divisors[objs[i][0]][cols[0]]]:
            b = ix.get((j, t1), 0)
            if b >= len(objs):
                products.append((a, b, ix[(i, germ.product[(cols[0], t1)])]))
    if q == 1:  # 𝒢_1 is the base germ: keep its names
        obj_names = [germ.object_name(germ.simples[t[0]].source) for t in objs]
        names = [germ.simple_name(cols[0]) for cols in inclusion]
    else:
        obj_names = [tuple_name(germ, t) for t in objs]
        names = [f"lad{tuple_name(germ, cols)}@{obj_names[i]}" for cols, i, _ in lads]
    simples = [(n, i, j, q * germ.simples[c[0]].length) for n, (c, i, j) in zip(names, lads)]
    delta = {i: ix[(i, t[0])] for i, t in enumerate(objs)}
    sub = validate(assemble_table(obj_names, simples[len(objs):], products, delta))

    # ≼ at one source is columnwise: a ≼ c means c = a·t, columns a_i·t_i, and
    # a_i ≼ c_i ≼ f_i = a_i·d_i gives t_i = a_i\c_i ≼ d_i by left cancellation.
    # A fixed c is above a 𝒢_q atom (atom β in column j) iff φ^{(j-1)k}β ≼ c_1;
    # ψ_*(α), the least fixed ladder above, is b iff α ≼ c_1 implies b_1 ≼ c_1.
    atoms_realized = {}
    for b in sub.atoms:
        b1 = inclusion[b][0]
        alpha = atoms_realized[b] = next(a for a in germ.atoms if a in germ.divisors[b1])
        for c in sub.by_source[sub.simples[b].source]:
            if alpha in germ.divisors[inclusion[c][0]] and b1 not in germ.divisors[inclusion[c][0]]:
                raise InternalError(f"subgerm atom {sub.simple_name(b)!r} is not a psi_* closure")
    return FixedGermReport(sub, objs, inclusion, components(sub), atoms_realized)


def cmd_conj(germ: GarsideGerm, forms, args, rep) -> bool:
    return report_nf(rep, germ, conjugate(germ, *forms), "conjugate")


def cmd_summit(germ: GarsideGerm, forms, args, rep) -> bool:
    sset = summit_set(germ, *forms, Budget(args.budget))
    summit, conjugator = next(iter(sset.items()))
    report_nf(rep, germ, summit, "summit")
    rep.add("summit_conjugator", format_word(germ, conjugator))
    rep.add("summit_set_size", len(sset))
    for i, h in enumerate(sorted(sset, key=lambda m: (m.source, m.delta_exp, m.factors))):
        rep.add(f"summit_{i}", format_word(germ, h))
    return True


def cmd_isconj(germ: GarsideGerm, forms, args, rep) -> bool:
    witness = are_conjugate(germ, *forms, Budget(args.budget))
    if witness is None:
        rep.add("conjugate", "no", "not conjugate")
        return False
    rep.add("conjugate", "yes", "conjugate")
    rep.add("witness", format_word(germ, witness.c))
    return True
