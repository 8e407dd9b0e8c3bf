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
    GermValidationError,
    as_budget,
    assemble_table,
    components,
    validate,
)
from .words import NormalForm, as_loop, delta_power_nf, identity_nf, invert, multiply


class ConjugacyWitness(NamedTuple):
    g: NormalForm
    c: NormalForm
    h: NormalForm

    def check(self, germ: GarsideGerm) -> "ConjugacyWitness":
        if multiply(germ, self.g, self.c) != multiply(germ, self.c, self.h):
            raise GermError("broken conjugacy witness")
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
    germ: GarsideGerm, g: NormalForm, budget: Budget | int | None = None
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
    germ: GarsideGerm, g: NormalForm, budget: Budget | int | None = None
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
                c = NormalForm(h.source, (sid,), 0) if not germ.is_delta(sid) \
                    else delta_power_nf(h.source, 1)
                h2 = conjugate(germ, h, c)
                if (h2.inf, h2.sup) != key or h2 in found:
                    continue
                found[h2] = multiply(germ, found[h], c)
                new.append(h2)
        frontier = new
    return found


def are_conjugate(
    germ: GarsideGerm, g: NormalForm, h: NormalForm, budget: Budget | int | None = None
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
    subgerm: GarsideGerm | None            # None when there are no fixed objects
    object_inclusion: dict[int, int]       # subgerm object id -> ambient object id
    simple_inclusion: dict[int, int]       # subgerm simple id -> ambient simple id
    components: list[list[int]]            # partition of subgerm objects
    atoms_realized: dict[int, int]         # subgerm atom -> ambient atom with psi_* closure = it

    @property
    def is_empty(self) -> bool:
        return self.subgerm is None


def psi_star(germ: GarsideGerm, p: int, sid: int) -> int:
    """Iterated join of the φ^p-orbit of a simple; stabilizes by atomicity."""
    u = sid
    while True:
        v = germ.join(u, germ.phi_power(u, p))
        if v == u:
            return u
        u = v


def fixed_subgerm(germ: GarsideGerm, p: int) -> FixedGermReport:
    """
    The subgerm of φ^p-invariant simples at φ^p-fixed objects. The result is
    validated as a Garside germ whenever non-empty. φ^p needs no check of its
    own: φ is an automorphism carrying Δ to Δ (see validate), and so are its
    powers.
    """
    fixed_objs = [o.id for o in germ.objects if germ.phi_power_obj(o.id, p) == o.id]
    if not fixed_objs:
        return FixedGermReport(None, {}, {}, [], {})

    # The subgerm's GermTable layout: identities at the fixed objects, then
    # the other invariant simples between fixed objects, in ambient order.
    obj_pos = {o: i for i, o in enumerate(fixed_objs)}
    steps = [
        s for s in germ.simples
        if s.length > 0 and s.source in obj_pos and s.target in obj_pos
        and germ.phi_power(s.id, p) == s.id
    ]
    inclusion = [germ.identity[o] for o in fixed_objs] + [s.id for s in steps]
    sub_id = {amb: i for i, amb in enumerate(inclusion)}
    # a·b of invariant simples is invariant, as φ^p preserves products.
    products = [
        (sub_id[a], sub_id[b], sub_id[c]) for (a, b), c in germ.product.items()
        if a in sub_id and b in sub_id and not germ.is_identity(a) and not germ.is_identity(b)
    ]
    simples = [(s.name, obj_pos[s.source], obj_pos[s.target], s.length) for s in steps]
    delta = {i: sub_id[germ.delta[o]] for i, o in enumerate(fixed_objs)}
    sub = validate(assemble_table(
        [germ.object_name(o) for o in fixed_objs], simples, products, delta
    ))

    object_inclusion = dict(enumerate(fixed_objs))
    simple_inclusion = dict(enumerate(inclusion))
    # Every subgerm atom is the psi_* closure of any ambient atom below it.
    atoms_realized = {}
    for b in sub.atoms:
        amb = simple_inclusion[b]
        amb_atom = next(a for a in germ.atoms if a in germ.divisors[amb])
        if psi_star(germ, p, amb_atom) != amb:
            raise GermValidationError(
                f"subgerm atom {sub.simple_name(b)!r} is not a psi_* closure"
            )
        atoms_realized[b] = amb_atom
    return FixedGermReport(
        sub, object_inclusion, simple_inclusion, components(sub), atoms_realized
    )
