"""Paper facts that no subcommand computes with: the subdivision lemma
D_eq ≅ D_e(𝒢_q), the rank-2 germ's missing least common multiple at x, and
the cyclic identities of the nerve on every simplex up to a dimension."""

from typing import NamedTuple

from garside.conjugacy import fixed_subgerm
from garside.divided import DividedGerm, DividedObject, build_divided_germ
from garside.germ import GarsideGerm, GermError, InternalError
from garside.nerve import CyclicReport, NerveSimplex, face_zero, special_degeneracy
from garside.words import NormalForm, identity_nf, invert, is_loop, multiply, target

import oracles


# -- the subdivision isomorphism D_eq(C) ≅ D_e(C_q) ------------------------

class SubdivisionIso(NamedTuple):
    e: int
    q: int
    eq_divided: DividedGerm          # C_{eq}
    q_divided: DividedGerm           # C_q
    iterated: DividedGerm            # (C_q)_e
    object_map: dict[int, int]       # C_{eq} object id -> (C_q)_e object id
    simple_map: dict[int, int]       # C_{eq} simple id -> (C_q)_e simple id
    fixed_check: str = "skipped"     # the p = q+1 fixed-subgerm comparison outcome


def _regroup_object(dg_q: DividedGerm, f: DividedObject, e: int, q: int) -> DividedObject:
    """Group an eq-subdivision into an e-tuple of C_q ladder ids."""
    base = dg_q.base
    blocks = [base.fold_product(f[i * e], f[i * e + 1 : (i + 1) * e]) for i in range(q)]
    if None in blocks:
        raise InternalError("a block of a subdivision does not multiply out")
    out = []
    cur = tuple(blocks)
    for r in range(e):
        cols = tuple(f[i * e + r] for i in range(q))
        sid = dg_q.ladder_simple(cur, cols)
        out.append(sid)
        cur = dg_q.ladder_of[sid].tgt
    return tuple(out)


def _check_isomorphism(
    g1: GarsideGerm, g2: GarsideGerm,
    object_map: dict[int, int], simple_map: dict[int, int], what: str,
) -> None:
    """Raise unless the id maps are bijections carrying products, Δ and φ of g1 to g2's."""
    if len(set(object_map.values())) != len(object_map) or len(object_map) != len(g2.objects):
        raise InternalError(f"{what} is not bijective on objects")
    if len(set(simple_map.values())) != len(simple_map) or len(simple_map) != len(g2.simples):
        raise InternalError(f"{what} is not bijective on simples")
    for (a, b), c in g1.product.items():
        if g2.product.get((simple_map[a], simple_map[b])) != simple_map[c]:
            raise InternalError(f"{what} does not preserve the product")
    if len(g1.product) != len(g2.product):
        raise InternalError(f"{what} misses products")
    for i in range(len(g1.objects)):
        if simple_map[g1.delta[i]] != g2.delta[object_map[i]]:
            raise InternalError(f"{what} does not carry delta to delta")
        if object_map[g1.phi_obj[i]] != g2.phi_obj[object_map[i]]:
            raise InternalError(f"{what} does not intertwine the shifts")


def subdivision_iso(germ: GarsideGerm, e: int, q: int) -> SubdivisionIso:
    """
    The grouping bijection D_{eq}(C) <-> D_e(C_q), verified to be a germ
    isomorphism C_{eq} ≅ (C_q)_e carrying Δ to Δ and intertwining the shifts.
    """
    if e < 1 or q < 1:
        raise GermError("e and q must be positive")
    dg_eq = build_divided_germ(germ, e * q)
    dg_q = build_divided_germ(germ, q)
    dg_it = build_divided_germ(dg_q.germ, e)

    object_map = {
        i: dg_it.object_of(_regroup_object(dg_q, f, e, q)) for i, f in enumerate(dg_eq.objects)
    }

    simple_map: dict[int, int] = {}
    for sid, lad in dg_eq.ladder_of.items():
        src_it = dg_it.objects[object_map[dg_eq.object_of(lad.src)]]
        # Column r of the image is the C_q ladder whose columns interleave
        # the eq columns with stride e.
        cols_it = []
        for r in range(e):
            q_src = dg_q.ladder_of[src_it[r]].src
            q_cols = tuple(lad.columns[i * e + r] for i in range(q))
            cols_it.append(dg_q.ladder_simple(q_src, q_cols))
        simple_map[sid] = dg_it.ladder_simple(src_it, tuple(cols_it))
    _check_isomorphism(dg_eq.germ, dg_it.germ, object_map, simple_map, "regrouping")

    # Check of the fixed-subgerm refinement C_{eq}^{φ_{eq}^{ep}} ≅
    # (C_q^{φ_q^p})_e at p = q+1, the power of the s·Δ loops of the paper,
    # when both sides are non-empty: the regrouping, read through the two
    # fixed-subgerm inclusions, is the map. Both are taken at q = 1 in their
    # divided germs, so an inclusion holds 1-tuples: (Δ_y,) for an object y
    # and (s,) for a simple s.
    p = q + 1
    left = fixed_subgerm(dg_eq.germ, e * p)
    right_base = fixed_subgerm(dg_q.germ, p)
    if left.is_empty or right_base.is_empty:
        fixed_check = "skipped (empty fixed subgerm)"
    else:
        right = build_divided_germ(right_base.subgerm, e)
        inc = [s for (s,) in right_base.simple_inclusion].__getitem__
        obj_to_right = {
            dg_it.object_of(tuple(map(inc, f))): i for i, f in enumerate(right.objects)
        }
        simple_to_right = {
            dg_it.ladder_simple(tuple(map(inc, lad.src)), tuple(map(inc, lad.columns))): sid
            for sid, lad in right.ladder_of.items()
        }
        try:
            fixed_objects = {
                i: obj_to_right[object_map[dg_eq.germ.simples[d].source]]
                for i, (d,) in enumerate(left.object_inclusion)
            }
            fixed_simples = {
                i: simple_to_right[simple_map[s]] for i, (s,) in enumerate(left.simple_inclusion)
            }
        except KeyError:
            raise InternalError("fixed-subgerm refinement fails") from None
        _check_isomorphism(
            left.subgerm, right.germ, fixed_objects, fixed_simples, "fixed-subgerm regrouping"
        )
        fixed_check = "verified"
    return SubdivisionIso(e, q, dg_eq, dg_q, dg_it, object_map, simple_map, fixed_check)


# -- bounded common multiples (the rank-2 germ has no lcm at x) ------------

def positive_elements_up_to(
    germ: GarsideGerm, source: int, length_bound: int
) -> list[NormalForm]:
    """
    All distinct positive morphisms out of `source` of homogeneous length
    <= length_bound, by breadth-first multiplication with atoms.
    """
    start = identity_nf(source)
    seen = {start: 0}
    frontier = [(start, 0)]
    while frontier:
        new = []
        for f, ln in frontier:
            at = target(germ, f)
            for a in germ.atoms:
                if germ.simples[a].source != at:
                    continue
                ln2 = ln + germ.simples[a].length
                if ln2 > length_bound:
                    continue
                g = multiply(germ, f, NormalForm(at, (a,), 0))
                if g not in seen:
                    seen[g] = ln2
                    new.append((g, ln2))
        frontier = new
    return sorted(seen, key=lambda f: (seen[f], f.delta_exp, f.factors))


def left_divides_morphism(germ: GarsideGerm, f: NormalForm, g: NormalForm) -> bool:
    """Prefix order on the groupoid: f ≤ g iff f^{-1}·g is positive."""
    q = multiply(germ, invert(germ, f), g)
    return q.inf >= 0


def common_multiple_report(
    germ: GarsideGerm, f: NormalForm, g: NormalForm, length_bound: int = 8
) -> dict:
    """
    Bounded refutation of a least common right multiple: enumerate all
    positive loops at the common source up to the length bound, collect the
    common right multiples of f and g among them, and look for a least one.
    """
    if f.source != g.source:
        raise GermError("common_multiple_report: source mismatch")
    if not (is_loop(germ, f) and is_loop(germ, g)):
        raise GermError("common_multiple_report expects loops")
    loops = [h for h in positive_elements_up_to(germ, f.source, length_bound) if is_loop(germ, h)]
    multiples = [
        h for h in loops
        if left_divides_morphism(germ, f, h) and left_divides_morphism(germ, g, h)
    ]
    least = [
        h for h in multiples
        if all(left_divides_morphism(germ, h, other) for other in multiples)
    ]
    return {
        "bound": length_bound,
        "loops_scanned": len(loops),
        "common_multiples": multiples,
        "least": least,
    }


# -- the cyclic identities of the nerve on every simplex ---------------------

def cyclic_identities_on_every_simplex(germ: GarsideGerm, up_to_dim: int) -> CyclicReport:
    """
    The identities `nerve.check_cyclic_identities` proves from one simplex per
    simple, checked on every simplex of dimension ≤ up_to_dim, degenerate
    ones included: (a) on the simplices whose product is Δ, (b) on all.
    """
    checked = 0
    bad_shift: list[NerveSimplex] = []
    bad_power: list[NerveSimplex] = []
    for n in range(up_to_dim + 1):
        for sx in map(NerveSimplex._make, oracles.walk_simplices(germ, n)):
            checked += 1
            if n >= 1 and germ.is_delta(germ.fold_product(germ.identity[sx.basepoint], sx.factors)):
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
            want = NerveSimplex(germ.phi_obj[sx.basepoint], tuple(germ.phi_simple[s] for s in sx.factors))
            if cur != want:
                bad_power.append(sx)
    return CyclicReport(checked, bad_shift, bad_power)
