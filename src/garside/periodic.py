"""
periodic: periodic loops, their length-one representatives, and the explicit
conjugation of Θ_q(sΔ^k) to a power of the divided Garside map.

A loop γ is p/q-periodic when γ^q = Δ^p. In a cyclic structure every such
loop is conjugate to sΔ^k with s simple and s·s^{φ^{-k}}·...·s^{φ^{-(q-1)k}}
= Δ, which forces p = qk+1 (`divided.twist_exponent`). We find the
representative as a summit sΔ^k whose twist is a fixed object of 𝒢_q
(`divided.fixed_object`) and report an explicit failure value otherwise.

The conjugator realizing Θ_q(sΔ^k) ~ Δ_q^p is built from the necklace slide
word β₂ = (σ_q…σ₂)(σ_q…σ₃)…(σ_q): slides act on q-tuples of words over the
twisted letters s^{φ^j}, and `divided.slide` maps each to the ladder of the
q-divided germ with a single non-identity column. β₂ starts where Θ_q(s)
does, at (1_x, ..., 1_x, Δ_x) with the word tuple (ε, ..., ε, s₁...s_q), for
Θ_q(s) is ψ(β₁) read from there. The conjugation equation is re-verified by
normal-form equality before anything is returned.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .germ import Budget, BudgetExceeded, GarsideGerm, GermError, InternalError, as_budget
from .words import (
    MAX_WORD_FACTORS, NormalForm, as_loop, delta_power, format_word, multiply, normal_form,
)

if TYPE_CHECKING:  # imported where used, so a periodicity test loads neither module
    from .divided import DividedGerm, DividedObject


class PeriodicityCertificate(NamedTuple):
    gamma: NormalForm
    p: int
    q: int


def is_periodic(
    germ: GarsideGerm, gamma: NormalForm, p: int, q: int, budget: Budget | None = None
) -> PeriodicityCertificate | None:
    """
    Certificate iff gamma^q equals the Δ^p loop at the same object. The
    powers γ^j are formed in turn, each product spending one budget step per
    factor, until one decides. If γ^j = Δ^r, then γ^q = Δ^p iff j divides q
    and r·q/j = p, as no γ^i with 0 < i < j is a Δ-power. If γ^q = Δ^p, then
    γ^j = Δ^p·(γ^{q-j})^{-1}, and as inf is superadditive and sup
    subadditive, every γ^j with j < q has sup ≤ p - (q-j)·inf(γ) and
    inf ≥ p - (q-j)·sup(γ); the first power that breaks a bound proves "no".
    """
    as_loop(germ, gamma)
    if q < 1:
        raise GermError("q must be positive")
    budget = as_budget(budget)
    cur, j = gamma, 1
    while cur.factors:
        if j == q or cur.sup > p - (q - j) * gamma.inf or cur.inf < p - (q - j) * gamma.sup:
            return None
        budget.spend(len(cur.factors) + len(gamma.factors),
                     f": raising the word to the power {q} reached power {j}")
        cur, j = multiply(germ, cur, gamma), j + 1
    if q % j == 0 and cur.delta_exp * (q // j) == delta_power(germ, gamma.source, p).delta_exp:
        return PeriodicityCertificate(gamma, p, q)
    return None


class BestvinaForm(NamedTuple):
    s: int                      # simple id in the base germ
    k: int
    q: int
    conjugator: NormalForm      # carries gamma to (s; k)


class NoLengthOneRepresentative(NamedTuple):
    """Documented failure value: the p ≡ 1 (mod q) reduction does not apply."""

    reason: str


def find_bestvina_form(
    germ: GarsideGerm,
    cert: PeriodicityCertificate,
    budget: Budget | None = None,
) -> BestvinaForm | NoLengthOneRepresentative:
    """
    Search the summit set of the certified loop for a representative of
    canonical length <= 1 whose twist is a fixed object of 𝒢_q, and package it
    with its conjugator.
    """
    from .conjugacy import summit_set
    from .divided import fixed_object, twist_exponent
    q = cert.q
    try:
        k = twist_exponent(cert.p, q)
    except GermError as exc:
        return NoLengthOneRepresentative(str(exc))
    # q·len(s) = ‖Δ‖, so only where Δ is an identity can q pass the word limit
    if q > MAX_WORD_FACTORS:
        raise BudgetExceeded(f"a {q}-letter Bestvina object exceeds the "
                             f"{MAX_WORD_FACTORS}-factor computation limit")
    summits = summit_set(germ, cert.gamma, budget)
    candidates = sorted(summits, key=lambda m: (m.delta_exp, m.factors))
    if cert.gamma in summits:
        # prefer the loop itself: its conjugator is the identity
        candidates.insert(0, cert.gamma)
    for h in candidates:
        # h = sΔ^k with s its first factor, or s = Δ when h is a Δ-power
        s = h.factors[0] if h.factors else germ.delta[h.source]
        if normal_form(germ, [s], k) == h and fixed_object(germ, s, k, q):
            return BestvinaForm(s, k, q, summits[h])
    return NoLengthOneRepresentative(
        "no summit of canonical length <= 1 satisfies the twisted product condition"
    )


def bestvina_object(germ: GarsideGerm, bf: BestvinaForm) -> DividedObject:
    """The q-tuple (s, s^{φ^{-k}}, ...) as a divided object, φ_q^p-fixed."""
    from .divided import fixed_object
    letters = fixed_object(germ, bf.s, bf.k, bf.q)
    if letters is None:
        raise InternalError("Bestvina form is not a fixed object of the q-divided germ")
    return letters


# -- necklace slides --------------------------------------------------------

def beta2_slides(q: int) -> list[int]:
    """β₂ = (σ_q σ_{q-1} ... σ₂)(σ_q ... σ₃) ... (σ_q); empty when q = 1."""
    out: list[int] = []
    for start in range(2, q + 1):
        out.extend(range(q, start - 1, -1))
    return out


class NecklaceConjugation(NamedTuple):
    bf: BestvinaForm
    divided: DividedGerm
    conjugator: NormalForm        # in the q-divided germ: theta object -> letter tuple
    theta_image: NormalForm       # Θ_q(sΔ^k)
    delta_power: NormalForm       # Δ_q^p based at the letter tuple


def necklace_conjugator(
    germ: GarsideGerm, bf: BestvinaForm, budget: Budget | None = None
) -> NecklaceConjugation:
    """
    Build 𝒢_q and c = ψ(β₂) from (ε, ..., ε, s₁...s_q), and verify
    Θ_q(sΔ^k)·c = c·Δ_q^p by normal-form equality, after spending one step
    per column of the ladders β₂ slides.
    """
    from .divided import build_divided_germ, ladder_nf, slide, theta_morphism, theta_object
    q, p = bf.q, bf.q * bf.k + 1
    budget = as_budget(budget)
    dg = build_divided_germ(germ, q, budget)
    n = q * (q - 1) // 2  # the length of β₂
    budget.spend(q * n, f": the necklace would slide {n} ladders of {q} columns")
    letters = bestvina_object(germ, bf)
    start = theta_object(germ, germ.simples[bf.s].source, q)
    ladders, end, final = slide(dg, start, ((),) * (q - 1) + (letters,), beta2_slides(q))
    if final != tuple((sid,) for sid in letters):
        raise InternalError("slide word did not end at the letter tuple")
    if end != letters:
        raise InternalError("conjugator does not end at the Bestvina object")
    c = ladder_nf(dg, start, ladders)

    gamma = normal_form(germ, [bf.s], bf.k)
    theta = theta_morphism(dg, gamma)
    dpow = delta_power(dg.germ, dg.object_of(letters), p)
    if multiply(dg.germ, theta, c) != multiply(dg.germ, c, dpow):
        raise InternalError("necklace conjugation equation failed verification")
    return NecklaceConjugation(bf, dg, c, theta, dpow)


# -- classification ---------------------------------------------------------

class PeriodicClassification(NamedTuple):
    p: int
    q: int
    k: int
    components: list[list[DividedObject]]   # fixed objects grouped by component
    representatives: list[NormalForm]       # one (f_1; k) loop per component


def classify_periodic(
    germ: GarsideGerm, p: int, q: int, budget: Budget | None = None
) -> PeriodicClassification:
    """
    Conjugacy classes of p/q-periodic loops, as connected components of the
    φ_q^p-fixed subgerm of the q-divided germ, built from the base germ.
    """
    from .conjugacy import fixed_subgerm
    from .divided import twist_exponent
    fixed = fixed_subgerm(germ, p, q, budget)
    k = twist_exponent(p, q)
    comps = sorted(sorted(fixed.object_inclusion[o] for o in comp) for comp in fixed.components)
    return PeriodicClassification(p, q, k, comps, [normal_form(germ, [c[0][0]], k) for c in comps])


def cmd_periodic(germ: GarsideGerm, forms, args, rep) -> bool:
    budget = Budget(args.budget)
    cert = is_periodic(germ, *forms, args.p, args.q, budget)
    if cert is None:
        rep.add("periodic", "no", f"not {args.p}/{args.q}-periodic")
        return False
    rep.add("periodic", "yes", f"{args.p}/{args.q}-periodic")
    if not args.certify:
        return True
    bf = find_bestvina_form(germ, cert, budget)
    if isinstance(bf, NoLengthOneRepresentative):
        rep.add("bestvina", "none", f"no length-one representative: {bf.reason}")
        return False
    rep.add(
        "bestvina",
        f"({germ.simple_name(bf.s)}, k={bf.k})",
        f"Bestvina form: ({germ.simple_name(bf.s)}, k={bf.k})",
    )
    rep.add("bestvina_conjugator", format_word(germ, bf.conjugator))
    from .divided import tuple_name
    under = tuple_name(germ, bestvina_object(germ, bf))
    rep.add("bestvina_object", under, f"object: {under}")
    nc = necklace_conjugator(germ, bf, budget)
    rep.add("necklace_conjugator", format_word(nc.divided.germ, nc.conjugator))
    rep.add("conjugation", "verified", "conjugation verified")
    return True


def cmd_classify(germ: GarsideGerm, forms, args, rep) -> bool:
    from .divided import tuple_name
    cl = classify_periodic(germ, args.p, args.q, Budget(args.budget))
    rep.add("classes", len(cl.components))
    for i, (comp, r) in enumerate(zip(cl.components, cl.representatives)):
        rep.add(f"class_{i}_objects", " ".join(tuple_name(germ, t) for t in comp))
        rep.add(f"class_{i}_representative", format_word(germ, r))
    return True


def cmd_centralizer(germ: GarsideGerm, forms, args, rep) -> bool:
    from .conjugacy import fixed_subgerm
    report = fixed_subgerm(germ, args.p, 1, Budget(args.budget))
    if report.is_empty:
        rep.add("centralizer", "none", f"phi^{args.p} has no fixed objects: "
                f"delta^{args.p} is nowhere a loop")
        return False
    sub = report.subgerm
    rep.add("fixed_objects", len(sub.objects))
    rep.add("fixed_simples", len(sub.simples))
    rep.add("atoms", " ".join(sub.simple_name(a) for a in sub.atoms))
    rep.add("components", len(report.components))
    return True
