"""
periodic: periodic loops, their length-one representatives, and the explicit
conjugation of Θ_q(sΔ^k) to a power of the divided Garside map.

A loop γ is p/q-periodic when γ^q = Δ^p. In a cyclic structure every such
loop is conjugate to sΔ^k with s simple and s·s^{φ^{-k}}·...·s^{φ^{-(q-1)k}}
= Δ, which forces p = qk+1; we find the representative by scanning the summit
set for canonical length ≤ 1 and report an explicit failure value otherwise.

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
    from .conjugacy import FixedGermReport
    from .divided import DividedGerm, DividedObject


class PeriodicityCertificate(NamedTuple):
    gamma: NormalForm
    p: int
    q: int


def is_periodic(
    germ: GarsideGerm, gamma: NormalForm, p: int, q: int, budget: Budget | int | None = None
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

    def twisted_letters(self, germ: GarsideGerm) -> tuple[int, ...]:
        return tuple(germ.phi_power(self.s, -i * self.k) for i in range(self.q))


class NoLengthOneRepresentative(NamedTuple):
    """Documented failure value: the p ≡ 1 (mod q) reduction does not apply."""

    reason: str


def check_bestvina(germ: GarsideGerm, bf: BestvinaForm, p: int) -> None:
    """Recompute both defining invariants; raises on any mismatch."""
    if p != bf.q * bf.k + 1:
        raise GermError("Bestvina form violates p = qk+1")
    letters = bf.twisted_letters(germ)
    prod = germ.fold_product(letters[0], letters[1:])
    if prod is None or not germ.is_delta(prod):
        raise GermError("Bestvina product is not delta")


def find_bestvina_form(
    germ: GarsideGerm,
    cert: PeriodicityCertificate,
    budget: Budget | int | None = None,
) -> BestvinaForm | NoLengthOneRepresentative:
    """
    Search the summit set of the certified loop for a representative of
    canonical length <= 1 and package it with its conjugator.
    """
    from .conjugacy import summit_set
    p, q = cert.p, cert.q
    if (p - 1) % q != 0:
        return NoLengthOneRepresentative(f"p = {p} is not congruent to 1 mod q = {q}")
    k = (p - 1) // q
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
        # h = sΔ^k with s its one factor, or s = Δ when h is a Δ-power
        s = h.factors[0] if h.factors else germ.delta[h.source]
        if h.canonical_length > 1 or normal_form(germ, [s], k) != h:
            continue
        bf = BestvinaForm(s, k, q, summits[h])
        try:
            check_bestvina(germ, bf, p)
        except GermError:
            continue
        return bf
    return NoLengthOneRepresentative(
        "no summit of canonical length <= 1 satisfies the twisted product condition"
    )


def bestvina_object(germ: GarsideGerm, bf: BestvinaForm) -> DividedObject:
    """The q-tuple (s, s^{φ^{-k}}, ...) as a divided object, φ_q^p-fixed."""
    from .divided import fixed_twist
    p = bf.q * bf.k + 1
    check_bestvina(germ, bf, p)
    letters = fixed_twist(germ, bf.s, p, bf.q)
    if letters is None:
        raise InternalError("Bestvina object is not fixed by the p-th shift power")
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
    germ: GarsideGerm,
    bf: BestvinaForm,
    dg: DividedGerm | None = None,
    budget: Budget | int | None = None,
) -> NecklaceConjugation:
    """
    Build c = ψ(β₂) from (ε, ..., ε, s₁...s_q) and verify
    Θ_q(sΔ^k)·c = c·Δ_q^p by normal-form equality, after spending one step
    per column of the ladders β₂ slides.
    """
    from .divided import build_divided_germ, ladder_nf, slide, theta_morphism, theta_object
    q, p = bf.q, bf.q * bf.k + 1
    budget = as_budget(budget)
    if dg is None:
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
    germ: GarsideGerm, p: int, q: int, budget: Budget | int | None = None
) -> PeriodicClassification:
    """
    Conjugacy classes of p/q-periodic loops, as connected components of the
    φ_q^p-fixed subgerm of the q-divided germ, built from the base germ.
    """
    from .conjugacy import fixed_subgerm
    fixed = fixed_subgerm(germ, p, q, budget)
    k = (p - 1) // q
    comps = sorted(sorted(fixed.object_inclusion[o] for o in comp) for comp in fixed.components)
    return PeriodicClassification(p, q, k, comps, [normal_form(germ, [c[0][0]], k) for c in comps])


def centralizer_germ(
    germ: GarsideGerm, p: int, budget: Budget | int | None = None
) -> FixedGermReport:
    """Fixed subgerm under φ^p; presents the centralizer of Δ^p where it is a loop."""
    from .conjugacy import fixed_subgerm
    report = fixed_subgerm(germ, p, 1, budget)
    if report.is_empty:
        raise GermError(f"phi^{p} has no fixed objects: delta^{p} is nowhere a loop")
    return report


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
    from .divided import build_divided_germ, tuple_name
    under = tuple_name(germ, bestvina_object(germ, bf))
    rep.add("bestvina_object", under, f"object: {under}")
    nc = necklace_conjugator(germ, bf, build_divided_germ(germ, bf.q, budget), budget)
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
    try:
        report = centralizer_germ(germ, args.p, Budget(args.budget))
    except GermError as exc:
        if type(exc) is not GermError:
            raise  # only "no fixed objects" is an answer; the subclasses are failures
        rep.add("centralizer", "none", str(exc))
        return False
    sub = report.subgerm
    rep.add("fixed_objects", len(sub.objects))
    rep.add("fixed_simples", len(sub.simples))
    rep.add("atoms", " ".join(sub.simple_name(a) for a in sub.atoms))
    rep.add("components", len(report.components))
    return True
