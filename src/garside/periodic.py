"""
periodic: periodic loops, their length-one representatives, and the explicit
conjugation of Θ_q(sΔ^k) to a power of the divided Garside map.

A loop γ is p/q-periodic when γ^q = Δ^p. In a cyclic structure every such
loop is conjugate to sΔ^k with s simple and s·s^{φ^{-k}}·...·s^{φ^{-(q-1)k}}
= Δ, which forces p = qk+1; we find the representative by scanning the summit
set for canonical length ≤ 1 and report an explicit failure value otherwise.

The conjugator realizing Θ_q(sΔ^k) ~ Δ_q^p is built from the necklace slide
word β₂ = (σ_q…σ₂)(σ_q…σ₃)…(σ_q): slides act on q-tuples of words over the
twisted letters s^{φ^j}, and each compatible slide maps to the ladder of the
q-divided germ with a single non-identity column. The conjugation equation is
re-verified by normal-form equality before anything is returned.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .germ import Budget, GarsideGerm, GermError, InternalError, as_budget
from .words import (
    NormalForm,
    as_loop,
    delta_power_nf,
    identity_nf,
    multiply,
    normal_form,
    target,
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
    if q % j == 0 and cur.delta_exp * (q // j) == p:
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
    prod = letters[0]
    for sid in letters[1:]:
        nxt = germ.product_of(prod, sid)
        if nxt is None:
            raise GermError("Bestvina product is undefined")
        prod = nxt
    if not germ.is_delta(prod):
        raise GermError("Bestvina product does not equal delta")


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
    summits = summit_set(germ, cert.gamma, budget)
    candidates = sorted(summits, key=lambda m: (m.delta_exp, m.factors))
    if cert.gamma in summits:
        # prefer the loop itself: its conjugator is the identity
        candidates.insert(0, cert.gamma)
    for h in candidates:
        if h.canonical_length > 1:
            continue
        if h.canonical_length == 1:
            s, kk = h.factors[0], h.delta_exp
        else:
            s, kk = germ.delta[h.source], h.delta_exp - 1
        if kk != k:
            continue
        bf = BestvinaForm(s, kk, q, summits[h])
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
    letters = bf.twisted_letters(germ)
    p = bf.q * bf.k + 1
    check_bestvina(germ, bf, p)
    shifted = letters
    for _ in range(p):
        shifted = tuple(shifted[1:]) + (germ.phi_simple[shifted[0]],)
    if shifted != letters:
        raise GermError("Bestvina object is not fixed by the p-th shift power")
    return letters


# -- necklace slides --------------------------------------------------------

def beta2_slides(q: int) -> list[int]:
    """β₂ = (σ_q σ_{q-1} ... σ₂)(σ_q ... σ₃) ... (σ_q); empty when q = 1."""
    out: list[int] = []
    for start in range(2, q + 1):
        out.extend(range(q, start - 1, -1))
    return out


def beta1_slides(q: int) -> list[int]:
    """β₁ = σ_q σ_{q-1} ... σ₁."""
    return list(range(q, 0, -1))


def apply_slides(
    germ: GarsideGerm,
    dg: DividedGerm,
    word_tuple: list[list[int]],
    slides: list[int],
) -> tuple[NormalForm, list[list[int]]]:
    """
    Evaluate a slide word through ψ: each compatible slide becomes the ladder
    with a single non-identity column. Returns (ψ-image, final word tuple).
    """
    from .divided import ladder_target
    q = len(word_tuple)
    words_t = [list(w) for w in word_tuple]

    def evaluate() -> DividedObject:
        out = []
        for i, w in enumerate(words_t):
            if not w:
                # empty word at the source of the following letters
                oid = _tuple_object_at(germ, words_t, i)
                out.append(germ.identity[oid])
                continue
            prod = w[0]
            for sid in w[1:]:
                nxt = germ.product_of(prod, sid)
                if nxt is None:
                    raise GermError("slide word does not evaluate to a simple")
                prod = nxt
            out.append(prod)
        return tuple(out)

    src = evaluate()
    res = identity_nf(dg.object_of(src))
    for i in slides:
        w = words_t[i - 1]
        if not w:
            raise InternalError(f"slide σ_{i} incompatible with the word tuple")
        a = w[0]
        cur = evaluate()
        cols = tuple(
            a if j == i - 1 else germ.identity[germ.simples[cur[j]].source]
            for j in range(q)
        )
        if ladder_target(germ, cur, cols) is None:
            raise InternalError("slide does not map to a ladder")
        sid = dg.ladder_simple(cur, cols)
        res = multiply(dg.germ, res, normal_form(dg.germ, [sid]))
        del w[0]
        if i > 1:
            words_t[i - 2].append(a)
        else:
            words_t[q - 1].append(germ.phi_simple[a])
    return res, words_t


def _tuple_object_at(germ: GarsideGerm, words_t: list[list[int]], i: int) -> int:
    """Source object of slot i in a word tuple; scan forward for a letter."""
    q = len(words_t)
    for j in range(i, q):
        if words_t[j]:
            return germ.simples[words_t[j][0]].source
    for j in range(0, i):
        if words_t[j]:
            # slot i lies past every letter, at the target of the full
            # product Δ_{x_1}, which is the φ-image of the start object
            return germ.phi_obj[germ.simples[words_t[j][0]].source]
    raise GermError("empty word tuple has no anchor object")


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
) -> NecklaceConjugation:
    """
    Build c = ψ(β₂) from (ε, ..., ε, s₁...s_q) and verify
    Θ_q(sΔ^k)·c = c·Δ_q^p by normal-form equality.
    """
    from .divided import build_divided_germ, theta_morphism, theta_object
    q = bf.q
    p = q * bf.k + 1
    if dg is None:
        dg = build_divided_germ(germ, q)
    letters = list(bf.twisted_letters(germ))
    start = [[] for _ in range(q - 1)] + [list(letters)]
    c, final = apply_slides(germ, dg, start, beta2_slides(q))
    if final != [[sid] for sid in letters]:
        raise InternalError("slide word did not end at the letter tuple")
    under = bestvina_object(germ, bf)
    if dg.objects[c.source] != theta_object(germ, germ.simples[bf.s].source, q):
        raise GermError("conjugator does not start at the theta object")
    if dg.objects[target(dg.germ, c)] != under:
        raise GermError("conjugator does not end at the Bestvina object")

    gamma = normal_form(germ, [bf.s], bf.k)
    theta = theta_morphism(dg, gamma)
    dpow = delta_power_nf(dg.object_of(under), p)
    lhs = multiply(dg.germ, theta, c)
    rhs = multiply(dg.germ, c, dpow)
    if lhs != rhs:
        raise GermError("necklace conjugation equation failed verification")
    return NecklaceConjugation(bf, dg, c, theta, dpow)


def psi_of_beta1(
    germ: GarsideGerm, bf: BestvinaForm, dg: DividedGerm | None = None
) -> NormalForm:
    """ψ(β₁) based at the letter tuple; normalizes to one Garside map Δ_q."""
    from .divided import build_divided_germ
    if dg is None:
        dg = build_divided_germ(germ, bf.q)
    start = [[sid] for sid in bf.twisted_letters(germ)]
    res, _ = apply_slides(germ, dg, start, beta1_slides(bf.q))
    return res


# -- classification ---------------------------------------------------------

class PeriodicClassification(NamedTuple):
    p: int
    q: int
    k: int
    components: list[list[DividedObject]]   # fixed objects grouped by component
    representatives: list[NormalForm]       # one (f_1; k) loop per component


def classify_periodic(germ: GarsideGerm, p: int, q: int) -> PeriodicClassification:
    """
    Conjugacy classes of p/q-periodic loops, as connected components of the
    φ_q^p-fixed subgerm of the q-divided germ.
    """
    from .conjugacy import fixed_subgerm
    from .divided import build_divided_germ
    if q < 1:
        raise GermError("q must be positive")
    if (p - 1) % q != 0:
        raise GermError(f"p = {p} is not congruent to 1 mod q = {q}")
    k = (p - 1) // q
    dg = build_divided_germ(germ, q)
    fixed = fixed_subgerm(dg.germ, p)
    comps: list[list[DividedObject]] = []
    reps: list[NormalForm] = []
    if not fixed.is_empty:
        for comp in fixed.components:
            tuples = sorted(
                dg.objects[fixed.object_inclusion[o]] for o in comp
            )
            comps.append(tuples)
            f1 = tuples[0][0]
            reps.append(normal_form(germ, [f1], k))
    return PeriodicClassification(p, q, k, comps, reps)


def centralizer_germ(germ: GarsideGerm, p: int) -> FixedGermReport:
    """Fixed subgerm under φ^p; presents the centralizer of Δ^p where it is a loop."""
    from .conjugacy import fixed_subgerm
    report = fixed_subgerm(germ, p)
    if report.is_empty:
        raise GermError(f"phi^{p} has no fixed objects: delta^{p} is nowhere a loop")
    return report
