"""
words: the free category on a germ and its groupoid of fractions.

Every groupoid element is kept in left-greedy normal form

    f = s_1 s_2 ... s_l Δ^k

with the Δ-power at the right end. The factors s_i are simple ids that are
neither identities nor Δ's, each pair satisfies the greedy condition
meet(complement(s_i), s_{i+1}) = identity, and equality of normal forms is
plain structural equality, which solves the word problem.

A word is normalized by appending one simple at a time and repairing the
greedy condition leftwards from the right end (the domino rule; Dehornoy et
al., Foundations of Garside Theory, EMS 2015, ch. III; Epstein et al., Word
Processing in Groups, ch. 9): (a, b) becomes (a·u, v) with u·v = b and
u = meet(complement(a), b), until the first u = 1. Each append costs one
repair pass, at most the canonical length so far. A Δ of the input, or one
the repair makes at the front, migrates right by Δ·g = g^{φ^{-1}}·Δ.
"""

from __future__ import annotations

from typing import NamedTuple

from .germ import BudgetExceeded, GarsideGerm, GermError, InternalError

MAX_WORD_FACTORS = 1 << 16


class NormalForm(NamedTuple):
    source: int
    factors: tuple[int, ...]
    delta_exp: int

    @property
    def inf(self) -> int:
        return self.delta_exp

    @property
    def sup(self) -> int:
        return self.delta_exp + len(self.factors)

    @property
    def canonical_length(self) -> int:
        return len(self.factors)


def target(germ: GarsideGerm, f: NormalForm) -> int:
    at = f.source
    for sid in f.factors:
        at = germ.simples[sid].target
    return germ.phi_power_obj(at, f.delta_exp)


def is_loop(germ: GarsideGerm, f: NormalForm) -> bool:
    return target(germ, f) == f.source


def as_loop(germ: GarsideGerm, f: NormalForm) -> NormalForm:
    if not is_loop(germ, f):
        raise GermError("expected a loop (source = target)")
    return f


def identity_nf(oid: int) -> NormalForm:
    return NormalForm(oid, (), 0)


def delta_power_nf(oid: int, k: int) -> NormalForm:
    return NormalForm(oid, (), k)


def _normalize(germ: GarsideGerm, source: int, factors: list[int], k: int) -> NormalForm:
    if len(factors) > MAX_WORD_FACTORS:
        raise BudgetExceeded(
            f"word exceeds the {MAX_WORD_FACTORS}-factor computation limit"
        )
    simples, delta, complement = germ.simples, germ.delta, germ.complement_
    lkey, lmask, product, divisors = germ.lkey, germ.lmask, germ.product, germ.divisors
    # The word so far is out·Δ^d, with out greedy.
    out: list[int] = []
    d = 0
    for s in factors:
        s = germ.phi_power(s, -d)
        if not simples[s].length:
            continue
        if delta[simples[s].source] == s:
            d += 1
            continue
        out.append(s)
        i = len(out) - 1
        while i:
            a, b = out[i - 1], out[i]
            u = lkey[simples[b].source][lmask[complement[a]] & lmask[b]]
            if not simples[u].length:
                break
            au = product.get((a, u))
            if au is None:
                raise InternalError("normal form: a·u is not simple although u ≤ complement(a)")
            out[i - 1], out[i] = au, divisors[b][u]
            i -= 1
        if not simples[out[-1]].length:
            out.pop()
        if out and delta[simples[out[0]].source] == out[0]:
            # The repair made a Δ at the front; it moves right by Δ·g = φ^{-1}(g)·Δ.
            out = [germ.phi_simple_inv[t] for t in out[1:]]
            d += 1
    return NormalForm(source, tuple(out), d + k)


def normal_form(
    germ: GarsideGerm, word: list[int] | tuple[int, ...], delta_shift: int = 0
) -> NormalForm:
    """Normal form of word·Δ^{delta_shift}; the word may contain identities and Δ's."""
    if not word:
        raise GermError("empty word needs an explicit source; use identity_nf")
    source = at = germ.simples[word[0]].source
    for sid in word:
        if germ.simples[sid].source != at:
            raise GermError(f"word is not composable at factor {germ.simple_name(sid)!r}")
        at = germ.simples[sid].target
    return _normalize(germ, source, list(word), delta_shift)


def multiply(germ: GarsideGerm, f: NormalForm, g: NormalForm) -> NormalForm:
    """Normal form of the composite f·g."""
    if target(germ, f) != g.source:
        raise GermError("multiply: endpoint mismatch")
    twisted = [germ.phi_power(s, -f.delta_exp) for s in g.factors]
    return _normalize(
        germ, f.source, list(f.factors) + twisted, f.delta_exp + g.delta_exp
    )


def invert(germ: GarsideGerm, f: NormalForm) -> NormalForm:
    """The groupoid inverse, via s^{-1} = complement(s)·Δ^{-1}."""
    res = delta_power_nf(target(germ, f), -f.delta_exp)
    for sid in reversed(f.factors):
        bar = germ.complement(sid)
        piece = _normalize(germ, germ.simples[bar].source, [bar], -1)
        res = multiply(germ, res, piece)
    return res


def power(germ: GarsideGerm, f: NormalForm, n: int) -> NormalForm:
    if n == 0:
        return identity_nf(f.source)
    if n == 1:
        return f
    if not is_loop(germ, f):
        raise GermError("only loops can be raised to powers outside {0, 1}")
    if n < 0:
        return power(germ, invert(germ, f), -n)
    res = f
    for _ in range(n - 1):
        res = multiply(germ, res, f)
    return res


# -- word syntax ---------------------------------------------------------

def parse_word(germ: GarsideGerm, text: str) -> NormalForm:
    """
    Parse the morphism word syntax: whitespace-separated simple names, with
    optional `D^<int>` tokens (a Δ-power at the current object) and an
    optional leading `@<object>` pinning the source.
    """
    toks = text.split()
    source: int | None = None
    if toks and toks[0].startswith("@"):
        source = germ.object_named(toks[0][1:])
        toks = toks[1:]
    if source is None:
        for tok in toks:
            if _delta_token(tok) is None:
                source = germ.simples[germ.simple_named(tok)].source
                break
    if source is None:
        raise GermError("ambiguous word: prefix it with @<object>")
    # Δ^d·s = φ^{-d}(s)·Δ^d: a D^d token twists the simples after it.
    at, d, factors = source, 0, []
    for tok in toks:
        e = _delta_token(tok)
        if e is not None:
            at, d = germ.phi_power_obj(at, e), d + e
            continue
        sid = germ.simple_named(tok)
        if germ.simples[sid].source != at:
            raise GermError("multiply: endpoint mismatch")
        at = germ.simples[sid].target
        factors.append(germ.phi_power(sid, -d))
    return _normalize(germ, source, factors, d)


def _delta_token(tok: str) -> int | None:
    if tok.startswith("D^"):
        try:
            return int(tok[2:])
        except ValueError:
            return None
    return None


def format_word(germ: GarsideGerm, f: NormalForm) -> str:
    """Inverse of parse_word on normal forms."""
    parts = [germ.simple_name(s) for s in f.factors]
    if f.delta_exp != 0:
        parts.append(f"D^{f.delta_exp}")
    if not parts:
        return f"@{germ.object_name(f.source)}"
    if not f.factors:
        return f"@{germ.object_name(f.source)} " + " ".join(parts)
    return " ".join(parts)

