"""
Brute-force oracles, kept independent of the library code paths they check.
Everything here works straight off the product dict by exhaustive scanning.
"""

from itertools import product as cartesian

from garside import NormalForm, invert, multiply
from garside.words import delta_power_nf


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
            c = multiply(germ, w, delta_power_nf(_target(germ, w), j))
            h = multiply(germ, invert(germ, c), multiply(germ, g, c))
            conjugates.add(h)
    best_inf = max(h.inf for h in conjugates)
    best_sup = min(h.sup for h in conjugates)
    return {h for h in conjugates if h.inf == best_inf and h.sup == best_sup}


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
                if c != sid and sid in germ.left_divs[c]:
                    d = max(d, 1 + longest(c))
            depth[sid] = d
            return d

        best = max(best, longest(germ.identity[obj.id]))
    return best
