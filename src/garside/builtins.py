"""
builtins: generators for the standard example germs.

- artin_symmetric(n): the classical braid germ: permutations of n letters
  under inversion-additive products, Δ the longest element.
- dual_braid(n): the band-generator germ: permutations below the n-cycle in
  absolute order (noncrossing partitions), Δ the cycle, φ of order n.
- dihedral_chamber(m): chambers of m lines through the origin in the plane,
  with the separating-wall distance; every ordered chamber pair is simple.
- rank2_counterexample(): two objects x, y with a³ = b³; a Garside germ whose
  endomorphism monoid at x is not itself Garside.

artin_symmetric and dual_braid are intervals [1, Δ] of S_n: p·q is simple iff
q ≼ p̄ = p⁻¹Δ (triangle inequality), so products are read off lower intervals.
Each generator returns a GermTable; run germ.validate on it to use it.
"""

from __future__ import annotations

from itertools import permutations
from pathlib import Path

from .germ import GarsideGerm, GermError, GermTable, assemble_table, table_to_text

FAMILIES = ("artin_symmetric", "dual_braid", "dihedral_chamber", "rank2_counterexample")


def _perm_name(p: tuple[int, ...]) -> str:
    return "".join(str(i + 1) for i in p)


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # left-to-right: apply p, then q
    return tuple(q[p[i]] for i in range(len(p)))


def _inversions(p: tuple[int, ...]) -> int:
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])


def _artin_name(p: tuple[int, ...], inv: dict[tuple[int, ...], int]) -> str:
    """Lex-least reduced word over the generator letters s, t, u, v, w; inv holds the lengths."""
    letters = "stuvw"
    n = len(p)
    gens = [tuple(range(i)) + (i + 1, i) + tuple(range(i + 2, n)) for i in range(n - 1)]
    out = []
    while inv[p] > 0:
        for i, g in enumerate(gens):
            rest = _compose(g, p)
            if inv[rest] == inv[p] - 1:
                out.append(letters[i])
                p = rest
                break
    return "".join(out)


def _interval_germ(n: int, length, top: tuple[int, ...], name) -> GermTable:
    """
    One object x; the simples are the permutations p of n letters below top,
    length(p) + length(p⁻¹·top) = length(top), in lexicographic order (the
    identity first), and the products are the length-additive pairs whose
    product stays below top. Δ is top.
    """
    bar = {p: _compose(_perm_inv(p), top) for p in permutations(range(n))}
    ln = {p: length(p) for p, r in bar.items() if length(p) + length(r) == length(top)}
    perms = list(ln)
    ix = {p: i for i, p in enumerate(perms)}
    # Div(x), x's left divisors as a bitset over ids, is x with Div(y) for each
    # lower cover y = x·a⁻¹, a an atom: a proper prefix q of x lies below one,
    # as q⁻¹x has a reduced word and every length-one permutation lies below top.
    inv_atoms = [_perm_inv(a) for a in perms if ln[a] == 1]
    div = [0] * len(perms)
    for x in sorted(perms, key=ln.__getitem__):
        div[ix[x]] = 1 << ix[x]
        for y in (_compose(x, a) for a in inv_atoms):
            if ln.get(y) == ln[x] - 1:
                div[ix[x]] |= div[ix[y]]
    # pq is a length-additive simple iff q ≼ p̄: as (pq)⁻¹·top = q⁻¹p̄ and ℓp + ℓp̄ = ℓ(top),
    # each says ℓ(top) ≤ ℓ(pq) + ℓ(q⁻¹p̄) ≤ ℓp + ℓq + ℓ(q⁻¹p̄) is tight. p̄ is simple, as
    # conjugation by top keeps lengths; ascending q keeps the (p, q) order of a pair scan.
    products = []
    for i, p in enumerate(perms[1:], 1):
        qs = div[ix[bar[p]]] & ~1
        while qs:
            j = (qs & -qs).bit_length() - 1
            qs &= qs - 1
            products.append((i, j, ix[_compose(p, perms[j])]))
    simples = [(name(p), 0, 0, ln[p]) for p in perms[1:]]
    return assemble_table(["x"], simples, products, {0: ix[top]})


def artin_symmetric(n: int) -> GermTable:
    if not 2 <= n <= 6:
        raise GermError("artin_symmetric expects 2 <= n <= 6")
    inv = {p: _inversions(p) for p in permutations(range(n))}
    w0 = tuple(reversed(range(n)))
    return _interval_germ(
        n, inv.__getitem__, w0, lambda p: "D" if p == w0 else _artin_name(p, inv)
    )


def _refl_length(p: tuple[int, ...]) -> int:
    """n minus the number of cycles of p."""
    seen: set[int] = set()
    cycles = 0
    for i in range(len(p)):
        cycles += i not in seen
        while i not in seen:
            seen.add(i)
            i = p[i]
    return len(p) - cycles


def _perm_inv(p: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(range(len(p)), key=p.__getitem__))


def dual_braid(n: int) -> GermTable:
    if not 2 <= n <= 6:
        raise GermError("dual_braid expects 2 <= n <= 6")
    cycle = tuple((i + 1) % n for i in range(n))
    return _interval_germ(n, _refl_length, cycle, _perm_name)


def dihedral_chamber(m: int) -> GermTable:
    """Chamber germ of m lines through the origin in the plane."""
    if not 2 <= m <= 12:
        raise GermError("dihedral_chamber expects 2 <= m <= 12")
    n = 2 * m

    def dist(i: int, j: int) -> int:
        d = (j - i) % n
        return min(d, n - d)

    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    ix = {pair: n + k for k, pair in enumerate(pairs)}    # after the n identities
    simples = [(f"c{i}_c{j}", i, j, dist(i, j)) for i, j in pairs]
    products = [
        (ix[i, j], ix[j, k], ix[i, k])
        for i in range(n) for j in range(n) for k in range(n)
        if len({i, j, k}) == 3 and dist(i, j) + dist(j, k) == dist(i, k)
    ]
    deltas = {i: ix[i, (i + m) % n] for i in range(n)}
    return assemble_table([f"c{i}" for i in range(n)], simples, products, deltas)


def rank2_counterexample() -> GermTable:
    """Two objects x, y with arrows a, b each way and the relation a³ = b³."""
    simples, products = [], []
    for x, y in ((0, 1), (1, 0)):
        # The simples out of object o: a, aa, b, bb, D at ids 2 + 5o + 0…4.
        at, name = 2 + 5 * x, "xy"[x]
        for k, letter in enumerate("ab"):
            simples += [(f"{letter}_{name}", x, y, 1), (f"{letter * 2}_{name}", x, x, 2)]
            one, two, other = at + 2 * k, at + 2 * k + 1, 2 + 5 * y + 2 * k
            products += [(one, other, two), (one, other + 1, at + 4), (two, one, at + 4)]
        simples.append((f"D_{name}", x, y, 3))
    return assemble_table(["x", "y"], simples, products, {0: 6, 1: 11})


def build(family: str, param: int | None = None) -> GermTable:
    if family == "rank2_counterexample":
        if param is not None:
            raise GermError(f"builtin family {family!r} takes no --param")
        return rank2_counterexample()
    if family not in FAMILIES:
        raise GermError(f"unknown builtin family {family!r}; choose from {FAMILIES}")
    if param is None:
        raise GermError(f"builtin family {family!r} needs --param")
    generators = {"artin_symmetric": artin_symmetric, "dual_braid": dual_braid,
                  "dihedral_chamber": dihedral_chamber}
    return generators[family](param)


def cmd_builtin(germ: GarsideGerm, forms, args, rep) -> bool:
    rep.add("objects", len(germ.objects))
    rep.add("simples", len(germ.simples))
    if args.out:
        Path(args.out).write_text(table_to_text(germ), encoding="utf-8")
        rep.add("out", args.out, f"wrote germ to {args.out}")
    return True
