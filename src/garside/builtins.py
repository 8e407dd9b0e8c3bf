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

Each generator returns a GermTable; run germ.validate on it to use it.
"""

from __future__ import annotations

from itertools import permutations

from .germ import GermError, GermTable, make_table

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
    gens = [
        tuple(range(i)) + (i + 1, i) + tuple(range(i + 2, n)) for i in range(n - 1)
    ]
    out = []
    while inv[p] > 0:
        for i, g in enumerate(gens):
            rest = _compose(g, p)
            if inv[rest] == inv[p] - 1:
                out.append(letters[i])
                p = rest
                break
    return "".join(out)


def artin_symmetric(n: int) -> GermTable:
    if not 2 <= n <= 6:
        raise GermError("artin_symmetric expects 2 <= n <= 6")
    perms = sorted(permutations(range(n)))
    ident = tuple(range(n))
    w0 = tuple(reversed(range(n)))
    inv = {p: _inversions(p) for p in perms}
    names = {p: _artin_name(p, inv) for p in perms}
    names[w0] = "D"
    simples = [(names[p], "x", "x", inv[p]) for p in perms if p != ident]
    products = []
    for p in perms[1:]:
        for q in perms[1:]:
            r = _compose(p, q)
            if inv[p] + inv[q] == inv[r]:
                products.append((names[p], names[q], names[r]))
    return make_table(["x"], simples, products, {"x": names[w0]})


def _refl_length(p: tuple[int, ...]) -> int:
    n = len(p)
    seen = [False] * n
    cycles = 0
    for i in range(n):
        if not seen[i]:
            cycles += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = p[j]
    return n - cycles


def _perm_inv(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def dual_braid(n: int) -> GermTable:
    if not 2 <= n <= 6:
        raise GermError("dual_braid expects 2 <= n <= 6")
    cycle = tuple((i + 1) % n for i in range(n))
    ident = tuple(range(n))

    def below_cycle(p: tuple[int, ...]) -> bool:
        q = _compose(_perm_inv(p), cycle)
        return _refl_length(p) + _refl_length(q) == _refl_length(cycle)

    ncp = sorted(p for p in permutations(range(n)) if below_cycle(p))
    length = {p: _refl_length(p) for p in ncp}
    simples = [(_perm_name(p), "x", "x", length[p]) for p in ncp if p != ident]
    products = []
    for p in ncp[1:]:
        for q in ncp[1:]:
            r = _compose(p, q)
            if r in length and length[p] + length[q] == length[r]:
                products.append((_perm_name(p), _perm_name(q), _perm_name(r)))
    return make_table(["x"], simples, products, {"x": _perm_name(cycle)})


def dihedral_chamber(m: int) -> GermTable:
    """Chamber germ of m lines through the origin in the plane."""
    if not 2 <= m <= 12:
        raise GermError("dihedral_chamber expects 2 <= m <= 12")
    n = 2 * m
    objects = [f"c{i}" for i in range(n)]

    def dist(i: int, j: int) -> int:
        d = (j - i) % n
        return min(d, n - d)

    def name(i: int, j: int) -> str:
        return f"c{i}_c{j}"

    simples = [
        (name(i, j), f"c{i}", f"c{j}", dist(i, j))
        for i in range(n)
        for j in range(n)
        if i != j
    ]
    products = [
        (name(i, j), name(j, k), name(i, k))
        for i in range(n) for j in range(n) for k in range(n)
        if len({i, j, k}) == 3 and dist(i, j) + dist(j, k) == dist(i, k)
    ]
    deltas = {f"c{i}": name(i, (i + m) % n) for i in range(n)}
    return make_table(objects, simples, products, deltas)


def rank2_counterexample() -> GermTable:
    """Two objects x, y with arrows a, b each way and the relation a³ = b³."""
    simples = []
    products = []
    for src, tgt in (("x", "y"), ("y", "x")):
        for letter in ("a", "b"):
            simples.append((f"{letter}_{src}", src, tgt, 1))
            simples.append((f"{letter}{letter}_{src}", src, src, 2))
        simples.append((f"D_{src}", src, tgt, 3))
        for letter in ("a", "b"):
            products.append((f"{letter}_{src}", f"{letter}_{tgt}", f"{letter}{letter}_{src}"))
            products.append((f"{letter}_{src}", f"{letter}{letter}_{tgt}", f"D_{src}"))
            products.append((f"{letter}{letter}_{src}", f"{letter}_{src}", f"D_{src}"))
    return make_table(["x", "y"], simples, products, {"x": "D_x", "y": "D_y"})


def build(family: str, param: int | None = None) -> GermTable:
    if family == "artin_symmetric":
        return artin_symmetric(_need(family, param))
    if family == "dual_braid":
        return dual_braid(_need(family, param))
    if family == "dihedral_chamber":
        return dihedral_chamber(_need(family, param))
    if family == "rank2_counterexample":
        if param is not None:
            raise GermError(f"builtin family {family!r} takes no --param")
        return rank2_counterexample()
    raise GermError(f"unknown builtin family {family!r}; choose from {FAMILIES}")


def _need(family: str, param: int | None) -> int:
    if param is None:
        raise GermError(f"builtin family {family!r} needs --param")
    return param

