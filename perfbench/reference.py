"""
Independent reference models for checking the library's answers.

Nothing here imports garside. Each builtin germ family is modelled from its
mathematical definition:

- artin_symmetric(n): simples are permutations of n letters, named by their
  lex-least reduced word over s, t, u, v, w ("D" is the longest element);
- dual_braid(n): simples are the permutations below the n-cycle in absolute
  order, named by their one-line notation ("2341" is the 4-cycle);
- dihedral_chamber(m): simple "c<i>_c<j>" goes from chamber i to chamber j
  and has the separating-wall distance as its length;
- the m-divided germ of artin_symmetric(n): objects "(f_1,...,f_m)" and
  ladders "lad(c_1,...,c_m)[@(f_1,...,f_m)]" over the base names.

Permutations compose left to right: compose(p, q) applies p, then q, which is
how the builtins multiply simples. Braid normal forms are checked through the
homomorphism to the symmetric group and through the homogeneous length; the
other germs through length and endpoints.
"""

from __future__ import annotations

from math import comb, factorial

Perm = tuple[int, ...]


def compose(p: Perm, q: Perm) -> Perm:
    return tuple(q[p[i]] for i in range(len(p)))


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def identity(n: int) -> Perm:
    return tuple(range(n))


def inversions(p: Perm) -> int:
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])


def reflection_length(p: Perm) -> int:
    seen = [False] * len(p)
    cycles = 0
    for i in range(len(p)):
        if not seen[i]:
            cycles += 1
            while not seen[i]:
                seen[i] = True
                i = p[i]
    return len(p) - cycles


def cycle_type(p: Perm) -> tuple[int, ...]:
    seen = [False] * len(p)
    sizes = []
    for i in range(len(p)):
        size = 0
        while not seen[i]:
            seen[i] = True
            i = p[i]
            size += 1
        if size:
            sizes.append(size)
    return tuple(sorted(sizes))


def all_perms(n: int) -> list[Perm]:
    out = [()]
    for k in range(n):
        out = [p[:i] + (k,) + p[i:] for p in out for i in range(k + 1)]
    return sorted(out)


# -- single-object braid models ----------------------------------------------

class BraidModel:
    """Shared by the braid germs: simples are permutations, Δ is `delta`."""

    n: int
    delta: Perm

    def twist(self, name: str, j: int) -> str:
        """φ^j(name): conjugation by Δ^j."""
        d = identity(self.n)
        for _ in range(j):
            d = compose(d, self.delta)
        return self.name(compose(compose(inverse(d), self.perm(name)), d))

    def inverse_atom_text(self, atom: str) -> str:
        """Word text for atom⁻¹ = complement(atom)·Δ⁻¹."""
        bar = compose(inverse(self.perm(atom)), self.delta)
        return f"{self.name(bar)} D^-1"


class ArtinModel(BraidModel):
    """artin_symmetric(n) as the symmetric group with inversion length."""

    letters = "stuvw"

    def __init__(self, n: int):
        self.n = n
        self.delta = tuple(reversed(range(n)))
        self.delta_length = n * (n - 1) // 2
        self.atom_names = list(self.letters[: n - 1])
        self.phi_order = 2 if n > 2 else 1      # conjugation by the longest element

    def _gen(self, i: int) -> Perm:
        p = list(range(self.n))
        p[i], p[i + 1] = p[i + 1], p[i]
        return tuple(p)

    def perm(self, name: str) -> Perm:
        if name.startswith("id@"):
            return identity(self.n)
        if name == "D":
            return self.delta
        p = identity(self.n)
        for ch in name:
            p = compose(p, self._gen(self.letters.index(ch)))
        return p

    def length(self, p: Perm) -> int:
        return inversions(p)

    def name(self, p: Perm) -> str:
        if p == self.delta:
            return "D"
        if p == identity(self.n):
            return "id@x"
        out = []
        p = list(p)
        while True:
            i = next((i for i in range(self.n - 1) if p[i] > p[i + 1]), None)
            if i is None:
                return "".join(out)
            out.append(self.letters[i])
            p[i], p[i + 1] = p[i + 1], p[i]

    def simples(self) -> list[Perm]:
        return all_perms(self.n)


class DualModel(BraidModel):
    """dual_braid(n) as the permutations below the n-cycle, reflection length."""

    def __init__(self, n: int):
        self.n = n
        self.delta = tuple((i + 1) % n for i in range(n))
        self.delta_length = n - 1
        self.atom_names = [self.name(p) for p in self.simples() if self.length(p) == 1]
        self.phi_order = n                      # conjugation by the n-cycle

    def perm(self, name: str) -> Perm:
        if name.startswith("id@"):
            return identity(self.n)
        return tuple(int(ch) - 1 for ch in name)

    def length(self, p: Perm) -> int:
        return reflection_length(p)

    def name(self, p: Perm) -> str:
        if p == identity(self.n):
            return "id@x"
        return "".join(str(i + 1) for i in p)

    def simples(self) -> list[Perm]:
        return [
            p for p in all_perms(self.n)
            if self.length(p) + self.length(compose(inverse(p), self.delta)) == self.n - 1
        ]


def word_perm(model, names: list[str], delta_exp: int = 0) -> Perm:
    """Image in S_n of a word of simple names followed by Δ^delta_exp."""
    p = identity(model.n)
    for nm in names:
        p = compose(p, model.perm(nm))
    d = model.delta if delta_exp >= 0 else inverse(model.delta)
    for _ in range(abs(delta_exp)):
        p = compose(p, d)
    return p


# -- dihedral chambers -------------------------------------------------------

class ChamberModel:
    """dihedral_chamber(m): 2m chambers, Δ at c_i goes to c_{i+m}."""

    def __init__(self, m: int):
        self.m = m
        self.n_obj = 2 * m
        self.delta_length = m

    def dist(self, i: int, j: int) -> int:
        d = (j - i) % self.n_obj
        return min(d, self.n_obj - d)

    @staticmethod
    def ends(name: str) -> tuple[int, int]:
        if name.startswith("id@c"):
            i = int(name[4:])
            return i, i
        a, b = name.split("_")
        return int(a[1:]), int(b[1:])

    @staticmethod
    def obj(name: str) -> int:
        return int(name[1:])

    def length(self, name: str) -> int:
        return self.dist(*self.ends(name))

    def target(self, source: int, names: list[str], delta_exp: int) -> int:
        at = source
        for nm in names:
            i, j = self.ends(nm)
            if i != at:
                raise ValueError(f"factor {nm} does not start at c{at}")
            at = j
        return (at + delta_exp * self.m) % self.n_obj

    def symmetry(self, name: str, r: int, flip: bool) -> str:
        """Image of a simple under the isometry x -> ±x + r of the chambers."""
        i, j = ((r - x if flip else x + r) % self.n_obj for x in self.ends(name))
        return f"c{i}_c{j}"

    def inverse_atom_text(self, atom: str) -> str:
        i, j = self.ends(atom)
        return f"c{j}_c{(i + self.m) % self.n_obj} D^-1"


# -- the m-divided germ of artin_symmetric(n) --------------------------------

def _split_tuple(text: str) -> list[str]:
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"not a tuple name: {text!r}")
    return text[1:-1].split(",")


class DividedArtinModel:
    """Ladders over artin_symmetric(n), computed on permutations."""

    def __init__(self, n: int, m: int):
        self.base = ArtinModel(n)
        self.m = m
        self.delta_length = self.base.delta_length

    def obj(self, name: str) -> tuple[Perm, ...]:
        return tuple(self.base.perm(nm) for nm in _split_tuple(name))

    def columns(self, name: str) -> tuple[tuple[Perm, ...], tuple[Perm, ...] | None]:
        if not name.startswith("lad("):
            raise ValueError(f"not a ladder name: {name!r}")
        close = name.index(")")
        cols = tuple(self.base.perm(nm) for nm in name[4:close].split(","))
        rest = name[close + 1:]
        src = self.obj(rest[1:]) if rest.startswith("@") else None
        return cols, src

    def length(self, name: str) -> int:
        cols, _ = self.columns(name)
        return sum(inversions(c) for c in cols)

    def _phi(self, p: Perm) -> Perm:
        d = self.base.delta
        return compose(compose(inverse(d), p), d)

    def ladder_target(self, src: tuple[Perm, ...], cols: tuple[Perm, ...]) -> tuple[Perm, ...]:
        out = []
        for i in range(self.m):
            diag = compose(inverse(cols[i]), src[i])
            if inversions(cols[i]) + inversions(diag) != inversions(src[i]):
                raise ValueError("ladder column does not divide its object factor")
            nxt = cols[i + 1] if i + 1 < self.m else self._phi(cols[0])
            out.append(compose(diag, nxt))
        return tuple(out)

    def shift(self, f: tuple[Perm, ...], k: int) -> tuple[Perm, ...]:
        for _ in range(k):
            f = f[1:] + (self._phi(f[0]),)
        for _ in range(-k):
            f = (compose(compose(self.base.delta, f[-1]), inverse(self.base.delta)),) + f[:-1]
        return f

    def target(self, source: tuple[Perm, ...], names: list[str], delta_exp: int) -> tuple[Perm, ...]:
        at = source
        for nm in names:
            cols, src = self.columns(nm)
            if src is not None and src != at:
                raise ValueError(f"ladder {nm} does not start at the current object")
            at = self.ladder_target(at, cols)
        return self.shift(at, delta_exp)


# -- brute-force counts -------------------------------------------------------

def braid_subdivisions(model, m: int) -> int:
    """|D_m| of a single-object braid germ, counted on permutations."""
    elems = model.simples()
    start = identity(model.n)
    chains = {start: 1}
    for _ in range(m):
        nxt: dict = {}
        for p, cnt in chains.items():
            lp = model.length(p)
            for f in elems:
                q = compose(p, f)
                if model.length(q) == lp + model.length(f):
                    nxt[q] = nxt.get(q, 0) + cnt
        chains = nxt
    return chains.get(model.delta, 0)


def chamber_subdivisions(model: ChamberModel, m: int) -> int:
    """|D_m| of dihedral_chamber: walks c_i -> ... -> c_{i+m'} with additive distance."""
    total = 0
    for i in range(model.n_obj):
        goal = (i + model.m) % model.n_obj
        chains = {(i, 0): 1}
        for _ in range(m):
            nxt: dict = {}
            for (at, used), cnt in chains.items():
                for j in range(model.n_obj):
                    d = model.dist(at, j)
                    if model.dist(i, j) == used + d:
                        nxt[(j, used + d)] = nxt.get((j, used + d), 0) + cnt
            chains = nxt
        total += chains.get((goal, model.m), 0)
    return total


def _left_divides(model, a: Perm, b: Perm) -> bool:
    return model.length(a) + model.length(compose(inverse(a), b)) == model.length(b)


def ball_vertices(model) -> int:
    """
    Positive elements with sup ≤ 2: greedy pairs (a, b) of simples, where
    greedy means no atom left-divides both b and the complement of a.
    """
    elems = model.simples()
    atoms = [p for p in elems if model.length(p) == 1]
    below_bar = {a: {t for t in atoms if _left_divides(model, compose(a, t), model.delta)
                     and model.length(compose(a, t)) == model.length(a) + 1}
                 for a in elems}
    below = {b: {t for t in atoms if _left_divides(model, t, b)} for b in elems}
    return sum(1 for a in elems for b in elems if not (below_bar[a] & below[b]))


def strict_chains(model, top: int) -> list[int]:
    """Chains 1 < u_1 < ... < u_n ≤ Δ in the prefix order, for n = 0..top."""
    elems = [p for p in model.simples() if model.length(p) > 0]
    ends = {identity(model.n): 1}
    counts = [1]
    for _ in range(top):
        nxt: dict = {}
        for u, cnt in ends.items():
            for v in elems:
                if v != u and _left_divides(model, u, v):
                    nxt[v] = nxt.get(v, 0) + cnt
        ends = nxt
        counts.append(sum(ends.values()))
    return counts


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


# -- hand-written facts -------------------------------------------------------
# key -> (expected value, where the value comes from)

FACTS: dict[str, tuple[object, str]] = {
    "artin5.simples": (factorial(5), "the simples of artin_symmetric(n) are the n! permutations"),
    "artin5.atoms": (4, "the n-1 Coxeter generators"),
    "artin5.phi_order": (2, "phi is conjugation by the longest element"),
    "artin5.dimension": (10, "longest chain = length of w0 = n(n-1)/2"),
    "dual5.simples": (catalan(5), "noncrossing partitions: Catalan(n) (Birman-Ko-Lee 1998)"),
    "dual5.atoms": (comb(5, 2), "every transposition lies below the n-cycle"),
    "dual5.phi_order": (5, "phi is conjugation by the n-cycle"),
    "dual4.simples": (catalan(4), "Catalan(4) noncrossing partitions"),
    "dual4.atoms": (comb(4, 2), "the transpositions of 4 letters"),
    "dual4.phi_order": (4, "phi is conjugation by the 4-cycle"),
    "dual4.dimension": (3, "longest chain = n-1"),
    "chamber12.simples": ((2 * 12) ** 2, "(2m)^2 ordered chamber pairs, identities included"),
    "chamber12.objects": (24, "2m chambers"),
    "chamber12.atoms": (48, "two adjacent chambers per chamber"),
    "chamber12.phi_order": (2, "phi is the half-turn c_i -> c_{i+m}"),
    "chain150.atoms": (1, "a_1 generates the chain"),
    "chain150.phi_order": (1, "Delta = a_150 is central in a chain"),
    "a2div3.objects": (17, "paper, worked example: the A2 3-divided category has 17 objects"),
    "a2div3.phi_order": (6, "paper, worked example: phi of the A2 3-divided category has order 6"),
    "dual4.classes_5_4": (0, "periodic braids are conjugate to powers of delta or epsilon "
                             "(Brouwer-Kerekjarto-Eilenberg); g^4 = delta^5 has no solution in B_4"),
    "artin4.classes_3_2": (1, "g^2 = Delta^3 = delta^6 forces g ~ delta^3 (same classification)"),
    "a2.bestvina": (("s", 1), "paper: s.Delta is 4/3-periodic with Bestvina form (s, k=1)"),
    "a2.necklace_delta": (4, "paper: Theta_3(s.Delta) is conjugate to Delta_3^4"),
    "a2.classify_4_3": ("(s,t,s) (t,s,t)", "paper: the single 4/3-periodic class"),
    "a2.zpoly": ("1 5 6 2 0", "paper: Newton coefficients of the A2 counting polynomial"),
    "a2.euler": (0, "1 - 5 + 6 - 2 nondegenerate simplices"),
}


def fact(key: str):
    return FACTS[key][0]
