"""
The benchmark's workloads. Each one is a closed loop with one client: an op
starts when the previous op has finished.

A workload has a library set-up (timed as setup_s), a reference set-up that
does not use the library, and rounds. A round is a fixed number of ops built
from the workload's seeded random stream; its answers are checked against
the reference models after the round, outside the timed part.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import resource
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import garside
import garside.cli
from garside import builtins, conjugacy, divided, nerve, periodic, words

import reference as ref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
A2_FILE = HERE / "data" / "a2.germ"
OUT_DIR = ROOT / ".bench_out"

# Fixed pool of conjugacy loops: every seed meets the same conjugacy classes,
# so the seed-to-seed spread measures the code rather than which classes were
# drawn (summit-set sizes differ by two orders of magnitude between classes).
# The pools of seeds 1, 3 and 4 each hold an artin4 pair that takes 7-30 s
# to decide, more than a whole run; like the other slowest cases, such
# classes are left for a later workload.
CONJUGACY_POOL_SEED = 2


@dataclass
class Op:
    kind: str
    run: Callable[[list], object]                   # gets the round's earlier results
    check: Callable[[object, list], str | None]     # error message, or None when right
    slot: int                                       # the same work in every round


class OpError:
    """An op that raised; always counted as failed."""

    def __init__(self, exc: BaseException):
        self.exc = exc

    def __repr__(self) -> str:
        return f"raised {self.exc!r}"


def tail_percentile(samples_per_run: int) -> int:
    """Highest whole percentile with at least ten samples beyond it."""
    return int(100 * (1 - 10 / samples_per_run))


def build(family: str, param: int | None):
    return garside.validate(builtins.build(family, param))


def load_a2():
    return garside.validate(garside.parse_germ(A2_FILE.read_text(encoding="utf-8")))


# -- germs with their reference models ----------------------------------------

def word_summary(model, kind: str, source_name: str, tokens: list[str]) -> tuple:
    """(permutation or None, homogeneous length, source, target) of a word text."""
    if kind == "braid":
        perm, length = ref.identity(model.n), 0
        for tok in tokens:
            if tok.startswith("D^"):
                k = int(tok[2:])
                perm = ref.compose(perm, ref.word_perm(model, [], k))
                length += k * model.delta_length
            else:
                p = model.perm(tok)
                perm = ref.compose(perm, p)
                length += model.length(p)
        return perm, length, "x", "x"
    src = model.obj(source_name)
    at, length = src, 0
    for tok in tokens:
        if tok.startswith("D^"):
            k = int(tok[2:])
            at = model.target(at, [], k)
            length += k * model.delta_length
        else:
            at = model.target(at, [tok], 0)
            length += model.length(tok)
    return None, length, src, at


class GermRef:
    """A validated germ and the model that checks words on it without the library."""

    def __init__(self, label: str, germ, model, kind: str):
        self.label, self.germ, self.model, self.kind = label, germ, model, kind
        self.out_atoms = [
            [a for a in germ.atoms if germ.simples[a].source == o.id] for o in germ.objects
        ]

    def summary(self, source_name: str, tokens: list[str]) -> tuple:
        return word_summary(self.model, self.kind, source_name, tokens)

    def nf_tokens(self, f) -> list[str]:
        toks = [self.germ.simple_name(s) for s in f.factors]
        return toks + [f"D^{f.delta_exp}"] if f.delta_exp else toks

    def nf_summary(self, f) -> tuple:
        return self.summary(self.germ.object_name(f.source), self.nf_tokens(f))

    def check_nf(self, f, want: tuple) -> str | None:
        if not isinstance(f, words.NormalForm):
            return f"expected a normal form, got {f!r}"
        got = self.nf_summary(f)
        for what, g, w in zip(("permutation", "length", "source", "target"), got, want):
            if g != w:
                return f"{self.label}: {what} {g} != reference {w}"
        return None

    def walk(self, rng: random.Random, start: int, n: int) -> tuple[list[int], int]:
        at, out = start, []
        for _ in range(n):
            a = rng.choice(self.out_atoms[at])
            out.append(a)
            at = self.germ.simples[a].target
        return out, at

    def names(self, sids: list[int]) -> list[str]:
        return [self.germ.simple_name(s) for s in sids]

    def source_name(self, tokens: list[str]) -> str:
        """Source object of a word text that starts with a simple name."""
        return "x" if self.kind == "braid" else f"c{self.model.ends(tokens[0])[0]}"

    def symmetries(self) -> list[Callable[[str], str]]:
        """Germ automorphisms acting on word tokens (Δ-powers stay)."""
        m = self.model
        if self.kind == "braid":
            return [lambda tok, j=j: tok if tok.startswith("D^") else m.twist(tok, j)
                    for j in range(m.phi_order)]
        return [lambda tok, r=r, f=f: tok if tok.startswith("D^") else m.symmetry(tok, r, f)
                for r in range(m.n_obj) for f in (False, True)]


def inverse_text(model, names: list[str]) -> list[str]:
    """Word tokens of (a_1 ... a_r)⁻¹ for atom names a_i."""
    return [tok for nm in reversed(names) for tok in model.inverse_atom_text(nm).split()]


def mul_summary(a: tuple, b: tuple) -> tuple:
    perm = ref.compose(a[0], b[0]) if a[0] is not None else None
    return perm, a[1] + b[1], a[2], b[3]


def inv_summary(a: tuple) -> tuple:
    perm = ref.inverse(a[0]) if a[0] is not None else None
    return perm, -a[1], a[3], a[2]


def witness_error(G: GermRef, g_sum: tuple, h_sum: tuple, c) -> str | None:
    """A conjugator c from g to h must satisfy g·c = c·h in the reference."""
    c_sum = G.nf_summary(c)
    if c_sum[2] != g_sum[2] or c_sum[3] != h_sum[2]:
        return f"{G.label}: witness runs {c_sum[2]} -> {c_sum[3]}, not {g_sum[2]} -> {h_sum[2]}"
    if G.kind == "braid" and ref.compose(g_sum[0], c_sum[0]) != ref.compose(c_sum[0], h_sum[0]):
        return f"{G.label}: perm(g)perm(c) != perm(c)perm(h) for the witness"
    return None


class Workload:
    """
    A round holds one op per slot; a slot carries work of the same kind and
    size in every round (its inputs may differ), so a slot's median time
    across rounds is its cost, and every round carries the same mix.
    """

    name = ""
    slots = 1
    min_rounds = 3

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    @property
    def tail_pct(self) -> int:
        """The latency tail: every run has at least min_rounds * slots ops."""
        return tail_percentile(self.slots * self.min_rounds)

    def setup(self) -> None:
        """Library set-up: import is done; build and validate the queried germs."""

    def prepare(self) -> None:
        """Reference values and input pools; untimed."""

    def plan(self) -> list[Op]:
        raise NotImplementedError

    def peak_rss_mb(self, results: list) -> float:
        """Peak resident memory of the process that did the work."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- word-stream (L2) ---------------------------------------------------------

class WordStream(Workload):
    """
    normal_form / parse_word of fresh atom words, multiply and invert of
    earlier results, on four germs; every (germ, length, op) stratum appears
    `PER_STRATUM` times per round so rounds carry the same amount of work.
    """

    name = "word-stream"
    KINDS = ("normal_form", "parse_word", "multiply", "invert")
    LENGTHS = (32, 128, 512)
    PER_STRATUM = 2
    GERMS = 4

    def __init__(self, seed: int):
        super().__init__(seed)
        self.strata = [(gi, n, kind) for gi in range(self.GERMS) for n in self.LENGTHS
                       for kind in self.KINDS for _ in range(self.PER_STRATUM)]
        self.slots = len(self.strata)
        self.seen: set[int] = set()       # hashes of the words used so far

    def setup(self) -> None:
        a3 = build("artin_symmetric", 3)
        self.raw = [
            build("artin_symmetric", 5),
            build("dual_braid", 5),
            build("dihedral_chamber", 6),
            divided.build_divided_germ(a3, 4).germ,
        ]

    def prepare(self) -> None:
        a5, d5, c6, div = self.raw
        self.germs = [
            GermRef("artin5", a5, ref.ArtinModel(5), "braid"),
            GermRef("dual5", d5, ref.DualModel(5), "braid"),
            GermRef("chamber6", c6, ref.ChamberModel(6), "chamber"),
            GermRef("artin3/4-divided", div, ref.DividedArtinModel(3, 4), "divided"),
        ]

    def _fresh_word(self, G: GermRef, start: int, n: int) -> tuple[list[int], int]:
        while True:
            sids, end = G.walk(self.rng, start, n)
            key = hash((G.label, start, tuple(sids)))
            if key not in self.seen:
                self.seen.add(key)
                return sids, end

    def plan(self) -> list[Op]:
        pending = list(enumerate(self.strata))
        self.rng.shuffle(pending)
        # chain[(germ, length)]: primaries in emission order, each starting where
        # the previous one ended, so neighbours are composable on any germ.
        chains: dict[tuple, list[tuple[int, tuple, int]]] = {}
        ops: list[Op] = []
        while pending:
            deferred = []
            for slot, (gi, n, kind) in pending:
                chain = chains.setdefault((gi, n), [])
                if (kind == "multiply" and len(chain) < 2) or (kind == "invert" and not chain):
                    deferred.append((slot, (gi, n, kind)))
                    continue
                ops.append(self._op(self.germs[gi], n, kind, chain, len(ops), slot))
            pending = deferred
        return ops

    def _op(self, G: GermRef, n: int, kind: str, chain: list, index: int, slot: int) -> Op:
        germ = G.germ
        label = f"{kind} {G.label} {n}"
        if kind in ("normal_form", "parse_word"):
            start = chain[-1][2] if chain else self.rng.randrange(len(germ.objects))
            sids, end = self._fresh_word(G, start, n)
            names = G.names(sids)
            want = G.summary(germ.object_name(start), names)
            chain.append((index, want, end))
            if kind == "normal_form":
                run = lambda res: words.normal_form(germ, sids)
            else:
                text = " ".join(names)
                run = lambda res: words.parse_word(germ, text)
            return Op(label, run, lambda r, res: G.check_nf(r, want), slot)
        if kind == "multiply":
            i = self.rng.randrange(len(chain) - 1)
            (ia, sa, _), (ib, sb, _) = chain[i], chain[i + 1]
            want = mul_summary(sa, sb)
            return Op(label, lambda res: words.multiply(germ, res[ia], res[ib]),
                      lambda r, res: G.check_nf(r, want), slot)
        ia, sa, _ = self.rng.choice(chain)
        want = inv_summary(sa)

        def check_inverse(r, res):
            err = G.check_nf(r, want)
            if err:
                return err
            one = words.multiply(germ, res[ia], r)
            if one.factors or one.delta_exp or one.source != res[ia].source:
                return f"{G.label}: f * invert(f) is not the identity"
            return None

        return Op(label, lambda res: words.invert(germ, res[ia]), check_inverse, slot)


# -- conjugacy (L3) -----------------------------------------------------------

class Conjugacy(Workload):
    """
    are_conjugate(g, h) with g a loop of 8-16 atoms times Δ^k, k in -2..0.
    Braid germs get one positive pair h = c⁻¹gc and one negative pair per
    pool loop; the chamber germ gets positive pairs only.

    The pairs come from a fixed pool: the cost of a conjugacy decision varies
    by two orders of magnitude with the class and the conjugator, so pairs
    drawn per seed would make the spread between seeds measure the draw. The
    seed instead applies a germ automorphism to each pair (a power of φ on
    the braid germs, a rotation or reflection of the chambers), which changes
    every input but not the amount of work, and sets the order.
    """

    name = "conjugacy"
    BRAID_LOOPS = 3
    CHAMBER_LOOPS = 8
    ATOMS = (8, 16)
    CONJUGATOR_ATOMS = (4, 8)

    def __init__(self, seed: int):
        super().__init__(seed)
        self.slots = 2 * 2 * self.BRAID_LOOPS + self.CHAMBER_LOOPS

    def setup(self) -> None:
        self.raw = [build("artin_symmetric", 4), build("dual_braid", 4),
                    build("dihedral_chamber", 3)]

    def prepare(self) -> None:
        a4, d4, c3 = self.raw
        self.germs = [GermRef("artin4", a4, ref.ArtinModel(4), "braid"),
                      GermRef("dual4", d4, ref.DualModel(4), "braid"),
                      GermRef("chamber3", c3, ref.ChamberModel(3), "chamber")]
        pool = random.Random(CONJUGACY_POOL_SEED)
        self.pool = []          # (germ, g tokens, h tokens, conjugate?)
        for G in self.germs[:2]:
            for _ in range(self.BRAID_LOOPS):
                n, dk = pool.randint(*self.ATOMS), self._delta(pool)
                g = G.names(G.walk(pool, 0, n)[0])
                # the cycle types of the loops as queried, Δ^k included
                ctype = ref.cycle_type(G.summary("x", g + dk)[0])
                while True:
                    other = G.names(G.walk(pool, 0, n)[0])
                    if ref.cycle_type(G.summary("x", other + dk)[0]) != ctype:
                        break
                self.pool.append((G, g + dk, self._conjugate(pool, G, 0, g + dk), True))
                self.pool.append((G, g + dk, self._conjugate(pool, G, 0, other + dk), False))
        G = self.germs[2]
        while len(self.pool) < self.slots:
            start = pool.randrange(len(G.germ.objects))
            n, dk = pool.randint(*self.ATOMS), self._delta(pool)
            g = G.names(G.walk(pool, start, n)[0]) + dk
            s = G.summary(G.germ.object_name(start), g)
            if s[3] == s[2]:
                self.pool.append((G, g, self._conjugate(pool, G, start, g), True))

    @staticmethod
    def _delta(rng: random.Random) -> list[str]:
        k = rng.randint(-2, 0)
        return [f"D^{k}"] if k else []

    def _conjugate(self, rng: random.Random, G: GermRef, source: int, tokens: list[str]) -> list[str]:
        """Text of c⁻¹·tokens·c for a random atom word c out of `source`."""
        c = G.names(G.walk(rng, source, rng.randint(*self.CONJUGATOR_ATOMS))[0])
        return inverse_text(G.model, c) + tokens + c

    def plan(self) -> list[Op]:
        ops = []
        for slot, (G, g_tok, h_tok, positive) in enumerate(self.pool):
            sym = self.rng.choice(G.symmetries())
            ops.append(self._op(G, [sym(t) for t in g_tok], [sym(t) for t in h_tok], positive,
                                slot))
        self.rng.shuffle(ops)
        return ops

    def _op(self, G: GermRef, g_tok: list[str], h_tok: list[str], positive: bool,
            slot: int) -> Op:
        germ = G.germ
        g = words.parse_word(germ, " ".join(g_tok))
        h = words.parse_word(germ, " ".join(h_tok))
        g_sum = G.summary(G.source_name(g_tok), g_tok)
        h_sum = G.summary(G.source_name(h_tok), h_tok)
        label = f"are_conjugate {G.label} {'positive' if positive else 'negative'}"

        def check(w, res):
            if not positive:
                return None if w is None else f"{G.label}: non-conjugate pair reported conjugate"
            if w is None:
                return f"{G.label}: conjugate pair reported not conjugate"
            if w.g != g or w.h != h:
                return f"{G.label}: witness is for other loops"
            return witness_error(G, g_sum, h_sum, w.c)

        return Op(label, lambda res: conjugacy.are_conjugate(germ, g, h), check, slot)


# -- construct (L0, L1, L4) ---------------------------------------------------

def chain_germ_text(n: int) -> str:
    """Germ file of the chain a_i·a_j = a_{i+j}, i + j ≤ n."""
    lines = ["garside-germ v1", "object x"]
    lines += [f"simple a{i} : x -> x len {i}" for i in range(1, n + 1)]
    lines += [f"product a{i} a{j} = a{i + j}"
              for i in range(1, n) for j in range(1, n - i + 1)]
    lines.append(f"delta x = a{n}")
    return "\n".join(lines) + "\n"


def expected(spec) -> tuple[object, str]:
    """A fact key of reference.FACTS, or an explicit (value, source) pair."""
    return ref.FACTS[spec] if isinstance(spec, str) else spec


def expect(label: str, pairs: list[tuple[object, object]]) -> str | None:
    """pairs: (got, expectation spec); the first mismatch as a message."""
    for got, spec in pairs:
        want, source = expected(spec)
        if got != want:
            return f"{label}: got {got!r}, expected {want!r} ({source})"
    return None


def germ_facts(g, prefix: str, with_objects: bool = False) -> list:
    pairs = [(len(g.simples), f"{prefix}.simples"), (len(g.atoms), f"{prefix}.atoms"),
             (g.phi_order, f"{prefix}.phi_order")]
    if with_objects:
        pairs.append((len(g.objects), f"{prefix}.objects"))
    return pairs


class Construct(Workload):
    """A fixed job list: validation, divided germs, periodic classification, cover balls."""

    name = "construct"
    JOBS = ["validate artin5", "validate dual5", "validate chamber12",
            "validate chain", "divide artin4 m3", "divide dual4 m3",
            "divide chamber4 m2", "divide artin3 m6", "classify dual4 5/4",
            "classify artin4 3/2", "is_periodic A2 4/3", "find_bestvina_form A2",
            "necklace_conjugator A2", "cover_ball dual4 r2", "cover_ball artin4 r2"]
    CHAIN_SIMPLES = 150

    def __init__(self, seed: int):
        super().__init__(seed)
        self.slots = len(self.JOBS)

    def setup(self) -> None:
        self.a2 = load_a2()
        self.a3 = build("artin_symmetric", 3)
        self.a4 = build("artin_symmetric", 4)
        self.d4 = build("dual_braid", 4)
        self.c4 = build("dihedral_chamber", 4)

    def prepare(self) -> None:
        self.chain_text = chain_germ_text(self.CHAIN_SIMPLES)
        A4, D4, A3 = ref.ArtinModel(4), ref.DualModel(4), ref.ArtinModel(3)
        self.counts = {
            "artin4 m3": ref.braid_subdivisions(A4, 3),
            "dual4 m3": ref.braid_subdivisions(D4, 3),
            "chamber4 m2": ref.chamber_subdivisions(ref.ChamberModel(4), 2),
            "artin3 m6": ref.braid_subdivisions(A3, 6),
            "dual4 ball": ref.ball_vertices(D4),
            "artin4 ball": ref.ball_vertices(A4),
        }

    def plan(self) -> list[Op]:
        c = self.counts
        chain_n = self.CHAIN_SIMPLES
        state: dict = {}
        count_src = "brute-force multichain count of the reference model"
        ball_src = "greedy pairs of simples counted on the reference model"

        def divide(g, m, key):
            return (lambda res: divided.build_divided_germ(g, m),
                    lambda r, res: expect(f"divide {key}",
                                          [(len(r.objects), (c[key], f"objects ({count_src})"))]))

        def is_periodic(res):
            state["cert"] = periodic.is_periodic(self.a2, words.parse_word(self.a2, "s D^1"), 4, 3)
            return state["cert"]

        def bestvina(res):
            state["bf"] = periodic.find_bestvina_form(self.a2, state["cert"])
            return state["bf"]

        jobs = {
            "validate artin5": (lambda res: build("artin_symmetric", 5),
                                lambda r, res: expect("artin5", germ_facts(r, "artin5"))),
            "validate dual5": (lambda res: build("dual_braid", 5),
                               lambda r, res: expect("dual5", germ_facts(r, "dual5"))),
            "validate chamber12": (lambda res: build("dihedral_chamber", 12),
                                   lambda r, res: expect("chamber12", germ_facts(r, "chamber12", True))),
            "validate chain": (
                lambda res: garside.validate(garside.parse_germ(self.chain_text)),
                lambda r, res: expect("chain", [
                    (len(r.simples), (chain_n + 1, "simples: a_1..a_n plus the identity")),
                    (len(r.atoms), "chain150.atoms"), (r.phi_order, "chain150.phi_order")])),
            "divide artin4 m3": divide(self.a4, 3, "artin4 m3"),
            "divide dual4 m3": divide(self.d4, 3, "dual4 m3"),
            "divide chamber4 m2": divide(self.c4, 2, "chamber4 m2"),
            "divide artin3 m6": divide(self.a3, 6, "artin3 m6"),
            "classify dual4 5/4": (lambda res: periodic.classify_periodic(self.d4, 5, 4),
                                   lambda r, res: expect("classify dual4 5/4",
                                                         [(len(r.components), "dual4.classes_5_4")])),
            "classify artin4 3/2": (lambda res: periodic.classify_periodic(self.a4, 3, 2),
                                    lambda r, res: expect("classify artin4 3/2",
                                                          [(len(r.components), "artin4.classes_3_2")])),
            "is_periodic A2 4/3": (is_periodic, lambda r, res: None if r is not None
                                   else "A2: s.Delta reported not 4/3-periodic"),
            "find_bestvina_form A2": (bestvina, lambda r, res: expect("A2 Bestvina form", [
                ((self.a2.simple_name(r.s), r.k) if hasattr(r, "s") else r, "a2.bestvina")])),
            "necklace_conjugator A2": (
                lambda res: periodic.necklace_conjugator(self.a2, state["bf"]),
                lambda r, res: expect("A2 necklace", [
                    (r.delta_power.delta_exp, "a2.necklace_delta"),
                    (len(r.divided.objects), "a2div3.objects")])),
            "cover_ball dual4 r2": (lambda res: nerve.cover_ball(self.d4, 0, 2),
                                    lambda r, res: expect("cover dual4", [
                                        (len(r.vertices), (c["dual4 ball"], ball_src))])),
            "cover_ball artin4 r2": (lambda res: nerve.cover_ball(self.a4, 0, 2),
                                     lambda r, res: expect("cover artin4", [
                                         (len(r.vertices), (c["artin4 ball"], ball_src))])),
        }
        return [Op(name, *jobs[name], slot) for slot, name in enumerate(self.JOBS)]


# -- cli (L5) -----------------------------------------------------------------

@dataclass
class Request:
    argv: list[str]
    exit_code: int
    check: Callable[[dict], str | None]      # parsed `key: value` lines -> error
    slot: int = 0


@dataclass
class Reply:
    code: int
    out: str
    err: str
    rss_mb: float = 0.0
    probes: list[float] = field(default_factory=list)   # pace probed by the request process


def parse_reply(out: str) -> dict:
    facts = {}
    for line in out.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            facts[key] = value
    return facts


def word_tokens(text: str) -> tuple[str, list[str]]:
    """(source object name, tokens) of a printed word."""
    toks = text.split()
    if toks and toks[0].startswith("@"):
        return toks[0][1:], toks[1:]
    return "x", toks


class Cli(Workload):
    """
    A fixed mix of garside CLI requests, each in its own process running
    garside.cli as `python -m garside.cli` does (cli_child.py), one at a
    time. Words come from the seed.
    """

    name = "cli"
    # (subcommand, germ) kinds; each kind runs once per round. Seven of the
    # twenty load artin5, whose 120-simple validation dominates them; the rest
    # take about the same time, so neither the median nor the tail falls in
    # the gap between the two groups.
    KINDS = [
        ("validate", "artin5"), ("nf", "artin5"), ("nf", "artin5"), ("mul", "artin5"),
        ("mul", "artin5"), ("inv", "artin5"), ("inv", "artin5"),
        ("validate", "dual4"), ("nf", "a2"), ("inv", "dual4"), ("summit", "artin3"),
        ("summit", "dual4"), ("isconj", "artin3"), ("isconj", "dual4"), ("periodic", "a2"),
        ("divide", "a2"), ("classify", "a2"), ("nerve", "a2"), ("zpoly", "a2"), ("cover", "a2"),
    ]
    SOURCES = {
        "a2": ["--file", str(A2_FILE.relative_to(ROOT))],
        "artin3": ["--builtin", "artin_symmetric", "--param", "3"],
        "artin4": ["--builtin", "artin_symmetric", "--param", "4"],
        "artin5": ["--builtin", "artin_symmetric", "--param", "5"],
        "dual4": ["--builtin", "dual_braid", "--param", "4"],
    }

    def __init__(self, seed: int):
        super().__init__(seed)
        self.slots = len(self.KINDS)

    def setup(self) -> None:
        self.a2 = load_a2()

    def prepare(self) -> None:
        self.models = {"a2": ref.ArtinModel(3), "artin3": ref.ArtinModel(3),
                       "artin4": ref.ArtinModel(4), "artin5": ref.ArtinModel(5),
                       "dual4": ref.DualModel(4)}
        A3 = ref.ArtinModel(3)
        self.counts = {"a2 ball": ref.ball_vertices(A3),
                       "a2 chains": ref.strict_chains(A3, 3)}

    # words -----------------------------------------------------------------

    def _word(self, germ: str, n: int) -> list[str]:
        atoms = self.models[germ].atom_names
        return [self.rng.choice(atoms) for _ in range(n)]

    def _delta(self, lo: int, hi: int) -> list[str]:
        k = self.rng.randint(lo, hi)
        return [f"D^{k}"] if k else []

    def _summary(self, germ: str, tokens: list[str]) -> tuple:
        return word_summary(self.models[germ], "braid", "x", tokens)

    def _nf_check(self, germ: str, key: str, want: tuple) -> Callable[[dict], str | None]:
        def check(facts):
            if key not in facts:
                return f"missing {key}"
            got = self._summary(germ, word_tokens(facts[key])[1])
            if got[:2] != want[:2]:
                return f"{germ}: {key} {facts[key]!r} disagrees with the reference"
            return None
        return check

    def _witness_check(self, germ: str, g: tuple, h: tuple, key: str, h_key: str | None = None):
        def check(facts):
            if key not in facts:
                return f"missing {key}"
            c = self._summary(germ, word_tokens(facts[key])[1])
            hh = h if h_key is None else self._summary(germ, word_tokens(facts[h_key])[1])
            if ref.compose(g[0], c[0]) != ref.compose(c[0], hh[0]):
                return f"{germ}: {key} does not conjugate g to h in the reference"
            return None
        return check

    @staticmethod
    def _facts(pairs: list[tuple[str, object]]) -> Callable[[dict], str | None]:
        """pairs: (output key, expectation spec), compared as printed text."""
        def check(facts):
            for key, spec in pairs:
                want, source = expected(spec)
                if facts.get(key) != str(want):
                    return f"{key} is {facts.get(key)!r}, expected {want!r} ({source})"
            return None
        return check

    def _request(self, cmd: str, germ: str) -> Request:
        argv = [cmd] + self.SOURCES[germ] + ["--json-like"]
        m = self.models[germ]
        if cmd == "validate":
            keys = ("simples", "atoms", "phi_order", "dimension")
            pairs = [(k if k != "dimension" else "garside_dimension", f"{germ}.{k}") for k in keys]
            return Request(argv, 0, self._facts(pairs))
        if cmd in ("nf", "inv"):
            n = {"a2": self.rng.randint(8, 24), "artin5": 64, "dual4": 24}[germ]
            tokens = self._word(germ, n) + self._delta(-2, 2)
            want = self._summary(germ, tokens)
            key = "nf" if cmd == "nf" else "inverse"
            if cmd == "inv":
                want = inv_summary(want)
            return Request(argv + ["--word", " ".join(tokens)], 0, self._nf_check(germ, key, want))
        if cmd == "mul":
            w1, w2 = self._word(germ, 16), self._word(germ, 16) + self._delta(-1, 1)
            want = mul_summary(self._summary(germ, w1), self._summary(germ, w2))
            return Request(argv + ["--word", " ".join(w1), "--word", " ".join(w2)], 0,
                           self._nf_check(germ, "product", want))
        if cmd == "summit":
            tokens = self._word(germ, 8) + self._delta(-1, 0)
            g = self._summary(germ, tokens)
            nf_check = self._witness_check(germ, g, None, "summit_conjugator", "summit")

            def check(facts):
                if int(facts.get("summit_set_size", "0")) < 1:
                    return "empty summit set"
                s = self._summary(germ, word_tokens(facts.get("summit", ""))[1])
                if s[1] != g[1] or ref.cycle_type(s[0]) != ref.cycle_type(g[0]):
                    return f"{germ}: summit is not conjugate to the word in the reference"
                return nf_check(facts)
            return Request(argv + ["--word", " ".join(tokens)], 0, check)
        if cmd == "isconj":
            n = self.rng.randint(8, 12)
            g_tok = self._word(germ, n) + self._delta(-1, 0)
            g = self._summary(germ, g_tok)
            if germ.startswith("artin"):
                c = self._word(germ, 4)
                h_tok = inverse_text(m, c) + g_tok + c
                h = self._summary(germ, h_tok)
                pos = self._witness_check(germ, g, h, "witness")
                return Request(argv + ["--word", " ".join(g_tok), "--word", " ".join(h_tok)], 0,
                               lambda f: self._facts([("conjugate", ("yes", "h = c^-1 g c"))])(f) or pos(f))
            while True:
                h_tok = self._word(germ, n) + g_tok[n:]
                if ref.cycle_type(self._summary(germ, h_tok)[0]) != ref.cycle_type(g[0]):
                    break
            return Request(argv + ["--word", " ".join(g_tok), "--word", " ".join(h_tok)], 4,
                           self._facts([("conjugate", ("no", "different cycle types"))]))
        if cmd == "periodic":
            letter = self.rng.choice(["s", "t"])
            c = self._word(germ, self.rng.randint(1, 4))
            tokens = inverse_text(m, c) + [letter, "D^1"] + c
            g = self._summary(germ, tokens)
            facts = self._facts([("periodic", ("yes", "paper: conjugates of s.Delta are 4/3-periodic")),
                                 ("conjugation", ("verified", "the necklace equation holds"))])

            def check(f):
                err = facts(f)
                if err:
                    return err
                if f.get("bestvina") not in ("(s, k=1)", "(t, k=1)"):
                    return f"bestvina is {f.get('bestvina')!r}, expected (s, k=1) or (t, k=1)"
                s = f["bestvina"][1]
                h = self._summary(germ, [s, "D^1"])
                return self._witness_check(germ, g, h, "bestvina_conjugator")(f)
            return Request(argv + ["--word", " ".join(tokens), "--p", "4", "--q", "3",
                                   "--certify"], 0, check)
        if cmd == "divide":
            return Request(argv + ["--m", "3"], 0, self._facts([
                ("objects", "a2div3.objects"), ("phi_order", "a2div3.phi_order")]))
        if cmd == "classify":
            return Request(argv + ["--p", "4", "--q", "3"], 0, self._facts([
                ("classes", (1, "paper: one 4/3-periodic class")),
                ("class_0_objects", "a2.classify_4_3")]))
        if cmd == "nerve":
            chains = self.counts["a2 chains"]
            return Request(argv, 0, self._facts(
                [("garside_dimension", (3, "length of w0 in S_3"))]
                + [(f"nondegenerate_{i}", (v, "strict chains in the reference"))
                   for i, v in enumerate(chains)]
                + [("euler", "a2.euler"), ("cyclic_identities", ("ok", "paper"))]))
        if cmd == "zpoly":
            return Request(argv, 0, self._facts([
                ("degree", (3, "Garside dimension of A2")),
                ("newton_coefficients", "a2.zpoly")]))
        if cmd == "cover":
            return Request(argv + ["--radius", "2"], 0, self._facts([
                ("vertices", (self.counts["a2 ball"], "greedy pairs in the reference"))]))
        raise ValueError(f"unknown request kind {cmd}")

    def requests(self) -> list[Request]:
        reqs = [self._request(cmd, germ) for cmd, germ in self.KINDS]
        for slot, req in enumerate(reqs):
            req.slot = slot
        self.rng.shuffle(reqs)
        return reqs

    def plan(self) -> list[Op]:
        return self.ops(self.requests(), in_process=False)

    def peak_rss_mb(self, results: list) -> float:
        """The largest request process."""
        return max((r.rss_mb for r in results if isinstance(r, Reply)), default=0.0)

    @staticmethod
    def ops(reqs: list[Request], in_process: bool) -> list[Op]:
        runner = run_in_process if in_process else run_subprocess

        def checker(req):
            def check(reply, res):
                if reply.code != req.exit_code:
                    return f"exit code {reply.code}, expected {req.exit_code}: {reply.err.strip()[-200:]}"
                return req.check(parse_reply(reply.out))
            return check
        return [Op("cli " + req.argv[0], lambda res, req=req: runner(req.argv), checker(req),
                   req.slot) for req in reqs]


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


REQUEST_TIMEOUT_S = 150


def run_subprocess(argv: list[str]) -> Reply:
    """One CLI process; wait4 gives its own peak RSS."""
    OUT_DIR.mkdir(exist_ok=True)
    pace_file = OUT_DIR / "cli.pace"
    pace_file.unlink(missing_ok=True)
    with open(OUT_DIR / "cli.stdout", "w+b") as out, open(OUT_DIR / "cli.stderr", "w+b") as err:
        proc = subprocess.Popen([sys.executable, str(HERE / "cli_child.py"), str(pace_file), *argv],
                                cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err)
        timer = threading.Timer(REQUEST_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        probes = ([float(x) for x in pace_file.read_text(encoding="utf-8").split()]
                  if pace_file.exists() else [])
        return Reply(proc.returncode, out.read().decode(), err.read().decode(),
                     usage.ru_maxrss / 1024, probes)


def run_in_process(argv: list[str]) -> Reply:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = garside.cli.main(list(argv))
    return Reply(code, out.getvalue(), err.getvalue())


WORKLOADS = {w.name: w for w in (WordStream, Conjugacy, Construct, Cli)}
