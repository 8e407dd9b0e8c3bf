"""
germ: parse, validate and query Garside germs.

A germ is a finite oriented graph of "simples" with a partially defined,
associative, homogeneous product. `validate` runs the Garside-axiom checks
that no others imply: the table (names, identities, product endpoints and
lengths, units, associativity), cancellativity, a maximum Δ_x at each object
equal to any declared one, Δ's targets permuting the objects, φ keeping
lengths, and the existence of meets and joins. Its comments prove the rest:
the complement bijection and its order reversal, φ an automorphism carrying
Δ to Δ, and atoms generating.

A GarsideGerm holds only what the kernel (`words`) and the constructions
read; tests/test_library_surface.py fails on a member that nothing reads.
That read interface is:

- the table: ``objects``, ``simples``, ``product`` ((a, b) -> a·b),
  ``identity[x]`` and ``by_source[x]`` (the simples out of x);
- ``delta[x]``: the maximal simple at each object;
- ``complement[s]``: the unique s̄ with s·s̄ = Δ at the source of s;
- ``phi_obj``, ``phi_simple``, ``phi_simple_inv`` and ``phi_order``: φ, the
  double complement, and its order;
- ``divisors[c]``: every a ≼ c mapped to the quotient b with a·b = c;
- ``lmask`` and ``lkey``: the divisor bitmasks that ``meet`` looks up;
- ``atoms``;
- ``meet``, ``product_of``, ``fold_product``, ``is_identity``, ``is_delta``,
  ``phi_power``, ``phi_power_obj`` and the naming helpers.

No join is read: in a Garside germ joins follow from meets and Δ.

Objects and simples are referenced by dense integer ids throughout. The
checks cost what the product table holds: associativity walks an index of
products by factor, and meets and joins are divisor-bitmask lookups.
Validated germs are immutable in practice: nothing mutates them after
``validate`` returns, so all queries are safe under concurrent use.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable
from typing import NamedTuple

NAME_RE = re.compile(r"^[A-Za-z0-9_'@(),-]+$")
RESERVED = {"garside-germ", "v1", "object", "simple", "product", "delta", "len", ":", "->", "="}


class GermError(Exception):
    """Base class for all germ-related failures."""


class GermSyntaxError(GermError):
    """Malformed germ file; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class GermValidationError(GermError):
    """A Garside axiom fails; the message contains a witness."""


class InternalError(GermError):
    """A consistency check inside a construction failed: a bug, not bad input."""


class BudgetExceeded(GermError):
    """A configurable computation limit was hit before an answer was reached."""


class Budget:
    """Step counter shared by search loops; spend(n, what) raises once exhausted."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: int, used: int = 0):
        self.limit, self.used = limit, used

    def spend(self, n: int = 1, what: str = "") -> None:
        self.used += n
        if self.used > self.limit:
            raise BudgetExceeded(f"computation budget exceeded ({self.limit} steps){what}")


DEFAULT_BUDGET = 2_000_000


def as_budget(budget: Budget | None) -> Budget:
    return Budget(DEFAULT_BUDGET) if budget is None else budget


class _Ref:
    """Slots compared, hashed and printed by value: a NamedTuple with half-price reads."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{self.__class__.__name__}({fields})"


class ObjectRef(_Ref):
    __slots__ = ("id", "name")

    def __init__(self, id: int, name: str):
        self.id, self.name = id, name


class SimpleRef(_Ref):
    __slots__ = ("id", "name", "source", "target", "length")

    def __init__(self, id: int, name: str, source: int, target: int, length: int):
        self.id, self.name, self.length = id, name, length
        self.source, self.target = source, target


class GermTable(NamedTuple):
    """Raw germ data: objects, simples (identities included) and the partial product."""

    objects: list[ObjectRef]
    simples: list[SimpleRef]
    product: dict[tuple[int, int], int]
    identity: list[int]                  # object id -> its identity simple id
    declared_delta: dict[int, int]       # object id -> simple id, from explicit `delta` lines


def assemble_table(
    objects: list[str],
    simples: list[tuple[str, int, int, int]],
    products: list[tuple[int, int, int]],
    delta: dict[int, int],
) -> GermTable:
    """
    Lay out a GermTable from ids. Identities come first, one per object in
    object order (so identity[x] = x); the given (name, source, target,
    length) simples follow in order, so the i-th has id len(objects) + i.
    Products and delta refer to these ids; the unit products are added.
    """
    n = len(objects)
    refs = [SimpleRef(x, f"id@{name}", x, x, 0) for x, name in enumerate(objects)]
    refs += [SimpleRef(n + i, *decl) for i, decl in enumerate(simples)]
    # Identities are two-sided units, everywhere defined.
    product: dict[tuple[int, int], int] = {}
    for s in refs:
        product[(s.source, s.id)] = s.id
        product[(s.id, s.target)] = s.id
    for a, b, c in products:
        product[(a, b)] = c
    obj_refs = [ObjectRef(x, name) for x, name in enumerate(objects)]
    return GermTable(obj_refs, refs, product, list(range(n)), dict(delta))


def make_table(
    objects: list[str],
    simples: list[tuple[str, str, str, int]],
    products: list[tuple[str, str, str]],
    deltas: dict[str, str] | None = None,
) -> GermTable:
    """Assemble a GermTable from names; identities and identity products are added."""
    obj_ix: dict[str, int] = {}
    for name in objects:
        if name in obj_ix:
            raise GermSyntaxError(f"duplicate object name {name!r}")
        obj_ix[name] = len(obj_ix)
    simple_ix = {f"id@{name}": oid for name, oid in obj_ix.items()}
    decls = []
    for name, src, tgt, length in simples:
        if src not in obj_ix or tgt not in obj_ix:
            raise GermSyntaxError(f"simple {name!r} references unknown object")
        if length <= 0:
            raise GermSyntaxError(f"simple {name!r} must have positive length")
        if name in simple_ix:
            raise GermSyntaxError(f"duplicate simple name {name!r}")
        simple_ix[name] = len(simple_ix)
        decls.append((name, obj_ix[src], obj_ix[tgt], length))
    table = assemble_table(objects, decls, [], {})
    simple_refs, product = table.simples, table.product

    for a, b, c in products:
        for nm in (a, b, c):
            if nm not in simple_ix:
                raise GermSyntaxError(f"product references unknown simple {nm!r}")
        sa, sb, sc = (simple_refs[simple_ix[nm]] for nm in (a, b, c))
        if sa.target != sb.source:
            raise GermSyntaxError(
                f"product endpoints mismatched: target({a}) != source({b})"
            )
        if sc.source != sa.source or sc.target != sb.target:
            raise GermSyntaxError(f"product {a} {b} = {c} has wrong endpoints")
        if sa.length + sb.length != sc.length:
            raise GermSyntaxError(
                f"length non-additive: len({a})+len({b}) != len({c})"
            )
        key = (sa.id, sb.id)
        if key in product and product[key] != sc.id:
            raise GermSyntaxError(f"conflicting products declared for {a} {b}")
        product[key] = sc.id

    for oname, sname in (deltas or {}).items():
        if oname not in obj_ix:
            raise GermSyntaxError(f"delta {oname} = {sname} references unknown object {oname!r}")
        if sname not in simple_ix:
            raise GermSyntaxError(f"delta {oname} = {sname} references unknown simple {sname!r}")
        oid = obj_ix[oname]
        sid = simple_ix[sname]
        if simple_refs[sid].source != oid:
            raise GermSyntaxError(f"delta {oname} = {sname}: source mismatch")
        table.declared_delta[oid] = sid
    return table


def parse_germ(text: str) -> GermTable:
    """Parse germ-file contents (see the format notes in the README)."""
    objects: list[str] = []
    simples: list[tuple[str, str, str, int]] = []
    products: list[tuple[str, str, str]] = []
    deltas: dict[str, str] = {}
    seen_header = False

    def check_name(name: str, lineno: int) -> str:
        if not NAME_RE.match(name) or name in RESERVED:
            raise GermSyntaxError(f"illegal name {name!r}", lineno)
        return name

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if not seen_header:
            if toks != ["garside-germ", "v1"]:
                raise GermSyntaxError("expected header 'garside-germ v1'", lineno)
            seen_header = True
            continue
        kind = toks[0]
        if kind == "object":
            if len(toks) != 2:
                raise GermSyntaxError("expected: object <name>", lineno)
            objects.append(check_name(toks[1], lineno))
        elif kind == "simple":
            if len(toks) == 6 and toks[2] == ":" and toks[4] == "->":
                length = 1
            elif len(toks) == 8 and toks[2] == ":" and toks[4] == "->" and toks[6] == "len":
                try:
                    length = int(toks[7])
                except ValueError:
                    raise GermSyntaxError("len expects an integer", lineno) from None
            else:
                raise GermSyntaxError(
                    "expected: simple <name> : <src> -> <tgt> [len <int>]", lineno
                )
            simples.append((check_name(toks[1], lineno), toks[3], toks[5], length))
        elif kind == "product":
            if len(toks) != 5 or toks[3] != "=":
                raise GermSyntaxError("expected: product <a> <b> = <c>", lineno)
            products.append((toks[1], toks[2], toks[4]))
        elif kind == "delta":
            if len(toks) != 4 or toks[2] != "=":
                raise GermSyntaxError("expected: delta <object> = <simple>", lineno)
            if toks[1] in deltas:
                raise GermSyntaxError(f"duplicate delta for object {toks[1]!r}", lineno)
            deltas[toks[1]] = toks[3]
        else:
            raise GermSyntaxError(f"unknown directive {kind!r}", lineno)
    if not seen_header:
        raise GermSyntaxError("empty file: missing 'garside-germ v1' header")
    return make_table(objects, simples, products, deltas)


def table_to_text(table: GermTable | "GarsideGerm") -> str:
    """Serialize back to the germ file format (identities and their products omitted)."""
    lines = ["garside-germ v1"]
    ids = set(table.identity)
    for obj in table.objects:
        lines.append(f"object {obj.name}")
    for s in table.simples:
        if s.id in ids:
            continue
        src = table.objects[s.source].name
        tgt = table.objects[s.target].name
        suffix = f" len {s.length}" if s.length != 1 else ""
        lines.append(f"simple {s.name} : {src} -> {tgt}{suffix}")
    for (a, b), c in sorted(table.product.items()):
        if a in ids or b in ids:
            continue
        lines.append(
            f"product {table.simples[a].name} {table.simples[b].name} = {table.simples[c].name}"
        )
    deltas = getattr(table, "delta", None)
    pairs = enumerate(deltas) if deltas is not None else sorted(table.declared_delta.items())
    for oid, sid in pairs:
        lines.append(f"delta {table.objects[oid].name} = {table.simples[sid].name}")
    return "\n".join(lines) + "\n"


class GarsideGerm:
    """A validated Garside germ; construct via validate(), then treat as read-only."""

    def __init__(self, table: GermTable):
        self.objects = table.objects
        self.simples = table.simples
        self.product = dict(table.product)
        self.identity = list(table.identity)
        self.by_source: list[list[int]] = [[] for _ in self.objects]
        for s in self.simples:
            self.by_source[s.source].append(s.id)
        self._object_ix = {obj.name: obj.id for obj in self.objects}
        self._simple_ix = {s.name: s.id for s in self.simples}
        # Filled in by validate():
        self.delta: list[int] = []
        self.divisors: list[dict[int, int]] = []    # c -> {a: b with a·b = c}
        # Divisor bitmasks: bit i of lmask[s] stands for the i-th simple out
        # of the source of s; lkey[x] maps the masks of the simples out of x
        # back to them.
        self.lmask: list[int] = []
        self.lkey: list[dict[int, int]] = []
        self.complement: list[int] = []
        self.phi_obj: list[int] = []
        self.phi_simple: list[int] = []
        self.phi_simple_inv: list[int] = []
        self.phi_order: int = 0
        self.atoms: list[int] = []

    # -- naming helpers -----------------------------------------------------

    def object_named(self, name: str) -> int:
        try:
            return self._object_ix[name]
        except KeyError:
            raise KeyError(f"no object named {name!r}") from None

    def simple_named(self, name: str) -> int:
        try:
            return self._simple_ix[name]
        except KeyError:
            raise KeyError(f"no simple named {name!r}") from None

    def simple_name(self, sid: int) -> str:
        return self.simples[sid].name

    def object_name(self, oid: int) -> str:
        return self.objects[oid].name

    # -- queries ------------------------------------------------------------

    def is_identity(self, sid: int) -> bool:
        return self.simples[sid].length == 0

    def is_delta(self, sid: int) -> bool:
        return self.delta[self.simples[sid].source] == sid

    def product_of(self, a: int, b: int) -> int | None:
        return self.product.get((a, b))

    def fold_product(self, a: int, word: Iterable[int]) -> int | None:
        """The simple a·w_1·...·w_n, or None once a partial product is undefined."""
        for b in word:
            a = self.product.get((a, b))
            if a is None:
                return None
        return a

    def meet(self, a: int, b: int) -> int:
        x = self.simples[a].source
        if x != self.simples[b].source:
            raise GermError("meet: source mismatch")
        return self.lkey[x][self.lmask[a] & self.lmask[b]]

    def phi_power_obj(self, oid: int, n: int) -> int:
        for _ in range(n % self.phi_order):
            oid = self.phi_obj[oid]
        return oid

    def phi_power(self, sid: int, n: int) -> int:
        for _ in range(n % self.phi_order):
            sid = self.phi_simple[sid]
        return sid


def _check_table(table: GermTable) -> None:
    """GermTable invariants: endpoints, units, homogeneity, (assoc)."""
    simples = table.simples
    product = table.product
    names = set()
    for s in simples:
        if s.name in names:
            raise GermValidationError(f"duplicate simple name {s.name!r}")
        names.add(s.name)
        if (s.length == 0) != (s.id in table.identity):
            raise GermValidationError(f"length 0 iff identity violated at {s.name!r}")
    for (a, b), c in product.items():
        sa, sb, sc = simples[a], simples[b], simples[c]
        if sa.target != sb.source or sc.source != sa.source or sc.target != sb.target:
            raise GermValidationError(f"product {sa.name}·{sb.name} endpoints mismatched")
        if sa.length + sb.length != sc.length:
            raise GermValidationError(f"length non-additive at {sa.name}·{sb.name}")
    for s in simples:
        if product.get((table.identity[s.source], s.id)) != s.id:
            raise GermValidationError(f"left unit fails at {s.name!r}")
        if product.get((s.id, table.identity[s.target])) != s.id:
            raise GermValidationError(f"right unit fails at {s.name!r}")

    # (assoc): both bracketings agree, including definedness. Triples with an
    # identity factor hold by the unit laws and triples where neither adjacent
    # pair multiplies are vacuous, so for a·b = ab only the c with b·c or ab·c
    # defined matter: the row of ab in the left-factor index (a -> {b: a·b})
    # must equal the row of b pushed through that of a. Dually for b·c = bc in
    # the right-factor index (b -> {a: a·b}), filled after the left one is
    # dropped. The least failing third factor is the witness, as in a full walk.
    units = set(table.identity)
    for left in (True, False):
        rows: list[dict[int, int]] = [{} for _ in simples]
        for (a, b), c in product.items():
            if a not in units and b not in units:
                p, q = (a, b) if left else (b, a)
                rows[p][q] = c
        for (a, b), c in product.items():
            if a in units or b in units:
                continue
            p, q = (a, b) if left else (b, a)
            rp, rq, rpq = rows[p], rows[q], rows[c]
            if {k: e for k, v in rq.items() if (e := rp.get(v)) is not None} != rpq:
                k = min(k for k in rq.keys() | rpq.keys() if rpq.get(k) != rp.get(rq.get(k)))
                x, y, z = (p, q, k) if left else (k, q, p)
                raise GermValidationError(
                    "associativity fails at "
                    f"({simples[x].name}, {simples[y].name}, {simples[z].name})"
                )


def validate(table: GermTable) -> GarsideGerm:
    """Check the Garside germ axioms and derive Δ, complements, φ and the divisor index."""
    _check_table(table)
    germ = GarsideGerm(table)
    simples = germ.simples
    product = germ.product

    # Cancellativity, with witness triples, filling the divisor index and
    # bitmasks on the way: left cancellativity says that each (a, c) has one
    # b with a·b = c, which is what divisors[c][a] holds. The unit products
    # (checked above) make every simple a left and a right divisor of itself,
    # with the identities below it. Bit i of rmask[s] stands for the i-th
    # simple into the target of s; only the checks here read it.
    by_target: list[list[int]] = [[] for _ in germ.objects]
    for s in simples:
        by_target[s.target].append(s.id)
    lbit, rbit = [0] * len(simples), [0] * len(simples)
    for bits, groups in ((lbit, germ.by_source), (rbit, by_target)):
        for group in groups:
            for i, s in enumerate(group):
                bits[s] = 1 << i
    divisors: list[dict[int, int]] = [{} for _ in simples]
    lmask, rmask = [0] * len(simples), [0] * len(simples)
    for (a, b), c in product.items():
        row = divisors[c]
        if a in row:
            raise GermValidationError(
                f"left cancellativity fails: {simples[a].name}·{simples[row[a]].name} "
                f"= {simples[a].name}·{simples[b].name} = {simples[c].name}"
            )
        row[a] = b
        lmask[c] |= lbit[a]
    for (a, b), c in product.items():
        if rmask[c] & rbit[b]:
            # The witness is the first a' with a'·b = c in product order.
            first = next(x for x, y in divisors[c].items() if y == b)
            raise GermValidationError(
                f"right cancellativity fails: {simples[first].name}·{simples[b].name} "
                f"= {simples[a].name}·{simples[b].name} = {simples[c].name}"
            )
        rmask[c] |= rbit[b]
    germ.divisors, germ.lmask = divisors, lmask

    # Δ_x: the maximum of (S_{x->}, ≤), the simple with all of S_{x->} as left
    # divisors (unique by antisymmetry: homogeneity makes ≤ a partial order).
    germ.delta = [-1] * len(germ.objects)
    for obj in germ.objects:
        out = germ.by_source[obj.id]
        top = [s for s in out if len(divisors[s]) == len(out)]
        if len(top) != 1:
            raise GermValidationError(f"no maximum in simples out of object {obj.name!r}")
        germ.delta[obj.id] = top[0]
        declared = table.declared_delta.get(obj.id)
        if declared is not None and declared != top[0]:
            raise GermValidationError(
                f"declared delta {simples[declared].name!r} at {obj.name!r} is not the maximum"
            )
    germ.phi_obj = [simples[germ.delta[oid]].target for oid in range(len(germ.objects))]
    if sorted(germ.phi_obj) != list(range(len(germ.objects))):
        raise GermValidationError("targets of the delta simples do not permute objects")

    # Complement s̄: s·s̄ = Δ_source(s), a bijection S_{x->} -> S_{->φx}
    # (axiom (iii)), needs no check. Each s ≤ Δ_x is in divisors[Δ_x], by a
    # unit product (s = 1_x, Δ_x) or by s·s̄ = Δ_x; s̄ ends at φx; s̄ = t̄
    # gives s = t by right cancellation; and as φ permutes objects, these
    # injections have |S| elements in all on each side, so they are onto.
    # Order reversal: b = a·c gives ā = c·b̄ by associativity and left
    # cancellation, and ā = c·b̄ gives b = a·c by associativity and right
    # cancellation.
    germ.complement = complement = [divisors[germ.delta[s.source]][s.id] for s in simples]

    # φ = double complement is a germ automorphism carrying Δ to Δ; only its
    # lengths are checked:
    # - it permutes simples, as the complement does (the bijections above);
    # - s̄ runs from target(s) to φ(source s), so φ(s), the complement of s̄,
    #   runs from φ(source s) to φ(target s);
    # - a·b = c gives b·c̄ = ā (associativity on (a·b)·c̄ = Δ = a·ā, left
    #   cancellation), then c̄·φa = b̄ (on (b·c̄)·φa = Δ = b·b̄), then
    #   φa·φb = φc (on (c̄·φa)·φb = Δ = c̄·φc): φ preserves products;
    # - so (a, b) ↦ (φa, φb) maps the finite set of defined pairs into itself
    #   injectively, hence onto: φ^{-1} preserves definedness;
    # - complement(Δ_x) = 1_{φx} and complement(1_y) = Δ_y by the unit
    #   products and left cancellation, so φ(Δ_x) = Δ_{φx}.
    germ.phi_simple = phi = [complement[c] for c in complement]
    for s in simples:
        if simples[phi[s.id]].length != s.length:
            raise GermValidationError(f"phi does not preserve the graph at {s.name!r}")
    germ.phi_simple_inv = phi_inv = [0] * len(simples)
    for a, b in enumerate(phi):
        phi_inv[b] = a
    germ.phi_order = _permutation_order(phi)

    # Lattice: meets exist for every same-source pair; joins then exist too
    # (finite meet-semilattice with top), computed via the complement duality.
    # Divisibility is transitive (by associativity), so the meet of a and b is
    # the simple whose left-divisor bitmask is lmask[a] & lmask[b], if there
    # is one; GarsideGerm.meet answers from the same lookup.
    germ.lkey = [{lmask[s]: s for s in out} for out in germ.by_source]
    rkeys = [{rmask[s]: s for s in into} for into in by_target]
    for obj in germ.objects:
        out = germ.by_source[obj.id]
        lkey, rkey = germ.lkey[obj.id], rkeys[germ.phi_obj[obj.id]]
        for a in out:
            la, ra = lmask[a], rmask[complement[a]]
            for b in out:
                if la & lmask[b] not in lkey:
                    raise GermValidationError(
                        f"pair ({simples[a].name}, {simples[b].name}) lacks a meet"
                    )
                # join(a, b) = complement^{-1} of the greatest common
                # right-divisor g of the complements: j·g = Δ_x means g = j̄,
                # so j = φ^{-1}(ḡ).
                g = rkey.get(ra & rmask[complement[b]])
                j = None if g is None else phi_inv[complement[g]]
                if j is None or a not in divisors[j] or b not in divisors[j]:
                    raise GermValidationError(
                        f"pair ({simples[a].name}, {simples[b].name}) lacks a join"
                    )

    # Atoms: the simples of positive length that are no product of two such.
    # That they generate needs no check. By induction on length, every
    # non-identity b is some b'·β with β an atom: either b is one, or b =
    # a·c with c = c'·β, and associativity defines a·c' and b = (a·c')·β.
    # Likewise every non-atom a·b = a·(b'·β) is (a·b')·β with a·b' shorter,
    # so right-multiplying by atoms reaches every simple from the identities.
    nontrivial_products = {
        c for (a, b), c in product.items() if simples[a].length and simples[b].length
    }
    germ.atoms = [s.id for s in simples if s.length and s.id not in nontrivial_products]
    return germ


def _permutation_order(perm: list[int]) -> int:
    """The lcm of the cycle lengths."""
    order, seen = 1, [False] * len(perm)
    for i in range(len(perm)):
        n = 0
        while not seen[i]:
            seen[i], i, n = True, perm[i], n + 1
        order = math.lcm(order, n) if n else order
    return order


def components(germ: GarsideGerm) -> list[list[int]]:
    """Connected components of the underlying unoriented graph, as sorted object lists."""
    parent = list(range(len(germ.objects)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s in germ.simples:
        a, b = find(s.source), find(s.target)
        if a != b:
            parent[a] = b
    groups: dict[int, list[int]] = {}
    for oid in range(len(germ.objects)):
        groups.setdefault(find(oid), []).append(oid)
    return sorted(sorted(g) for g in groups.values())


def chain_counts(germ: GarsideGerm, oid: int) -> list[int]:
    """
    N_0, ..., N_d at one object: N_n strict chains 1 < u_1 < ... < u_n ≼ Δ_x
    (nondegenerate n-simplices), grown by non-identity divisors of the rest
    ū of Δ_x, so the frontier empties within dim rounds.
    """
    frontier = {germ.identity[oid]: 1}     # chain end -> chains of this length
    counts = []
    while frontier:
        counts.append(sum(frontier.values()))
        nxt: dict[int, int] = {}
        for u, n in frontier.items():
            for q in germ.divisors[germ.complement[u]]:
                if germ.simples[q].length:
                    v = germ.product[(u, q)]
                    nxt[v] = nxt.get(v, 0) + n
        frontier = nxt
    return counts


def subdivision_count(counts: Iterable[int], m: int) -> int:
    """
    Z(m) = Σ_n N_n·C(m-1, n), from the strict chain counts N_n of `chain_counts`
    (at one object, or summed over objects): an m-subdivision is a multichain
    1 ≼ u_1 ≼ ... ≼ u_{m-1} ≼ Δ_x, and C(m-1, n) of them run through a given
    strict chain of n non-identity steps. O(dim) for any m.
    """
    return sum(n * math.comb(m - 1, k) for k, n in enumerate(counts))


def enumerate_subdivisions(germ: GarsideGerm, m: int) -> list[tuple[int, ...]]:
    """
    All m-subdivisions of every Δ_x, in id-lexicographic order. The walk keeps
    its prefixes as nested pairs (last factor, the prefix before it) on an
    explicit stack, so it needs no recursion and copies no prefix, whatever m.
    """
    if m < 1:
        raise GermError("m must be a positive integer")
    out = []
    # (prefix, its product, the number of factors still to choose)
    stack = [(None, germ.identity[obj.id], m) for obj in germ.objects]
    while stack:
        prefix, done, rest = stack.pop()
        remainder = germ.complement[done]
        if rest > 1:
            for u in germ.divisors[remainder]:
                stack.append(((u, prefix), germ.product[(done, u)], rest - 1))
            continue
        factors = [remainder]
        while prefix:
            u, prefix = prefix
            factors.append(u)
        out.append(tuple(reversed(factors)))
    return sorted(out)
