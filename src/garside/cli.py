"""
cli: command-line front end.

Exit codes: 0 success; 1 germ validation failure; 2 parse/usage error;
3 computation budget exceeded; 4 honest negative (not conjugate, not
periodic, no length-one representative, no fixed objects); 5 internal error
(a consistency check inside a construction failed).

Output is byte-stable for fixed inputs: enumerations are sorted and
formatting is fixed. `--json-like` switches to one `key: value` line per
reported fact.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import builtins as germ_builtins
from . import conjugacy, divided, nerve, periodic, words
from .germ import (
    Budget,
    BudgetExceeded,
    GarsideGerm,
    GermError,
    GermValidationError,
    InternalError,
    components,
    parse_germ,
    table_to_text,
    validate,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_NEGATIVE = 4
EXIT_INTERNAL = 5

# (exception classes, stderr prefix, exit code); the first match wins.
FAILURES = [
    (GermValidationError, "validation error", EXIT_VALIDATION),
    (BudgetExceeded, "error", EXIT_BUDGET),
    (InternalError, "internal error", EXIT_INTERNAL),
    ((GermError, KeyError, OSError), "error", EXIT_USAGE),
]


class Reporter:
    def __init__(self, json_like: bool):
        self.json_like = json_like
        self.lines: list[str] = []

    def add(self, key: str, value, text: str | None = None) -> None:
        if self.json_like:
            self.lines.append(f"{key}: {value}")
        else:
            self.lines.append(text if text is not None else f"{key}: {value}")

    def flush(self) -> None:
        for line in self.lines:
            print(line)


class HonestNegative(Exception):
    pass


def load_germ(args) -> GarsideGerm:
    if args.file:
        text = Path(args.file).read_text(encoding="utf-8")
        table = parse_germ(text)
    else:
        table = germ_builtins.build(args.builtin, args.param)
    return validate(table)


def get_words(args, germ: GarsideGerm, n: int) -> list[words.NormalForm]:
    given = args.word or []
    if len(given) != n:
        raise GermError(f"this subcommand expects --word exactly {n} time(s)")
    return [words.parse_word(germ, w) for w in given]


def _nf_report(rep: Reporter, germ: GarsideGerm, f: words.NormalForm, prefix: str) -> None:
    rep.add(f"{prefix}", words.format_word(germ, f))
    rep.add(f"{prefix}_source", germ.object_name(f.source))
    rep.add(f"{prefix}_target", germ.object_name(words.target(germ, f)))
    rep.add(f"{prefix}_inf", f.inf)
    rep.add(f"{prefix}_sup", f.sup)
    rep.add(f"{prefix}_canonical_length", f.canonical_length)


def cmd_validate(args, rep: Reporter) -> int:
    germ = load_germ(args)
    rep.add("objects", len(germ.objects), f"objects: {len(germ.objects)}")
    rep.add("simples", len(germ.simples), f"simples: {len(germ.simples)}")
    rep.add("atoms", len(germ.atoms), f"atoms: {len(germ.atoms)}")
    rep.add("phi_order", germ.phi_order)
    rep.add("garside_dimension", nerve.garside_dimension(germ))
    rep.add("components", len(components(germ)))
    if args.out:
        Path(args.out).write_text(nerve.atom_graph_dot(germ), encoding="utf-8")
        rep.add("out", args.out, f"wrote atom graph to {args.out}")
    return EXIT_OK


def cmd_nf(args, rep: Reporter) -> int:
    germ = load_germ(args)
    (f,) = get_words(args, germ, 1)
    _nf_report(rep, germ, f, "nf")
    return EXIT_OK


def cmd_mul(args, rep: Reporter) -> int:
    germ = load_germ(args)
    f, g = get_words(args, germ, 2)
    _nf_report(rep, germ, words.multiply(germ, f, g), "product")
    return EXIT_OK


def cmd_inv(args, rep: Reporter) -> int:
    germ = load_germ(args)
    (f,) = get_words(args, germ, 1)
    _nf_report(rep, germ, words.invert(germ, f), "inverse")
    return EXIT_OK


def cmd_conj(args, rep: Reporter) -> int:
    germ = load_germ(args)
    g, c = get_words(args, germ, 2)
    _nf_report(rep, germ, conjugacy.conjugate(germ, g, c), "conjugate")
    return EXIT_OK


def cmd_summit(args, rep: Reporter) -> int:
    germ = load_germ(args)
    (g,) = get_words(args, germ, 1)
    sset = conjugacy.summit_set(germ, g, Budget(args.budget))
    summit, conjugator = next(iter(sset.items()))
    _nf_report(rep, germ, summit, "summit")
    rep.add("summit_conjugator", words.format_word(germ, conjugator))
    rep.add("summit_set_size", len(sset))
    for i, h in enumerate(sorted(sset, key=lambda m: (m.source, m.delta_exp, m.factors))):
        rep.add(f"summit_{i}", words.format_word(germ, h))
    return EXIT_OK


def cmd_isconj(args, rep: Reporter) -> int:
    germ = load_germ(args)
    g, h = get_words(args, germ, 2)
    witness = conjugacy.are_conjugate(germ, g, h, Budget(args.budget))
    if witness is None:
        rep.add("conjugate", "no", "not conjugate")
        rep.flush()
        raise HonestNegative("not conjugate")
    rep.add("conjugate", "yes", "conjugate")
    rep.add("witness", words.format_word(germ, witness.c))
    return EXIT_OK


def cmd_divide(args, rep: Reporter) -> int:
    germ = load_germ(args)
    counts = divided.count_subdivisions(germ, args.m)
    total = sum(counts.values())
    if args.count:
        rep.add("objects", total, str(total))
        return EXIT_OK
    rep.add("m", args.m)
    rep.add("objects", total)
    for oid in sorted(counts):
        rep.add(f"objects_at_{germ.object_name(oid)}", counts[oid])
    dg = divided.build_divided_germ(germ, args.m)
    rep.add("simples", len(dg.germ.simples))
    rep.add("atoms", len(dg.germ.atoms))
    rep.add("phi_order", dg.germ.phi_order)
    if args.out:
        Path(args.out).write_text(table_to_text(dg.germ), encoding="utf-8")
        rep.add("out", args.out, f"wrote divided germ to {args.out}")
    return EXIT_OK


def cmd_theta(args, rep: Reporter) -> int:
    germ = load_germ(args)
    (f,) = get_words(args, germ, 1)
    dg = divided.build_divided_germ(germ, args.m)
    img = divided.theta_morphism(dg, f)
    _nf_report(rep, dg.germ, img, "theta")
    return EXIT_OK


def cmd_periodic(args, rep: Reporter) -> int:
    germ = load_germ(args)
    (g,) = get_words(args, germ, 1)
    cert = periodic.is_periodic(germ, g, args.p, args.q)
    if cert is None:
        rep.add("periodic", "no", f"not {args.p}/{args.q}-periodic")
        rep.flush()
        raise HonestNegative("not periodic")
    rep.add("periodic", "yes", f"{args.p}/{args.q}-periodic")
    if not args.certify:
        return EXIT_OK
    bf = periodic.find_bestvina_form(germ, cert, Budget(args.budget))
    if isinstance(bf, periodic.NoLengthOneRepresentative):
        rep.add("bestvina", "none", f"no length-one representative: {bf.reason}")
        rep.flush()
        raise HonestNegative(bf.reason)
    rep.add(
        "bestvina",
        f"({germ.simple_name(bf.s)}, k={bf.k})",
        f"Bestvina form: ({germ.simple_name(bf.s)}, k={bf.k})",
    )
    rep.add("bestvina_conjugator", words.format_word(germ, bf.conjugator))
    under = divided.tuple_name(germ, periodic.bestvina_object(germ, bf))
    rep.add("bestvina_object", under, f"object: {under}")
    nc = periodic.necklace_conjugator(germ, bf)
    rep.add("necklace_conjugator", words.format_word(nc.divided.germ, nc.conjugator))
    rep.add("conjugation", "verified", "conjugation verified")
    return EXIT_OK


def cmd_classify(args, rep: Reporter) -> int:
    germ = load_germ(args)
    cl = periodic.classify_periodic(germ, args.p, args.q)
    rep.add("classes", len(cl.components))
    for i, (comp, r) in enumerate(zip(cl.components, cl.representatives)):
        names = " ".join(divided.tuple_name(germ, t) for t in comp)
        rep.add(f"class_{i}_objects", names)
        rep.add(f"class_{i}_representative", words.format_word(germ, r))
    return EXIT_OK


def cmd_centralizer(args, rep: Reporter) -> int:
    germ = load_germ(args)
    try:
        report = periodic.centralizer_germ(germ, args.p)
    except GermError as exc:
        rep.add("centralizer", "none", str(exc))
        rep.flush()
        raise HonestNegative(str(exc)) from None
    sub = report.subgerm
    rep.add("fixed_objects", len(sub.objects))
    rep.add("fixed_simples", len(sub.simples))
    rep.add("atoms", " ".join(sub.simple_name(a) for a in sub.atoms))
    rep.add("components", len(report.components))
    return EXIT_OK


def cmd_nerve(args, rep: Reporter) -> int:
    germ = load_germ(args)
    dim = nerve.garside_dimension(germ)
    top = args.dim if args.dim is not None else dim
    counts = [len(nerve.enumerate_nondegenerate(germ, n)) for n in range(top + 1)]
    rep.add("garside_dimension", dim)
    for n, c in enumerate(counts):
        rep.add(f"nondegenerate_{n}", c)
    rep.add("euler", sum((-1) ** n * c for n, c in enumerate(counts)))
    cyc = nerve.check_cyclic_identities(germ, top)
    rep.add("cyclic_identities", "ok" if cyc.ok else "FAIL")
    if args.out:
        lines = nerve.nerve_export_lines(germ, top)
        Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
        rep.add("out", args.out, f"wrote {len(lines)} simplices to {args.out}")
    return EXIT_OK


def cmd_zpoly(args, rep: Reporter) -> int:
    germ = load_germ(args)
    dim = nerve.garside_dimension(germ)
    samples = args.samples if args.samples is not None else dim + 2
    z = nerve.fit_z_polynomial(germ, samples)
    rep.add("degree", z.degree)
    rep.add("newton_coefficients", " ".join(str(c) for c in z.coefficients))
    for m in range(1, samples + 3):
        rep.add(f"Z({m})", z(m))
    return EXIT_OK


def cmd_cover(args, rep: Reporter) -> int:
    germ = load_germ(args)
    basepoint = germ.object_named(args.source) if args.source else 0
    ball = nerve.cover_ball(germ, basepoint, args.radius)
    rep.add("vertices", len(ball.vertices))
    rep.add("edges", len(ball.edges))
    if args.out:
        Path(args.out).write_text(nerve.cover_ball_dot(germ, ball), encoding="utf-8")
        rep.add("out", args.out, f"wrote DOT graph to {args.out}")
    return EXIT_OK


def cmd_builtin(args, rep: Reporter) -> int:
    germ = load_germ(args)
    rep.add("objects", len(germ.objects))
    rep.add("simples", len(germ.simples))
    if args.out:
        Path(args.out).write_text(table_to_text(germ), encoding="utf-8")
        rep.add("out", args.out, f"wrote germ to {args.out}")
    return EXIT_OK


COMMANDS = {
    "validate": (cmd_validate, "validate a germ and print its invariants"),
    "nf": (cmd_nf, "greedy normal form of a word"),
    "mul": (cmd_mul, "multiply two words"),
    "inv": (cmd_inv, "invert a word"),
    "conj": (cmd_conj, "conjugate a loop by a word"),
    "summit": (cmd_summit, "cycle/decycle to a summit and list the summit set"),
    "isconj": (cmd_isconj, "decide conjugacy of two loops"),
    "divide": (cmd_divide, "build or count the m-divided germ"),
    "theta": (cmd_theta, "image of a word under Theta_m"),
    "periodic": (cmd_periodic, "test periodicity; --certify builds the conjugator"),
    "classify": (cmd_classify, "conjugacy classes of p/q-periodic loops"),
    "centralizer": (cmd_centralizer, "fixed germ presenting the centralizer of Delta^p"),
    "nerve": (cmd_nerve, "nondegenerate simplex counts and cyclic identities"),
    "zpoly": (cmd_zpoly, "fit the subdivision-counting polynomial"),
    "cover": (cmd_cover, "bounded ball of the universal cover, DOT export"),
    "builtin": (cmd_builtin, "generate a builtin germ"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="garside",
        description="finite-type Garside categories from germ descriptions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--file", help="path to a germ file")
        src.add_argument(
            "--builtin", choices=germ_builtins.FAMILIES, help="builtin germ family"
        )
        p.add_argument("--param", type=int, help="builtin family parameter")
        p.add_argument("--word", action="append", help="morphism word (repeatable)")
        p.add_argument("--m", type=int, default=1, help="subdivision order")
        p.add_argument("--p", type=int, default=1)
        p.add_argument("--q", type=int, default=1)
        p.add_argument("--source", help="object name")
        p.add_argument("--radius", type=int, default=1)
        p.add_argument("--dim", type=int, default=None)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--count", action="store_true", help="print a count only")
        p.add_argument("--certify", action="store_true")
        p.add_argument("--out", help="output file for exports")
        p.add_argument("--budget", type=int, default=2_000_000)
        p.add_argument("--json-like", dest="json_like", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.budget <= 0:
        print("error: --budget must be positive", file=sys.stderr)
        return EXIT_USAGE
    rep = Reporter(args.json_like)
    handler = COMMANDS[args.command][0]
    try:
        code = handler(args, rep)
    except HonestNegative:
        return EXIT_NEGATIVE
    except (GermError, KeyError, OSError) as exc:
        prefix, code = next((p, c) for kind, p, c in FAILURES if isinstance(exc, kind))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code
    rep.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
