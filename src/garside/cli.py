"""
cli: command-line front end.

COMMANDS is the one table of subcommands. Each takes a germ source (`--file`,
or `--builtin` with `--param`), `--json-like` and only its own flags; any
other flag is a usage error.

Exit codes: 0 success; 1 germ validation failure; 2 parse/usage error;
3 computation budget exceeded; 4 honest negative (not conjugate, not
periodic, no length-one representative, no fixed objects); 5 internal error
(a consistency check inside a construction failed).

Output is byte-stable for fixed inputs: enumerations are sorted and
formatting is fixed. `--json-like` switches to one `key: value` line per
reported fact.

A subcommand loads only the modules it runs: this module imports the germ,
word and builtin modules, and each handler imports the library module it calls.
The records are slot classes and NamedTuples, so no request imports dataclasses.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterable
from pathlib import Path

from . import builtins as germ_builtins
from . import words
from .germ import (
    DEFAULT_BUDGET,
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
    (GermError, "error", EXIT_USAGE),
    (KeyError, "error", EXIT_USAGE),
    (OSError, "error", EXIT_USAGE),
]


class Reporter:
    """Output lines, printed by flush once the handler has succeeded."""

    def __init__(self, json_like: bool):
        self.json_like = json_like
        self.parts: list[Iterable[str]] = []

    def add(self, key: str, value, text: str | None = None) -> None:
        self.parts.append((f"{key}: {value}" if self.json_like or text is None else text,))

    def add_lazy(self, facts: Iterable[tuple[str, object]]) -> None:
        """`key: value` lines that flush draws one at a time, so they are never all held."""
        self.parts.append(f"{key}: {value}" for key, value in facts)

    def flush(self) -> None:
        for part in self.parts:
            for line in part:
                print(line)


def load_germ(args) -> GarsideGerm:
    if not args.file:
        return validate(germ_builtins.build(args.builtin, args.param))
    if args.param is not None:
        raise GermError("--param goes with --builtin, not --file")
    return validate(parse_germ(Path(args.file).read_text(encoding="utf-8")))


def _nf_report(rep: Reporter, germ: GarsideGerm, f: words.NormalForm, prefix: str) -> None:
    rep.add(f"{prefix}", words.format_word(germ, f))
    rep.add(f"{prefix}_source", germ.object_name(f.source))
    rep.add(f"{prefix}_target", germ.object_name(words.target(germ, f)))
    rep.add(f"{prefix}_inf", f.inf)
    rep.add(f"{prefix}_sup", f.sup)
    rep.add(f"{prefix}_canonical_length", f.canonical_length)


def cmd_validate(germ: GarsideGerm, forms, args, rep: Reporter) -> int:
    from . import nerve
    rep.add("objects", len(germ.objects))
    rep.add("simples", len(germ.simples))
    rep.add("atoms", len(germ.atoms))
    rep.add("phi_order", germ.phi_order)
    rep.add("garside_dimension", nerve.garside_dimension(germ))
    rep.add("components", len(components(germ)))
    if args.out:
        Path(args.out).write_text(nerve.atom_graph_dot(germ), encoding="utf-8")
        rep.add("out", args.out, f"wrote atom graph to {args.out}")
    return EXIT_OK


def cmd_nf(germ: GarsideGerm, forms, args, rep: Reporter) -> int:
    _nf_report(rep, germ, forms[0], "nf")
    return EXIT_OK


def cmd_mul(germ: GarsideGerm, forms, args, rep: Reporter) -> int:
    _nf_report(rep, germ, words.multiply(germ, *forms), "product")
    return EXIT_OK


def cmd_inv(germ: GarsideGerm, forms, args, rep: Reporter) -> int:
    _nf_report(rep, germ, words.invert(germ, *forms), "inverse")
    return EXIT_OK


def cmd_conj(germ: GarsideGerm, forms, args, rep: Reporter) -> int:
    from . import conjugacy
    _nf_report(rep, germ, conjugacy.conjugate(germ, *forms), "conjugate")
    return EXIT_OK


def cmd_summit(germ: GarsideGerm, forms, args, rep: Reporter) -> int:
    from . import conjugacy
    sset = conjugacy.summit_set(germ, *forms, Budget(args.budget))
    summit, conjugator = next(iter(sset.items()))
    _nf_report(rep, germ, summit, "summit")
    rep.add("summit_conjugator", words.format_word(germ, conjugator))
    rep.add("summit_set_size", len(sset))
    for i, h in enumerate(sorted(sset, key=lambda m: (m.source, m.delta_exp, m.factors))):
        rep.add(f"summit_{i}", words.format_word(germ, h))
    return EXIT_OK


def cmd_isconj(germ: GarsideGerm, forms, args, rep: Reporter) -> int:
    from . import conjugacy
    witness = conjugacy.are_conjugate(germ, *forms, Budget(args.budget))
    if witness is None:
        rep.add("conjugate", "no", "not conjugate")
        return EXIT_NEGATIVE
    rep.add("conjugate", "yes", "conjugate")
    rep.add("witness", words.format_word(germ, witness.c))
    return EXIT_OK


def cmd_divide(germ: GarsideGerm, forms, args, rep: Reporter) -> int:
    from . import divided
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


def cmd_theta(germ: GarsideGerm, forms, args, rep: Reporter) -> int:
    from . import divided
    dg = divided.build_divided_germ(germ, args.m)
    img = divided.theta_morphism(dg, *forms)
    _nf_report(rep, dg.germ, img, "theta")
    return EXIT_OK


def cmd_periodic(germ: GarsideGerm, forms, args, rep: Reporter) -> int:
    from . import periodic
    budget = Budget(args.budget)
    cert = periodic.is_periodic(germ, *forms, args.p, args.q, budget)
    if cert is None:
        rep.add("periodic", "no", f"not {args.p}/{args.q}-periodic")
        return EXIT_NEGATIVE
    rep.add("periodic", "yes", f"{args.p}/{args.q}-periodic")
    if not args.certify:
        return EXIT_OK
    bf = periodic.find_bestvina_form(germ, cert, budget)
    if isinstance(bf, periodic.NoLengthOneRepresentative):
        rep.add("bestvina", "none", f"no length-one representative: {bf.reason}")
        return EXIT_NEGATIVE
    rep.add(
        "bestvina",
        f"({germ.simple_name(bf.s)}, k={bf.k})",
        f"Bestvina form: ({germ.simple_name(bf.s)}, k={bf.k})",
    )
    rep.add("bestvina_conjugator", words.format_word(germ, bf.conjugator))
    from . import divided
    under = divided.tuple_name(germ, periodic.bestvina_object(germ, bf))
    rep.add("bestvina_object", under, f"object: {under}")
    dg = divided.build_divided_germ(germ, bf.q, budget)
    nc = periodic.necklace_conjugator(germ, bf, dg)
    rep.add("necklace_conjugator", words.format_word(nc.divided.germ, nc.conjugator))
    rep.add("conjugation", "verified", "conjugation verified")
    return EXIT_OK


def cmd_classify(germ: GarsideGerm, forms, args, rep: Reporter) -> int:
    from . import divided, periodic
    cl = periodic.classify_periodic(germ, args.p, args.q)
    rep.add("classes", len(cl.components))
    for i, (comp, r) in enumerate(zip(cl.components, cl.representatives)):
        rep.add(f"class_{i}_objects", " ".join(divided.tuple_name(germ, t) for t in comp))
        rep.add(f"class_{i}_representative", words.format_word(germ, r))
    return EXIT_OK


def cmd_centralizer(germ: GarsideGerm, forms, args, rep: Reporter) -> int:
    from . import periodic
    try:
        report = periodic.centralizer_germ(germ, args.p)
    except GermError as exc:
        if isinstance(exc, (BudgetExceeded, GermValidationError, InternalError)):
            raise  # only "no fixed objects" is an answer
        rep.add("centralizer", "none", str(exc))
        return EXIT_NEGATIVE
    sub = report.subgerm
    rep.add("fixed_objects", len(sub.objects))
    rep.add("fixed_simples", len(sub.simples))
    rep.add("atoms", " ".join(sub.simple_name(a) for a in sub.atoms))
    rep.add("components", len(report.components))
    return EXIT_OK


def cmd_nerve(germ: GarsideGerm, forms, args, rep: Reporter) -> int:
    from . import nerve
    dim = nerve.garside_dimension(germ)
    top = args.dim if args.dim is not None else dim
    if top < 0:
        raise GermError("dimension must be non-negative")
    # One default budget pays for the count lines and the listed simplices.
    budget = Budget(DEFAULT_BUDGET)
    budget.spend(top + 1, f": nerve would print {top + 1} simplex counts")
    totals = nerve.nondegenerate_counts(germ)[: top + 1]
    if args.out:
        listed = sum(totals)
        budget.spend(listed, f": the simplex list would hold {listed} simplices")
    cyc = nerve.check_cyclic_identities(germ)
    rep.add("garside_dimension", dim)
    rep.add_lazy(
        (f"nondegenerate_{n}", totals[n] if n < len(totals) else 0) for n in range(top + 1)
    )
    rep.add("euler", sum((-1) ** n * c for n, c in enumerate(totals)))
    rep.add("cyclic_identities", "ok" if cyc.ok else "FAIL")
    if args.out:
        lines = nerve.nerve_export_lines(germ, top)
        Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
        rep.add("out", args.out, f"wrote {len(lines)} simplices to {args.out}")
    return EXIT_OK


def cmd_zpoly(germ: GarsideGerm, forms, args, rep: Reporter) -> int:
    from . import nerve
    dim = nerve.garside_dimension(germ)
    samples = args.samples if args.samples is not None else dim + 2
    z = nerve.fit_z_polynomial(germ, samples)
    rep.add("degree", z.degree)
    rep.add("newton_coefficients", (" ".join(map(str, z.head)) + " 0" * z.zeros).lstrip())
    rep.add_lazy((f"Z({m})", z(m)) for m in range(1, samples + 3))
    return EXIT_OK


def cmd_cover(germ: GarsideGerm, forms, args, rep: Reporter) -> int:
    from . import nerve
    basepoint = germ.object_named(args.source) if args.source else 0
    ball = nerve.cover_ball(germ, basepoint, args.radius)
    rep.add("vertices", len(ball.vertices))
    rep.add("edges", len(ball.edges))
    if args.out:
        Path(args.out).write_text(nerve.cover_ball_dot(germ, ball), encoding="utf-8")
        rep.add("out", args.out, f"wrote DOT graph to {args.out}")
    return EXIT_OK


def cmd_builtin(germ: GarsideGerm, forms, args, rep: Reporter) -> int:
    rep.add("objects", len(germ.objects))
    rep.add("simples", len(germ.simples))
    if args.out:
        Path(args.out).write_text(table_to_text(germ), encoding="utf-8")
        rep.add("out", args.out, f"wrote germ to {args.out}")
    return EXIT_OK


# flag -> add_argument keywords; a subcommand takes those COMMANDS lists for it.
FLAGS = {
    "--word": dict(action="append", default=[], help="morphism word (repeatable)"),
    "--m": dict(type=int, default=1, help="subdivision order"),
    "--p": dict(type=int, default=1),
    "--q": dict(type=int, default=1),
    "--source": dict(help="object name"),
    "--radius": dict(type=int, default=1),
    "--dim": dict(type=int),
    "--samples": dict(type=int),
    "--count": dict(action="store_true", help="print a count only"),
    "--certify": dict(action="store_true"),
    "--out": dict(help="output file for exports"),
    "--budget": dict(type=int, default=DEFAULT_BUDGET),
}

# name -> (handler, help, number of --word arguments, flags besides the source).
# A handler takes the germ, the --word normal forms, the arguments and the
# reporter, and returns an exit code.
COMMANDS = {
    "validate": (cmd_validate, "validate a germ and print its invariants", 0, ["--out"]),
    "nf": (cmd_nf, "greedy normal form of a word", 1, []),
    "mul": (cmd_mul, "multiply two words", 2, []),
    "inv": (cmd_inv, "invert a word", 1, []),
    "conj": (cmd_conj, "conjugate a loop by a word", 2, []),
    "summit": (cmd_summit, "cycle/decycle to a summit and list the summit set", 1, ["--budget"]),
    "isconj": (cmd_isconj, "decide conjugacy of two loops", 2, ["--budget"]),
    "divide": (cmd_divide, "build or count the m-divided germ", 0, ["--m", "--count", "--out"]),
    "theta": (cmd_theta, "image of a word under Theta_m", 1, ["--m"]),
    "periodic": (
        cmd_periodic, "test periodicity; --certify builds the conjugator", 1,
        ["--p", "--q", "--certify", "--budget"],
    ),
    "classify": (cmd_classify, "conjugacy classes of p/q-periodic loops", 0, ["--p", "--q"]),
    "centralizer": (
        cmd_centralizer, "fixed germ presenting the centralizer of Delta^p", 0, ["--p"],
    ),
    "nerve": (
        cmd_nerve, "nondegenerate simplex counts and cyclic identities", 0, ["--dim", "--out"],
    ),
    "zpoly": (cmd_zpoly, "subdivision-counting polynomial from strict chains", 0, ["--samples"]),
    "cover": (
        cmd_cover, "bounded ball of the universal cover, DOT export", 0,
        ["--source", "--radius", "--out"],
    ),
    "builtin": (cmd_builtin, "generate a builtin germ", 0, ["--out"]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="garside",
        description="finite-type Garside categories from germ descriptions",
    )
    shared = argparse.ArgumentParser(add_help=False)
    src = shared.add_mutually_exclusive_group(required=True)
    src.add_argument("--file", help="path to a germ file")
    src.add_argument("--builtin", choices=germ_builtins.FAMILIES, help="builtin germ family")
    shared.add_argument("--param", type=int, help="builtin family parameter")
    shared.add_argument("--json-like", dest="json_like", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, n_words, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, parents=[shared])
        for flag in (["--word"] if n_words else []) + flags:
            p.add_argument(flag, **FLAGS[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "budget", 1) <= 0:
        print("error: --budget must be positive", file=sys.stderr)
        return EXIT_USAGE
    rep = Reporter(args.json_like)
    handler, _, n_words, _ = COMMANDS[args.command]
    try:
        germ = load_germ(args)
        given = getattr(args, "word", [])
        if len(given) != n_words:
            raise GermError(f"this subcommand expects --word exactly {n_words} time(s)")
        code = handler(germ, [words.parse_word(germ, w) for w in given], args, rep)
    except tuple(kind for kind, _, _ in FAILURES) as exc:
        prefix, code = next((p, c) for kind, p, c in FAILURES if isinstance(exc, kind))
        # str() of a KeyError is the repr of its key, which quotes the message.
        text = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"{prefix}: {text}", file=sys.stderr)
        return code
    rep.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
