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

A request compiles only the code it runs: this module imports the germ and
word modules, the builtin module only for `--builtin`, and the library module
whose cmd_<subcommand> handles the request. No library module imports this
one, which `python -m garside.cli` runs as `__main__`.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterable
from importlib import import_module
from pathlib import Path

from . import words
from .germ import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    GarsideGerm,
    GermError,
    GermSyntaxError,
    GermValidationError,
    InternalError,
    parse_germ,
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
        from . import builtins
        return validate(builtins.build(args.builtin, args.param))
    if args.param is not None:
        raise GermError("--param goes with --builtin, not --file")
    data = Path(args.file).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The line of the first bad byte, counted as parse_germ counts lines.
        line = len((data[: exc.start].decode("utf-8") + "?").splitlines())
        raise GermSyntaxError(f"not UTF-8 (byte 0x{data[exc.start]:02x})", line) from None
    return validate(parse_germ(text))


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

# name -> (the library module whose cmd_<name> handles it; help; number of
# --word arguments; flags besides the source). A handler takes the germ, the
# --word normal forms, the arguments and the reporter, and returns False for
# an honest negative answer (exit 4).
COMMANDS = {
    "validate": ("nerve", "validate a germ and print its invariants", 0, ["--out"]),
    "nf": ("words", "greedy normal form of a word", 1, []),
    "mul": ("words", "multiply two words", 2, []),
    "inv": ("words", "invert a word", 1, []),
    "conj": ("conjugacy", "conjugate a loop by a word", 2, []),
    "summit": ("conjugacy", "cycle/decycle to a summit and list the summit set", 1, ["--budget"]),
    "isconj": ("conjugacy", "decide conjugacy of two loops", 2, ["--budget"]),
    "divide": (
        "divided", "build or count the m-divided germ", 0, ["--m", "--count", "--out", "--budget"],
    ),
    "theta": ("divided", "image of a word under Theta_m", 1, ["--m", "--budget"]),
    "periodic": (
        "periodic", "test periodicity; --certify builds the conjugator", 1,
        ["--p", "--q", "--certify", "--budget"],
    ),
    "classify": (
        "periodic", "conjugacy classes of p/q-periodic loops", 0, ["--p", "--q", "--budget"],
    ),
    "centralizer": (
        "periodic", "fixed germ presenting the centralizer of Delta^p", 0, ["--p", "--budget"],
    ),
    "nerve": (
        "nerve", "nondegenerate simplex counts and cyclic identities", 0,
        ["--dim", "--out", "--budget"],
    ),
    "zpoly": (
        "nerve", "subdivision-counting polynomial from strict chains", 0, ["--samples", "--budget"],
    ),
    "cover": (
        "nerve", "bounded ball of the universal cover, DOT export", 0,
        ["--source", "--radius", "--out", "--budget"],
    ),
    "builtin": ("builtins", "generate a builtin germ", 0, ["--out"]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="garside",
        description="finite-type Garside categories from germ descriptions",
    )
    shared = argparse.ArgumentParser(add_help=False)
    src = shared.add_mutually_exclusive_group(required=True)
    src.add_argument("--file", help="path to a germ file")
    # builtins.build checks the family, so only --builtin requests load that module.
    src.add_argument("--builtin", help="builtin germ family; an unknown one lists them")
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
    module, _, n_words, _ = COMMANDS[args.command]
    try:
        germ = load_germ(args)
        given = getattr(args, "word", [])
        if len(given) != n_words:
            raise GermError(f"this subcommand expects --word exactly {n_words} time(s)")
        handler = getattr(import_module(f"{__package__}.{module}"), f"cmd_{args.command}")
        positive = handler(germ, [words.parse_word(germ, w) for w in given], args, rep)
    except tuple(kind for kind, _, _ in FAILURES) as exc:
        prefix, code = next((p, c) for kind, p, c in FAILURES if isinstance(exc, kind))
        # str() of a KeyError is the repr of its key, which quotes the message.
        text = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"{prefix}: {text}", file=sys.stderr)
        return code
    rep.flush()
    return EXIT_OK if positive else EXIT_NEGATIVE


if __name__ == "__main__":
    sys.exit(main())
