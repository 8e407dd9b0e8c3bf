"""
The library holds only what its subcommands and constructions call: every
public top-level function or class of src/garside is exported by
garside/__init__.py or is referenced somewhere in src/garside outside its own
definition. Checks of paper facts that no request computes with live in
tests/paper_checks.py. The sources are read with ast, not imported.
"""

import ast
from pathlib import Path

import garside

SRC = Path(garside.__file__).resolve().parent


def _referenced_names(node: ast.AST, skip: ast.AST | None) -> set[str]:
    """Names and attribute names read under node, not descending into skip."""
    out: set[str] = set()
    stack = [node]
    while stack:
        cur = stack.pop()
        if cur is skip:
            continue
        if isinstance(cur, ast.Name):
            out.add(cur.id)
        elif isinstance(cur, ast.Attribute):
            out.add(cur.attr)
        stack.extend(ast.iter_child_nodes(cur))
    return out


def unused_public_names() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    exported = {
        alias.asname or alias.name
        for node in trees["__init__"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    unused = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or node.name in exported:
                continue
            if not any(
                node.name in _referenced_names(other, node) for other in trees.values()
            ):
                unused.append(f"{module}.{node.name}")
    return unused


def test_every_public_name_is_exported_or_called():
    assert unused_public_names() == []
