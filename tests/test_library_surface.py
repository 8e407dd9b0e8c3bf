"""
The library holds only what its subcommands and constructions call: every
public top-level function or class of src/garside is exported by
garside/__init__.py, is referenced somewhere in src/garside outside its own
definition, or is the `cmd_<name>` handler that cli.COMMANDS sends the
subcommand <name> to. Likewise every method of GarsideGerm and every
attribute its __init__ sets is read somewhere in src/garside outside its
own definition: that is the interface a germ must offer. Checks of paper
facts that no request computes with live in tests/paper_checks.py. The
sources are read with ast, not imported.
"""

import ast
from pathlib import Path

import garside

SRC = Path(garside.__file__).resolve().parent


def _walk_outside(node: ast.AST, skip: ast.AST | None):
    """node and every node under it, not descending into skip."""
    stack = [node]
    while stack:
        cur = stack.pop()
        if cur is not skip:
            yield cur
            stack.extend(ast.iter_child_nodes(cur))


def _referenced_names(node: ast.AST, skip: ast.AST | None) -> set[str]:
    """Names and attribute names read under node, not descending into skip."""
    out: set[str] = set()
    for cur in _walk_outside(node, skip):
        if isinstance(cur, ast.Name):
            out.add(cur.id)
        elif isinstance(cur, ast.Attribute):
            out.add(cur.attr)
    return out


def dispatched_handlers(cli: ast.Module) -> set[str]:
    """`<module>.cmd_<name>` for each COMMANDS entry: cli.main calls that handler by name."""
    table = next(node.value for node in cli.body if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", None) == "COMMANDS")
    return {f"{entry.elts[0].value}.cmd_{name.value}"
            for name, entry in zip(table.keys, table.values)}


def source_trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}


def unused_public_names() -> list[str]:
    trees = source_trees()
    exported = {
        alias.asname or alias.name
        for node in trees["__init__"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    dispatched = dispatched_handlers(trees["cli"])
    unused = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or node.name in exported:
                continue
            if f"{module}.{node.name}" in dispatched:
                continue
            if not any(
                node.name in _referenced_names(other, node) for other in trees.values()
            ):
                unused.append(f"{module}.{node.name}")
    return unused


def test_every_public_name_is_exported_or_called():
    assert unused_public_names() == []


def _germ_class(trees: dict[str, ast.Module]) -> ast.ClassDef:
    return next(node for node in trees["germ"].body
                if isinstance(node, ast.ClassDef) and node.name == "GarsideGerm")


def unread_germ_members(trees: dict[str, ast.Module]) -> list[str]:
    """
    The methods of GarsideGerm and the `self.<x>` attributes its __init__
    sets that no attribute load in the modules reads outside the member's
    own definition (the method, or the assignment in __init__). Loads are
    matched by name; those on a literal, such as `" ".join`, do not count.
    """
    members: dict[str, ast.AST] = {}
    for node in _germ_class(trees).body:
        if not isinstance(node, ast.FunctionDef):
            continue
        if node.name != "__init__":
            members[node.name] = node
            continue
        for stmt in ast.walk(node):
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for t in (n for target in targets for n in ast.walk(target)):
                    if isinstance(t, ast.Attribute) and getattr(t.value, "id", None) == "self":
                        members.setdefault(t.attr, stmt)
    return [
        name for name, definition in sorted(members.items())
        if not any(
            isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and node.attr == name and not isinstance(node.value, ast.Constant)
            for tree in trees.values() for node in _walk_outside(tree, definition)
        )
    ]


def test_every_germ_member_is_read():
    assert unread_germ_members(source_trees()) == []


def test_germ_member_guard_flags_test_only_and_store_only_members():
    # A method that only calls itself, as tests would call it, and an
    # attribute that __init__ stores and nothing reads.
    trees = source_trees()
    germ_class = _germ_class(trees)
    init = next(node for node in germ_class.body if getattr(node, "name", None) == "__init__")
    init.body.append(ast.parse("self.only_stored: list[int] = []").body[0])
    germ_class.body.append(ast.parse(
        "def only_tested(self, n):\n    return self.only_tested(n - 1) if n else self.simples"
    ).body[0])
    trees["germ"] = ast.parse(ast.unparse(trees["germ"]))
    assert unread_germ_members(trees) == ["only_stored", "only_tested"]
