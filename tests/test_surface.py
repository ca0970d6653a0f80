"""Package surface: no unreferenced module-level code, one export per object.

A module-level function or class must be exported in ``trigauge.__all__``
or be used by name somewhere in ``src/trigauge`` outside its own
definition, every method of a class there must be read as an attribute
outside its own body, and every name a module imports must be used in
it.  Only the stdlib ``ast`` module is used, so the guards need no
linter.
"""

import ast
from pathlib import Path

import trigauge

SRC = Path(trigauge.__file__).resolve().parent
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _package_aliases(tree: ast.Module) -> set[str]:
    """Local names bound to sibling modules by ``from . import m [as n]``."""
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
        for alias in node.names
    }


def _used_names(node: ast.AST, aliases: set[str]) -> set[str]:
    """Names loaded in the node, plus attributes read off sibling modules."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif (
            isinstance(sub, ast.Attribute)
            and isinstance(sub.value, ast.Name)
            and sub.value.id in aliases
        ):
            used.add(sub.attr)
    return used


def _scan() -> tuple[list[tuple[str, str]], set[str]]:
    """Module-level definitions as (module, name) and every outside use."""
    defined: list[tuple[str, str]] = []
    used: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        aliases = _package_aliases(tree)
        for stmt in tree.body:
            names = _used_names(stmt, aliases)
            if isinstance(stmt, DEFS):
                defined.append((path.stem, stmt.name))
                names.discard(stmt.name)  # recursion is not a use
            used |= names
    return defined, used


def test_every_definition_is_exported_or_used():
    defined, used = _scan()
    exported = set(trigauge.__all__)
    dead = sorted(
        f"{module}.{name}"
        for module, name in defined
        if name not in exported and name not in used
    )
    assert not dead, f"unreferenced module-level definitions: {dead}"


def test_exports_exist_and_are_not_aliases():
    by_object: dict[int, list[str]] = {}
    for name in trigauge.__all__:
        by_object.setdefault(id(getattr(trigauge, name)), []).append(name)
    aliases = sorted(names for names in by_object.values() if len(names) > 1)
    assert not aliases, f"names in __all__ bound to one object: {aliases}"
    assert len(set(trigauge.__all__)) == len(trigauge.__all__)


def _names_in_module(tree: ast.Module) -> set[str]:
    """Names the module reads: loaded names and the strings listed in
    ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            used |= set(ast.literal_eval(stmt.value))
    return used


def test_every_import_is_used():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _names_in_module(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{path.stem}.{name}" for name in bound if name not in used]
    assert not unused, f"imported names never used: {unused}"


def test_every_method_is_read_somewhere():
    # a method or property (dunders aside) exists only if src reads its
    # name as an attribute somewhere outside its own body; the check goes
    # by name, so a same-named attribute of another object also counts
    trees = [
        ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))
    ]
    reads: dict[str, list[ast.Attribute]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, []).append(node)
    unread = []
    for tree in trees:
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for method in cls.body:
                if not isinstance(method, DEFS[:2]) or (
                    method.name.startswith("__") and method.name.endswith("__")
                ):
                    continue
                own = {id(node) for node in ast.walk(method)}
                if all(id(node) in own for node in reads.get(method.name, [])):
                    unread.append(f"{cls.name}.{method.name}")
    assert not unread, f"methods nothing in src reads: {sorted(unread)}"
