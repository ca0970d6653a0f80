"""Package surface: no unreferenced module-level code, one export per object.

A module-level function or class must be exported in ``trigauge.__all__``
or be used by name somewhere in ``src/trigauge`` outside its own
definition, every method of a class there must be read as an attribute
outside its own body, every name a module imports must be used in it,
every defaulted parameter must be passed by some call in src, and only
generators.py reads, measures or pads ``GridSeq``'s dense count tuple.
Only the stdlib ``ast`` module is used, so the guards need no linter.
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


def _defaulted_params(tree: ast.Module) -> list[tuple[str, str, int | None]]:
    """(called name, parameter, position in a call's arguments or None
    when keyword-only) of every parameter with a default.  A method's
    first parameter is bound, so its positions start one lower; an
    ``__init__`` is called by its class's name."""
    out = []
    owners = {
        id(method): cls
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for method in cls.body
    }
    for func in ast.walk(tree):
        if not isinstance(func, DEFS[:2]):
            continue
        cls = owners.get(id(func))
        bound = cls is not None and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in func.decorator_list
        )
        name = cls.name if cls is not None and func.name == "__init__" else func.name
        args = func.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for k, arg in enumerate(positional[first:], start=first):
            out.append((name, arg.arg, k - bound))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                out.append((name, arg.arg, None))
    return out


def _passes(call: ast.Call, param: str, position: int | None) -> bool:
    """Whether the call passes the parameter, by keyword, by position or
    through a starred argument."""
    if any(kw.arg is None or kw.arg == param for kw in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return position is not None and position < len(call.args)


def test_every_defaulted_parameter_is_passed_somewhere():
    # a default that no src call overrides is a constant, not an option;
    # the CLI entry's argv is exempt, as the console script and tests pass it
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unreached = sorted(
        f"{module}.{name}({param})"
        for module, tree in trees.items()
        for name, param, position in _defaulted_params(tree)
        if (module, name) != ("cli", "main")
        and not any(_passes(call, param, position) for call in calls.get(name, []))
    )
    assert not unreached, f"defaulted parameters no src call passes: {unreached}"


def _is_counts(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "m"


def _count_format_lines(tree: ast.Module) -> set[int]:
    """Lines that subscript ``.m``, take ``len()`` of it or build a
    ``(0,) * k`` count prefix."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and _is_counts(node.value):
            lines.add(node.lineno)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "len"
            and any(_is_counts(arg) for arg in node.args)
        ):
            lines.add(node.lineno)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            for side in (node.left, node.right):
                if isinstance(side, ast.Tuple) and side.elts and all(
                    isinstance(e, ast.Constant) and e.value == 0 for e in side.elts
                ):
                    lines.add(node.lineno)
    return lines


def test_count_format_stays_in_generators():
    # other modules reach a sequence's counts through GridSeq.count(i),
    # GridSeq.pairs() and GridSeq.from_counts, so the count format can
    # change in one module
    hits = sorted(
        f"{path.stem}:{line}"
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "generators"
        for line in _count_format_lines(ast.parse(path.read_text()))
    )
    assert not hits, f"{len(hits)} reads or paddings of GridSeq.m outside generators.py: {hits}"
