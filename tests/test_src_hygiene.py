"""No dead code in the package: every import is used and every
module-level function or class has a reader.

Read with the stdlib `ast` module.  A module-level name counts as read
when it is named anywhere in `src/` outside its own definition, is
public (`apparent.__all__`), is a CLI handler the dispatcher finds by
its prefix (`cmd_*`, `text_*`), is a module dunder, or is a boundary the
benchmark's span tracer patches by name (`BOUNDARIES` in
`perfbench/tracer.py`, read here and not imported).
"""

from __future__ import annotations

import ast
from pathlib import Path

import apparent

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "apparent").rglob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _bound_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def _read_names(tree: ast.Module):
    """(name, top-level definition it is read inside, or None) for every
    Name, Attribute and from-import in tree."""
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                yield node.id, owner
            elif isinstance(node, ast.Attribute):
                yield node.attr, owner
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    yield alias.name, owner


def _boundaries() -> set[str]:
    tree = _tree(ROOT / "perfbench" / "tracer.py")
    for node in tree.body:
        names = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if names == ["BOUNDARIES"]:
            table = ast.literal_eval(node.value)
            return {part for names in table.values() for name in names
                    for part in name.split(".")}
    raise AssertionError("perfbench/tracer.py has no BOUNDARIES table")


def test_no_unused_import():
    unused = []
    for path in SOURCES:
        tree = _tree(path)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{path.relative_to(ROOT)}:{node.lineno} {name}"
                           for name in _bound_names(node) if name not in read]
    assert not unused, "\n".join(unused)


def test_every_module_level_definition_has_a_reader():
    trees = {path: _tree(path) for path in SOURCES}
    reads = {path: list(_read_names(tree)) for path, tree in trees.items()}
    exempt = set(apparent.__all__) | _boundaries()
    unread = []
    for path, tree in trees.items():
        for top in tree.body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = top.name
            if (name in exempt or name.startswith(("cmd_", "text_"))
                    or (name.startswith("__") and name.endswith("__"))):
                continue
            if not any(read == name and (other != path or owner != name)
                       for other, names in reads.items() for read, owner in names):
                unread.append(f"{path.relative_to(ROOT)}:{top.lineno} {name}")
    assert not unread, "\n".join(unread)
