"""Source checks that keep deletions complete: no module keeps an import it
no longer uses, and no private helper outlives its last caller."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "tribasis"


def _modules():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(SOURCE.glob("*.py"))}


def unused_imports() -> list:
    """(module, name) for each imported name its module never reads;
    ``__init__.py`` re-exports by importing, and ``from __future__`` imports
    bind nothing."""
    found = []
    for module, tree in _modules().items():
        if module == "__init__.py":
            continue
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        found.append((module, name))
    return found


def orphaned_helpers() -> list:
    """(module, name) for each module-level private function that nothing in
    the package refers to outside its own definition."""
    modules = _modules()
    found = []
    for module, tree in modules.items():
        for fn in tree.body:
            if not (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and fn.name.startswith("_") and not fn.name.startswith("__")):
                continue
            own = set(map(id, ast.walk(fn)))
            if not any(_refers_to(node, fn.name) and id(node) not in own
                       for other in modules.values() for node in ast.walk(other)):
                found.append((module, fn.name))
    return found


def _refers_to(node, name) -> bool:
    if isinstance(node, ast.Name):
        return node.id == name
    if isinstance(node, ast.Attribute):
        return node.attr == name
    if isinstance(node, ast.alias):
        return node.name == name
    return False


def test_every_import_is_used():
    assert unused_imports() == []


def test_every_private_function_has_a_caller():
    assert orphaned_helpers() == []
