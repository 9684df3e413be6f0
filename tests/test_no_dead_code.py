"""Helpers that nothing needs are deleted, not kept: no module imports a name
it does not use, and every private module-level function or class is used
somewhere in the package other than its own body."""

import ast
from pathlib import Path

import votecert

PACKAGE = Path(votecert.__file__).parent


def _modules():
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _used_names(node) -> set[str]:
    """Names and attributes read anywhere under node, plus names it imports from elsewhere."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def _bound_imports(tree) -> dict[str, int]:
    """Name -> line of every module-level import binding, `from __future__` aside."""
    bound = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                bound[alias.asname or alias.name.split(".")[0]] = stmt.lineno
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            for alias in stmt.names:
                bound[alias.asname or alias.name] = stmt.lineno
    return bound


def test_no_module_has_an_unused_import():
    unused = []
    for name, tree in _modules().items():
        if name == "__init__.py":  # re-exports are its purpose
            continue
        loads = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        unused += [f"{name}:{line} {bound}" for bound, line in _bound_imports(tree).items()
                   if bound not in loads]
    assert not unused, f"unused imports: {unused}"


def test_every_private_function_and_class_is_used():
    modules = _modules()
    unused = []
    for name, tree in modules.items():
        defs = [stmt for stmt in tree.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        for d in defs:
            if not d.name.startswith("_") or d.name.startswith("__"):
                continue
            used = any(d.name in _used_names(stmt) for stmt in tree.body if stmt is not d)
            used = used or any(d.name in _used_names(other)
                               for other_name, other in modules.items() if other_name != name)
            if not used:
                unused.append(f"{name}:{d.lineno} {d.name}")
    assert not unused, f"private helpers nothing in the package calls: {unused}"
