"""Helpers that nothing needs are deleted, not kept: no module or function
imports a name it does not use, and every module-level function or class is
read somewhere in the package other than its own body, or, if public, is
named in OUTSIDE_USERS with the user outside the package that it is kept
for.  A module reads another's definition only by importing it, so neither a local
variable nor an attribute of the same name is a read.  Every method and
property of a class is read as an attribute somewhere in the package
outside its own body, or is named in OUTSIDE_MEMBER_USERS."""

import ast
from collections import Counter
from pathlib import Path

import votecert

PACKAGE = Path(votecert.__file__).parent


def _modules():
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _used_names(node) -> set[str]:
    """Names and attributes read anywhere under node."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _bound_imports(nodes) -> dict[str, int]:
    """Name -> line of every import binding among nodes, `from __future__` aside."""
    bound = {}
    for stmt in nodes:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                bound[alias.asname or alias.name.split(".")[0]] = stmt.lineno
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            for alias in stmt.names:
                bound[alias.asname or alias.name] = stmt.lineno
    return bound


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _reads(node, shadowed=frozenset()) -> set[str]:
    """Names read under node, less those read inside a function that imports them itself."""
    if isinstance(node, ast.Name):
        return set() if node.id in shadowed else {node.id}
    if isinstance(node, FUNCTIONS):
        shadowed = shadowed | set(_bound_imports(ast.walk(node)))
    return set().union(*(_reads(child, shadowed) for child in ast.iter_child_nodes(node)))


def test_no_module_has_an_unused_import():
    """A function's import must be read inside it; a module-level one outside
    the functions that import the same name for themselves."""
    unused = []
    for name, tree in _modules().items():
        functions = [d for d in ast.walk(tree) if isinstance(d, FUNCTIONS)]
        in_function = {id(sub) for d in functions for sub in ast.walk(d)}
        scopes = [(_bound_imports(sub for sub in ast.walk(tree) if id(sub) not in in_function), _reads(tree))]
        scopes += [(_bound_imports(ast.walk(d)), {sub.id for sub in ast.walk(d) if isinstance(sub, ast.Name)})
                   for d in functions]
        unused += [f"{name}:{line} {b}" for bound, reads in scopes for b, line in bound.items() if b not in reads]
    assert not unused, f"unused imports: {unused}"


def _is_click_command(d) -> bool:
    return any(isinstance(dec, ast.Call) and isinstance(dec.func, ast.Attribute)
               and dec.func.attr in ("command", "group") for dec in d.decorator_list)


def _imports(tree) -> dict[str, set[str]]:
    """What a module reads of its siblings: {module: names it imports from that module}."""
    imported = {}
    for sub in ast.walk(tree):
        if isinstance(sub, ast.ImportFrom) and sub.module:
            imported.setdefault(sub.module.rpartition(".")[2], set()).update(a.name for a in sub.names)
    return imported


def _unread_definitions() -> list[tuple[str, str]]:
    """(name, "module:line name") of each module-level function or class that
    nothing in the package reads but its own definition.  __init__'s
    re-exports are no reads, and click commands are read by click."""
    modules = {name: tree for name, tree in _modules().items() if name != "__init__.py"}
    reads = {name: [_used_names(stmt) for stmt in tree.body] for name, tree in modules.items()}
    outside = {name: _imports(tree) for name, tree in modules.items()}
    unread = []
    for name, tree in modules.items():
        for k, d in enumerate(tree.body):
            if not isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if _is_click_command(d):
                continue
            read = any(d.name in names for j, names in enumerate(reads[name]) if j != k)
            read = read or any(d.name in imported.get(name.removesuffix(".py"), ())
                               for other, imported in outside.items() if other != name)
            if not read:
                unread.append((d.name, f"{name}:{d.lineno} {d.name}"))
    return unread


def test_every_private_function_and_class_is_used():
    unused = [where for name, where in _unread_definitions()
              if name.startswith("_") and not name.startswith("__")]
    assert not unused, f"private helpers nothing in the package calls: {unused}"


# Public functions and classes that no module of the package reads, each with
# the user outside the package that it is kept for.
OUTSIDE_USERS = {
    "replay_report": "the replay API",
    "replay_gain": "the replay API",
    "enumerate_instances": "the acceptance suite",
    "dominance_polynomial": "the acceptance suite",
    "mixture": "the acceptance suite",
    "kendall_tau": "the acceptance suite",
    "swap_path": "the acceptance suite",
    "pair_rule": "the acceptance suite",
    "plurality_fixed_tiebreak": "perfbench",
    "solve_lp": "the LP oracle of the sweep's tests",
    "constraint": "the LP oracle of the sweep's tests",
    "polynomial_from_terms": "the exponent-vector bridge of the dense reference tests",
    "closeness": "perfbench's lp-sweep gate",
    "rule_to_json_obj": "the rule-file tests' object form and the writer's parity oracle",
}


def test_every_public_function_and_class_is_used():
    unread = _unread_definitions()
    unused = [where for name, where in unread
              if not name.startswith("_") and name not in OUTSIDE_USERS]
    assert not unused, ("public functions and classes that nothing in the package reads "
                        f"and that no outside user is named for: {unused}")
    stale = sorted(set(OUTSIDE_USERS) - {name for name, _ in unread})
    assert not stale, f"named for an outside user, but read in the package or gone: {stale}"


def _attribute_reads(node) -> list[str]:
    return [sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)]


def _unread_members() -> list[tuple[str, str]]:
    """("Class.name", "module:line Class.name") of each non-dunder method or
    property that nothing in the package reads as an attribute, its own body aside."""
    modules = _modules()
    reads = Counter(attr for tree in modules.values() for attr in _attribute_reads(tree))
    unread = []
    for name, tree in modules.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for d in cls.body:
                if not isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if d.name.startswith("__") and d.name.endswith("__"):
                    continue
                if reads[d.name] == _attribute_reads(d).count(d.name):
                    unread.append((f"{cls.name}.{d.name}", f"{name}:{d.lineno} {cls.name}.{d.name}"))
    return unread


# Methods and properties that nothing in the package reads, each with the
# user outside the package that it is kept for.
OUTSIDE_MEMBER_USERS = {
    "RuleTable.table": "the rules.profiles_validated hook in perfbench/tracing.py",
    "Constraint.coeffs": "the dense rows of the LP oracle tests",
    "_Boundary.invoke": "click, which calls the command group's invoke to run each command",
}


def test_every_method_and_property_is_used():
    unread = _unread_members()
    unused = [where for member, where in unread if member not in OUTSIDE_MEMBER_USERS]
    assert not unused, ("methods and properties that nothing in the package reads "
                        f"and that no outside user is named for: {unused}")
    stale = sorted(set(OUTSIDE_MEMBER_USERS) - {member for member, _ in unread})
    assert not stale, f"named for an outside user, but read in the package or gone: {stale}"


def _unread_parameters() -> list[str]:
    """"module:line function(param)" for each parameter of a function or
    lambda that its body never reads; self, cls and _-prefixed names aside."""
    unread = []
    for name, tree in _modules().items():
        for d in ast.walk(tree):
            if not isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = d.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
            body = d.body if isinstance(d.body, list) else [d.body]
            loads = {sub.id for stmt in body for sub in ast.walk(stmt)
                     if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            label = getattr(d, "name", "lambda")
            unread += [f"{name}:{d.lineno} {label}({p.arg})" for p in params
                       if p.arg not in ("self", "cls") and not p.arg.startswith("_")
                       and p.arg not in loads]
    return unread


def test_every_parameter_is_read():
    unread = _unread_parameters()
    assert not unread, f"parameters that their function never reads: {unread}"
