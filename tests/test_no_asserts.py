"""Invariants in the package must hold under `python -O`, which strips asserts."""

import ast
from pathlib import Path

import votecert


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(Path(votecert.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert not found, f"bare assert statements (stripped by python -O): {found}"
