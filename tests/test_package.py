"""Properties of the package source as a whole."""

import ast
from pathlib import Path

import talex


def test_no_assert_statements_in_the_package():
    # the certificates built at construction time must survive python -O,
    # which strips assert statements; they raise AssertionError instead
    found = []
    for path in sorted(Path(talex.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_no_module_imports_sympy():
    # the runtime has no dependencies: sympy serves only the tests, as an
    # oracle; imports nested in functions count too
    found = []
    for path in sorted(Path(talex.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "sympy" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
