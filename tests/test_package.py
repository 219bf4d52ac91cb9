"""Properties of the package source as a whole."""

import ast
import os
import subprocess
import sys
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


def imports(path):
    """(line, module) for every import in a source file, nested ones too."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.lineno, node.module or ""


def test_no_module_imports_sympy():
    # the runtime has no dependencies: sympy serves only the tests, as an
    # oracle; imports nested in functions count too
    found = [
        f"{path.name}:{line}"
        for path in sorted(Path(talex.__file__).parent.glob("*.py"))
        for line, name in imports(path)
        if name.split(".")[0] == "sympy"
    ]
    assert found == []


def test_exact_layers_import_nothing_from_fractions():
    # Z[z]/(m), Laurent and matrix arithmetic stay in the integers; the
    # rational references live in the test oracles
    package = Path(talex.__file__).parent
    found = [
        f"{name}.py:{line}"
        for name in ("rings", "laurent", "matrices")
        for line, module in imports(package / f"{name}.py")
        if module == "fractions"
    ]
    assert found == []


def test_import_builds_no_image_table():
    # importing the package takes no representation work: the image
    # tables are grown only by the reps a call constructs
    code = "import talex\nfrom talex import representations\nprint(len(representations._TABLES))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(Path(talex.__file__).parent.parent)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "0"
