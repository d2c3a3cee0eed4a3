"""Rules on the package source itself."""

import ast
from pathlib import Path

import fanocount


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so a runtime check must raise instead
    offenders = []
    for path in sorted(Path(fanocount.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}"
                      for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert offenders == []
