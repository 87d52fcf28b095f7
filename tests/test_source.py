"""Source checks that hold for the whole package, at no cost at run time."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "cdcmip"


def test_no_assert_statements_in_the_package():
    # `python -O` strips assert statements, so a guarantee written as one
    # would vanish; the package raises its own errors instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(SOURCE.glob("*.py"))) >= 10
    assert found == []
