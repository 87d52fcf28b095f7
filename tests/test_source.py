"""Source checks that hold for the whole package, at no cost at run time."""

import ast
import sys
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


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; ``__future__`` imports excluded.

    A name counts as read when it appears as a name anywhere in the module,
    including inside a quoted annotation.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            read.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


def test_unused_import_check_finds_a_leftover():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "from operator import and_, or_\n"
        "def f(x: 'Fraction') -> int:\n"
        "    return or_(json.loads(x), 1)\n"
        "from fractions import Fraction\n"
    )
    assert _unused_imports(source) == ["and_ (line 3)"]


def test_no_unused_imports_in_the_package():
    # A refactor that stops calling a helper can leave its import behind.
    # `__init__.py` only re-exports, so it is exempt.
    found = {
        path.name: unused
        for path in sorted(SOURCE.glob("*.py"))
        if path.name != "__init__.py" and (unused := _unused_imports(path.read_text()))
    }
    assert found == {}


def _uncalled_private_helpers(sources: dict[str, str]) -> list[str]:
    """Module-level ``_private`` functions and classes no code in the package reads.

    A read is a name or attribute load anywhere in the package outside the
    helper's own definition, so a helper that only calls itself, or is only
    imported, counts as uncalled.
    """
    defined: dict[tuple[str, str], ast.AST] = {}
    trees = {name: ast.parse(text) for name, text in sources.items()}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and (
                node.name.startswith("_") and not node.name.startswith("__")
            ):
                defined[module, node.name] = node
    inside = {id(n): key for key, node in defined.items() for n in ast.walk(node)}
    read: set[str] = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if inside.get(id(node), (None, None))[1] != name:
                read.add(name)
    return sorted(f"{module}:{name}" for module, name in defined if name not in read)


def test_uncalled_helper_check_finds_a_leftover():
    sources = {
        "a.py": (
            "def _used(): return 1\n"
            "def _recursive(n): return _recursive(n - 1)\n"
            "class _Kept: pass\n"
            "def _only_imported(): pass\n"
            "def public(): return _used() + len([_Kept])\n"
        ),
        "b.py": "from .a import _only_imported\nfrom . import a\ndef g(): return a._used()\n",
    }
    assert _uncalled_private_helpers(sources) == ["a.py:_only_imported", "a.py:_recursive"]


def test_no_uncalled_private_helpers():
    # A refactor that replaces a helper can leave the old one behind as a
    # second code path nothing takes.
    sources = {path.name: path.read_text() for path in sorted(SOURCE.glob("*.py"))}
    assert _uncalled_private_helpers(sources) == []


def _non_stdlib_imports(source: str) -> list[str]:
    """Absolute imports whose top-level module is not in the standard library."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [
            f"{module} (line {node.lineno})"
            for module in modules
            if module.partition(".")[0] not in sys.stdlib_module_names
        ]
    return found


def test_stdlib_import_check_finds_a_third_party_module():
    source = (
        "from __future__ import annotations\n"
        "import os.path, numpy as np\n"
        "from . import cdc\n"
        "from .cover import tree_cover\n"
        "def f():\n"
        "    from scipy.optimize import linprog\n"
        "    return linprog\n"
    )
    assert _non_stdlib_imports(source) == ["numpy (line 2)", "scipy.optimize (line 6)"]


def test_the_runtime_is_standard_library_only():
    # Tests, benchmarks and extras may use numpy, scipy and hypothesis; the
    # package itself must import and run without them.
    found = {
        path.name: outside
        for path in sorted(SOURCE.glob("*.py"))
        if (outside := _non_stdlib_imports(path.read_text()))
    }
    assert found == {}


def _fraction_parsers(source: str) -> list[int]:
    """Lines calling ``Fraction`` with one argument that is not a literal.

    Such a call parses a value into an exact number.  ``Fraction(0)`` and
    two-argument calls only build one.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call) or len(node.args) + len(node.keywords) != 1:
            continue
        if getattr(node.func, "id", getattr(node.func, "attr", None)) != "Fraction":
            continue
        try:
            ast.literal_eval(node.args[0] if node.args else node.keywords[0].value)
        except ValueError:
            found.append(node.lineno)
    return found


def test_fraction_parser_check_finds_a_leftover():
    source = (
        "import fractions\n"
        "from fractions import Fraction\n"
        "half = Fraction(1, 2) + Fraction(-3) + Fraction('1/4') + float(half)\n"
        "def parse(text):\n"
        "    return Fraction(text)\n"
        "def parse_too(x):\n"
        "    return fractions.Fraction(numerator=x.value)\n"
    )
    assert _fraction_parsers(source) == [5, 7]


def test_only_cdc_parses_exact_numbers():
    # A second parser would take values with different rules: every exact
    # number enters through `cdc._exact_coordinate`.
    found = {
        path.name: lines
        for path in sorted(SOURCE.glob("*.py"))
        if (lines := _fraction_parsers(path.read_text()))
    }
    assert list(found) == ["cdc.py"]
