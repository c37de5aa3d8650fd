"""The package imports only the standard library, numpy and cffi.

scipy, sympy, networkx and hypothesis may be installed for the tests, which
use them as independent second checks; the package must not depend on them.
Every import statement counts, at module level or inside a function.
"""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).parents[1] / "src" / "omegarl").glob("*.py"))
ALLOWED = sys.stdlib_module_names | {"numpy", "cffi", "omegarl"}


def imported_modules(source: str):
    """(line, top-level module) for each absolute import in ``source``;
    relative imports stay inside the package."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def foreign_imports(source: str) -> list[tuple[int, str]]:
    return [(line, module) for line, module in imported_modules(source) if module not in ALLOWED]


def test_package_imports_only_stdlib_numpy_and_cffi():
    found = {p.name: foreign_imports(p.read_text(encoding="utf-8")) for p in SOURCES}
    assert {"cli.py", "learn.py"} <= found.keys()
    assert {name: imports for name, imports in found.items() if imports} == {}


def test_import_scan_sees_function_level_imports():
    found = {(p.name, module) for p in SOURCES for _, module in imported_modules(p.read_text())}
    assert {("learn.py", "cffi"), ("learn.py", "subprocess"), ("cli.py", "hashlib")} <= found
    nested = "import numpy as np\n\ndef f():\n    from scipy import linalg\n    import networkx\n"
    assert foreign_imports(nested) == [(4, "scipy"), (5, "networkx")]
