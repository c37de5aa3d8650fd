"""The package imports only the standard library, numpy and cffi.

scipy, sympy, networkx and hypothesis may be installed for the tests, which
use them as independent second checks; the package must not depend on them.
Every import statement counts, at module level or inside a function.  What
the tests import must be declared in ``pyproject.toml``, as a dependency of
the package or in its ``test`` extra.

The package also never touches ``numpy.random``: the training kernel seeds
and steps its own PCG64, and importing ``numpy.random`` would cost every
``omegarl`` process its import time and memory.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
SOURCES = sorted((ROOT / "src" / "omegarl").glob("*.py"))
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


def test_test_imports_are_declared_in_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", r)[0].lower().replace("-", "_") for r in requirements}
    local = {p.stem for d in ("tests", "perfbench", "scripts") for p in (ROOT / d).glob("*.py")}
    imported = {
        module for p in sorted((ROOT / "tests").glob("*.py"))
        for _, module in imported_modules(p.read_text(encoding="utf-8"))
    }
    assert {"helpers", "numpy", "pytest", "networkx"} <= imported
    undeclared = imported - sys.stdlib_module_names - {"omegarl"} - local - declared
    assert undeclared == set()


NUMPY_FREE = ("ltl.py", "automata.py", "augment.py", "graphs.py", "product.py", "verify.py")


def numpy_imports(source: str) -> list[int]:
    return [line for line, module in imported_modules(source) if module == "numpy"]


def test_formula_automaton_and_product_layers_import_no_numpy():
    """These modules keep their bitsets as Python ints; ROADMAP item 11
    takes numpy out of the rest of the package, so none may bring it back."""
    found = {p.name: numpy_imports(p.read_text(encoding="utf-8"))
             for p in SOURCES if p.name in NUMPY_FREE}
    assert sorted(found) == sorted(NUMPY_FREE)
    assert {name: lines for name, lines in found.items() if lines} == {}
    uses = "import numpy as np\nfrom numpy import ones\ndef f():\n    import numpy.linalg\n"
    assert numpy_imports(uses) == [1, 2, 4]


def numpy_random_uses(source: str) -> list[int]:
    """Lines that import ``numpy.random`` or read ``np.random``/``numpy.random``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
        elif isinstance(node, ast.Attribute) and node.attr == "random":
            numpy = isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
            names = ["numpy.random"] if numpy else []
        else:
            continue
        if any(n == "numpy.random" or n.startswith("numpy.random.") for n in names):
            lines.append(node.lineno)
    return sorted(lines)


def test_package_never_uses_numpy_random():
    found = {p.name: numpy_random_uses(p.read_text(encoding="utf-8")) for p in SOURCES}
    assert {name: lines for name, lines in found.items() if lines} == {}
    uses = (
        "import numpy.random\nfrom numpy.random import PCG64\nfrom numpy import random\n"
        "import numpy as np\nx = np.random.default_rng(1)\ny = numpy.random\nz = rng.random()\n"
    )
    assert numpy_random_uses(uses) == [1, 2, 3, 5, 6]


FRESH_RUN = """
import json, sys
from omegarl.cli import main
out = sys.argv[1]
with open(out + ".json", "w") as fh:
    json.dump({"episodes": 3, "steps_per_episode": 40, "sessions": 2}, fh)
train = ["train", "--env", "grid9", "--spec", "gfa_gfb_gnc", "--method", "augmented",
         "--config", out + ".json", "--out", out]
assert main(train) == 0 and main(["verify", "--quick"]) == 0
print("numpy.random" in sys.modules)
"""


def test_train_and_verify_never_load_numpy_random(tmp_path):
    src = str(Path(__file__).parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_RUN, str(tmp_path / "run")], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
