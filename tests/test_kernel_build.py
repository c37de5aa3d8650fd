"""The compiled training kernel is built on the first import of a cold copy
of the package: concurrent first imports all succeed, and a failed build is
an ImportError that carries the compiler's failure."""

import os
import shutil
import subprocess
import sys

import omegarl

PACKAGE = os.path.dirname(omegarl.__file__)


def cold_copy(tmp_path):
    """The package without any built kernel, importable from ``tmp_path``."""
    shutil.copytree(PACKAGE, tmp_path / "omegarl", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path / "omegarl"


def start_import(root, path=None) -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": str(root), "PATH": path or os.environ.get("PATH", "")}
    return subprocess.Popen([sys.executable, "-c", "import omegarl"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def test_concurrent_cold_imports_both_build_one_kernel(tmp_path):
    package = cold_copy(tmp_path)
    procs = [start_import(tmp_path), start_import(tmp_path)]
    errors = [proc.communicate(timeout=120)[1] for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0], errors
    cache = package / "__pycache__"
    assert len(list(cache.glob("_omegarl_kernel_*"))) == 1
    assert not [p for p in cache.iterdir() if p.is_dir()]  # no build directory is left


def test_build_without_gcc_is_an_import_error(tmp_path):
    cold_copy(tmp_path)
    dirs = os.environ.get("PATH", "").split(os.pathsep)
    proc = start_import(tmp_path, os.pathsep.join(d for d in dirs if not shutil.which("gcc", path=d)))
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    last = err.strip().splitlines()[-1]
    assert last.startswith("ImportError: cannot build the omegarl training kernel")
    assert "'gcc'" in last


def test_compiler_error_is_an_import_error_with_its_message(tmp_path):
    package = cold_copy(tmp_path)
    with open(package / "_kernel.c", "a", encoding="utf-8") as fh:
        fh.write("\n#error this kernel does not compile\n")
    proc = start_import(tmp_path)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert "ImportError: cannot build the omegarl training kernel: gcc exited" in err
    assert "this kernel does not compile" in err
    assert not list((package / "__pycache__").glob("_omegarl_kernel_*"))
