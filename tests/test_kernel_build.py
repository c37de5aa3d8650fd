"""The compiled kernel is built on the first import of a cold copy of the
package: concurrent first imports all succeed and can run both of its
loops, and a failed build is an ImportError that carries the compiler's
failure."""

import os
import shutil
import subprocess
import sys

import omegarl
from omegarl.learn import _KERNEL_FLAGS

PACKAGE = os.path.dirname(omegarl.__file__)

# A two-state product (s0 -> s1, then a rewarded self-loop at s1) through
# value iteration and one training step: both kernel loops of a fresh build.
RUN_BOTH_LOOPS = """
from omegarl import (AcceptingReward, LabeledMdp, TGba, TrainConfig, Transition, build_product,
                     train, value_iteration)
m = LabeledMdp(num_states=2, initial=0, ap=frozenset({"a"}), enabled=(("go",), ("go",)),
               prob={(0, "go"): ((1, 1.0),), (1, "go"): ((1, 1.0),)},
               label={(1, "go", 1): frozenset({"a"})})
loop_a, loop_empty = Transition(0, frozenset({"a"}), 0), Transition(0, frozenset(), 0)
b = TGba(1, 0, frozenset({"a"}), {loop_a: 1, loop_empty: 0}, 1)
product = build_product(m, b)
assert value_iteration(product, gamma=0.5, r_p=1.0, tol=0.0)[0] == {0: 1.0, 1: 2.0}
cfg = TrainConfig(episodes=1, steps_per_episode=2, sessions=1)
assert train(product, AcceptingReward(product, 2.0), cfg).curve.mean.tolist() == [1.0]
"""


def cold_copy(tmp_path):
    """The package without any built kernel, importable from ``tmp_path``."""
    shutil.copytree(PACKAGE, tmp_path / "omegarl", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path / "omegarl"


def start_import(root, path=None, code="import omegarl") -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": str(root), "PATH": path or os.environ.get("PATH", "")}
    return subprocess.Popen([sys.executable, "-c", code], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def test_concurrent_cold_imports_both_build_one_kernel(tmp_path):
    package = cold_copy(tmp_path)
    procs = [start_import(tmp_path, code=RUN_BOTH_LOOPS) for _ in range(2)]
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


def hashlib_loaded_after(code: str) -> tuple[str, str]:
    code += "; print('_hashlib' in sys.modules, 'hashlib' in sys.modules)"
    return start_import(os.path.dirname(PACKAGE), code=code).communicate(timeout=120)


def test_import_leaves_hashlib_unloaded():
    # the kernel's cache key is a CRC-32: importing hashlib maps OpenSSL
    assert hashlib_loaded_after("import sys, omegarl") == ("False False\n", "")


def test_cli_import_leaves_hashlib_unloaded():
    # only `train` hashes a manifest, so the CLI imports hashlib there
    assert hashlib_loaded_after("import sys, omegarl.cli") == ("False False\n", "")


def test_kernel_flags_keep_every_float_operation():
    # a fused multiply-add or a reassociated sum changes the kernels' last bits
    assert "-ffp-contract=off" in _KERNEL_FLAGS
    assert not [f for f in _KERNEL_FLAGS if f in ("-ffast-math", "-Ofast") or f.startswith("-march=")]
