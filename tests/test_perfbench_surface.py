"""The library surface that the benchmark's per-layer probes call.

``perfbench/layers.py`` and ``perfbench/workloads.py`` import the library
directly, so an API cut that breaks them (and with them
``perfbench/run.py --trace 1``) fails here instead of in a benchmark run.
"""

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from omegarl.verify import CHECKS

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import layers  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def grid9(tmp_path_factory):
    w = workloads.Grid9Long(1, tmp_path_factory.mktemp("grid9"))
    w.load()
    return w


@pytest.mark.parametrize("cls,method", [(layers.AcceptingReward, "augmented"),
                                        (layers.FrontierReward, "frontier")])
def test_reward_probe_calls(grid9, cls, method):
    product = grid9.products[method][0]
    scheme = cls(product, grid9.cfg.r_p)
    walk = [(t,) for t in layers._walk(product, 2000, grid9.seed)]
    scheme.reset()
    assert layers.per_call(scheme, walk, repeats=1) > 0.0
    assert {scheme(t) for (t,) in walk} <= {0.0, grid9.cfg.r_p}


def test_kernel_probe_calls(grid9):
    cfg = replace(grid9.cfg, episodes=2, steps_per_episode=200)
    for product, scheme in grid9.products.values():
        result = layers.train(product, scheme, cfg, track_satisfaction=False)
        assert result.evaluations == (None,) * cfg.sessions
        assert [layers.greedy_policy(q) for q in result.qtables] == list(result.policies)


def test_measure_reports_declared_per_layer_metrics(grid9):
    """The whole ``--trace 1`` probe set runs, and every figure it reports is
    a per-layer metric of ``BENCHMARK.json`` with that metric's unit."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    out = layers.measure(grid9)
    assert len(out) == 39
    for name, (value, unit) in out.items():
        assert units.get(name) == unit, name
        assert math.isfinite(value) and value >= 0.0, name


def test_verify_checks_are_the_battery_checks():
    """Every check the benchmark's verify-battery workload requires to pass
    is a check of the battery, in the battery's order, so renaming a check
    fails here instead of failing the benchmark's operations."""
    required = list(workloads.VERIFY_CHECKS)
    assert [name for name in CHECKS if name in required] == required
