"""The summaries that ``scripts/bench.py`` writes into a BENCH file."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

import bench  # noqa: E402


@pytest.mark.parametrize("episodes,expected", [
    ([3, None, 1], 3),
    ([1, 2, 3, None], 2.5),
    ([1, 2, None, None], None),
    ([None, None, 1], None),
    ([None], None),
    ([7], 7),
])
def test_censored_median_counts_a_missed_session_as_latest(episodes, expected):
    assert bench.censored_median(episodes) == expected


def test_spread_gives_median_and_quartiles():
    assert bench.spread([4.0, 1.0, 3.0, 2.0, 5.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0, "n": 5}
    assert bench.spread([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1}


def test_checkouts_take_turns_in_each_workload(monkeypatch, tmp_path):
    """With two checkouts, each workload's perfbench runs alternate A B, B A,
    ..., and each checkout's figures come from its own runs."""
    calls = []

    def run(args, cwd, **kwargs):
        calls.append((cwd.name, args[args.index("--workload") + 1]))
        value = {"a": 1.0, "b": 2.0}[cwd.name]
        doc = {"run_s_samples": [value], "setup_s_samples": [value]}
        result = {"attempted": 3, "failed": 0, "metrics": {"run_s": {"value": value}}}
        return subprocess.CompletedProcess(args, 0, stdout=f"{json.dumps(doc)}\n{json.dumps(result)}\n")

    monkeypatch.setattr(bench.subprocess, "run", run)
    checkouts = [tmp_path / "a", tmp_path / "b"]
    figures = bench.measure_workloads(checkouts, ["w1", "w2"])
    rounds = [c for r in range(bench.RUNS) for c in ("ab" if r % 2 == 0 else "ba")]
    assert calls == [(c, w) for w in ("w1", "w2") for c in rounds]
    for name, doc in zip("ab", figures):
        assert list(doc) == ["w1", "w2"]
        assert doc["w1"]["metrics"]["run_s"]["median"] == {"a": 1.0, "b": 2.0}[name]
        assert doc["w1"]["operations"] == {"attempted": 3 * bench.RUNS, "failed": 0}


def test_later_checkouts_record_each_rounds_ratio_to_the_first(monkeypatch, tmp_path):
    """Checkout "b" reads (r + 1) / 4 times checkout "a"'s figure in round r:
    its BENCH figures hold the ten ratios in round order, their median and
    the three rounds in which it read lower; "a" gets no ratios."""
    rounds = {"a": 0, "b": 0}

    def run(args, cwd, **kwargs):
        r = rounds[cwd.name]
        rounds[cwd.name] += 1
        value = 2.0 * ((r + 1) / 4 if cwd.name == "b" else 1.0)
        doc = {"run_s_samples": [value], "setup_s_samples": [value]}
        metrics = {"run_s": {"value": value}, "peak_rss_mb": {"value": 30.0}}
        result = {"attempted": 3, "failed": 0, "metrics": metrics}
        return subprocess.CompletedProcess(args, 0, stdout=f"{json.dumps(doc)}\n{json.dumps(result)}\n")

    monkeypatch.setattr(bench.subprocess, "run", run)
    a, b = bench.measure_workloads([tmp_path / "a", tmp_path / "b"], ["w1"])
    assert bench.RUNS == 10
    assert "ratio_to_first" not in a["w1"]
    ratio = b["w1"]["ratio_to_first"]
    assert ratio["run_s"] == {"per_round": [(r + 1) / 4 for r in range(10)], "median": 1.375,
                              "lower": 3, "rounds": 10}
    assert ratio["peak_rss_mb"] == {"per_round": [1.0] * 10, "median": 1.0, "lower": 0,
                                    "rounds": 10}
