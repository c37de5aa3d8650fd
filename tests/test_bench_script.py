"""The summaries that ``scripts/bench.py`` writes into a BENCH file."""

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
