"""The verify battery's own machinery: the random policies that
recurrence-dichotomy tests, and that the check can fail."""

import numpy as np
import pytest

from omegarl import verify


def scalar_rows(enabled, n_policies, seed):
    """One scalar draw per state, policy by policy; a single action draws nothing."""
    rng = np.random.default_rng(seed)
    return [[acts[rng.integers(len(acts))] for acts in enabled] for _ in range(n_policies)]


def row_draws(enabled, n_policies, seed):
    """One broadcast draw per policy, as recurrence-dichotomy draws them."""
    lens = np.array([len(acts) for acts in enabled])
    rng = np.random.default_rng(seed)
    rows = [rng.integers(0, lens).tolist() for _ in range(n_policies)]
    return [[acts[i] for acts, i in zip(enabled, row)] for row in rows]


@pytest.mark.parametrize("n_policies", [100, 1000])
def test_row_draws_match_scalar_stream(augmented_product, n_policies):
    """If numpy's broadcast path ever draws differently, recurrence-dichotomy
    would silently test other policies; this fails instead."""
    enabled = augmented_product.mdp.enabled
    assert {len(acts) for acts in enabled} == {4, 8}
    assert row_draws(enabled, n_policies, 2024) == scalar_rows(enabled, n_policies, 2024)


def test_row_draws_match_scalar_stream_on_random_counts():
    """Counts of 1, for which the scalar loop draws nothing, included."""
    rng = np.random.default_rng(3)
    for seed in range(30):
        counts = rng.integers(1, 7, size=rng.integers(1, 40))
        counts[rng.integers(len(counts))] = 1
        enabled = [tuple(range(c)) for c in counts]
        assert row_draws(enabled, 50, seed) == scalar_rows(enabled, 50, seed)


def test_recurrence_dichotomy_fails_without_augmentation(monkeypatch):
    """On the raw product some recurrent class covers one of the two sets;
    the first such policy pins the sequence of policies drawn."""
    monkeypatch.setattr(verify, "augment", lambda b: b)
    monkeypatch.setattr(verify, "merge_unaccepting", lambda b: b)
    for result in (verify.check_recurrence_dichotomy(), verify.check_recurrence_dichotomy(100)):
        assert result.passed is False
        assert result.detail == "policy 28 has a class covering 1/2 sets"
