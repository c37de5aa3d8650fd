"""The verify battery's own machinery: the random policies that
recurrence-dichotomy tests, the order of the bounded lasso words, the word
each lasso check names when it fails, and that the checks can fail."""

import numpy as np
import pytest

from helpers import enum_accepts, reference_lasso_agreement
from omegarl import (
    LassoWord,
    TGba,
    Transition,
    augment,
    merge_unaccepting,
    named_fixture,
    parse_ltl,
    verify,
)


def scalar_rows(enabled, n_policies, seed):
    """One scalar draw per state, policy by policy; a single action draws nothing."""
    rng = np.random.default_rng(seed)
    return [[acts[rng.integers(len(acts))] for acts in enabled] for _ in range(n_policies)]


def row_draws(enabled, n_policies, seed):
    """One broadcast draw per policy."""
    lens = np.array([len(acts) for acts in enabled])
    rng = np.random.default_rng(seed)
    rows = [rng.integers(0, lens).tolist() for _ in range(n_policies)]
    return [[acts[i] for acts, i in zip(enabled, row)] for row in rows]


def block_draws(enabled, n_policies, seed):
    """Every policy in one int32 draw, as recurrence-dichotomy draws them."""
    lens = np.array([len(acts) for acts in enabled])
    rows = np.random.default_rng(seed).integers(
        0, lens, size=(n_policies, len(enabled)), dtype=np.int32
    )
    return [[acts[i] for acts, i in zip(enabled, row)] for row in rows.tolist()]


@pytest.mark.parametrize("n_policies", [100, 1000])
def test_row_draws_match_scalar_stream(augmented_product, n_policies):
    """If numpy's broadcast or block path ever draws differently,
    recurrence-dichotomy would silently test other policies; this fails
    instead."""
    enabled = augmented_product.mdp.enabled
    assert {len(acts) for acts in enabled} == {4, 8}
    scalar = scalar_rows(enabled, n_policies, 2024)
    assert row_draws(enabled, n_policies, 2024) == scalar
    assert block_draws(enabled, n_policies, 2024) == scalar


def test_row_draws_match_scalar_stream_on_random_counts():
    """Counts of 1, for which the scalar loop draws nothing, included, and
    a single policy as well as many."""
    rng = np.random.default_rng(3)
    for seed in range(30):
        counts = rng.integers(1, 7, size=rng.integers(1, 40))
        counts[rng.integers(len(counts))] = 1
        enabled = [tuple(range(c)) for c in counts]
        for n_policies in (1, 50):
            scalar = scalar_rows(enabled, n_policies, seed)
            assert row_draws(enabled, n_policies, seed) == scalar
            assert block_draws(enabled, n_policies, seed) == scalar


def test_recurrence_dichotomy_fails_without_augmentation(monkeypatch):
    """On the raw product some recurrent class covers one of the two sets;
    the first such policy pins the sequence of policies drawn."""
    monkeypatch.setattr(verify, "augment", lambda b: b)
    monkeypatch.setattr(verify, "merge_unaccepting", lambda b: b)
    for result in (verify.check_recurrence_dichotomy(), verify.check_recurrence_dichotomy(100)):
        assert result.passed is False
        assert result.detail == "policy 28 has a class covering 1/2 sets"


def test_all_lassos_lists_each_prefix_against_every_cycle():
    for ap, max_prefix, max_cycle in ((("a", "b", "c"), 2, 3), (("a",), 3, 2), (("a", "b"), 0, 1)):
        prefixes, cycles = verify.lasso_parts(ap, max_prefix, max_cycle)
        words = [LassoWord(x, y) for x in prefixes for y in cycles]
        assert list(verify.all_lassos(ap, max_prefix, max_cycle)) == words
    prefixes, cycles = verify.lasso_parts()
    assert (len(prefixes), len(cycles)) == (73, 584)


# --- the lasso checks against the word-by-word reference ----------------------

AB = frozenset(("a", "b"))

# each check's candidates as the battery builds them, read through the module
# so that a monkeypatched transform reaches the reference too
CANDIDATES = {
    "language-preservation": lambda b: [
        (verify.augment(b), "augmented automaton disagrees"),
        (verify.merge_unaccepting(verify.augment(b)), "merged automaton disagrees"),
    ],
    "formula-agreement": lambda b: [
        (parse_ltl(verify.SPEC_FORMULA), "automaton and formula disagree"),
    ],
    "degeneralization": lambda b: [
        (verify.degeneralize(b), "degeneralized automaton disagrees"),
    ],
}
CHECKS = {
    "language-preservation": verify.check_language_preservation,
    "formula-agreement": verify.check_formula_agreement,
    "degeneralization": verify.check_degeneralization,
}


def with_acceptance(b, acceptance, transitions=None):
    return TGba(
        num_states=b.num_states,
        initial=b.initial,
        ap=b.ap,
        transitions=b.transitions if transitions is None else transitions,
        acceptance=acceptance,
        names=b.names,
    )


def emptied(b):
    """The second accepting set emptied: no word is accepted."""
    return with_acceptance(b, (b.acceptance[0], frozenset()))


def escaped(b):
    """The trap's {a,b} self-loop redirected to x0, so a run can leave the
    trap; telling it from the formula needs a prefix."""
    moved = (b.transitions - {Transition(1, AB, 1)}) | {Transition(1, AB, 0)}
    return with_acceptance(b, b.acceptance, moved)


def saturated(b):
    """Every transition in every accepting set: the trap makes every word
    accepted."""
    return with_acceptance(b, (b.transitions,) * len(b.acceptance))


def check_and_reference(name, base):
    result = CHECKS[name](base, max_prefix=1, max_cycle=2)
    assert result.name == name
    reference = reference_lasso_agreement(base, CANDIDATES[name](base), 1, 2)
    return (result.passed, result.detail), reference


@pytest.mark.parametrize("corrupt", [lambda b: b, emptied, escaped],
                         ids=["fixture", "emptied-set", "escaped-trap"])
@pytest.mark.parametrize("name", list(CHECKS))
def test_lasso_check_matches_word_by_word_reference(name, corrupt):
    got, reference = check_and_reference(name, corrupt(named_fixture("gfa_gfb_gnc")))
    assert got == reference


def test_lasso_check_names_the_earlier_of_two_candidates_on_one_word(monkeypatch):
    """Both candidates accept nothing, so both first disagree on the first
    word the fixture accepts; the augmented automaton is named."""
    good = named_fixture("gfa_gfb_gnc")
    monkeypatch.setattr(verify, "augment", lambda b: augment(emptied(b)))
    got, reference = check_and_reference("language-preservation", good)
    witness = LassoWord((), (AB,))
    assert got == reference == (False, f"augmented automaton disagrees on {witness}")
    assert not enum_accepts(merge_unaccepting(augment(emptied(good))), witness)


def test_lasso_check_names_the_lowest_cycle_of_one_prefix(monkeypatch):
    """On the empty prefix the augmented candidate first disagrees on the
    cycle (a,b) and the merged one, which accepts every word, on the lower
    cycle (); the merged one is named."""
    good = named_fixture("gfa_gfb_gnc")
    monkeypatch.setattr(verify, "augment", lambda b: augment(emptied(b)))
    monkeypatch.setattr(verify, "merge_unaccepting", lambda aug: augment(saturated(good)))
    got, reference = check_and_reference("language-preservation", good)
    witness = LassoWord((), (frozenset(),))
    assert got == reference == (False, f"merged automaton disagrees on {witness}")
    cycles = verify.lasso_parts(("a", "b", "c"), 1, 2)[1]
    assert cycles.index(witness.cycle) < cycles.index((AB,))
    aug = augment(emptied(good))
    assert enum_accepts(aug, witness) == enum_accepts(good, witness)
    assert enum_accepts(aug, LassoWord((), (AB,))) != enum_accepts(good, LassoWord((), (AB,)))


def test_battery_parses_the_grid_once(monkeypatch):
    loads = []
    load = verify.ENVIRONMENTS["grid9"]
    monkeypatch.setitem(verify.ENVIRONMENTS, "grid9", lambda: loads.append(1) or load())
    assert all(result.passed for result in verify.run_battery(quick=True))
    assert len(loads) == 1
