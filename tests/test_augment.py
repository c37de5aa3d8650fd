import itertools

import numpy as np
import pytest

from helpers import letters_over, random_lasso, random_tgba, split_augmented
from omegarl import (
    EPSILON,
    CycleTable,
    TGba,
    Transition,
    accepts_lasso,
    augment,
    check_limit_deterministic,
    degeneralize,
    lasso,
    lasso_acceptor,
    merge_unaccepting,
)
from omegarl.automata import letter_key
from omegarl.verify import lasso_parts
from test_automata import canonical_form

A = frozenset({"a"})
B = frozenset({"b"})
AB = frozenset({"a", "b"})


def augmented_walks(b, seed: int, walks: int = 100, steps: int = 30):
    """Seeded random walks on ``augment(b)``.  Returns the augmentation and
    the walks, each a list of steps ``(raw transition, augmented transition,
    memory before, memory after)``; the memories and the raw transition are
    read from the ``base@bits`` state names."""
    aug = augment(b)
    index = {b.name_of(x): x for x in b.states()}
    ap_sorted = tuple(sorted(b.ap))
    out = [[] for _ in aug.states()]
    for t in sorted(aug.masks, key=lambda t: (t.src, letter_key(t.letter, ap_sorted), t.dst)):
        out[t.src].append(t)
    rng = np.random.default_rng(seed)
    result = []
    for _ in range(walks):
        x, walk = aug.initial, []
        for _ in range(steps):
            if not out[x]:
                break
            t = out[x][rng.integers(len(out[x]))]
            base, before = split_augmented(aug.names[t.src])
            base_dst, after = split_augmented(aug.names[t.dst])
            walk.append((Transition(index[base], t.letter, index[base_dst]), t, before, after))
            x = t.dst
        result.append(walk)
    return aug, result


def walked_automata(fig_automaton, eps_automaton):
    """The fixtures plus seeded random automata with three accepting sets."""
    rng = np.random.default_rng(22)
    return [fig_automaton, eps_automaton] + [random_tgba(rng, n_sets=3) for _ in range(4)]


def step(aug, src: str, letter) -> str:
    """Name of the successor of the augmented state named ``src`` on ``letter``."""
    (dst,) = [
        t.dst for t in aug.masks if aug.names[t.src] == src and t.letter == letter
    ]
    return aug.names[dst]


def test_visitf_on_fixture_transitions(fig_automaton, eps_automaton):
    """The paper's visit vector visitf(e) is the transition's mask, bit j
    for accepting set j + 1; epsilon moves visit no set."""
    masks = fig_automaton.masks
    assert masks[Transition(0, AB, 0)] == 0b11
    assert masks[Transition(0, A, 0)] == 0b01
    assert masks[Transition(0, B, 0)] == 0b10
    assert masks[Transition(0, frozenset(), 0)] == 0
    assert masks[Transition(1, AB, 1)] == 0
    assert eps_automaton.masks[Transition(0, EPSILON, 1)] == 0
    assert eps_automaton.masks[Transition(1, A, 1)] == 1


def test_reset(fig_automaton):
    """A memory that would become all ones resets to all zeros; any other
    memory is kept."""
    aug = augment(fig_automaton)
    assert step(aug, "x0@10", B) == "x0@00"
    assert step(aug, "x0@01", A) == "x0@00"
    assert step(aug, "x0@00", AB) == "x0@00"
    assert step(aug, "x0@10", A) == "x0@10"
    assert step(aug, "x0@00", frozenset()) == "x0@00"


def test_vec_max(fig_automaton):
    """Short of a reset, the memory is the bitwise maximum of the memory
    before and the visit vector; the trap keeps its memory."""
    aug = augment(fig_automaton)
    assert step(aug, "x0@00", A) == "x0@10"
    assert step(aug, "x0@00", B) == "x0@01"
    assert step(aug, "x0@01", B) == "x0@01"
    assert step(aug, "x0@10", frozenset({"c"})) == "x1@10"
    assert step(aug, "x1@01", AB) == "x1@01"


def test_augment_fixture_reachable_states(fig_automaton):
    aug = augment(fig_automaton)
    assert aug.num_states == 6
    assert set(aug.names) == {
        "x0@00", "x0@10", "x0@01", "x1@00", "x1@10", "x1@01",
    }
    # the all-ones memory resets within the transition, so it never appears
    assert all(split_augmented(name)[1] != (1, 1) for name in aug.names)


def test_augment_memory_update_and_acceptance(fig_automaton):
    aug = augment(fig_automaton)
    idx = {aug.names[i]: i for i in range(aug.num_states)}
    t = Transition(idx["x0@10"], B, idx["x0@00"])
    assert t in aug.masks
    assert t in aug.acceptance[1]  # second memory bit was still 0
    assert t not in aug.acceptance[0]
    # with the first bit already recorded, the a-loop is no longer accepting
    t_a = Transition(idx["x0@10"], A, idx["x0@10"])
    assert t_a in aug.masks
    assert t_a not in aug.acceptance[0]


def test_augment_single_set_isomorphic(eps_automaton):
    assert canonical_form(augment(eps_automaton)) == canonical_form(eps_automaton)


def test_augment_epsilon_copies_memory(eps_automaton):
    aug = augment(eps_automaton)
    eps_edges = [t for t in aug.masks if t.letter is EPSILON]
    assert eps_edges
    for t in eps_edges:
        assert split_augmented(aug.names[t.src])[1] == split_augmented(aug.names[t.dst])[1]


def test_merge_fixture_collapses_trap(fig_automaton):
    merged = merge_unaccepting(augment(fig_automaton))
    assert merged.num_states == 4
    assert set(merged.names) == {"x0@00", "x0@10", "x0@01", "x1@*"}


def test_merge_without_dead_states_is_identity():
    letters = letters_over(("a",))
    trans = frozenset(Transition(0, letter, 0) for letter in letters)
    b = TGba(1, 0, frozenset({"a"}), dict.fromkeys(trans, 1), 1)
    aug = augment(b)
    assert merge_unaccepting(aug) is aug


def test_merge_requires_augmented_names(fig_automaton):
    with pytest.raises(ValueError, match="base"):
        merge_unaccepting(fig_automaton)


def test_language_preserved_small_sweep(fig_automaton):
    aug = augment(fig_automaton)
    merged = merge_unaccepting(aug)
    letters = letters_over(("a", "b", "c"))
    for prefix_len in (0, 1):
        for prefix in itertools.product(letters, repeat=prefix_len):
            for cycle_len in (1, 2):
                for cycle in itertools.product(letters, repeat=cycle_len):
                    w = lasso(prefix, cycle)
                    expect = accepts_lasso(fig_automaton, w)
                    assert accepts_lasso(aug, w) == expect
                    assert accepts_lasso(merged, w) == expect


def test_language_preserved_epsilon_fixture(eps_automaton):
    aug = augment(eps_automaton)
    merged = merge_unaccepting(aug)
    rng = np.random.default_rng(21)
    for _ in range(200):
        w = random_lasso(rng, max_prefix=2, max_cycle=3, ap=("a",))
        expect = accepts_lasso(eps_automaton, w)
        assert accepts_lasso(aug, w) == expect
        assert accepts_lasso(merged, w) == expect


def test_language_preserved_on_random_automata():
    """Seeded random automata with one to three accepting sets and epsilon
    edges: the augmentation, the merged augmentation, the degeneralization
    and the augmented degeneralization accept exactly the raw automaton's
    bounded lasso words."""
    rng = np.random.default_rng(24)
    prefixes, cycles = lasso_parts(("a", "b"), max_prefix=2, max_cycle=3)
    for k in range(12):
        b = random_tgba(rng, n_sets=1 + k % 3)
        expect = lasso_acceptor(b, CycleTable(cycles))
        transforms = {
            "augment": augment(b),
            "merge.augment": merge_unaccepting(augment(b)),
            "degeneralize": degeneralize(b),
            "augment.degeneralize": augment(degeneralize(b)),
        }
        acceptors = {name: lasso_acceptor(c, CycleTable(cycles)) for name, c in transforms.items()}
        for prefix in prefixes:
            verdicts = expect(prefix)
            for name, accepts in acceptors.items():
                assert accepts(prefix) == verdicts, (k, name, prefix)


def test_memory_update_algebra(fig_automaton, eps_automaton):
    """Along seeded walks of the augmentation, each step's memory is the
    update ``reset(max(v, visitf(e)))`` of the memory ``v`` before it:
    ``visitf(e)`` marks the accepting sets that hold the raw transition
    ``e`` and ``reset`` zeroes an all-ones vector.  The step is accepting
    for set j exactly when ``e`` is in set j and bit j of ``v`` is 0."""
    for seed, b in enumerate(walked_automata(fig_automaton, eps_automaton)):
        aug, walks = augmented_walks(b, seed)
        acceptance, aug_acceptance = b.acceptance, aug.acceptance
        for walk in walks:
            for e, t, v, after in walk:
                assert e in b.masks
                visit = tuple(int(e in acc) for acc in acceptance)
                combined = tuple(max(p, q) for p, q in zip(v, visit))
                assert after == ((0,) * len(v) if all(combined) else combined)
                accepting = tuple(int(t in acc) for acc in aug_acceptance)
                assert accepting == tuple(q * (1 - p) for p, q in zip(v, visit))


def test_memory_monotone_between_resets_and_records_visits(fig_automaton, eps_automaton):
    """Along seeded walks of the augmentation, between resets the memory
    never loses a bit, and bit j is set exactly when an accepting-set-j
    transition occurred since the reset."""
    for seed, b in enumerate(walked_automata(fig_automaton, eps_automaton)):
        acceptance = b.acceptance
        n = len(acceptance)
        _, walks = augmented_walks(b, 100 + seed)
        for walk in walks:
            seen = [False] * n
            for e, _, v, after in walk:
                for j, acc in enumerate(acceptance):
                    seen[j] = seen[j] or e in acc
                if all(seen):
                    seen = [False] * n
                    assert after == (0,) * n
                else:
                    assert all(q >= p for p, q in zip(v, after))
                    assert list(map(bool, after)) == seen


def test_augment_preserves_limit_determinism(fig_automaton, eps_automaton):
    for b in (fig_automaton, eps_automaton):
        check_limit_deterministic(b)
        check_limit_deterministic(augment(b))
        check_limit_deterministic(merge_unaccepting(augment(b)))


def test_state_count_bound(fig_automaton, eps_automaton):
    for b in (fig_automaton, eps_automaton):
        n = len(b.acceptance)
        assert augment(b).num_states <= b.num_states * 2 ** n
    assert augment(fig_automaton).num_states == 6
    assert merge_unaccepting(augment(fig_automaton)).num_states == 4
