import hashlib
import tracemalloc

import numpy as np
import pytest

from helpers import mc_reach_estimate, random_chain
from omegarl import (
    LabeledMdp,
    MarkovChain,
    MdpError,
    PositionalPolicy,
    UndefinedChoice,
    decompose,
    induce_chain,
    parse_mdp,
    reach_probability,
    serialize_mdp,
)
from omegarl.mdp import ENVIRONMENTS, ROW_SUM_TOL


def test_gridworld_structure(grid):
    assert grid.num_states == 9
    assert grid.initial == 7
    assert len(grid.enabled[4]) == 8
    assert all(len(grid.enabled[s]) == 4 for s in range(9) if s != 4)
    entered_with_c = {dst for (s, a, dst), letter in grid.label.items() if letter == {"c"}}
    assert entered_with_c == {2, 3, 5, 6}
    a_labels = [k for k, letter in grid.label.items() if letter == {"a"}]
    b_labels = [k for k, letter in grid.label.items() if letter == {"b"}]
    assert a_labels == [(4, "to_s0", 0)]
    assert b_labels == [(4, "to_s8", 8)]


def test_gridworld_every_c_entry_labeled(grid):
    for (s, a), row in grid.prob.items():
        for dst, _ in row:
            expected = frozenset({"c"}) if dst in (2, 3, 5, 6) else None
            if expected:
                assert grid.label_of(s, a, dst) == expected


def test_gridworld_dynamics_examples(grid):
    assert dict(grid.prob[(4, "to_s0")]) == {0: 0.9, 4: 0.1}
    assert dict(grid.prob[(0, "right")]) == {1: 0.9, 0: 0.1}
    assert dict(grid.prob[(0, "left")]) == {0: 0.9, 1: 0.1}
    assert dict(grid.prob[(7, "up")]) == {4: 0.9, 7: 0.1}
    assert dict(grid.prob[(8, "down")]) == {8: 0.9, 5: 0.1}


def test_gridworld_rows_are_stochastic(grid):
    for (s, a) in grid.prob:
        assert abs(sum(p for _, p in grid.prob[(s, a)]) - 1.0) <= ROW_SUM_TOL


def test_induce_chain_gridworld(grid):
    pi = PositionalPolicy({s: ("up" if s != 4 else "to_s0") for s in range(9)})
    chain = induce_chain(grid, pi)
    assert dict(chain.prob[7]) == {4: 0.9, 7: 0.1}
    # corridor exits to s0, whose up-slips drift down the left column
    assert set(chain.states) == {0, 3, 4, 6, 7}
    assert chain.initial == 7


def test_induce_chain_deterministic_mdp_is_functional():
    m = LabeledMdp(
        num_states=3,
        initial=0,
        ap=frozenset(),
        enabled=(("go",), ("go",), ("go",)),
        prob={(0, "go"): ((1, 1.0),), (1, "go"): ((2, 1.0),), (2, "go"): ((0, 1.0),)},
        label={},
    )
    chain = induce_chain(m, PositionalPolicy({0: "go", 1: "go", 2: "go"}))
    assert all(len(chain.prob[s]) == 1 for s in chain.states)


def test_induce_chain_undefined_choice(grid):
    pi = PositionalPolicy({7: "up"})  # s4 reachable but unspecified
    with pytest.raises(UndefinedChoice):
        induce_chain(grid, pi)


def test_induce_chain_rejects_disabled_action(grid):
    pi = PositionalPolicy({s: "to_s0" for s in range(9)})
    with pytest.raises(MdpError, match="disabled"):
        induce_chain(grid, pi)


def test_decompose_absorbing_pair():
    mc = MarkovChain(states=(0, 1), prob={0: ((1, 1.0),), 1: ((1, 1.0),)}, initial=0)
    dec = decompose(mc)
    assert dec.transient == frozenset({0})
    assert dec.recurrent_classes == (frozenset({1}),)


def test_decompose_irreducible_cycle():
    mc = MarkovChain(
        states=(0, 1, 2),
        prob={0: ((1, 1.0),), 1: ((2, 1.0),), 2: ((0, 1.0),)},
        initial=0,
    )
    dec = decompose(mc)
    assert dec.transient == frozenset()
    assert dec.recurrent_classes == (frozenset({0, 1, 2}),)


def test_decompose_classes_closed_and_strongly_connected():
    rng = np.random.default_rng(31)
    for _ in range(20):
        mc = random_chain(rng)
        dec = decompose(mc)
        covered = set(dec.transient)
        for members in dec.recurrent_classes:
            covered |= members
            for s in members:
                assert sum(p for d, p in mc.prob[s] if d in members) == pytest.approx(1.0, abs=1e-12)
            # strong connectivity: every member reaches every other inside the class
            for start in members:
                seen = {start}
                stack = [start]
                while stack:
                    v = stack.pop()
                    for d, _ in mc.prob[v]:
                        if d in members and d not in seen:
                            seen.add(d)
                            stack.append(d)
                assert seen == members
        assert covered == set(mc.states)


def test_reach_probability_trivial_targets():
    mc = MarkovChain(
        states=(0, 1, 2),
        prob={0: ((1, 0.5), (2, 0.5)), 1: ((1, 1.0),), 2: ((2, 1.0),)},
        initial=0,
    )
    everything = reach_probability(mc, {0, 1, 2})
    assert all(v == 1.0 for v in everything.values())
    split = reach_probability(mc, {1})
    assert split[0] == pytest.approx(0.5, abs=1e-12)
    assert split[1] == 1.0 and split[2] == 0.0


def test_reach_probability_requires_target():
    mc = MarkovChain(states=(0,), prob={0: ((0, 1.0),)}, initial=0)
    with pytest.raises(MdpError):
        reach_probability(mc, set())


def test_reach_probability_matches_simulation():
    rng = np.random.default_rng(32)
    for _ in range(3):
        mc = random_chain(rng)
        target = set(rng.choice(20, size=2, replace=False).tolist())
        exact = reach_probability(mc, target)[mc.initial]
        runs = 4000
        estimate = mc_reach_estimate(mc, target, runs=runs, max_steps=10_000, rng=rng)
        se = np.sqrt(max(exact * (1 - exact), 0.0) / runs)
        assert abs(estimate - exact) <= 3 * se + 1e-12


def test_reach_probability_monotone_in_target():
    rng = np.random.default_rng(33)
    for _ in range(10):
        mc = random_chain(rng)
        small = set(rng.choice(20, size=2, replace=False).tolist())
        large = small | set(rng.choice(20, size=3, replace=False).tolist())
        p_small = reach_probability(mc, small)
        p_large = reach_probability(mc, large)
        for s in mc.states:
            assert p_large[s] >= p_small[s] - 1e-12


def test_mdp_file_round_trip(grid):
    text = serialize_mdp(grid)
    again = parse_mdp(text)
    assert again == grid
    assert serialize_mdp(again) == text


def test_grid9_canonical_text_is_pinned():
    """An edit to the file's comments must leave the grid it defines as it is."""
    text = serialize_mdp(ENVIRONMENTS["grid9"]())
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "4d0eddfa72cc888545cae4fb640ce98b001d88cf7a408cdcd3cd53eb79d7b005"


def test_parse_mdp_rejects_label_on_zero_probability():
    text = (
        "states: 2\ninitial: 0\nap: a\n"
        "prob 0 go 1 1.0\nprob 1 go 1 1.0\nlabel 1 go 0 {a}\n"
    )
    with pytest.raises(MdpError, match="zero-probability"):
        parse_mdp(text)


def test_parse_mdp_rejects_bad_row_sum():
    text = "states: 2\ninitial: 0\nap: a\nprob 0 go 1 0.5\nprob 1 go 1 1.0\n"
    with pytest.raises(MdpError, match="sum"):
        parse_mdp(text)


GOOD_MDP = "states: 2\ninitial: 0\nap: a\nprob 0 go 1 1.0\nprob 1 go 1 1.0\nlabel 0 go 1 {a}\n"


@pytest.mark.parametrize(
    "old,new,match",
    [
        ("states: 2", "states: two", "line 1: bad state count 'two'"),
        ("initial: 0", "initial: x", "line 2: bad initial state 'x'"),
        ("prob 0 go 1 1.0", "prob s0 go 1 1.0", "line 4: bad state id 's0'"),
        ("prob 0 go 1 1.0", "prob 0 go 1 x", "line 4: bad probability 'x'"),
        ("label 0 go 1", "label 0 go one", "line 6: bad state id 'one'"),
        ("initial: 0\n", "initial: 0\nstates: 3\n", "line 3: duplicate header 'states'"),
        ("prob 0 go 1 1.0", "prob 5 go 1 1.0", "line 4: prob line references undeclared state 5"),
        ("initial: 0", "initial: 3", "line 2: initial state 3 out of range"),
        ("states: 2", "states: 0", "line 1: an MDP needs at least one state"),
        ("states: 2", "states: 5", "line 1: 5 states declared, but state 2 has no prob line"),
        ("prob 0 go 1 1.0", "prob 0 go 7 1.0", "line 4: prob line targets undeclared state 7"),
        ("label 0 go 1", "label 0 go 0",
         r"line 6: label on zero-probability triple \(0, 'go', 0\)"),
        ("{a}", "{z}", r"line 6: label \['z'\] uses undeclared propositions"),
    ],
    ids=["states", "initial", "prob-state", "prob-probability", "label-state", "duplicate-header",
         "prob-undeclared-state", "initial-range", "no-states", "states-without-rows",
         "prob-undeclared-target", "label-zero-probability", "label-undeclared-proposition"],
)
def test_parse_mdp_malformed_lines_raise_line_numbered_errors(old, new, match):
    assert parse_mdp(GOOD_MDP).num_states == 2
    with pytest.raises(MdpError, match=match):
        parse_mdp(GOOD_MDP.replace(old, new, 1))


def test_parse_mdp_checks_the_state_count_before_allocating():
    """A mistyped state count is an error, not a table of that many rows."""
    text = GOOD_MDP.replace("states: 2", "states: 1000000")
    tracemalloc.start()
    try:
        with pytest.raises(MdpError, match="line 1: 1000000 states declared"):
            parse_mdp(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_parse_mdp_rejects_nan_probability():
    with pytest.raises(MdpError, match="sum"):
        parse_mdp(GOOD_MDP.replace("prob 0 go 1 1.0", "prob 0 go 1 nan"))
