"""Tests of the scaled-short instance generator.

Run from the repository root: PYTHONPATH=src python -m pytest perfbench
"""

import pytest

from omegarl.automata import parse_automaton, serialize_automaton
from omegarl.cli import METHODS, method_product_and_scheme
from omegarl.mdp import parse_mdp, serialize_mdp

import instances
from workloads import SCALED_GRID


@pytest.mark.parametrize("seed", range(6))
def test_text_parses_round_trips_and_builds_every_product(seed):
    inst = instances.generate(seed, **SCALED_GRID)
    m = parse_mdp(inst.mdp_text())
    b = parse_automaton(inst.tgba_text())
    assert serialize_mdp(m) == inst.mdp_text()
    assert parse_mdp(serialize_mdp(m)) == m
    assert parse_automaton(serialize_automaton(b)) == b
    for method in METHODS:
        product, _ = method_product_and_scheme(m, b, method, 2.0)
        assert product.num_states > 1


def test_same_seed_gives_same_text():
    a, b = instances.generate(7, **SCALED_GRID), instances.generate(7, **SCALED_GRID)
    assert (a.mdp_text(), a.tgba_text()) == (b.mdp_text(), b.tgba_text())


def test_labels_mark_goal_and_unsafe_entries():
    inst = instances.generate(0, **SCALED_GRID)
    m = parse_mdp(inst.mdp_text())
    b = parse_automaton(inst.tgba_text())
    assert len(b.acceptance) == inst.k
    for (_, _, dst), letter in m.label.items():
        if dst in inst.unsafe:
            assert letter == {"c"}
        else:
            assert letter == {f"a{inst.goals.index(dst) + 1}"}


def test_satisfiable_accepts_open_grid_and_rejects_walled_goal():
    open_grid = instances.Instance(n=3, initial=4, goals=(0, 8), unsafe=frozenset(), rejected=0)
    assert instances.satisfiable(open_grid)
    # corner goal 0 is entered only from cells 1 and 3, both unsafe
    walled = instances.Instance(n=3, initial=8, goals=(0,), unsafe=frozenset({1, 3}), rejected=0)
    assert not instances.satisfiable(walled)
    # every move out of the centre goal 4 enters, or may slip into, unsafe 1 or 3
    slippery = instances.Instance(
        n=3, initial=8, goals=(4,), unsafe=frozenset({1, 3}), rejected=0
    )
    assert not instances.satisfiable(slippery)


def test_generate_rejects_overfull_grid():
    with pytest.raises(ValueError):
        instances.generate(0, n=2, k=2, n_unsafe=2)
