import pytest

from omegarl import (
    augment,
    build_product,
    degeneralize,
    merge_unaccepting,
    named_fixture,
)
from omegarl.mdp import ENVIRONMENTS


@pytest.fixture(scope="session")
def fig_automaton():
    return named_fixture("gfa_gfb_gnc")


@pytest.fixture(scope="session")
def eps_automaton():
    return named_fixture("fg_a")


@pytest.fixture(scope="session")
def grid():
    return ENVIRONMENTS["grid9"]()


@pytest.fixture(scope="session")
def augmented_product(grid, fig_automaton):
    return build_product(grid, merge_unaccepting(augment(fig_automaton)))


@pytest.fixture(scope="session")
def unmerged_product(grid, fig_automaton):
    return build_product(grid, augment(fig_automaton))


@pytest.fixture(scope="session")
def raw_product(grid, fig_automaton):
    return build_product(grid, fig_automaton)


@pytest.fixture(scope="session")
def degeneralized_product(grid, fig_automaton):
    return build_product(grid, augment(degeneralize(fig_automaton)))
