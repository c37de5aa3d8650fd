"""Self-check battery wiring the independent oracles against each other.

A :class:`Battery` holds what the checks run on: the automaton and the MDP
under test, the bounds of the lasso words, the number and seed of the
random policies, and the automata and products derived from them, each
built on first use and then shared.  Every check is a function of one
battery that returns ``(passed, detail)``, and :data:`CHECKS` names the
checks in the order in which :func:`run_battery` runs and times them.  To
add a check, write one such function and give it a :data:`CHECKS` entry.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import and_, or_

import numpy as np

from .augment import augment
from .automata import TGba, degeneralize, lasso_acceptor, named_fixture
from .graphs import close_rows
from .learn import _generator_array, draw_indices
from .ltl import LassoWord, formula_evaluator, parse_ltl
from .mdp import ENVIRONMENTS, ROW_SUM_TOL, LabeledMdp
from .product import ProductMdp, check_positional_impossibility, method_product

SPEC_FORMULA = "G F a & G F b & G !c"
# policies per recurrence-dichotomy pass, which bounds its arrays: on the battery's
# 112-pair, 24-state augmented product a pass of 1024 peaks at 0.58 MB (tracemalloc):
# 115 kB of choices, two 98 kB int32 draws and 24 x 26 reachability ints of 164 B
POLICY_BLOCK = 1024


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def lasso_parts(ap=("a", "b", "c"), max_prefix: int = 2, max_cycle: int = 3):
    """The prefixes and the cycles of the bounded lasso words over 2^ap, as
    two lists: every prefix of at most ``max_prefix`` letters and every
    cycle of 1 to ``max_cycle`` letters, shorter ones first, letters in
    subset order.  This order fixes the order of :func:`all_lassos` and
    which word a failing lasso check names."""
    letters = [
        frozenset(s)
        for r in range(len(ap) + 1)
        for s in itertools.combinations(sorted(ap), r)
    ]
    prefixes = [p for n in range(max_prefix + 1) for p in itertools.product(letters, repeat=n)]
    cycles = [c for n in range(1, max_cycle + 1) for c in itertools.product(letters, repeat=n)]
    return prefixes, cycles


def all_lassos(ap=("a", "b", "c"), max_prefix: int = 2, max_cycle: int = 3):
    """Every lasso word with bounded prefix/cycle lengths over 2^ap, prefix
    by prefix and, within a prefix, cycle by cycle, in the order of
    :func:`lasso_parts`; generated lazily."""
    prefixes, cycles = lasso_parts(ap, max_prefix, max_cycle)
    for prefix in prefixes:
        for cycle in cycles:
            yield LassoWord(prefix, cycle)


@dataclass(frozen=True)
class Battery:
    """The automaton under test (by default the packaged one for
    :data:`SPEC_FORMULA`), the MDP (by default the nine-room grid), the
    bounds of :func:`all_lassos` and the number and seed of the random
    policies; bounds that admit nothing raise ``ValueError``.  Each product
    is the one ``train`` runs for its method (the raw one is frontier's).
    ``augmented`` is the unmerged augmentation; the merged one is the
    augmented product's automaton."""

    automaton: TGba = field(default_factory=lambda: named_fixture("gfa_gfb_gnc"))
    grid: LabeledMdp = field(default_factory=lambda: ENVIRONMENTS["grid9"]())
    max_prefix: int = 2
    max_cycle: int = 3
    n_policies: int = 1000
    seed: int = 2024

    def __post_init__(self):
        for name, least in (("max_prefix", 0), ("max_cycle", 1), ("n_policies", 1)):
            if (value := getattr(self, name)) < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")

    @cached_property
    def base_verdicts(self) -> tuple[list, list, list[int]]:
        """The prefixes and the cycles of the bounded lasso words, as
        :func:`lasso_parts` lists them, and per prefix the automaton's
        verdicts as a bitset over the cycles (:func:`lasso_acceptor`)."""
        prefixes, cycles = lasso_parts(sorted(self.automaton.ap), self.max_prefix, self.max_cycle)
        accepts = lasso_acceptor(self.automaton, cycles)
        return prefixes, cycles, [accepts(prefix) for prefix in prefixes]

    @cached_property
    def augmented(self) -> TGba:
        return augment(self.automaton)

    @cached_property
    def augmented_product(self) -> ProductMdp:
        return method_product(self.grid, self.automaton, "augmented")

    @cached_property
    def degeneralized_product(self) -> ProductMdp:
        return method_product(self.grid, self.automaton, "degeneralized")

    @cached_property
    def raw_product(self) -> ProductMdp:
        return method_product(self.grid, self.automaton, "frontier")


def _lasso_agreement(battery: Battery, candidates) -> tuple[bool, str]:
    """Every candidate, an automaton or a formula paired with the phrase
    that reports its disagreement, must give the battery automaton's
    verdict on every bounded lasso word.

    The automaton's verdicts are decided once per battery, for all three
    lasso checks (:attr:`Battery.base_verdicts`).  Each candidate's oracle,
    its :func:`lasso_acceptor` or :func:`formula_evaluator`, is built once
    per check in one bit-sliced pass over all the cycles, and answers a
    prefix with one bitset over them: one XOR per candidate and prefix.  A
    failure names the word of the first disagreement in :func:`all_lassos`
    order: the first prefix with any, then the lowest cycle bit over all
    candidates, the earlier candidate on a tie.
    """
    prefixes, cycles, verdicts = battery.base_verdicts
    acceptors = [(lasso_acceptor(oracle, cycles) if isinstance(oracle, TGba)
                  else formula_evaluator(oracle, cycles), disagreement)
                 for oracle, disagreement in candidates]
    for prefix, expect in zip(prefixes, verdicts):
        first_bit, phrase = 0, None
        for accepts, disagreement in acceptors:
            diff = accepts(prefix) ^ expect
            bit = diff & -diff  # the lowest cycle this candidate disagrees on
            if bit and (not first_bit or bit < first_bit):
                first_bit, phrase = bit, disagreement
        if first_bit:
            w = LassoWord(prefix, cycles[first_bit.bit_length() - 1])
            return False, f"{phrase} on {w}"
    return True, f"{len(prefixes) * len(cycles)} lasso words agree"


def check_language_preservation(battery: Battery) -> tuple[bool, str]:
    """Raw automaton, its augmentation, and the merged augmentation must
    agree on every bounded lasso word."""
    return _lasso_agreement(battery, [
        (battery.augmented, "augmented automaton disagrees"),
        (battery.augmented_product.automaton, "merged automaton disagrees"),
    ])


def check_formula_agreement(battery: Battery) -> tuple[bool, str]:
    """The automaton must agree with direct evaluation of :data:`SPEC_FORMULA`."""
    return _lasso_agreement(
        battery, [(parse_ltl(SPEC_FORMULA), "automaton and formula disagree")]
    )


def check_degeneralization(battery: Battery) -> tuple[bool, str]:
    """Collapsing to a single accepting set must preserve the language."""
    return _lasso_agreement(
        battery, [(degeneralize(battery.automaton), "degeneralized automaton disagrees")]
    )


def policy_classes(p: ProductMdp, chosen) -> tuple[list[int], list[list[int]]]:
    """The recurrent classes of many positional policies, one per row of
    ``chosen`` (pair ids), as ints whose bit ``k`` speaks of policy ``k``.
    Returns, per state, the policies under which it is reached from state 0
    and recurrent, and, per state and accepting set, those under which the
    chosen pairs meet the set somewhere the state reaches: for a recurrent
    state, its class's coverage.  Reachability rows, a column per state and
    then per set, are closed by :func:`~omegarl.graphs.close_rows`.  A state
    is recurrent when all it reaches reaches it back.
    """
    n, n_sets = p.num_states, p.automaton.n_sets
    chooses = np.zeros((len(p.succ), len(chosen)), dtype=bool)
    chooses[chosen, np.arange(len(chosen))[:, None]] = True
    picks = [int.from_bytes(row.tobytes(), "little")  # per pair, the policies that choose it
             for row in np.packbits(chooses, axis=1, bitorder="little")]
    reach = [[0] * (n + n_sets) for _ in range(n)]
    for x, row in enumerate(reach):
        row[x] = (1 << len(chosen)) - 1
        for pair in range(p.first[x], p.first[x + 1]):
            for y, mask in zip(p.succ[pair], p.masks[pair]):
                row[y] |= picks[pair]
                for j in range(n_sets):  # a pair meeting set j leads to column n + j
                    row[n + j] |= picks[pair] * (mask >> j & 1)
    close_rows(reach)
    recurrent = [reach[0][x] & ~reduce(or_, (row[y] & ~back[x] for y, back in enumerate(reach)))
                 for x, row in enumerate(reach)]
    return recurrent, [row[n:] for row in reach]


def check_recurrence_dichotomy(battery: Battery) -> tuple[bool, str]:
    """On the augmented product every recurrent class must intersect all
    accepting sets or none of them.

    Each policy is a row of indices below the states' action counts, drawn
    :data:`POLICY_BLOCK` rows at a time by the kernel's PCG64 seeded as
    ``default_rng(seed)`` (:func:`~omegarl.learn.draw_indices`).  Row after
    row, they are the stream of numpy's int32 ``default_rng(seed).integers(
    0, counts, size=(n_policies, n_states))`` and of one scalar
    ``rng.integers(len(acts))`` per state, where a state with a single
    action draws nothing; ``tests/test_verify.py`` pins that.
    :func:`policy_classes` classifies each block; a failure names the first
    policy with a violating class, the lowest bit set among the states'
    violating policies, and in it the class of the lowest state.
    """
    product, n_policies = battery.augmented_product, battery.n_policies
    first = np.array(product.first, dtype=np.int32)
    n_sets = product.automaton.n_sets
    counts, rng = np.diff(first), _generator_array(battery.seed)
    for start in range(0, n_policies, POLICY_BLOCK):
        rows = np.tile(counts, (min(POLICY_BLOCK, n_policies - start), 1))
        recurrent, covered = policy_classes(product, draw_indices(rng, rows) + first[:-1])
        violating = [rec & reduce(or_, sets) & ~reduce(and_, sets)
                     for rec, sets in zip(recurrent, covered)]
        if bad := reduce(or_, violating):
            k = (bad & -bad).bit_length() - 1
            state = next(x for x, policies in enumerate(violating) if policies >> k & 1)
            hits = sum(policies >> k & 1 for policies in covered[state])
            return False, f"policy {start + k} has a class covering {hits}/{n_sets} sets"
    return True, f"{n_policies} random positional policies, no violations"


def check_stochasticity(battery: Battery) -> tuple[bool, str]:
    """Row sums of the grid's ``prob`` rows, and of each product's ``probs``
    rows that training samples, must equal one to 1e-12."""

    def rows(p):
        return zip(p.keys, p.probs)

    models = {
        "grid9": ((key, [p for _, p in row]) for key, row in battery.grid.prob.items()),
        "augmented-product": rows(battery.augmented_product),
        "degeneralized-product": rows(battery.degeneralized_product),
        "raw-product": rows(battery.raw_product),
    }
    worst = 0.0
    for name, model in models.items():
        for (s, a), ps in model:
            err = abs(sum(ps) - 1.0)
            worst = max(worst, err)
            if err > ROW_SUM_TOL:
                return False, f"{name} row ({s}, {a}) off by {err}"
    return True, f"max row-sum error {worst:.2e}"


def check_impossibility_certificate(battery: Battery) -> tuple[bool, str]:
    """The raw product must certify positional impossibility; the augmented
    product must not."""
    if not check_positional_impossibility(battery.raw_product):
        return False, "raw product lacks the impossibility certificate"
    if check_positional_impossibility(battery.augmented_product):
        return False, "augmented product unexpectedly certifies impossibility"
    return True, "raw product impossible, augmented product possible"


CHECKS = {
    "language-preservation": check_language_preservation,
    "formula-agreement": check_formula_agreement,
    "degeneralization": check_degeneralization,
    "recurrence-dichotomy": check_recurrence_dichotomy,
    "stochasticity": check_stochasticity,
    "impossibility-certificate": check_impossibility_certificate,
}


def run_battery(quick: bool = False) -> list[CheckResult]:
    """Every check of :data:`CHECKS` on the packaged automaton and the
    nine-room grid, each timed; ``quick`` lowers the word bounds to 1 and 2
    and the policies to 100.  What several checks share, the augmentation,
    the augmented and raw products and :attr:`Battery.base_verdicts`, is
    built before the first check, outside every check's ``seconds``; the
    degeneralized product, which only stochasticity reads, inside its own."""
    battery = Battery(max_prefix=1, max_cycle=2, n_policies=100) if quick else Battery()
    for shared in ("augmented", "augmented_product", "raw_product", "base_verdicts"):
        getattr(battery, shared)  # built here, outside the checks' clocks
    results = []
    for name, check in CHECKS.items():
        start = time.monotonic()
        passed, detail = check(battery)
        results.append(CheckResult(name, passed, detail, time.monotonic() - start))
    return results
