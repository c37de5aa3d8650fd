"""Self-check battery wiring the independent oracles against each other.

A :class:`Battery` holds what the checks run on: the automaton and the MDP
under test, the bounds of the lasso words, and the automata and products
derived from them, each built on first use and then shared.  Every check
is a function of one battery that returns ``(passed, detail)``, and
:data:`CHECKS` names the checks in the order in which :func:`run_battery`
runs and times them.  To add a check, write one such function and give it
a :data:`CHECKS` entry.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import or_

from .augment import augment
from .automata import TGba, degeneralize, lasso_acceptor, named_fixture
from .graphs import end_components
from .ltl import CycleTable, LassoWord, formula_evaluator, parse_ltl
from .mdp import ENVIRONMENTS, ROW_SUM_TOL, LabeledMdp
from .product import ProductMdp, check_positional_impossibility, method_product

SPEC_FORMULA = "G F a & G F b & G !c"


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
    :data:`SPEC_FORMULA`), the MDP (by default the nine-room grid) and the
    bounds of :func:`all_lassos`; bounds that admit nothing raise
    ``ValueError``.  Each product is the one ``train`` runs for its method
    (the raw one is frontier's).  ``augmented`` is the unmerged
    augmentation; the merged one is the augmented product's automaton."""

    automaton: TGba = field(default_factory=lambda: named_fixture("gfa_gfb_gnc"))
    grid: LabeledMdp = field(default_factory=lambda: ENVIRONMENTS["grid9"]())
    max_prefix: int = 2
    max_cycle: int = 3

    def __post_init__(self):
        for name, least in (("max_prefix", 0), ("max_cycle", 1)):
            if (value := getattr(self, name)) < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")

    @cached_property
    def base_verdicts(self) -> tuple[list, list, CycleTable, list[int]]:
        """The prefixes and the cycles of the bounded lasso words, as
        :func:`lasso_parts` lists them, the cycles' one table that every
        lasso oracle reads, and per prefix the automaton's verdicts as a
        bitset over the cycles (:func:`lasso_acceptor`)."""
        prefixes, cycles = lasso_parts(sorted(self.automaton.ap), self.max_prefix, self.max_cycle)
        table = CycleTable(cycles)
        accepts = lasso_acceptor(self.automaton, table)
        return prefixes, cycles, table, [accepts(prefix) for prefix in prefixes]

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

    The cycles' table and the automaton's verdicts are built once per
    battery, for all three lasso checks (:attr:`Battery.base_verdicts`).
    Each candidate's oracle, its :func:`lasso_acceptor` or
    :func:`formula_evaluator`, is built once per check from that table in
    one bit-sliced pass over all the cycles, and answers a
    prefix with one bitset over them: one XOR per candidate and prefix.  A
    failure names the word of the first disagreement in :func:`all_lassos`
    order: the first prefix with any, then the lowest cycle bit over all
    candidates, the earlier candidate on a tie.
    """
    prefixes, cycles, table, verdicts = battery.base_verdicts
    acceptors = [(lasso_acceptor(oracle, table) if isinstance(oracle, TGba)
                  else formula_evaluator(oracle, table), disagreement)
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


def check_recurrence_dichotomy(battery: Battery) -> tuple[bool, str]:
    """On the augmented product every recurrent class of every positional
    policy must cover all accepting sets or none of them.

    For each set ``j``, keep the pairs whose transitions all avoid ``j``
    and compute their maximal end components (``graphs.end_components``).
    No component may hold a pair with an accepting transition.  That
    decides the claim for every positional policy (Baier & Katoen,
    *Principles of Model Checking*, §10.6.3):

    - A class that covers set ``k`` but not ``j`` is closed and strongly
      connected under its chosen pairs, none of which meets ``j``: an end
      component of the pairs that avoid ``j``, inside a maximal one that
      holds its set-``k`` pair.
    - Conversely, given such a component and set-``k`` pair, a positional
      policy can follow a shortest path from state 0, which reaches every
      product state, into the component, then move toward the pair's state
      inside it and take the pair there.  Closed under that policy, the
      component holds a recurrent class, and every class inside it holds
      that state: the class covers ``k`` and not ``j``.

    Sets and components are walked in ascending order, a component by its
    lowest state, so a failure names the first: the set it misses, its
    coverage and its lowest state.
    """
    p = battery.augmented_product
    n_sets = p.automaton.n_sets
    for j in range(n_sets):
        allowed = [[q for q in range(lo, hi) if not any(mask >> j & 1 for mask in p.masks[q])]
                   for lo, hi in zip(p.first, p.first[1:])]
        for states, pairs in end_components(allowed, p.succ):
            covered = reduce(or_, (mask for q in pairs for mask in p.masks[q]), 0)
            if covered:
                return False, (f"{len(states)}-state end component at {p.name_of(states[0])} "
                               f"covers {covered.bit_count()}/{n_sets} sets but not set {j + 1}")
    return True, f"every end component covers all {n_sets} sets or none"


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
    nine-room grid, each timed; ``quick`` lowers the word bounds to 1 and
    2.  What several checks share, the augmentation, the augmented and raw
    products and :attr:`Battery.base_verdicts`, is built before the first
    check, outside every check's ``seconds``; the degeneralized product,
    which only stochasticity reads, inside its own."""
    battery = Battery(max_prefix=1, max_cycle=2) if quick else Battery()
    for shared in ("augmented", "augmented_product", "raw_product", "base_verdicts"):
        getattr(battery, shared)  # built here, outside the checks' clocks
    results = []
    for name, check in CHECKS.items():
        start = time.monotonic()
        passed, detail = check(battery)
        results.append(CheckResult(name, passed, detail, time.monotonic() - start))
    return results
