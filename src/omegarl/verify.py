"""Self-check battery wiring the independent oracles against each other.

Each check returns a named pass/fail result so the command line can print a
machine-readable summary.  Checks accept optional automaton and grid
overrides, which keep failures attributable when an input is corrupted.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .augment import augment, merge_unaccepting
from .automata import TGba, degeneralize, lasso_acceptor, named_fixture
from .ltl import LassoWord, formula_evaluator, parse_ltl
from .mdp import ENVIRONMENTS, ROW_SUM_TOL, LabeledMdp
from .product import build_product, check_positional_impossibility, recurrent_classes

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


def _base(automaton: TGba | None) -> TGba:
    """The automaton under test: the given one, or the packaged automaton
    for :data:`SPEC_FORMULA`."""
    return automaton if automaton is not None else named_fixture("gfa_gfb_gnc")


def _grid(grid: LabeledMdp | None) -> LabeledMdp:
    """The MDP under test: the given one, or the packaged nine-room grid."""
    return grid if grid is not None else ENVIRONMENTS["grid9"]()


def _timed(name: str, run) -> CheckResult:
    start = time.monotonic()
    passed, detail = run()
    return CheckResult(name, passed, detail, time.monotonic() - start)


def _lasso_agreement(name, automaton, max_prefix, max_cycle, acceptors) -> CheckResult:
    """Every oracle in ``acceptors(base, cycles)`` must give the base
    automaton's verdict on every bounded lasso word; each oracle comes with
    the phrase that reports its disagreement.

    Every oracle, the base automaton's :func:`lasso_acceptor` and each
    candidate's acceptor or :func:`formula_evaluator`, is built once per
    check over the whole list of cycles, and answers a prefix with one
    bitset over them.  So each prefix costs one XOR per candidate.  A
    failure names the word of the first disagreement in :func:`all_lassos`
    order: the first prefix with any, then the lowest cycle bit over all
    candidates, the earlier candidate on a tie.
    """

    def run():
        base = _base(automaton)
        prefixes, cycles = lasso_parts(sorted(base.ap), max_prefix, max_cycle)
        base_accepts = lasso_acceptor(base, cycles)
        candidates = acceptors(base, cycles)
        for prefix in prefixes:
            expect = base_accepts(prefix)
            first_bit, phrase = 0, None
            for accepts, disagreement in candidates:
                diff = accepts(prefix) ^ expect
                bit = diff & -diff  # the lowest cycle this candidate disagrees on
                if bit and (not first_bit or bit < first_bit):
                    first_bit, phrase = bit, disagreement
            if first_bit:
                w = LassoWord(prefix, cycles[first_bit.bit_length() - 1])
                return False, f"{phrase} on {w}"
        return True, f"{len(prefixes) * len(cycles)} lasso words agree"

    return _timed(name, run)


def _automaton(kind: str, b: TGba, cycles):
    return lasso_acceptor(b, cycles), f"{kind} automaton disagrees"


def check_language_preservation(
    automaton: TGba | None = None, max_prefix: int = 2, max_cycle: int = 3
) -> CheckResult:
    """Raw automaton, its augmentation, and the merged augmentation must
    agree on every bounded lasso word."""
    return _lasso_agreement(
        "language-preservation", automaton, max_prefix, max_cycle,
        lambda b, cycles: [
            _automaton("augmented", augment(b), cycles),
            _automaton("merged", merge_unaccepting(augment(b)), cycles),
        ],
    )


def check_formula_agreement(
    automaton: TGba | None = None, max_prefix: int = 2, max_cycle: int = 3
) -> CheckResult:
    """The automaton fixture must agree with direct formula evaluation."""
    return _lasso_agreement(
        "formula-agreement", automaton, max_prefix, max_cycle,
        lambda b, cycles: [
            (formula_evaluator(parse_ltl(SPEC_FORMULA), cycles), "automaton and formula disagree"),
        ],
    )


def check_degeneralization(
    automaton: TGba | None = None, max_prefix: int = 2, max_cycle: int = 3
) -> CheckResult:
    """Collapsing to a single accepting set must preserve the language."""
    return _lasso_agreement(
        "degeneralization", automaton, max_prefix, max_cycle,
        lambda b, cycles: [_automaton("degeneralized", degeneralize(b), cycles)],
    )


def check_recurrence_dichotomy(
    n_policies: int = 1000, seed: int = 2024, automaton: TGba | None = None,
    grid: LabeledMdp | None = None,
) -> CheckResult:
    """On the augmented product every recurrent class must intersect all
    accepting sets or none of them.

    All policies are one ``(n_policies, n_states)`` int32 ``integers`` call
    over the states' action counts.  Row after row, it draws the same stream
    as one scalar ``rng.integers(len(acts))`` per state, where a state with
    a single action draws nothing; ``tests/test_verify.py`` pins that.  The
    int32 array, listed one row at a time, adds about 0.1 MB to the
    battery's peak memory; an int64 array listed whole added 0.5 MB.
    """

    def run():
        product = build_product(_grid(grid), merge_unaccepting(augment(_base(automaton))))
        first = np.array(product.first, dtype=np.int32)
        n_sets = len(product.automaton.acceptance)
        draws = np.random.default_rng(seed).integers(
            0, np.diff(first), size=(n_policies, product.num_states), dtype=np.int32
        )
        draws += first[:-1]
        for trial, row in enumerate(draws):
            for _, covered in recurrent_classes(product, row.tolist())[1]:
                hits = covered.bit_count()
                if hits not in (0, n_sets):
                    return False, (
                        f"policy {trial} has a class covering {hits}/{n_sets} sets"
                    )
        return True, f"{n_policies} random positional policies, no violations"

    return _timed("recurrence-dichotomy", run)


def check_stochasticity(
    automaton: TGba | None = None, grid: LabeledMdp | None = None
) -> CheckResult:
    """Row sums of every constructed model must equal one to 1e-12."""

    def run():
        base = _base(automaton)
        m = _grid(grid)
        models = {
            "grid9": m,
            "augmented-product": build_product(m, merge_unaccepting(augment(base))).mdp,
            "degeneralized-product": build_product(m, augment(degeneralize(base))).mdp,
            "raw-product": build_product(m, base).mdp,
        }
        worst = 0.0
        for name, model in models.items():
            for (s, a), row in model.prob.items():
                err = abs(sum(p for _, p in row) - 1.0)
                worst = max(worst, err)
                if err > ROW_SUM_TOL:
                    return False, f"{name} row ({s}, {a}) off by {err}"
        return True, f"max row-sum error {worst:.2e}"

    return _timed("stochasticity", run)


def check_impossibility_certificate(
    automaton: TGba | None = None, grid: LabeledMdp | None = None
) -> CheckResult:
    """The raw product must certify positional impossibility; the augmented
    product must not."""

    def run():
        base = _base(automaton)
        m = _grid(grid)
        raw = build_product(m, base)
        aug = build_product(m, merge_unaccepting(augment(base)))
        if not check_positional_impossibility(raw):
            return False, "raw product lacks the impossibility certificate"
        if check_positional_impossibility(aug):
            return False, "augmented product unexpectedly certifies impossibility"
        return True, "raw product impossible, augmented product possible"

    return _timed("impossibility-certificate", run)


def run_battery(quick: bool = False, automaton: TGba | None = None) -> list[CheckResult]:
    max_prefix, max_cycle = (1, 2) if quick else (2, 3)
    n_policies = 100 if quick else 1000
    base, grid = _base(automaton), ENVIRONMENTS["grid9"]()
    return [
        check_language_preservation(base, max_prefix, max_cycle),
        check_formula_agreement(base, max_prefix, max_cycle),
        check_degeneralization(base, max_prefix, max_cycle),
        check_recurrence_dichotomy(n_policies, automaton=base, grid=grid),
        check_stochasticity(base, grid),
        check_impossibility_certificate(base, grid),
    ]
