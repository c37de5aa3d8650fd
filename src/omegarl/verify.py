"""Self-check battery wiring the independent oracles against each other.

Each check returns a named pass/fail result so the command line can print a
machine-readable summary.  Checks accept an optional automaton override,
which keeps failures attributable when an input is corrupted.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .augment import augment, merge_unaccepting
from .automata import TGba, degeneralize, fixture_gfa_gfb_gnc, lasso_acceptor
from .ltl import LassoWord, formula_evaluator, parse_ltl
from .mdp import ROW_SUM_TOL, PositionalPolicy, build_gridworld
from .product import build_product, check_positional_impossibility, evaluate_policy

SPEC_FORMULA = "G F a & G F b & G !c"


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def all_lassos(ap=("a", "b", "c"), max_prefix: int = 2, max_cycle: int = 3):
    """Every lasso word with bounded prefix/cycle lengths over 2^ap,
    generated lazily: the 42,632 words of the default bounds take about
    6.5 MiB as a list, a sixth of ``omegarl verify``'s peak memory."""
    letters = [
        frozenset(s)
        for r in range(len(ap) + 1)
        for s in itertools.combinations(sorted(ap), r)
    ]
    for np_ in range(max_prefix + 1):
        for prefix in itertools.product(letters, repeat=np_):
            for nc in range(1, max_cycle + 1):
                for cycle in itertools.product(letters, repeat=nc):
                    yield LassoWord(prefix, cycle)


def _timed(name: str, run) -> CheckResult:
    start = time.monotonic()
    passed, detail = run()
    return CheckResult(name, passed, detail, time.monotonic() - start)


def _lasso_agreement(name, automaton, max_prefix, max_cycle, acceptors) -> CheckResult:
    """Every acceptor in ``acceptors(base)`` must give the base automaton's
    verdict on every bounded lasso word; each acceptor comes with the
    phrase that reports its disagreement.

    The oracles are built once per check: one :func:`lasso_acceptor` for
    the base automaton and each candidate automaton, one
    :func:`formula_evaluator` per formula.  An automaton acceptor decides
    each ``(state, cycle)`` once; a formula evaluator computes each cycle's
    entry values once and each ``(letter, values)`` step back through a
    prefix once.  So words that share a cycle, or a cycle and the end of a
    prefix, share that work; every word is still compared against every
    acceptor.
    """

    def run():
        base = automaton if automaton is not None else fixture_gfa_gfb_gnc()
        base_accepts = lasso_acceptor(base)
        candidates = acceptors(base)
        count = 0
        for w in all_lassos(sorted(base.ap), max_prefix, max_cycle):
            expect = base_accepts(w)
            for accepts, disagreement in candidates:
                if accepts(w) != expect:
                    return False, f"{disagreement} on {w}"
            count += 1
        return True, f"{count} lasso words agree"

    return _timed(name, run)


def _automaton(kind: str, b: TGba):
    return lasso_acceptor(b), f"{kind} automaton disagrees"


def check_language_preservation(
    automaton: TGba | None = None, max_prefix: int = 2, max_cycle: int = 3
) -> CheckResult:
    """Raw automaton, its augmentation, and the merged augmentation must
    agree on every bounded lasso word."""
    return _lasso_agreement("language-preservation", automaton, max_prefix, max_cycle, lambda b: [
        _automaton("augmented", augment(b)), _automaton("merged", merge_unaccepting(augment(b)))
    ])


def check_formula_agreement(
    automaton: TGba | None = None, max_prefix: int = 2, max_cycle: int = 3
) -> CheckResult:
    """The automaton fixture must agree with direct formula evaluation."""
    return _lasso_agreement("formula-agreement", automaton, max_prefix, max_cycle, lambda b: [
        (formula_evaluator(parse_ltl(SPEC_FORMULA)), "automaton and formula disagree")
    ])


def check_degeneralization(
    automaton: TGba | None = None, max_prefix: int = 2, max_cycle: int = 3
) -> CheckResult:
    """Collapsing to a single accepting set must preserve the language."""
    return _lasso_agreement("degeneralization", automaton, max_prefix, max_cycle, lambda b: [
        _automaton("degeneralized", degeneralize(b))
    ])


def check_recurrence_dichotomy(
    n_policies: int = 1000, seed: int = 2024, automaton: TGba | None = None
) -> CheckResult:
    """On the augmented product every recurrent class must intersect all
    accepting sets or none of them.

    Each policy is one broadcast ``integers`` call over the states' action
    counts.  Policy after policy, those calls draw the same stream as one
    scalar ``rng.integers(len(acts))`` per state, where a state with a
    single action draws nothing;
    ``tests/test_verify.py::test_row_draws_match_scalar_stream`` pins that,
    so the policies tested do not depend on how they are drawn.  A single
    ``(n_policies, n_states)`` draw is the same stream too, but that array
    and its list raised the battery's peak memory by about 0.5 MB.
    """

    def run():
        base = automaton if automaton is not None else fixture_gfa_gfb_gnc()
        product = build_product(build_gridworld(), merge_unaccepting(augment(base)))
        rng = np.random.default_rng(seed)
        enabled = product.mdp.enabled
        lens = np.array([len(acts) for acts in enabled])
        n_sets = len(product.automaton.acceptance)
        for trial in range(n_policies):
            row = rng.integers(0, lens).tolist()
            pi = PositionalPolicy({s: acts[i] for s, (acts, i) in enumerate(zip(enabled, row))})
            ev = evaluate_policy(product, pi)
            for c in ev.classes:
                hits = sum(c.coverage)
                if hits not in (0, n_sets):
                    return False, (
                        f"policy {trial} has a class covering {hits}/{n_sets} sets"
                    )
        return True, f"{n_policies} random positional policies, no violations"

    return _timed("recurrence-dichotomy", run)


def check_stochasticity(automaton: TGba | None = None) -> CheckResult:
    """Row sums of every constructed model must equal one to 1e-12."""

    def run():
        base = automaton if automaton is not None else fixture_gfa_gfb_gnc()
        grid = build_gridworld()
        models = {
            "grid9": grid,
            "augmented-product": build_product(grid, merge_unaccepting(augment(base))).mdp,
            "degeneralized-product": build_product(grid, augment(degeneralize(base))).mdp,
            "raw-product": build_product(grid, base).mdp,
        }
        worst = 0.0
        for name, m in models.items():
            for (s, a), row in m.prob.items():
                err = abs(sum(p for _, p in row) - 1.0)
                worst = max(worst, err)
                if err > ROW_SUM_TOL:
                    return False, f"{name} row ({s}, {a}) off by {err}"
        return True, f"max row-sum error {worst:.2e}"

    return _timed("stochasticity", run)


def check_impossibility_certificate(automaton: TGba | None = None) -> CheckResult:
    """The raw product must certify positional impossibility; the augmented
    product must not."""

    def run():
        base = automaton if automaton is not None else fixture_gfa_gfb_gnc()
        grid = build_gridworld()
        raw = build_product(grid, base)
        aug = build_product(grid, merge_unaccepting(augment(base)))
        if not check_positional_impossibility(raw):
            return False, "raw product lacks the impossibility certificate"
        if check_positional_impossibility(aug):
            return False, "augmented product unexpectedly certifies impossibility"
        return True, "raw product impossible, augmented product possible"

    return _timed("impossibility-certificate", run)


def run_battery(quick: bool = False, automaton: TGba | None = None) -> list[CheckResult]:
    max_prefix, max_cycle = (1, 2) if quick else (2, 3)
    n_policies = 100 if quick else 1000
    return [
        check_language_preservation(automaton, max_prefix, max_cycle),
        check_formula_agreement(automaton, max_prefix, max_cycle),
        check_degeneralization(automaton, max_prefix, max_cycle),
        check_recurrence_dichotomy(n_policies, automaton=automaton),
        check_stochasticity(automaton),
        check_impossibility_certificate(automaton),
    ]
