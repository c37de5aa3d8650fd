"""Self-check battery wiring the independent oracles against each other.

Each check returns a named pass/fail result so the command line can print a
machine-readable summary.  Checks accept optional automaton and grid
overrides, which keep failures attributable when an input is corrupted, and
optional overrides of the automata and products they derive, which the
battery builds once and shares.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .augment import augment, merge_unaccepting
from .automata import TGba, degeneralize, lasso_acceptor, named_fixture
from .graphs import close_rows, pack_rows, unpack_rows
from .learn import _generator_array, draw_indices
from .ltl import LassoWord, formula_evaluator, parse_ltl
from .mdp import ENVIRONMENTS, ROW_SUM_TOL, LabeledMdp
from .product import ProductMdp, build_product, check_positional_impossibility

SPEC_FORMULA = "G F a & G F b & G !c"
POLICY_BLOCK = 256  # policies per recurrence-dichotomy pass: bounds its arrays


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


def _augmented_product(product: ProductMdp | None, base: TGba, grid: LabeledMdp) -> ProductMdp:
    """The given augmented product, or the product of ``grid`` with the
    merged augmentation of ``base``."""
    if product is None:
        product = build_product(grid, merge_unaccepting(augment(base)))
    return product


def _raw_product(product: ProductMdp | None, base: TGba, grid: LabeledMdp) -> ProductMdp:
    """The given raw product, or the product of ``grid`` with ``base``."""
    return product if product is not None else build_product(grid, base)


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
    check over the whole list of cycles, in one array pass for an
    acceptor, and answers a prefix with one bitset over them.  So each
    prefix costs one XOR per candidate.  A failure names the word of the
    first disagreement in :func:`all_lassos` order: the first prefix with
    any, then the lowest cycle bit over all candidates, the earlier
    candidate on a tie.  Bounds that admit no word raise ``ValueError``.
    """
    if max_prefix < 0:
        raise ValueError(f"max_prefix must be at least 0, got {max_prefix}")
    if max_cycle < 1:
        raise ValueError(f"max_cycle must be at least 1, got {max_cycle}")

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
    automaton: TGba | None = None, max_prefix: int = 2, max_cycle: int = 3,
    augmented: TGba | None = None, merged: TGba | None = None,
) -> CheckResult:
    """Raw automaton, its augmentation, and the merged augmentation must
    agree on every bounded lasso word.  ``augmented`` and ``merged``, when
    given, stand for ``augment(automaton)`` and its merge."""

    def candidates(b, cycles):
        aug = augmented if augmented is not None else augment(b)
        return [
            _automaton("augmented", aug, cycles),
            _automaton("merged", merged if merged is not None else merge_unaccepting(aug), cycles),
        ]

    return _lasso_agreement("language-preservation", automaton, max_prefix, max_cycle, candidates)


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


def policy_classes(p: ProductMdp, chosen) -> tuple[np.ndarray, np.ndarray]:
    """The recurrent classes of many positional policies, one per row of
    ``chosen`` (pair ids).  Returns, in arrays of its shape, whether each
    state is reached from state 0 and recurrent, and, along one more axis,
    which accepting sets the chosen pairs meet over all the state reaches:
    for a recurrent state, its class's coverage.  Reachability rows are
    bitsets over the states and then the sets, closed by Warshall's
    algorithm.  A state is recurrent when all it reaches reaches it back.
    """
    n, n_sets = p.num_states, p.automaton.n_sets
    pair = np.repeat(np.arange(len(p.succ)), [len(row) for row in p.succ])
    transition, j = np.nonzero(np.concatenate(p.masks)[:, None] >> np.arange(n_sets) & 1)
    edges = np.zeros((len(p.succ), n + n_sets), dtype=bool)
    edges[pair, np.concatenate(p.succ)] = True
    edges[pair[transition], n + j] = True  # a pair meeting set j leads to column n + j
    reach = pack_rows(edges)[chosen] | pack_rows(np.eye(n, n + n_sets, dtype=bool))
    reach = unpack_rows(close_rows(reach), n + n_sets)
    states = reach[..., :n]
    escapes = (states > states.transpose(0, 2, 1)) @ np.ones(n, dtype=bool)
    recurrent = states[:, 0] & ~escapes
    return recurrent, reach[..., n:]


def check_recurrence_dichotomy(
    n_policies: int = 1000, seed: int = 2024, automaton: TGba | None = None,
    grid: LabeledMdp | None = None, augmented_product: ProductMdp | None = None,
) -> CheckResult:
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
    policy with a violating class and in it the class of the lowest state.
    The check adds about 0.4 MB to the battery's peak memory: a block's
    draws peak at 0.14 MB and its classes at 0.32 MB.
    """
    if n_policies < 1:
        raise ValueError(f"n_policies must be at least 1, got {n_policies}")

    def run():
        product = _augmented_product(augmented_product, _base(automaton), _grid(grid))
        first = np.array(product.first, dtype=np.int32)
        n_sets = product.automaton.n_sets
        counts, rng = np.diff(first), _generator_array(seed)
        for start in range(0, n_policies, POLICY_BLOCK):
            rows = np.tile(counts, (min(POLICY_BLOCK, n_policies - start), 1))
            recurrent, covered = policy_classes(product, draw_indices(rng, rows) + first[:-1])
            hits = covered.sum(-1)
            trial, state = np.nonzero(recurrent & (hits != 0) & (hits != n_sets))
            if len(trial):
                return False, (
                    f"policy {start + trial[0]} has a class covering "
                    f"{hits[trial[0], state[0]]}/{n_sets} sets"
                )
        return True, f"{n_policies} random positional policies, no violations"

    return _timed("recurrence-dichotomy", run)


def check_stochasticity(
    automaton: TGba | None = None, grid: LabeledMdp | None = None,
    augmented_product: ProductMdp | None = None, raw_product: ProductMdp | None = None,
) -> CheckResult:
    """Row sums of the grid's ``prob`` rows, and of each product's ``probs``
    rows that training samples, must equal one to 1e-12."""

    def run():
        base = _base(automaton)
        m = _grid(grid)

        def rows(p):
            return zip(p.keys, p.probs)

        models = {
            "grid9": ((key, [p for _, p in row]) for key, row in m.prob.items()),
            "augmented-product": rows(_augmented_product(augmented_product, base, m)),
            "degeneralized-product": rows(build_product(m, augment(degeneralize(base)))),
            "raw-product": rows(_raw_product(raw_product, base, m)),
        }
        worst = 0.0
        for name, model in models.items():
            for (s, a), ps in model:
                err = abs(sum(ps) - 1.0)
                worst = max(worst, err)
                if err > ROW_SUM_TOL:
                    return False, f"{name} row ({s}, {a}) off by {err}"
        return True, f"max row-sum error {worst:.2e}"

    return _timed("stochasticity", run)


def check_impossibility_certificate(
    automaton: TGba | None = None, grid: LabeledMdp | None = None,
    augmented_product: ProductMdp | None = None, raw_product: ProductMdp | None = None,
) -> CheckResult:
    """The raw product must certify positional impossibility; the augmented
    product must not."""

    def run():
        base = _base(automaton)
        m = _grid(grid)
        raw = _raw_product(raw_product, base, m)
        aug = _augmented_product(augmented_product, base, m)
        if not check_positional_impossibility(raw):
            return False, "raw product lacks the impossibility certificate"
        if check_positional_impossibility(aug):
            return False, "augmented product unexpectedly certifies impossibility"
        return True, "raw product impossible, augmented product possible"

    return _timed("impossibility-certificate", run)


def run_battery(quick: bool = False, automaton: TGba | None = None) -> list[CheckResult]:
    """Every check on ``automaton`` (the packaged one by default) and the
    nine-room grid.  The inputs that several checks share are built once,
    before the first check, so no check's ``seconds`` includes them."""
    max_prefix, max_cycle = (1, 2) if quick else (2, 3)
    n_policies = 100 if quick else 1000
    base, grid = _base(automaton), ENVIRONMENTS["grid9"]()
    augmented = augment(base)
    merged = merge_unaccepting(augmented)
    product, raw = build_product(grid, merged), build_product(grid, base)
    return [
        check_language_preservation(base, max_prefix, max_cycle, augmented, merged),
        check_formula_agreement(base, max_prefix, max_cycle),
        check_degeneralization(base, max_prefix, max_cycle),
        check_recurrence_dichotomy(n_policies, automaton=base, grid=grid,
                                   augmented_product=product),
        check_stochasticity(base, grid, product, raw),
        check_impossibility_certificate(base, grid, product, raw),
    ]
