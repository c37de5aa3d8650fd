"""The verify battery's own machinery: recurrence-dichotomy against every
positional policy of small products and against broken augmentations, the
order of the bounded lasso words, the word each lasso check names when it
fails, that the checks can fail, and that they refuse bounds that admit
nothing."""

import dataclasses
import itertools
import math
from functools import reduce
from operator import or_

import networkx as nx
import pytest

from helpers import enum_accepts, random_dichotomy_instance, reference_lasso_agreement
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
from omegarl import product as product_module
from omegarl.cli import METHODS, method_product_and_scheme
from omegarl.graphs import explore
from omegarl.product import method_product


def patch_transforms(monkeypatch, **transforms):
    """Replace functions of the method recipe wherever the battery reads
    them: in the product module, whose recipe builds the battery's
    products, and ``augment`` also in verify, which augments for language
    preservation."""
    for name, fn in transforms.items():
        for module in (product_module, verify):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, fn)


def test_recurrence_dichotomy_fails_without_augmentation(monkeypatch):
    """On the raw product a policy can circle through the a-loops alone:
    the first end component without set 1 covers set 2."""
    patch_transforms(monkeypatch, augment=lambda b: b, merge_unaccepting=lambda b: b)
    assert verify.check_recurrence_dichotomy(verify.Battery()) == (
        False, "4-state end component at (s7|x0) covers 1/2 sets but not set 1"
    )


def dichotomy_on(product) -> tuple[bool, str]:
    """recurrence-dichotomy with ``product`` as the battery's augmented product."""
    battery = verify.Battery()
    vars(battery)["augmented_product"] = product  # where the cached property keeps it
    return verify.check_recurrence_dichotomy(battery)


def every_policy_dichotomy(product) -> bool:
    """Whether, under every positional policy, each recurrent class reached
    from state 0 covers all accepting sets or none: networkx's attracting
    components of the part of the policy's graph reached from state 0."""
    full = (1 << product.automaton.n_sets) - 1
    for chosen in itertools.product(*map(range, product.first, product.first[1:])):
        g = nx.DiGraph((s, dst) for s, pair in enumerate(chosen) for dst in product.succ[pair])
        reached = g.subgraph(nx.descendants(g, 0) | {0})
        for comp in nx.attracting_components(reached):
            covered = reduce(or_, (mask for s in comp for mask in product.masks[chosen[s]]))
            if covered not in (0, full):
                return False
    return True


def test_recurrence_dichotomy_matches_every_positional_policy():
    """On the augmented and raw products of seeded random MDPs, with the
    fixture and with random deterministic automata of two and three sets,
    the check passes exactly when no positional policy has a class that
    covers some sets but not all.  Products with more than 500 policies are
    skipped."""
    verdicts = {"augmented": [], "frontier": []}
    for seed in range(80):
        m, b = random_dichotomy_instance(seed)
        for method, got in verdicts.items():
            product = method_product(m, b, method)
            if math.prod(hi - lo for lo, hi in zip(product.first, product.first[1:])) <= 500:
                passed = every_policy_dichotomy(product)
                assert dichotomy_on(product)[0] == passed, (seed, method)
                got.append(passed)
    assert len(verdicts["augmented"]) >= 40 and all(verdicts["augmented"])
    assert len(verdicts["frontier"]) >= 40 and not all(verdicts["frontier"])
    assert any(verdicts["frontier"])


def augment_with(update, keep):
    """``augment`` with the memory update ``update(v, mask, full)`` and the
    transition masks ``keep(mask, v)`` in place of its own rules."""

    def augmented(b):
        n, full = b.n_sets, (1 << b.n_sets) - 1

        masks = {}

        def expand(node, number):
            x, v = node
            for t in itertools.chain.from_iterable(b.moves[x].values()):
                j = number((t.dst, update(v, b.masks[t], full)))
                masks[Transition(number(node), t.letter, j)] = keep(b.masks[t], v)

        order = explore((b.initial, 0), expand)
        names = tuple(f"{b.name_of(x)}@{''.join(str(v >> j & 1) for j in range(n))}"
                      for x, v in order)
        return TGba(len(order), 0, b.ap, masks, n, names)

    return augmented


def reset_when_full(v, mask, full):
    return 0 if v | mask == full else v | mask


# each mutant of augment, and whether it keeps the language
MUTANTS = {
    "mask-and-v": (augment_with(reset_when_full, lambda mask, v: mask & v), False),
    "unfiltered": (augment_with(reset_when_full, lambda mask, v: mask), True),
    "reset-on-any-visit": (augment_with(lambda v, mask, full: 0 if mask else v,
                                        lambda mask, v: mask & ~v), True),
}


def test_augment_with_its_own_rules_is_augment():
    fixture = named_fixture("gfa_gfb_gnc")
    assert augment_with(reset_when_full, lambda mask, v: mask & ~v)(fixture) == augment(fixture)


@pytest.mark.parametrize("mutant,keeps_language", MUTANTS.values(), ids=MUTANTS.keys())
def test_recurrence_dichotomy_catches_broken_augmentations(mutant, keeps_language, monkeypatch):
    """Each mutant lets some end component of the battery's product cover
    one set only; two of them keep the language, which language-preservation
    checks."""
    patch_transforms(monkeypatch, augment=mutant)
    battery = verify.Battery()
    passed, detail = verify.check_recurrence_dichotomy(battery)
    assert not passed and "covers 1/2 sets but not set" in detail
    assert verify.check_language_preservation(battery)[0] is keeps_language


def test_memory_that_never_resets_fails_only_language_preservation(monkeypatch):
    """Without a reset the memory fills up and no accepting transition is
    left in any end component, so the dichotomy holds vacuously."""
    patch_transforms(monkeypatch, augment=augment_with(lambda v, mask, full: v | mask,
                                                       lambda mask, v: mask & ~v))
    battery = verify.Battery()
    assert verify.check_recurrence_dichotomy(battery) == (
        True, "every end component covers all 2 sets or none"
    )
    assert not verify.check_language_preservation(battery)[0]


@pytest.mark.parametrize(
    "check,bounds,message",
    [
        (verify.check_language_preservation, {"max_cycle": 0},
         "max_cycle must be at least 1, got 0"),
        (verify.check_formula_agreement, {"max_cycle": -1},
         "max_cycle must be at least 1, got -1"),
        (verify.check_degeneralization, {"max_cycle": 0},
         "max_cycle must be at least 1, got 0"),
        (verify.check_language_preservation, {"max_prefix": -1},
         "max_prefix must be at least 0, got -1"),
    ],
    ids=["language-preservation", "formula-agreement", "degeneralization", "prefix"],
)
def test_checks_refuse_bounds_that_admit_nothing(check, bounds, message):
    """A bound under which a check would decide nothing and pass is an
    error, raised by the battery before the check can run on it."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        check(verify.Battery(**bounds))


def test_all_lassos_lists_each_prefix_against_every_cycle():
    for ap, max_prefix, max_cycle in ((("a", "b", "c"), 2, 3), (("a",), 3, 2), (("a", "b"), 0, 1)):
        prefixes, cycles = verify.lasso_parts(ap, max_prefix, max_cycle)
        words = [LassoWord(x, y) for x in prefixes for y in cycles]
        assert list(verify.all_lassos(ap, max_prefix, max_cycle)) == words
    prefixes, cycles = verify.lasso_parts()
    assert (len(prefixes), len(cycles)) == (73, 584)


# --- the lasso checks against the word-by-word reference ----------------------

AB = frozenset(("a", "b"))

# each check's candidates as the battery builds them, read through the modules
# so that a monkeypatched transform reaches the reference too
CANDIDATES = {
    "language-preservation": lambda b: [
        (verify.augment(b), "augmented automaton disagrees"),
        (product_module.merge_unaccepting(product_module.augment(b)),
         "merged automaton disagrees"),
    ],
    "formula-agreement": lambda b: [
        (parse_ltl(verify.SPEC_FORMULA), "automaton and formula disagree"),
    ],
    "degeneralization": lambda b: [
        (verify.degeneralize(b), "degeneralized automaton disagrees"),
    ],
}
LASSO_CHECKS = ("language-preservation", "formula-agreement", "degeneralization")


def with_masks(b, masks):
    return TGba(
        num_states=b.num_states,
        initial=b.initial,
        ap=b.ap,
        masks=masks,
        n_sets=b.n_sets,
        names=b.names,
    )


def emptied(b):
    """The second accepting set emptied: no word is accepted."""
    return with_masks(b, {t: mask & 1 for t, mask in b.masks.items()})


def escaped(b):
    """The trap's {a,b} self-loop redirected to x0, so a run can leave the
    trap; telling it from the formula needs a prefix."""
    kept = {t: mask for t, mask in b.masks.items() if t != Transition(1, AB, 1)}
    return with_masks(b, {**kept, Transition(1, AB, 0): 0})


def saturated(b):
    """Every transition in every accepting set: the trap makes every word
    accepted."""
    return with_masks(b, dict.fromkeys(b.masks, (1 << b.n_sets) - 1))


def check_and_reference(name, base):
    got = verify.CHECKS[name](verify.Battery(base, max_prefix=1, max_cycle=2))
    reference = reference_lasso_agreement(base, CANDIDATES[name](base), 1, 2)
    return got, reference


@pytest.mark.parametrize("corrupt", [lambda b: b, emptied, escaped],
                         ids=["fixture", "emptied-set", "escaped-trap"])
@pytest.mark.parametrize("name", LASSO_CHECKS)
def test_lasso_check_matches_word_by_word_reference(name, corrupt):
    got, reference = check_and_reference(name, corrupt(named_fixture("gfa_gfb_gnc")))
    assert got == reference


def test_lasso_check_names_the_earlier_of_two_candidates_on_one_word(monkeypatch):
    """Both candidates accept nothing, so both first disagree on the first
    word the fixture accepts; the augmented automaton is named."""
    good = named_fixture("gfa_gfb_gnc")
    patch_transforms(monkeypatch, augment=lambda b: augment(emptied(b)))
    got, reference = check_and_reference("language-preservation", good)
    witness = LassoWord((), (AB,))
    assert got == reference == (False, f"augmented automaton disagrees on {witness}")
    assert not enum_accepts(merge_unaccepting(augment(emptied(good))), witness)


def test_lasso_check_names_the_lowest_cycle_of_one_prefix(monkeypatch):
    """On the empty prefix the augmented candidate first disagrees on the
    cycle (a,b) and the merged one, which accepts every word, on the lower
    cycle (); the merged one is named."""
    good = named_fixture("gfa_gfb_gnc")
    patch_transforms(monkeypatch, augment=lambda b: augment(emptied(b)),
                     merge_unaccepting=lambda aug: augment(saturated(good)))
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


def test_battery_builds_each_shared_input_once(monkeypatch):
    """The augmentation and the raw and augmented products serve four checks
    but are built once; stochasticity's degeneralized product adds a
    product and an augmentation.  The augmented product's recipe augments
    on its own, so the battery augments three times and merges once."""
    calls = []
    for name in ("augment", "merge_unaccepting", "build_product"):
        real = getattr(product_module, name)
        patch_transforms(monkeypatch, **{
            name: lambda *a, name=name, real=real: calls.append(name) or real(*a)
        })
    assert all(result.passed for result in verify.run_battery(quick=True))
    assert sorted(calls) == ["augment"] * 3 + ["build_product"] * 3 + ["merge_unaccepting"]


def test_lasso_checks_share_the_automatons_verdicts(monkeypatch):
    """The battery automaton's acceptor is built once for the three lasso
    checks, each candidate's once in its own check, all from one table of
    the cycles, and the checks' details count the words the shared
    verdicts cover."""
    built, real = [], verify.lasso_acceptor
    monkeypatch.setattr(verify, "lasso_acceptor",
                        lambda b, cycles: built.append(b) or real(b, cycles))
    tables, table = [], verify.CycleTable
    monkeypatch.setattr(verify, "CycleTable", lambda cycles: tables.append(1) or table(cycles))
    battery = verify.Battery(max_prefix=1, max_cycle=2)
    results = [verify.CHECKS[name](battery) for name in LASSO_CHECKS]
    assert results == [(True, "648 lasso words agree")] * 3
    assert [b is battery.automaton for b in built] == [True, False, False, False]
    assert tables == [1]


def test_battery_products_are_the_ones_train_runs():
    """Each product of the default battery has the tables, and the
    automaton, of the product that ``train`` runs for its method, so verify
    checks what is trained."""
    battery = verify.Battery()
    products = {"augmented": battery.augmented_product,
                "degeneralized": battery.degeneralized_product,
                "frontier": battery.raw_product}
    assert list(products) == list(METHODS)
    for method, got in products.items():
        want = method_product_and_scheme(battery.grid, battery.automaton, method, 2.0)[0]
        assert got.automaton == want.automaton
        assert (got.pairs, got.keys, got.first, got.succ, got.probs, got.masks) == (
            want.pairs, want.keys, want.first, want.succ, want.probs, want.masks
        )
    assert battery.augmented_product.automaton == merge_unaccepting(battery.augmented)


def test_stochasticity_sums_the_rows_training_samples(monkeypatch):
    """One drifted row of a product's ``probs`` table fails the check, named
    by its ``keys`` entry, although the product's ``mdp.prob`` view still
    sums to one."""
    build, drifted = product_module.build_product, []

    def build_drifted(m, b):
        p = build(m, b)
        row = (p.probs[3][0] + 1e-9, *p.probs[3][1:])
        drifted.append((p.keys[3], abs(sum(row) - 1.0)))
        return dataclasses.replace(p, probs=(*p.probs[:3], row, *p.probs[4:]))

    monkeypatch.setattr(product_module, "build_product", build_drifted)
    passed, detail = verify.check_stochasticity(verify.Battery())
    (s, a), err = drifted[0]  # the augmented product is built first
    assert passed is False
    assert detail == f"augmented-product row ({s}, {a}) off by {err}"
