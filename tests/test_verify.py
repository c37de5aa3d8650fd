"""The verify battery's own machinery: the random policies that
recurrence-dichotomy tests and the classes it finds, the order of the
bounded lasso words, the word each lasso check names when it fails, that
the checks can fail, and that they refuse bounds that admit nothing."""

import dataclasses

import networkx as nx
import numpy as np
import pytest

from helpers import enum_accepts, letters_over, random_labeled_mdp, reference_lasso_agreement
from omegarl import (
    LassoWord,
    TGba,
    Transition,
    augment,
    build_product,
    merge_unaccepting,
    named_fixture,
    parse_ltl,
    verify,
)
from omegarl import product as product_module
from omegarl.cli import METHODS, method_product_and_scheme
from omegarl.learn import _generator_array, draw_indices
from omegarl.product import recurrent_classes


def scalar_rows(enabled, n_policies, seed):
    """One scalar draw per state, policy by policy; a single action draws nothing."""
    rng = np.random.default_rng(seed)
    return [[acts[rng.integers(len(acts))] for acts in enabled] for _ in range(n_policies)]


def row_draws(enabled, n_policies, seed):
    """One broadcast draw per policy."""
    lens = np.array([len(acts) for acts in enabled])
    rng = np.random.default_rng(seed)
    rows = [rng.integers(0, lens).tolist() for _ in range(n_policies)]
    return [[acts[i] for acts, i in zip(enabled, row)] for row in rows]


def block_draws(enabled, n_policies, seed):
    """Every policy in one int32 draw, as recurrence-dichotomy draws them."""
    lens = np.array([len(acts) for acts in enabled])
    rows = np.random.default_rng(seed).integers(
        0, lens, size=(n_policies, len(enabled)), dtype=np.int32
    )
    return [[acts[i] for acts, i in zip(enabled, row)] for row in rows.tolist()]


def kernel_block_draws(enabled, n_policies, seed, block):
    """The policies in kernel draws of ``block`` policies from one
    generator, as recurrence-dichotomy draws them."""
    lens = np.array([len(acts) for acts in enabled])
    rng, rows = _generator_array(seed), []
    for start in range(0, n_policies, block):
        drawn = draw_indices(rng, np.tile(lens, (min(block, n_policies - start), 1)))
        assert drawn.dtype == np.int32
        rows += drawn.tolist()
    return [[acts[i] for acts, i in zip(enabled, row)] for row in rows]


@pytest.mark.parametrize("n_policies", [100, 1000])
def test_row_draws_match_scalar_stream(augmented_product, n_policies):
    """If numpy's broadcast or block path, or the kernel's draws, ever
    differed, recurrence-dichotomy would silently test other policies; this
    fails instead."""
    enabled = augmented_product.mdp.enabled
    assert {len(acts) for acts in enabled} == {4, 8}
    scalar = scalar_rows(enabled, n_policies, 2024)
    assert row_draws(enabled, n_policies, 2024) == scalar
    assert block_draws(enabled, n_policies, 2024) == scalar
    assert kernel_block_draws(enabled, n_policies, 2024, verify.POLICY_BLOCK) == scalar


def test_row_draws_match_scalar_stream_on_random_counts():
    """Counts of 1, for which the scalar loop draws nothing, included, and
    a single policy as well as many."""
    rng = np.random.default_rng(3)
    for seed in range(30):
        counts = rng.integers(1, 7, size=rng.integers(1, 40))
        counts[rng.integers(len(counts))] = 1
        enabled = [tuple(range(c)) for c in counts]
        for n_policies in (1, 50):
            scalar = scalar_rows(enabled, n_policies, seed)
            assert row_draws(enabled, n_policies, seed) == scalar
            assert block_draws(enabled, n_policies, seed) == scalar
            assert kernel_block_draws(enabled, n_policies, seed, 7) == scalar


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
    """On the raw product some recurrent class covers one of the two sets;
    the first such policy pins the sequence of policies drawn."""
    patch_transforms(monkeypatch, augment=lambda b: b, merge_unaccepting=lambda b: b)
    for battery in (verify.Battery(), verify.Battery(n_policies=100)):
        assert verify.check_recurrence_dichotomy(battery) == (
            False, "policy 28 has a class covering 1/2 sets"
        )


def draw_pairs(product, n_policies, seed):
    """Random chosen pairs, one policy per row, drawn as recurrence-dichotomy draws them."""
    first = np.array(product.first, dtype=np.int32)
    draws = np.random.default_rng(seed).integers(
        0, np.diff(first), size=(n_policies, product.num_states), dtype=np.int32
    )
    return draws + first[:-1]


def violation(product, row):
    """The detail of the first class of ``recurrent_classes`` that covers
    some but not all sets, or None."""
    n_sets = product.automaton.n_sets
    for _, covered in recurrent_classes(product, row)[1]:
        if covered.bit_count() not in (0, n_sets):
            return f"has a class covering {covered.bit_count()}/{n_sets} sets"
    return None


def random_products():
    """Products of seeded random MDPs with both fixtures under every method;
    the last MDP is large enough for products of more than 64 states."""
    for seed, n_states in enumerate((4, 7, 11, 40)):
        rng = np.random.default_rng(seed)
        m = random_labeled_mdp(rng, n_states=n_states, letters=letters_over("ab"),
                               max_succ=(2, 4)[seed % 2])
        for spec in ("gfa_gfb_gnc", "fg_a"):
            for method in METHODS:
                yield spec, method, m, method_product_and_scheme(m, named_fixture(spec), method, 2.0)[0]


def test_policy_classes_match_per_policy_decomposition():
    """Per policy, the recurrent states and their class's coverage equal
    ``recurrent_classes`` and networkx's attracting components of the part
    reached from state 0."""
    sizes = []
    for i, (_, _, _, product) in enumerate(random_products()):
        sizes.append(product.num_states)
        chosen = draw_pairs(product, (1, 12)[i % 2], i)
        recurrent, covered = verify.policy_classes(product, chosen)
        assert len(recurrent) == len(covered) == product.num_states
        assert {len(sets) for sets in covered} == {product.automaton.n_sets}
        assert all(0 <= bits < 1 << len(chosen) for bits in recurrent + sum(covered, []))
        for k, row in enumerate(chosen.tolist()):
            got = {s: sum((bits >> k & 1) << j for j, bits in enumerate(covered[s]))
                   for s, policies in enumerate(recurrent) if policies >> k & 1}
            assert got == {s: mask for states, mask in recurrent_classes(product, row)[1] for s in states}
            g = nx.DiGraph((s, dst) for s, pair in enumerate(row) for dst in product.succ[pair])
            reached = g.subgraph(nx.descendants(g, 0) | {0})
            assert set(got) == set().union(*nx.attracting_components(reached))
    assert max(sizes) > 64 and min(sizes) < 8


def test_recurrence_dichotomy_names_the_first_violating_policy(monkeypatch):
    """On raw products of the two-set fixture with random MDPs whose labels
    hold at most one of a and b, many random policies have a class that
    covers one set.  The batched check finds the same violating policies as
    a per-policy ``recurrent_classes`` loop and names the first, with the
    same verdict and detail whatever the block size: in blocks of 2, where
    it may lie past the first block, of 7, and in one block of 256 or of
    1024, the default."""
    patch_transforms(monkeypatch, augment=lambda b: b, merge_unaccepting=lambda b: b)
    fixture, firsts = named_fixture("gfa_gfb_gnc"), set()
    for seed in range(8):
        rng = np.random.default_rng(seed)
        m = random_labeled_mdp(rng, n_states=int(rng.integers(3, 12)), max_succ=2,
                               letters=[frozenset(), frozenset("a"), frozenset("b")])
        product = build_product(m, fixture)
        chosen = draw_pairs(product, 40, seed)
        recurrent, covered = verify.policy_classes(product, chosen)
        bad = [k for k in range(len(chosen)) if any(
            policies >> k & 1 and sum(bits >> k & 1 for bits in sets) == 1
            for policies, sets in zip(recurrent, covered)
        )]
        expect = [(k, violation(product, row)) for k, row in enumerate(chosen.tolist())]
        assert bad == [k for k, detail in expect if detail]
        first = next(((k, detail) for k, detail in expect if detail), None)
        for block in (2, 7, 256, 1024):
            monkeypatch.setattr(verify, "POLICY_BLOCK", block)
            battery = verify.Battery(fixture, m, n_policies=40, seed=seed)
            assert verify.check_recurrence_dichotomy(battery) == (
                (True, "40 random positional policies, no violations") if first is None
                else (False, f"policy {first[0]} {first[1]}")
            ), block
        firsts.add(first and first[0])
    assert None in firsts and 0 in firsts and max(k for k in firsts if k is not None) >= 2


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
        (verify.check_recurrence_dichotomy, {"n_policies": 0},
         "n_policies must be at least 1, got 0"),
    ],
    ids=["language-preservation", "formula-agreement", "degeneralization", "prefix",
         "recurrence-dichotomy"],
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
    checks, each candidate's once in its own check, and the checks' details
    count the words the shared verdicts cover."""
    built, real = [], verify.lasso_acceptor
    monkeypatch.setattr(verify, "lasso_acceptor",
                        lambda b, cycles: built.append(b) or real(b, cycles))
    battery = verify.Battery(max_prefix=1, max_cycle=2)
    results = [verify.CHECKS[name](battery) for name in LASSO_CHECKS]
    assert results == [(True, "648 lasso words agree")] * 3
    assert [b is battery.automaton for b in built] == [True, False, False, False]


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
