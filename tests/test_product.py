from itertools import accumulate

import numpy as np
import pytest

from helpers import (
    frontier_init,
    frontier_step,
    letters_over,
    mc_absorption_estimate,
    product_acceptance,
    product_aut_edge,
    product_view,
    random_labeled_mdp,
    reference_evaluate_policy,
    split_augmented,
)
from omegarl import (
    EPSILON,
    AlphabetMismatch,
    MdpError,
    MissingAutomatonMove,
    NondeterministicMove,
    PositionalPolicy,
    TGba,
    Transition,
    UndefinedChoice,
    augment,
    build_product,
    check_positional_impossibility,
    decompose,
    evaluate_policy,
    induce_chain,
    merge_unaccepting,
    named_fixture,
    parse_mdp,
    value_iteration,
)
from omegarl.cli import METHODS, method_product_and_scheme
from omegarl.learn import TrainConfig, _padded_tables, train
from omegarl.mdp import ENVIRONMENTS
from omegarl.product import AcceptingReward, FrontierReward, ProductError, evaluate_pairs
from test_golden import slip_mdp_text

A = frozenset({"a"})
B = frozenset({"b"})
AB = frozenset({"a", "b"})


def by_name(product):
    return {product.name_of(i): i for i in range(product.num_states)}


def safe_cycle_policy(product):
    """Alternate the corridor target by memory; stay on the safe corners."""
    names = by_name(product)
    choice = {}
    for i in range(product.num_states):
        choice[i] = product.mdp.enabled[i][0]
    choice[names["(s7|x0@00)"]] = "up"
    choice[names["(s4|x0@00)"]] = "to_s0"
    choice[names["(s4|x0@01)"]] = "to_s0"
    choice[names["(s4|x0@10)"]] = "to_s8"
    choice[names["(s0|x0@10)"]] = "right"
    choice[names["(s1|x0@10)"]] = "down"
    choice[names["(s8|x0@00)"]] = "left"
    return PositionalPolicy(choice)


# --- construction ---------------------------------------------------------------


def test_product_initial_and_counts(augmented_product, raw_product):
    assert augmented_product.name_of(augmented_product.mdp.initial) == "(s7|x0@00)"
    assert augmented_product.num_states == 24
    assert raw_product.num_states == 14


def test_product_accepting_transition_example(augmented_product, grid):
    names = by_name(augmented_product)
    t = (names["(s4|x0@00)"], "to_s0", names["(s0|x0@10)"])
    assert dict(augmented_product.mdp.prob[(names["(s4|x0@00)"], "to_s0")])[
        names["(s0|x0@10)"]
    ] == pytest.approx(0.9, abs=1e-15)
    acceptance = product_acceptance(grid, augmented_product)
    assert t in acceptance[0]
    assert t not in acceptance[1]


def test_product_with_trivial_automaton_is_isomorphic(grid):
    letters = letters_over(("a", "b", "c"))
    trans = frozenset(Transition(0, letter, 0) for letter in letters)
    trivial = TGba(1, 0, frozenset({"a", "b", "c"}), dict.fromkeys(trans, 1), 1)
    product = build_product(grid, trivial)
    assert product.num_states == grid.num_states
    mapping = {i: s for i, (s, _) in enumerate(product.pairs)}
    assert sorted(mapping.values()) == list(range(9))
    for (i, a), row in product.mdp.prob.items():
        grid_row = dict(grid.prob[(mapping[i], a)])
        assert {mapping[j]: p for j, p in row} == grid_row


def test_product_epsilon_actions(grid, eps_automaton):
    product = build_product(grid, eps_automaton)
    names = by_name(product)
    for i, (s, x) in enumerate(product.pairs):
        if x == 0:
            assert "eps->x1" in product.mdp.enabled[i]
            row = product.mdp.prob[(i, "eps->x1")]
            assert row == ((names[f"(s{s}|x1)"], 1.0),)
    # epsilon product transitions are never accepting
    for p, (_, a) in enumerate(product.keys):
        if a.startswith("eps->"):
            assert product.masks[p] == (0,)


def test_product_rejects_an_action_named_like_an_epsilon_guess(eps_automaton):
    """An MDP action ``eps->x1`` where the automaton guesses x1 would share
    one row with the guess, of mass two; an ``eps->`` action that names no
    guess made at its state builds."""
    text = "states: 1\ninitial: 0\nap: a\nprob 0 {} 0 1.0\n"
    clash = r"^MDP action eps->x1 at state s0 clashes with the epsilon guess of automaton state x0"
    with pytest.raises(ProductError, match=clash):
        build_product(parse_mdp(text.format("eps->x1")), eps_automaton)
    product = build_product(parse_mdp(text.format("eps->x2")), eps_automaton)
    assert product.mdp.prob[(0, "eps->x2")] == ((0, 1.0),)
    assert product.mdp.prob[(0, "eps->x1")] == ((1, 1.0),)


def test_library_never_builds_the_name_keyed_view(grid, fig_automaton):
    """The tables are the product's one store: building, training with and
    without tracking, the oracle, evaluation and its report, the certificate
    and both reward schemes leave the ``mdp`` view underived."""
    product = build_product(grid, merge_unaccepting(augment(fig_automaton)))
    cfg = TrainConfig(episodes=3, steps_per_episode=50, sessions=2)
    for track in (True, False):
        train(product, AcceptingReward(product, 2.0), cfg, track_satisfaction=track)
    _, policy = value_iteration(product, 0.95, 2.0)
    evaluate_policy(product, policy).to_dict(product, policy)
    check_positional_impossibility(product)
    t = (0, product.keys[0][1], product.succ[0][0])
    for scheme in (AcceptingReward, FrontierReward):
        scheme(product, 2.0)(t)
    assert "mdp" not in product.__dict__


def test_product_missing_move_fails_loudly(grid):
    t = Transition(0, A, 0)
    partial = TGba(1, 0, frozenset({"a"}), {t: 1}, 1)
    with pytest.raises(MissingAutomatonMove, match="no move"):
        build_product(grid, partial)


def test_product_alphabet_mismatch(grid):
    t = Transition(0, frozenset({"d"}), 0)
    b = TGba(1, 0, frozenset({"d"}), {t: 1}, 1)
    with pytest.raises(AlphabetMismatch):
        build_product(grid, b)


def test_product_rejects_letter_nondeterminism(grid):
    letters = letters_over(("a", "b", "c"))
    trans = {Transition(0, letter, 0) for letter in letters}
    trans.add(Transition(0, frozenset(), 0))
    trans.add(Transition(0, frozenset(), 0))  # same element, still one
    trans.add(Transition(0, frozenset({"a"}), 0))
    b = TGba(
        2,
        0,
        frozenset({"a", "b", "c"}),
        {**dict.fromkeys(trans, 0), Transition(0, A, 0): 1, Transition(0, frozenset({"a"}), 1): 0},
        1,
    )
    with pytest.raises(NondeterministicMove):
        build_product(grid, b)


def test_product_rejects_letter_nondeterminism_at_unreachable_state(grid):
    # state 1 has no incoming transition, so no explored pair ever reads it
    letters = letters_over(("a", "b", "c"))
    trans = {Transition(x, letter, x) for x in (0, 1) for letter in letters}
    trans.add(Transition(1, A, 0))
    b = TGba(2, 0, frozenset({"a", "b", "c"}), {**dict.fromkeys(trans, 0), Transition(0, A, 0): 1}, 1)
    with pytest.raises(NondeterministicMove, match=r"state x1 has 2 successors on letter \['a'\]"):
        build_product(grid, b)


def test_product_rows_stochastic(augmented_product, raw_product, degeneralized_product):
    for product in (augmented_product, raw_product, degeneralized_product):
        for (s, a), row in product.mdp.prob.items():
            assert abs(sum(p for _, p in row) - 1.0) <= 1e-12
            if a.startswith("eps->"):
                assert row[0][1] == 1.0 and len(row) == 1


# --- tables ------------------------------------------------------------------------


@pytest.mark.parametrize("env", ["grid9", "slip", "random-1", "random-2", "random-3"])
@pytest.mark.parametrize("method", METHODS)
def test_product_tables_match_prob_and_acceptance(env, method):
    """Under both fixtures, the tables against rows, labels and acceptance
    rebuilt from the base MDP and the automaton, and the derived ``mdp``
    view against the rebuilt one, epsilon guesses included."""
    if env.startswith("random"):
        rng = np.random.default_rng(int(env.split("-")[1]))
        m = random_labeled_mdp(rng, n_states=int(rng.integers(3, 12)), letters=letters_over("ab"))
    else:
        m = ENVIRONMENTS["grid9"]() if env == "grid9" else parse_mdp(slip_mdp_text())
    for spec in ("gfa_gfb_gnc", "fg_a"):
        product, _ = method_product_and_scheme(m, named_fixture(spec), method, 2.0)
        view = product_view(m, product)
        assert product.mdp == view
        # acceptance rebuilt from the automaton, not a view derived from the masks
        acceptance = product_acceptance(m, product)
        assert any(acceptance)
        assert list(product.keys) == list(view.prob)
        assert product.first == (0, *accumulate(map(len, view.enabled)))
        _, _, cuts, _ = _padded_tables(product)
        for p, (s, a) in enumerate(product.keys):
            assert product.first[s] <= p < product.first[s + 1]
            assert tuple(zip(product.succ[p], product.probs[p])) == view.prob[(s, a)]
            row = list(accumulate(product.probs[p][:-1]))
            assert cuts[p].tolist() == row + [np.inf] * (cuts.shape[1] - len(row))
            for dst, mask in zip(product.succ[p], product.masks[p]):
                t = (s, a, dst)
                assert mask == sum(1 << k for k, acc in enumerate(acceptance) if t in acc)


# --- rewards -----------------------------------------------------------------------


def overlapping_sets_product(grid):
    """One-state automaton over {a, b} whose sets overlap: hitting the a-loop
    removes sets 1 and 2 and leaves the b-loop of set 3 pending."""
    loops = {letter: Transition(0, letter, 0) for letter in (frozenset(), A, B, AB)}
    # set 1 holds the a-loop, set 2 the a- and b-loops, set 3 the b-loop
    b = TGba(1, 0, AB, {loops[frozenset()]: 0, loops[A]: 0b011, loops[B]: 0b110, loops[AB]: 0}, 3)
    return build_product(grid, b)


def walk_tables(product, seed: int, steps: int = 20_000, restart: float = 0.05):
    """Seeded walk drawn from the product's tables that restarts at the
    initial state with probability ``restart``; yields
    ``(restarted, transition, mask)``."""
    rng = np.random.default_rng(seed)
    s = product.mdp.initial
    for _ in range(steps):
        restarted = rng.random() < restart
        if restarted:
            s = product.mdp.initial
        p = int(rng.integers(product.first[s], product.first[s + 1]))
        j = int(rng.choice(len(product.succ[p]), p=product.probs[p]))
        yield restarted, (s, product.keys[p][1], product.succ[p][j]), product.masks[p][j]
        s = product.succ[p][j]


def test_reward_support_is_exactly_the_accepting_union(
    augmented_product, degeneralized_product, grid
):
    for product in (augmented_product, degeneralized_product):
        scheme = AcceptingReward(product, 2.0)
        accepting = frozenset().union(*product_acceptance(grid, product))
        assert accepting
        for t in product_aut_edge(grid, product):
            assert scheme(t) == (2.0 if t in accepting else 0.0)


def test_accepting_reward_values(augmented_product, grid):
    names = by_name(augmented_product)
    scheme = AcceptingReward(augmented_product, 2.0)
    assert scheme((names["(s4|x0@00)"], "to_s0", names["(s0|x0@10)"])) == 2.0
    assert scheme((names["(s7|x0@00)"], "up", names["(s4|x0@00)"])) == 0.0
    # membership in two sets still pays a single reward, every time
    product = overlapping_sets_product(grid)
    acceptance = product_acceptance(grid, product)
    shared = [t for t in product_aut_edge(grid, product) if sum(t in acc for acc in acceptance) == 2]
    assert shared
    scheme = AcceptingReward(product, 2.0)
    for t in shared * 2:
        assert scheme(t) == 2.0


@pytest.mark.parametrize("cls", [AcceptingReward, FrontierReward])
@pytest.mark.parametrize("r_p", [0.0, -1.0, float("nan"), float("inf")])
def test_reward_rejects_nonpositive_r_p(cls, r_p, augmented_product):
    with pytest.raises(ValueError, match="r_p must be positive"):
        cls(augmented_product, r_p)


def test_frontier_step_set_arithmetic(fig_automaton):
    acc = fig_automaton.acceptance
    f = frontier_init(acc)
    assert f == acc[0] | acc[1]
    f2, scored = frontier_step(f, Transition(0, A, 0), acc)
    assert scored is True
    assert f2 == frozenset({Transition(0, B, 0)})
    f3, scored = frontier_step(f2, Transition(0, A, 0), acc)
    assert scored is False and f3 == f2
    f4, scored = frontier_step(f3, Transition(0, B, 0), acc)
    assert scored is True
    assert f4 == acc[0] | acc[1]  # emptied, so re-initialized


@pytest.mark.parametrize("which", ["raw", "epsilon", "augmented", "overlapping", "empty-set"])
def test_frontier_empty_matches_set_emptiness(which, raw_product, grid, fig_automaton, eps_automaton):
    """``empty[done]`` holds exactly when removing the accepting sets in
    ``done`` from the full set-based working set leaves it empty."""
    if which == "raw":
        product = raw_product
    elif which == "epsilon":
        product = build_product(grid, eps_automaton)
    elif which == "augmented":
        product = build_product(grid, augment(fig_automaton))
    elif which == "overlapping":
        product = overlapping_sets_product(grid)
    else:
        b = fig_automaton
        product = build_product(grid, TGba(
            b.num_states, b.initial, b.ap, {t: mask & 1 for t, mask in b.masks.items()}, b.n_sets
        ))
    acc = product.automaton.acceptance
    expect = tuple(
        not frontier_init(acc) - frozenset().union(*(s for j, s in enumerate(acc) if done >> j & 1))
        for done in range(1 << len(acc))
    )
    assert FrontierReward(product, 1.0).empty == expect


def test_frontier_reward_scores_first_visits(raw_product):
    scheme = FrontierReward(raw_product, 2.0)
    names = by_name(raw_product)
    a_step = (names["(s4|x0)"], "to_s0", names["(s0|x0)"])
    assert scheme(a_step) == 2.0
    assert scheme(a_step) == 0.0  # a's set was removed
    scheme.reset()
    assert scheme(a_step) == 2.0


@pytest.mark.parametrize("which", ["augmented", "unmerged", "overlapping"])
def test_accepting_step_matches_one_set_frontier_reference(which, request, grid):
    """The accepting reward is the set-based frontier over one set, the union
    of the accepting sets, whose working set empties on every hit."""
    if which == "overlapping":
        product = overlapping_sets_product(grid)
    else:
        product = request.getfixturevalue(f"{which}_product")
    scheme = AcceptingReward(product, 2.0)
    acc = (frozenset().union(*product_acceptance(grid, product)),)
    remaining, done, scored = frontier_init(acc), 0, 0
    for restarted, t, mask in walk_tables(product, 46):
        if restarted:
            remaining, done = frontier_init(acc), 0
            scheme.reset()
        remaining, hit = frontier_step(remaining, t, acc)
        r, done = scheme.step(done, mask)
        assert r == (2.0 if hit else 0.0) == scheme(t)
        assert done == scheme.done == 0 and remaining == acc[0]
        scored += hit
    assert scored > 50


@pytest.mark.parametrize("which", ["raw", "overlapping"])
def test_frontier_step_matches_set_reference_on_walk(which, raw_product, grid):
    """Seeded walk with random resets: the bitmask ``done`` and the set-based
    working set agree, and so do their rewards."""
    product = raw_product if which == "raw" else overlapping_sets_product(grid)
    scheme = FrontierReward(product, 2.0)
    acc = product.automaton.acceptance
    aut_edge = product_aut_edge(grid, product)
    full = frontier_init(acc)

    def mask(t):
        return sum(1 << j for j, s in enumerate(acc) if t in s)

    remaining, done, scored = full, 0, 0
    for restarted, t, m in walk_tables(product, 45):
        if restarted:
            remaining, done = full, 0
            scheme.reset()
        remaining, hit = frontier_step(remaining, aut_edge[t], acc)
        r, done = scheme.step(done, m)
        assert r == (2.0 if hit else 0.0) == scheme(t)
        assert done == scheme.done
        assert remaining == frozenset(x for x in full if not mask(x) & done)
        scored += hit
    assert scored > 50


# --- evaluation ----------------------------------------------------------------------


def test_safe_cycle_policy_satisfies_with_probability_one(augmented_product):
    pi = safe_cycle_policy(augmented_product)
    ev = evaluate_policy(augmented_product, pi)
    assert ev.sat_probability == 1.0
    assert ev.positively_satisfies is True
    assert len(ev.classes) == 1
    cls = ev.classes[0]
    assert cls.accepting and all(cls.coverage)
    assert set(cls.witnesses) == {0, 1}
    # the recurrent class walks the five safe rooms (the corridor twice)
    mdp_states = {augmented_product.pairs[i][0] for i in cls.states}
    assert mdp_states == {0, 1, 4, 7, 8}
    assert len(cls.states) == 6


def test_loiter_policy_never_satisfies(augmented_product):
    names = by_name(augmented_product)
    choice = {i: augmented_product.mdp.enabled[i][0] for i in range(augmented_product.num_states)}
    choice[names["(s7|x0@00)"]] = "down"
    choice[names["(s4|x0@00)"]] = "to_s7"
    ev = evaluate_policy(augmented_product, PositionalPolicy(choice))
    assert ev.sat_probability == 0.0
    assert ev.positively_satisfies is False
    assert all(not any(c.coverage) for c in ev.classes)


def random_choices(product, rng, n):
    """``n`` random positional policies, each as a name-keyed choice and
    as its pair ids."""
    for _ in range(n):
        pairs = [int(rng.integers(lo, hi)) for lo, hi in zip(product.first, product.first[1:])]
        yield dict(product.keys[p] for p in pairs), pairs


def raised(evaluate, product, choice):
    try:
        evaluate(product, PositionalPolicy(choice))
    except MdpError as e:
        return type(e), str(e)
    return None


def test_evaluation_on_tables_matches_name_keyed_reference():
    """Field for field, on random MDPs under both fixtures and every method:
    the class pass on the tables against the induced chain's decomposition
    and solve.  A bad choice raises as the reference does at a reached
    state and is never read at an unreached one.  Rows of at most two
    successors on half the MDPs give several recurrent classes, some
    accepting and some not, so the solve runs."""
    mixed = unreached = 0
    kinds = set()
    for seed in range(8):
        rng = np.random.default_rng(seed)
        m = random_labeled_mdp(rng, n_states=int(rng.integers(3, 12)),
                               letters=letters_over("ab"), max_succ=(2, 4)[seed % 2])
        for spec in ("gfa_gfb_gnc", "fg_a"):
            for method in METHODS:
                product, _ = method_product_and_scheme(m, named_fixture(spec), method, 2.0)
                for choice, pairs in random_choices(product, rng, 30):
                    ev = evaluate_policy(product, PositionalPolicy(choice))
                    assert ev == reference_evaluate_policy(product, PositionalPolicy(choice))
                    assert ev == evaluate_pairs(product, pairs)
                    mixed += 0.0 < ev.sat_probability < 1.0
                    reached = {*ev.transient, *(s for c in ev.classes for s in c.states)}
                    unseen = sorted(set(range(product.num_states)) - reached)
                    for s in (max(reached), *unseen[:1]):
                        for bad in ({k: a for k, a in choice.items() if k != s},
                                    {**choice, s: "nope"}):
                            got = raised(evaluate_policy, product, bad)
                            assert got == raised(reference_evaluate_policy, product, bad)
                            assert (got is None) == (s not in reached)
                            unreached += got is None
                            kinds.add(got and got[0])
    assert mixed > 20 and unreached > 0, (mixed, unreached)
    assert kinds == {None, UndefinedChoice, MdpError}


def test_every_raw_product_policy_fails(raw_product):
    rng = np.random.default_rng(41)
    enabled = raw_product.mdp.enabled
    for _ in range(100):
        pi = PositionalPolicy(
            {s: acts[rng.integers(len(acts))] for s, acts in enumerate(enabled)}
        )
        assert evaluate_policy(raw_product, pi).sat_probability == 0.0
    _, vi_policy = value_iteration(raw_product, 0.95, 2.0)
    assert evaluate_policy(raw_product, vi_policy).sat_probability == 0.0


def test_impossibility_certificates(raw_product, augmented_product, degeneralized_product):
    assert check_positional_impossibility(raw_product) is True
    assert check_positional_impossibility(augmented_product) is False
    # a single accepting set can never produce a conflicting pair
    assert check_positional_impossibility(degeneralized_product) is False


def test_recurrent_classes_cover_all_sets_or_none(augmented_product):
    rng = np.random.default_rng(42)
    enabled = augmented_product.mdp.enabled
    n_sets = len(augmented_product.automaton.acceptance)
    for _ in range(200):
        pi = PositionalPolicy(
            {s: acts[rng.integers(len(acts))] for s, acts in enumerate(enabled)}
        )
        for cls in evaluate_policy(augmented_product, pi).classes:
            assert sum(cls.coverage) in (0, n_sets)


def test_frontier_tracks_memory_until_first_reset(grid, fig_automaton):
    """Co-simulate random product runs: the frontier's removed sets must
    match the memory bits recorded by the augmentation until the first
    reset re-arms both."""
    product = build_product(grid, augment(fig_automaton))
    base_index = {name: x for x, name in enumerate(fig_automaton.names)}
    acc_raw = fig_automaton.acceptance
    rng = np.random.default_rng(43)
    enabled = product.mdp.enabled
    rows = {key: row for key, row in product.mdp.prob.items()}
    aut_edge = product_aut_edge(grid, product)
    checked_steps = 0
    for _ in range(2000):
        s = product.mdp.initial
        frontier = frontier_init(acc_raw)
        removed = [False, False]
        for _ in range(40):
            acts = enabled[s]
            a = acts[rng.integers(len(acts))]
            row = rows[(s, a)]
            u = rng.random()
            acc_p = 0.0
            for dst, p in row:
                acc_p += p
                if u < acc_p:
                    break
            aug_t = aut_edge[(s, a, dst)]
            base, _ = split_augmented(product.automaton.names[aug_t.src])
            base_dst, memory = split_augmented(product.automaton.names[aug_t.dst])
            raw_t = Transition(base_index[base], aug_t.letter, base_index[base_dst])
            frontier, _ = frontier_step(frontier, raw_t, acc_raw)
            for j in range(2):
                if raw_t in acc_raw[j]:
                    removed[j] = True
            if all(removed):
                break  # both sets hit: the memory reset and the frontier re-armed
            assert list(memory) == [int(x) for x in removed]
            checked_steps += 1
            s = dst
    assert checked_steps > 10_000


def test_sat_probability_matches_simulation(augmented_product):
    rng = np.random.default_rng(44)
    names = by_name(augmented_product)
    # a leaky variant of the safe cycle: from (s8|x0@00) head up toward the
    # unsafe room, so satisfaction becomes a genuine coin flip
    pi = safe_cycle_policy(augmented_product)
    leaky = dict(pi.choice)
    leaky[names["(s8|x0@00)"]] = "up"
    for policy in (pi, PositionalPolicy(leaky)):
        chain = induce_chain(augmented_product.mdp, policy)
        ev = evaluate_policy(augmented_product, policy)
        dec = decompose(chain)
        accepting = set()
        rejecting = set()
        for cls in ev.classes:
            if cls.accepting:
                accepting.update(cls.states)
            else:
                rejecting.update(cls.states)
        runs = 10_000
        est = mc_absorption_estimate(chain, accepting, rejecting, runs, 10_000, rng)
        se = float(np.sqrt(max(ev.sat_probability * (1 - ev.sat_probability), 0.0) / runs))
        assert abs(est - ev.sat_probability) <= 3 * se + 1e-12


def test_evaluation_report_serializes(augmented_product):
    pi = safe_cycle_policy(augmented_product)
    ev = evaluate_policy(augmented_product, pi)
    doc = ev.to_dict(augmented_product, pi)
    assert doc["sat_probability"] == 1.0
    assert doc["classes"][0]["accepting"] is True
    assert set(doc["classes"][0]["witnesses"]) == {"1", "2"}
    assert doc["policy"]["(s4|x0@10)"] == "to_s8"
