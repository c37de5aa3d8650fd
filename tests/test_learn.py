import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import (
    RawDraws,
    letters_over,
    product_acceptance,
    random_labeled_mdp,
    reference_train,
    scalar_value_iteration,
)
from omegarl import (
    LabeledMdp,
    QTable,
    TGba,
    TrainConfig,
    Transition,
    build_product,
    evaluate_policy,
    greedy_policy,
    named_fixture,
    train,
    value_iteration,
)
from omegarl import learn
from omegarl.cli import METHODS, method_product_and_scheme
from omegarl.learn import _generator_array, _lib, _pointers
from omegarl.mdp import ENVIRONMENTS
from omegarl.product import AcceptingReward, FrontierReward, evaluate_pairs


def two_state_loop_product():
    """One action everywhere: s0 -> s1, then a rewarded self-loop at s1."""
    m = LabeledMdp(
        num_states=2,
        initial=0,
        ap=frozenset({"a"}),
        enabled=(("go",), ("go",)),
        prob={(0, "go"): ((1, 1.0),), (1, "go"): ((1, 1.0),)},
        label={(1, "go", 1): frozenset({"a"})},
    )
    return build_product(m, loop_automaton())


def loop_automaton():
    """One state that loops on {a} and on {}; the {a} loop accepts."""
    loop_a = Transition(0, frozenset({"a"}), 0)
    loop_empty = Transition(0, frozenset(), 0)
    return TGba(1, 0, frozenset({"a"}), {loop_a: 1, loop_empty: 0}, 1)


def test_train_config_validation():
    with pytest.raises(ValueError, match="alpha_exponent"):
        TrainConfig(alpha_exponent=0.4)
    with pytest.raises(ValueError, match="gamma"):
        TrainConfig(gamma=1.0)
    with pytest.raises(ValueError, match="episodes"):
        TrainConfig(episodes=0)
    for name in ("r_p", "epsilon_numerator"):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=f"{name} must be positive"):
                TrainConfig(**{name: bad})
    cfg = TrainConfig()
    assert cfg.gamma == 0.95 and cfg.r_p == 2.0 and cfg.alpha_exponent == 0.85
    assert TrainConfig.from_dict(cfg.to_dict()) == cfg


def test_train_config_rejects_a_negative_seed_by_name():
    """A negative seed fails when the config is made, not when training
    seeds its sessions; seeds past 64 bits, which numpy's SeedSequence
    takes, stay valid."""
    with pytest.raises(ValueError, match="^rng_seed must be non-negative$"):
        TrainConfig(rng_seed=-1)
    assert TrainConfig(rng_seed=2**70).rng_seed == 2**70


def test_q_update_fixed_point_of_optimal_values(augmented_product, grid):
    """At the optimal Q-values the expected update is zero, so sampled TD
    errors must average out within noise for every state-action pair."""
    gamma, r_p = 0.95, 2.0
    values, _ = value_iteration(augmented_product, gamma, r_p)
    accepting = frozenset().union(*product_acceptance(grid, augmented_product))
    prob = augmented_product.mdp.prob
    enabled = augmented_product.mdp.enabled

    q_star = {}
    for (s, a), row in prob.items():
        q_star[(s, a)] = sum(
            p * ((r_p if (s, a, d) in accepting else 0.0) + gamma * values[d])
            for d, p in row
        )

    def best(s):
        return max(q_star[(s, a)] for a in enabled[s])

    rng = np.random.default_rng(51)
    pairs = sorted(prob)
    samples_per_pair = 10**5 // len(pairs) + 1
    for (s, a) in pairs:
        row = prob[(s, a)]
        dsts = [d for d, _ in row]
        ps = np.array([p for _, p in row])
        draws = rng.choice(len(dsts), size=samples_per_pair, p=ps)
        tds = np.array(
            [
                (r_p if (s, a, dsts[k]) in accepting else 0.0)
                + gamma * best(dsts[k])
                - q_star[(s, a)]
                for k in draws
            ]
        )
        se = tds.std() / math.sqrt(samples_per_pair)
        assert abs(tds.mean()) <= 5 * se + 1e-9


def test_greedy_policy_tie_breaking(augmented_product):
    q = QTable(augmented_product)
    pi = greedy_policy(q)
    for s, acts in enumerate(augmented_product.mdp.enabled):
        assert pi.choice[s] == acts[0]  # all-zero table: lowest action id


def test_greedy_policy_matches_value_iteration(augmented_product, grid):
    gamma, r_p = 0.95, 2.0
    values, vi_policy = value_iteration(augmented_product, gamma, r_p)
    accepting = frozenset().union(*product_acceptance(grid, augmented_product))
    q = QTable(augmented_product)
    for pair, (s, a) in enumerate(augmented_product.keys):
        q.values[pair] = sum(
            p * ((r_p if (s, a, d) in accepting else 0.0) + gamma * values[d])
            for d, p in augmented_product.mdp.prob[(s, a)]
        )
    assert greedy_policy(q).choice == vi_policy.choice


def test_value_iteration_geometric_series():
    p = two_state_loop_product()
    values, policy = value_iteration(p, gamma=0.5, r_p=1.0)
    assert values[1] == pytest.approx(2.0, abs=1e-9)
    assert values[0] == pytest.approx(1.0, abs=1e-9)
    assert policy.choice == {0: "go", 1: "go"}


@pytest.mark.parametrize("r_p", [0.0, -1.0, math.nan, math.inf])
def test_value_iteration_rejects_nonpositive_reward(augmented_product, r_p):
    with pytest.raises(ValueError, match="r_p must be positive"):
        value_iteration(augmented_product, gamma=0.95, r_p=r_p)


@pytest.mark.parametrize("tol", [-1.0, float("nan")])
def test_value_iteration_rejects_negative_or_nan_tol(tol):
    with pytest.raises(ValueError, match="tol"):
        value_iteration(two_state_loop_product(), gamma=0.5, r_p=1.0, tol=tol)


def test_value_iteration_zero_tol_reaches_the_fixed_point():
    values, _ = value_iteration(two_state_loop_product(), gamma=0.5, r_p=1.0, tol=0.0)
    assert values == {0: 1.0, 1: 2.0}


GAMMAS = (0.0, 0.5, 0.95, 0.99)


def assert_same_as_scalar(product, gamma, tol=1e-10):
    values, policy = value_iteration(product, gamma, 2.0, tol)
    ref_values, ref_policy = scalar_value_iteration(product, gamma, 2.0, tol)
    assert repr(values) == repr(ref_values)
    assert policy.choice == ref_policy.choice


@pytest.mark.parametrize("seed", range(16))
def test_value_iteration_matches_scalar_reference_on_random_mdps(seed):
    # rows of different lengths, so that each pair's slots start at its own
    # offset: fg_a's one-successor epsilon guesses next to rows of up to four
    # successors; twin actions tie exactly
    rng = np.random.default_rng(seed)
    m = random_labeled_mdp(rng, n_states=int(rng.integers(3, 12)), letters=letters_over("ab"))
    mixed = 0
    for spec in ("gfa_gfb_gnc", "fg_a"):
        for method in METHODS:
            product, _ = method_product_and_scheme(m, named_fixture(spec), method, 2.0)
            mixed += len(set(map(len, product.succ))) > 1
            assert_same_as_scalar(product, GAMMAS[seed % len(GAMMAS)])
    assert mixed > 0


@pytest.mark.parametrize("spec", ["gfa_gfb_gnc", "fg_a"],
                         ids=["fixture_gfa_gfb_gnc", "fixture_fg_a"])
@pytest.mark.parametrize("method", METHODS)
def test_value_iteration_matches_scalar_reference_on_fixtures(spec, method):
    grid = ENVIRONMENTS["grid9"]()
    product, _ = method_product_and_scheme(grid, named_fixture(spec), method, 2.0)
    for gamma in GAMMAS:
        assert_same_as_scalar(product, gamma)


def test_value_iteration_matches_scalar_reference_on_a_large_product():
    m = random_labeled_mdp(np.random.default_rng(7), n_states=60, letters=letters_over("ab"))
    product, _ = method_product_and_scheme(m, named_fixture("gfa_gfb_gnc"), "augmented", 2.0)
    assert product.num_states > 150
    assert_same_as_scalar(product, 0.99)


def small_random_product():
    """An augmented product of 11 states and 22 pairs with rows of up to
    four successors."""
    m = random_labeled_mdp(np.random.default_rng(3), n_states=4, letters=letters_over("ab"))
    product, _ = method_product_and_scheme(m, named_fixture("gfa_gfb_gnc"), "augmented", 2.0)
    assert len(product.keys) == 22
    return product


@pytest.mark.parametrize("tol", [1e-10, 0.0])
def test_value_iteration_matches_scalar_reference_near_gamma_one(tol):
    # tens of thousands of sweeps; tol 0 stops only once no bit changes
    assert_same_as_scalar(small_random_product(), 0.999, tol)


@pytest.mark.parametrize("limit", [1, 7])
def test_value_iteration_resumes_across_kernel_calls(monkeypatch, limit):
    monkeypatch.setattr(learn, "_SWEEPS_PER_CALL", limit)
    assert_same_as_scalar(small_random_product(), 0.99)


def test_value_iteration_finds_satisfying_policy(augmented_product):
    _, policy = value_iteration(augmented_product, gamma=0.95, r_p=2.0)
    assert evaluate_policy(augmented_product, policy).sat_probability == 1.0


def test_value_iteration_gamma_zero_is_myopic(augmented_product, grid):
    r_p = 2.0
    accepting = frozenset().union(*product_acceptance(grid, augmented_product))
    _, policy = value_iteration(augmented_product, gamma=0.0, r_p=r_p)
    for s, acts in enumerate(augmented_product.mdp.enabled):
        def immediate(a):
            return sum(
                p * (r_p if (s, a, d) in accepting else 0.0)
                for d, p in augmented_product.mdp.prob[(s, a)]
            )
        best = max(immediate(a) for a in acts)
        chosen = policy.choice[s]
        assert immediate(chosen) == pytest.approx(best, abs=1e-12)
        for a in acts:  # lowest-id tie break among maximizers
            if immediate(a) == pytest.approx(best, abs=1e-12):
                assert chosen == a
                break


def test_train_is_deterministic(augmented_product):
    cfg = TrainConfig(episodes=6, steps_per_episode=80, sessions=2, rng_seed=9)
    r1 = train(augmented_product, AcceptingReward(augmented_product, cfg.r_p), cfg)
    r2 = train(augmented_product, AcceptingReward(augmented_product, cfg.r_p), cfg)
    assert np.array_equal(r1.curve.per_session, r2.curve.per_session)
    assert [p.choice for p in r1.policies] == [p.choice for p in r2.policies]


def test_train_q_values_bounded(augmented_product):
    cfg = TrainConfig(episodes=10, steps_per_episode=300, sessions=2, rng_seed=3)
    result = train(augmented_product, AcceptingReward(augmented_product, cfg.r_p), cfg)
    bound = cfg.r_p / (1.0 - cfg.gamma)
    for q in result.qtables:
        assert all(0.0 <= v <= bound + 1e-9 for v in q.values)


def test_train_collects_reward_and_reports_curves(augmented_product):
    cfg = TrainConfig(episodes=12, steps_per_episode=300, sessions=2, rng_seed=5)
    result = train(augmented_product, AcceptingReward(augmented_product, cfg.r_p), cfg)
    assert result.curve.per_session.shape == (2, 12)
    assert result.curve.mean.shape == (12,)
    assert (result.curve.per_session >= 0.0).all()
    assert result.curve.per_session.sum() > 0.0


@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_raw_draws_replay_numpy_generator(seed):
    """The reference's decoded raw words equal interleaved Generator.random()
    and Generator.integers(n) calls; a small block forces refills
    mid-stream."""
    ops = np.random.default_rng(seed + 100).integers(0, 10, size=3000).tolist()
    gen = np.random.default_rng(seed)
    draws = RawDraws(np.random.PCG64(seed), block=7)
    for n in ops:  # 0 draws a uniform, n in 1..9 an index below n
        if n == 0:
            assert draws.random() == gen.random()
        else:
            assert draws.integers(n) == gen.integers(n)


def state_array(bit_generator: np.random.PCG64) -> np.ndarray:
    """The kernel's generator array for a numpy PCG64's current state, with
    no buffered half-word."""
    pcg = bit_generator.state["state"]
    halves = (*divmod(pcg["state"], 1 << 64), *divmod(pcg["inc"], 1 << 64))
    return np.array([*halves, 0, 0], dtype=np.uint64)


def numpy_array(seed: int, spawn_key=()) -> list[int]:
    return state_array(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=spawn_key))).tolist()


SPAWN_KEYS = [(), *((i,) for i in range(12)), (3, 1), (0, 0, 0, 0, 5), (2**32, 7), (2**70 + 1, 2)]


@pytest.mark.parametrize("seed", [0, 1, 2024, 2**32 - 1, 2**32, 2**64 + 5, 2**127 + 3])
def test_generator_array_is_numpy_seeding(seed):
    """The Python port of SeedSequence and PCG64's seeding gives numpy's
    state for one- to five-word seeds, with no spawn key, each key that
    ``spawn`` hands out and multi-word keys; session ``si`` of ``train``
    is ``SeedSequence(seed).spawn(n)[si]``."""
    for key in SPAWN_KEYS:
        assert _generator_array(seed, key).tolist() == numpy_array(seed, key)
    children = np.random.SeedSequence(seed).spawn(12)
    spawned = [state_array(np.random.PCG64(child)).tolist() for child in children]
    assert spawned == [_generator_array(seed, (si,)).tolist() for si in range(12)]
    assert numpy_array(seed) == state_array(np.random.PCG64(seed)).tolist()


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 2**256 - 1), st.lists(st.integers(0, 2**64), max_size=3).map(tuple))
def test_generator_array_is_numpy_seeding_on_sampled_seeds(seed, key):
    assert _generator_array(seed, key).tolist() == numpy_array(seed, key)


@pytest.mark.parametrize("seed,key", [(-1, ()), (-(2**70), ()), (5, (-1,)), (5, (0, -3))])
def test_generator_array_rejects_negative_words_like_numpy(seed, key):
    with pytest.raises(ValueError) as numpy_error:
        np.random.SeedSequence(seed, spawn_key=key)
    with pytest.raises(ValueError, match=f"^{numpy_error.value}$"):
        _generator_array(seed, key)


def kernel_draws(rng: np.ndarray, ops) -> list[int]:
    """The compiled generator's draws for ``ops`` (0: a raw word, n: an
    index below n), advancing ``rng`` in place."""
    ops = np.array(ops, dtype=np.int64)
    out = np.zeros(len(ops), dtype=np.uint64)
    _lib.draw(*_pointers(rng, ops), len(ops), *_pointers(out))
    return out.tolist()


@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_kernel_generator_replays_numpy_stream(seed):
    """The compiled PCG64 gives random_raw's words, also when its state is
    saved and restored mid-stream, and decodes interleaved random() and
    integers(n) draws as numpy's Generator does, the buffered half-word
    surviving between calls."""
    rng = _generator_array(seed)
    words = []
    for size in (1, 999, 5000, 4000):  # each call loads and stores the state
        words += kernel_draws(rng, [0] * size)
        rng = rng.copy()
    assert words == np.random.PCG64(seed).random_raw(10000).tolist()

    ops = np.random.default_rng(seed + 100).integers(0, 10, size=3000).tolist()
    rng = _generator_array(seed)
    drawn = [x for chunk in range(0, 3000, 7) for x in kernel_draws(rng, ops[chunk:chunk + 7])]
    gen = np.random.default_rng(seed)
    for n, x in zip(ops, drawn, strict=True):
        if n:
            assert x == gen.integers(n)
        else:
            assert (x >> 11) * 2.0**-53 == gen.random()


PCG64_MULTIPLIER = (2549297995355413924 << 64) | 4865540595714422341


def test_kernel_generator_rejects_like_lemire():
    """A state whose next word is 0 makes integers(3) reject both of its
    halves (2**32 mod 3 = 1 > 0); the kernel, numpy and the reference then
    agree, and the kernel has consumed two words with a half-word left."""
    inc = np.random.PCG64(3).state["state"]["inc"]
    hi = 0x0123456789ABCDEF  # top 6 bits zero: XSL-RR does not rotate
    after = (hi << 64) | hi  # xor of the halves is 0
    before = (after - inc) * pow(PCG64_MULTIPLIER, -1, 1 << 128) % (1 << 128)

    def bit_generator():
        bg = np.random.PCG64()
        bg.state = {"bit_generator": "PCG64", "state": {"state": before, "inc": inc},
                    "has_uint32": 0, "uinteger": 0}
        return bg

    assert bit_generator().random_raw(1).tolist() == [0]
    rng = state_array(bit_generator())
    expected = np.random.Generator(bit_generator()).integers(3)
    assert kernel_draws(rng, [3]) == [expected] == [RawDraws(bit_generator()).integers(3)]
    two_on = bit_generator()
    two_on.random_raw(2)
    assert rng[:4].tolist() == state_array(two_on)[:4].tolist()
    assert rng[4] == 1  # the accepted word's high half is buffered


def assert_same_training(result, ref):
    assert result.curve.per_session.tobytes() == ref.curve.per_session.tobytes()
    for q, r in zip(result.qtables, ref.qtables, strict=True):
        assert np.array(q.values).tobytes() == np.array(r.values).tobytes()
        assert q.pair_visits == r.pair_visits
    assert [p.choice for p in result.policies] == [p.choice for p in ref.policies]
    assert result.first_positive_episode == ref.first_positive_episode
    assert result.first_sat1_episode == ref.first_sat1_episode
    assert result.evaluations == ref.evaluations


@pytest.mark.parametrize("seed", range(12))
def test_train_matches_python_reference_on_random_mdps(seed):
    """The compiled kernel reproduces the Python step loop bit for bit:
    Q-values, visits, curves, first episodes and policies, over three
    sessions (a half-word leaking from one session into the next would show)
    on random MDPs, both fixtures and every method."""
    rng = np.random.default_rng(seed)
    # c-free labels, so that most sessions reach sat 1 and the episode counts mean something
    m = random_labeled_mdp(rng, n_states=int(rng.integers(3, 10)), letters=letters_over("ab"))
    one_action_states = mixed = 0
    for spec in ("gfa_gfb_gnc", "fg_a"):
        for method in METHODS:
            product, scheme = method_product_and_scheme(m, named_fixture(spec), method, 2.0)
            widths = np.diff(product.first)
            one_action_states += int((widths == 1).sum())
            mixed += len(set(map(len, product.succ))) > 1  # rows of different lengths
            cfg = TrainConfig(episodes=20, steps_per_episode=200, sessions=3,
                              gamma=(0.9, 0.95, 0.99)[seed % 3], rng_seed=seed)
            assert_same_training(train(product, scheme, cfg),
                                 reference_train(product, scheme, cfg))
    assert one_action_states > 0 and mixed > 0


def test_train_matches_python_reference_with_one_action_everywhere():
    """n = 1 draws nothing: a product whose states all have one action.  Its
    only policy satisfies at once, so sat 1 comes after the first episode
    and one kernel call runs the rest."""
    product = two_state_loop_product()
    cfg = TrainConfig(episodes=5, steps_per_episode=40, sessions=3, rng_seed=1)
    scheme = AcceptingReward(product, cfg.r_p)
    for track in (True, False):
        result = train(product, scheme, cfg, track)
        assert_same_training(result, reference_train(product, scheme, cfg, track))
        assert result.first_sat1_episode == ((1,) * 3 if track else (None,) * 3)


@pytest.mark.parametrize("track", [True, False])
def test_train_matches_python_reference_at_the_session_edges(augmented_product, track):
    """One-episode sessions, and a first session that reaches sat 1 in
    episode 17: as its last episode, and with 3 to go."""
    scheme = AcceptingReward(augmented_product, 2.0)
    for episodes in (1, 17, 20):
        cfg = TrainConfig(episodes=episodes, steps_per_episode=300, sessions=2, rng_seed=8)
        result = train(augmented_product, scheme, cfg, track)
        assert_same_training(result, reference_train(augmented_product, scheme, cfg, track))
        if track and episodes > 1:
            assert result.first_sat1_episode == (17, None)


def test_train_matches_python_reference_when_a_rescan_ties():
    """At gamma = 0 a pair holds exactly r_p while every one of its
    transitions so far accepted.  So "b" and "c" of state 0 sit at r_p once
    explored, and when the greedy "a" first misses (probability 0.01) its
    rescan finds them tied: the first maximal pair must win."""
    accept = frozenset({"a"})
    m = LabeledMdp(
        num_states=2,
        initial=0,
        ap=accept,
        enabled=(("a", "b", "c"), ("go",)),
        prob={(0, "a"): ((0, 0.99), (1, 0.01)), (0, "b"): ((0, 1.0),), (0, "c"): ((0, 1.0),),
              (1, "go"): ((0, 1.0),)},
        label={(0, "a", 0): accept, (0, "b", 0): accept, (0, "c", 0): accept},
    )
    product = build_product(m, loop_automaton())
    cfg = TrainConfig(gamma=0.0, episodes=10, steps_per_episode=100, sessions=3, rng_seed=3)
    scheme = AcceptingReward(product, cfg.r_p)
    assert_same_training(train(product, scheme, cfg), reference_train(product, scheme, cfg))


def test_stopping_at_dead_states_changes_no_learning_outcome(grid, fig_automaton):
    """The argument for ending an episode at a dead state, as a test.  A
    reference that walks on through the dead states to each episode's last
    step, drawing those steps from a second generator, gives the stopping
    kernel's Q-values, curves, policies, first episodes and evaluations bit
    for bit: in a dead state every reward is 0 and every successor is dead,
    so each update there writes 0 over 0 and moves neither the greedy pair
    nor the maximal value.  Only the visit counts of dead states' pairs differ."""
    bases = [grid] + [random_labeled_mdp(np.random.default_rng(seed), n_states=8)
                      for seed in range(4)]  # labels with c, so G !c traps
    walked = 0
    for i, m in enumerate(bases):
        for method in METHODS:
            product, scheme = method_product_and_scheme(m, fig_automaton, method, 2.0)
            dead_pairs = [product.dead[s] for s, _ in product.keys]
            cfg = TrainConfig(episodes=15, steps_per_episode=150, sessions=2, rng_seed=i)
            result = train(product, scheme, cfg)
            ref = reference_train(product, scheme, cfg, walk_seed=100 + i)
            assert result.curve.per_session.tobytes() == ref.curve.per_session.tobytes()
            for q, r in zip(result.qtables, ref.qtables, strict=True):
                assert np.array(q.values).tobytes() == np.array(r.values).tobytes()
                assert [v for v, d in zip(q.pair_visits, dead_pairs) if not d] == \
                    [v for v, d in zip(r.pair_visits, dead_pairs) if not d]
                assert not any(v for v, d in zip(q.pair_visits, dead_pairs) if d)
                walked += sum(v for v, d in zip(r.pair_visits, dead_pairs) if d)
            assert [p.choice for p in result.policies] == [p.choice for p in ref.policies]
            assert result.first_positive_episode == ref.first_positive_episode
            assert result.first_sat1_episode == ref.first_sat1_episode
            assert result.evaluations == ref.evaluations
    assert walked > 0


def test_a_dead_initial_state_runs_no_step():
    """No transition ever accepts, so every state is dead, the initial one
    too: no episode runs a step, every curve cell is 0, and the kernel
    agrees with the reference."""
    m = LabeledMdp(
        num_states=2,
        initial=0,
        ap=frozenset({"a"}),
        enabled=(("go", "stay"), ("go",)),
        prob={(0, "go"): ((1, 1.0),), (0, "stay"): ((0, 1.0),), (1, "go"): ((0, 0.5), (1, 0.5))},
        label={},
    )
    product = build_product(m, loop_automaton())
    assert product.dead == (True, True)
    cfg = TrainConfig(episodes=4, steps_per_episode=50, sessions=2, rng_seed=1)
    scheme = AcceptingReward(product, cfg.r_p)
    for track in (True, False):
        result = train(product, scheme, cfg, track)
        assert_same_training(result, reference_train(product, scheme, cfg, track))
        assert not result.curve.per_session.any()
        for q in result.qtables:
            assert not any(q.pair_visits) and not any(q.values)
        assert result.first_sat1_episode == (None, None)


def test_train_greedy_cache_and_evaluations_match_fresh_ones(augmented_product, raw_product):
    cfg = TrainConfig(episodes=8, steps_per_episode=400, sessions=2, rng_seed=4)
    for product, scheme in ((augmented_product, AcceptingReward(augmented_product, 2.0)),
                            (raw_product, FrontierReward(raw_product, 2.0))):
        result = train(product, scheme, cfg)
        for q, pol, ev in zip(result.qtables, result.policies, result.evaluations):
            assert pol == greedy_policy(q)
            assert ev == evaluate_policy(product, pol)


def reached_states(ev) -> list[int]:
    """The states that an evaluation's chain reaches from state 0."""
    return [*ev.transient, *(s for c in ev.classes for s in c.states)]


def test_train_evaluates_only_changes_on_reached_states(raw_product, monkeypatch):
    seen = []

    def counting(product, chosen):
        seen.append((list(chosen), evaluate_pairs(product, chosen)))
        return seen[-1][1]

    monkeypatch.setattr(learn, "evaluate_pairs", counting)
    cfg = TrainConfig(episodes=40, steps_per_episode=300, sessions=1, rng_seed=6)
    result = train(raw_product, FrontierReward(raw_product, 2.0), cfg)
    assert result.first_sat1_episode == (None,)  # every episode's policy is checked
    for (before, ev), (after, _) in zip(seen, seen[1:]):
        assert any(before[s] != after[s] for s in reached_states(ev))
    assert result.evaluations[0] == evaluate_policy(raw_product, result.policies[0])
    assert len(seen) < cfg.episodes


def test_train_skips_the_evaluations_the_reference_repeats(monkeypatch):
    """Here the greedy pair also changes off the states that the last
    evaluation reached.  The reference evaluates every change, train only
    those on reached states, and the two agree on every result."""
    m = random_labeled_mdp(np.random.default_rng(4), n_states=8, letters=letters_over("ab"))
    product, scheme = method_product_and_scheme(m, named_fixture("gfa_gfb_gnc"), "augmented", 2.0)
    cfg = TrainConfig(episodes=40, steps_per_episode=30, sessions=1, rng_seed=4)
    calls, ref_seen = [], []

    def counting(product, chosen):
        calls.append(chosen)
        return evaluate_pairs(product, chosen)

    def counting_ref(product, policy, reference=helpers.reference_evaluate_policy):
        ref_seen.append((policy, reference(product, policy)))
        return ref_seen[-1][1]

    monkeypatch.setattr(learn, "evaluate_pairs", counting)
    monkeypatch.setattr(helpers, "reference_evaluate_policy", counting_ref)
    assert_same_training(train(product, scheme, cfg), reference_train(product, scheme, cfg))
    assert any(all(before.choice[s] == after.choice[s] for s in reached_states(ev))
               for (before, ev), (after, _) in zip(ref_seen, ref_seen[1:]))
    assert len(calls) < len(ref_seen)


class CountingKernel:
    """``learn._lib`` that logs its ``run_session`` calls into ``log``."""

    def __init__(self, lib, log: list):
        self.lib, self.log = lib, log

    def __getattr__(self, name):
        return getattr(self.lib, name)

    def run_session(self, problem, session, episode, limit):
        self.log.append(("run", episode, limit))
        return self.lib.run_session(problem, session, episode, limit)


@pytest.mark.parametrize("track", [True, False])
def test_train_splits_sessions_into_calls_of_bounded_steps(augmented_product, track, monkeypatch):
    """With a budget of 1000 steps a kernel call runs at most 3 episodes of
    300 steps; with one of 100 steps, one episode, longer than the budget.
    Either way every result equals the Python reference's."""
    scheme = AcceptingReward(augmented_product, 2.0)
    cfg = TrainConfig(episodes=20, steps_per_episode=300, sessions=2, rng_seed=1)
    ref = reference_train(augmented_product, scheme, cfg, track)
    for budget, most in ((1000, 3), (100, 1)):
        log = []
        monkeypatch.setattr(learn, "_STEPS_PER_CALL", budget)
        monkeypatch.setattr(learn, "_lib", CountingKernel(learn._lib, log))
        assert_same_training(train(augmented_product, scheme, cfg, track), ref)
        monkeypatch.undo()
        assert max(limit - episode for _, episode, limit in log) == most
        assert len(log) >= cfg.sessions * cfg.episodes // most


@pytest.mark.parametrize("method", METHODS)
def test_train_wakes_only_for_due_evaluations(grid, fig_automaton, method, monkeypatch):
    """Without tracking one kernel call runs each session.  With it, the
    first call runs one episode, every later call but the last ends in an
    evaluation, and once sat 1 is reached one call runs the rest."""
    product, scheme = method_product_and_scheme(grid, fig_automaton, method, 2.0)
    cfg = TrainConfig(episodes=30, steps_per_episode=300, sessions=4, rng_seed=8)
    log = []

    def counting(product, chosen):
        log.append(("eval",))
        return evaluate_pairs(product, chosen)

    monkeypatch.setattr(learn, "_lib", CountingKernel(learn._lib, log))
    monkeypatch.setattr(learn, "evaluate_pairs", counting)
    train(product, scheme, cfg, track_satisfaction=False)
    assert log == [("run", 0, cfg.episodes)] * cfg.sessions
    log.clear()
    result = train(product, scheme, cfg)
    starts = [i for i, event in enumerate(log) if event[:2] == ("run", 0)] + [len(log)]
    assert len(starts) == cfg.sessions + 1
    for lo, hi, sat1 in zip(starts, starts[1:], result.first_sat1_episode):
        events = log[lo:hi]
        assert events[0] == ("run", 0, 1)
        kinds = "".join(event[0][0] for event in events)  # r: a kernel call, e: an evaluation
        assert re.fullmatch("r(er)*e?", kinds)
        if sat1 is not None and sat1 < cfg.episodes:
            assert events[kinds.rindex("r")] == ("run", sat1, cfg.episodes)
    if method == "augmented":
        assert result.first_sat1_episode == (17, None, None, None)
