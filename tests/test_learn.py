import math

import numpy as np
import pytest

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
    alpha,
    build_product,
    epsilon,
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
    return TGba(1, 0, frozenset({"a"}), frozenset({loop_a, loop_empty}), (frozenset({loop_a}),))


def test_epsilon_schedule():
    assert epsilon(1) == 0.95
    assert epsilon(19) == pytest.approx(0.05, abs=1e-15)
    values = [epsilon(n) for n in range(1, 200)]
    assert values == sorted(values, reverse=True)
    assert epsilon(10**9) < 1e-8
    with pytest.raises(ValueError):
        epsilon(0)


def test_alpha_schedule():
    assert alpha(1) == 1.0
    assert alpha(16, 0.85) == pytest.approx(math.exp(-0.85 * math.log(16)), abs=1e-12)
    assert alpha(16, 0.85) == pytest.approx(0.0947, abs=2e-4)
    with pytest.raises(ValueError):
        alpha(0)


def test_train_config_validation():
    with pytest.raises(ValueError, match="alpha_exponent"):
        TrainConfig(alpha_exponent=0.4)
    with pytest.raises(ValueError, match="gamma"):
        TrainConfig(gamma=1.0)
    with pytest.raises(ValueError, match="episodes"):
        TrainConfig(episodes=0)
    with pytest.raises(ValueError, match="epsilon_scope"):
        TrainConfig(epsilon_scope="weekly")
    for name in ("r_p", "epsilon_numerator"):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=f"{name} must be positive"):
                TrainConfig(**{name: bad})
    cfg = TrainConfig()
    assert cfg.gamma == 0.95 and cfg.r_p == 2.0 and cfg.alpha_exponent == 0.85
    assert TrainConfig.from_dict(cfg.to_dict()) == cfg


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
    # rows of 1-4 successors pad the short ones; twin actions tie exactly
    rng = np.random.default_rng(seed)
    m = random_labeled_mdp(rng, n_states=int(rng.integers(3, 12)), letters=letters_over("ab"))
    for method in METHODS:
        product, _ = method_product_and_scheme(m, named_fixture("gfa_gfb_gnc"), method, 2.0)
        assert_same_as_scalar(product, GAMMAS[seed % len(GAMMAS)])


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


def test_train_session_scope_available(augmented_product):
    cfg = TrainConfig(
        episodes=4, steps_per_episode=50, sessions=1, rng_seed=2, epsilon_scope="session"
    )
    result = train(
        augmented_product,
        AcceptingReward(augmented_product, cfg.r_p),
        cfg,
        track_satisfaction=False,
    )
    assert result.curve.per_session.shape == (1, 4)


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
    rng = _generator_array(np.random.PCG64(seed))
    words = []
    for size in (1, 999, 5000, 4000):  # each call loads and stores the state
        words += kernel_draws(rng, [0] * size)
        rng = rng.copy()
    assert words == np.random.PCG64(seed).random_raw(10000).tolist()

    ops = np.random.default_rng(seed + 100).integers(0, 10, size=3000).tolist()
    rng = _generator_array(np.random.PCG64(seed))
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
    rng = _generator_array(bit_generator())
    expected = np.random.Generator(bit_generator()).integers(3)
    assert kernel_draws(rng, [3]) == [expected] == [RawDraws(bit_generator()).integers(3)]
    two_on = bit_generator()
    two_on.random_raw(2)
    assert rng[:4].tolist() == _generator_array(two_on)[:4].tolist()
    assert rng[4] == 1  # the accepted word's high half is buffered


def assert_same_training(result, ref):
    assert result.curve.per_session.tobytes() == ref.curve.per_session.tobytes()
    for q, r in zip(result.qtables, ref.qtables, strict=True):
        assert np.array(q.values).tobytes() == np.array(r.values).tobytes()
        assert (q.pair_visits, q.state_visits) == (r.pair_visits, r.state_visits)
    assert [p.choice for p in result.policies] == [p.choice for p in ref.policies]
    assert result.first_positive_episode == ref.first_positive_episode
    assert result.first_sat1_episode == ref.first_sat1_episode
    assert result.evaluations == ref.evaluations


@pytest.mark.parametrize("seed", range(12))
def test_train_matches_python_reference_on_random_mdps(seed):
    """The compiled kernel reproduces the Python step loop bit for bit:
    Q-values, visits, curves, first episodes and policies, over three
    sessions (a half-word leaking from one session into the next would show)
    on random MDPs, both fixtures, every method and both epsilon scopes."""
    rng = np.random.default_rng(seed)
    # c-free labels, so that most sessions reach sat 1 and the episode counts mean something
    m = random_labeled_mdp(rng, n_states=int(rng.integers(3, 10)), letters=letters_over("ab"))
    one_action_states = 0
    for spec in ("gfa_gfb_gnc", "fg_a"):
        for method in METHODS:
            product, scheme = method_product_and_scheme(m, named_fixture(spec), method, 2.0)
            widths = np.diff(product.first)
            one_action_states += int((widths == 1).sum())
            for scope in ("episode", "session"):
                cfg = TrainConfig(episodes=20, steps_per_episode=200, sessions=3,
                                  gamma=(0.9, 0.95, 0.99)[seed % 3], rng_seed=seed,
                                  epsilon_scope=scope)
                assert_same_training(train(product, scheme, cfg),
                                     reference_train(product, scheme, cfg))
    assert one_action_states > 0


def test_train_matches_python_reference_with_one_action_everywhere():
    """n = 1 draws nothing: a product whose states all have one action."""
    product = two_state_loop_product()
    cfg = TrainConfig(episodes=5, steps_per_episode=40, sessions=3, rng_seed=1)
    scheme = AcceptingReward(product, cfg.r_p)
    assert_same_training(train(product, scheme, cfg), reference_train(product, scheme, cfg))


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


def test_train_greedy_cache_and_evaluations_match_fresh_ones(augmented_product, raw_product):
    cfg = TrainConfig(episodes=8, steps_per_episode=400, sessions=2, rng_seed=4)
    for product, scheme in ((augmented_product, AcceptingReward(augmented_product, 2.0)),
                            (raw_product, FrontierReward(raw_product, 2.0))):
        result = train(product, scheme, cfg)
        for q, pol, ev in zip(result.qtables, result.policies, result.evaluations):
            assert pol == greedy_policy(q)
            assert ev == evaluate_policy(product, pol)


def test_train_evaluates_each_greedy_policy_change_once(raw_product, monkeypatch):
    import omegarl.learn as learn_mod

    seen = []

    def counting(product, chosen):
        seen.append(list(chosen))
        return evaluate_pairs(product, chosen)

    monkeypatch.setattr(learn_mod, "evaluate_pairs", counting)
    cfg = TrainConfig(episodes=40, steps_per_episode=300, sessions=1, rng_seed=6)
    result = train(raw_product, FrontierReward(raw_product, 2.0), cfg)
    assert result.first_sat1_episode == (None,)  # every episode's policy is checked
    assert all(a != b for a, b in zip(seen, seen[1:]))
    assert [raw_product.keys[p] for p in seen[-1]] == sorted(result.policies[0].choice.items())
    assert len(seen) < cfg.episodes
