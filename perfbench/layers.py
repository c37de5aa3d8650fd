"""Per-layer probes: each times calls into one module's public functions on
the workload's own inputs (the battery's grid9 inputs on ``verify-battery``).

Every probe runs on every workload, so each metric is measured wherever it
is reported.  Per-call figures are medians over repeats of a fixed batch
of calls.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import replace

import numpy as np

from omegarl.augment import augment, merge_unaccepting
from omegarl.automata import accepts_lasso, degeneralize, parse_automaton, serialize_automaton
from omegarl.graphs import strongly_connected_components
from omegarl.learn import greedy_policy, train, value_iteration
from omegarl.ltl import eval_lasso, parse_ltl
from omegarl.mdp import decompose, induce_chain, parse_mdp, reach_probability, serialize_mdp
from omegarl.product import AcceptingReward, FrontierReward, build_product, evaluate_policy
from omegarl.verify import all_lassos, run_battery

from workloads import METHODS, ORACLE_GAMMA

REPEATS = 5
KERNEL_STEPS = 40_000  # Q-learning steps per method in the kernel probe
REWARD_CALLS = 20_000
MAX_WORDS = 1000


def median_seconds(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def per_call(fn, items, repeats: int = REPEATS) -> float:
    """Median seconds per call of ``fn`` over the batch ``items``."""
    return median_seconds(lambda: [fn(*x) for x in items], repeats) / len(items)


def _walk(product, n: int, seed: int) -> list[tuple[int, str, int]]:
    """A seeded random walk of ``n`` product transitions."""
    rng = np.random.default_rng(seed)
    enabled, prob = product.mdp.enabled, product.mdp.prob
    s, out = product.mdp.initial, []
    for u, v in rng.random((n, 2)).tolist():
        actions = enabled[s]
        a = actions[int(u * len(actions))]
        row = prob[(s, a)]
        dst = row[-1][0]
        for d, p in row:
            v -= p
            if v < 0:
                dst = d
                break
        out.append((s, a, dst))
        s = dst
    return out


def measure(w) -> dict[str, tuple[float, str]]:
    """Every per-layer probe on workload ``w`` (loaded); name -> (value, unit)."""
    out: dict[str, tuple[float, str]] = {}
    cfg = w.cfg
    products = {m: w.products[m][0] for m in METHODS}

    mdp_text, tgba_text = serialize_mdp(w.mdp), serialize_automaton(w.automaton)
    out["mdp.parse_s"] = (median_seconds(lambda: parse_mdp(mdp_text)), "s")
    out["automata.parse_s"] = (median_seconds(lambda: parse_automaton(tgba_text)), "s")
    aug = augment(w.automaton)
    out["augment.augment_s"] = (median_seconds(lambda: augment(w.automaton)), "s")
    out["augment.merge_s"] = (median_seconds(lambda: merge_unaccepting(aug)), "s")
    out["augment.states"] = (aug.num_states, "count")
    out["automata.degeneralize_s"] = (median_seconds(lambda: degeneralize(w.automaton)), "s")
    for m, p in products.items():
        out[f"product.build_s.{m}"] = (
            median_seconds(lambda: build_product(w.mdp, p.automaton)), "s"
        )
        out[f"product.states.{m}"] = (p.num_states, "count")
        out[f"product.pairs.{m}"] = (len(p.mdp.prob), "count")

    # the kernel without per-episode evaluation, in the workload's episode regime
    episodes = max(1, KERNEL_STEPS // (cfg.steps_per_episode * cfg.sessions))
    kcfg = replace(cfg, episodes=episodes)
    steps = episodes * cfg.steps_per_episode * cfg.sessions
    qtables, policies = [], {}
    for m, (p, scheme) in w.products.items():
        start = time.perf_counter()
        result = train(p, scheme, kcfg, track_satisfaction=False)
        out[f"learn.kernel_steps_per_s.{m}"] = (steps / (time.perf_counter() - start), "steps/s")
        qtables += result.qtables
        policies[m] = result.policies
    out["learn.greedy_policy_us"] = (per_call(greedy_policy, [(q,) for q in qtables]) * 1e6, "us")
    for m, p in products.items():
        start = time.perf_counter()
        value_iteration(p, ORACLE_GAMMA, cfg.r_p)
        out[f"learn.value_iteration_s.{m}"] = (time.perf_counter() - start, "s")
        out[f"product.evaluate_policy_us.{m}"] = (
            per_call(evaluate_policy, [(p, pol) for pol in policies[m]]) * 1e6, "us"
        )

    pairs = [(p, pol) for m, p in products.items() for pol in policies[m]]
    out["mdp.induce_decompose_us"] = (
        per_call(lambda p, pol: decompose(induce_chain(p.mdp, pol)), pairs) * 1e6, "us"
    )
    chains = [induce_chain(p.mdp, pol) for p, pol in pairs]
    targets = [(c, set(decompose(c).recurrent_classes[0])) for c in chains]
    out["mdp.reach_probability_us"] = (per_call(reach_probability, targets) * 1e6, "us")
    graphs = [
        (c.states, {v: tuple(d for d, _ in row) for v, row in c.prob.items()}.__getitem__)
        for c in chains
    ]
    out["graphs.scc_us"] = (per_call(strongly_connected_components, graphs) * 1e6, "us")

    for name, m, cls in (("accepting", "augmented", AcceptingReward),
                         ("frontier", "frontier", FrontierReward)):
        scheme = cls(products[m], cfg.r_p)
        walk = [(t,) for t in _walk(products[m], REWARD_CALLS, w.seed)]
        scheme.reset()
        out[f"product.reward_ns.{name}"] = (per_call(scheme, walk) * 1e9, "ns")

    words = list(all_lassos(sorted(w.automaton.ap), 1, 2))
    words = [(w_,) for w_ in words[:: -(-len(words) // MAX_WORDS)]]
    phi = parse_ltl(w.formula)
    out["ltl.eval_lasso_us"] = (per_call(lambda x: eval_lasso(phi, x), words) * 1e6, "us")
    out["ltl.words"] = (len(words), "count")
    out["automata.accepts_lasso_us"] = (
        per_call(lambda x: accepts_lasso(w.automaton, x), words) * 1e6, "us"
    )

    for r in run_battery(quick=True):
        out[f"verify.{r.name}_s"] = (r.seconds, "s")
    return out
