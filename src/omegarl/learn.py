"""Tabular Q-learning on product-MDP simulators, plus a value-iteration
oracle for desk-scale verification.

Training runs independent seeded sessions; each episode restarts the
simulator at the product initial state while the Q-table and visit counts
persist across episodes within a session.  Exploration follows a
visit-count epsilon schedule and the learning rate decays per state-action
pair under a Robbins-Monro-compatible power law.  Value iteration is a
test oracle only and takes no part in training; it runs on the same
integer tables as the kernel (built by ``build_product``; layout in the
product module), with one Bellman backup serving both its sweeps and its
greedy extraction.

Value iteration lays the table rows out in successor slots (slot ``j``
holds every pair's ``j``-th successor, padded with zero-probability,
zero-reward slots) and backs up all pairs with a few numpy operations per
slot.  It adds the slots one by one from the left, the order of a scalar
loop over a row, so every value is that loop's float; the per-pair sum is
never ``np.sum``, ``@``, ``dot`` or ``einsum``, whose summation order numpy
does not promise (pairwise, SIMD and BLAS kernels regroup the additions).

The training kernel runs on the product's integer tables and inlines the
reward scheme's bitmask ``step``.  A ``QTable`` holds flat lists: Q-values
and visit counts indexed by pair, state visits indexed by state; the
kernel hands its own lists over.  Action names come back only in the
returned policies, which ``greedy_policy`` and ``value_iteration`` extract
by one rule: the first maximal pair of each state.
Per state, the kernel also keeps its greedy pair and maximal value current
through every update, so neither the greedy choice nor the bootstrap
target scans the state's actions.

The kernel replays numpy's PCG64 ``Generator`` exactly (``RawDraws``): it
takes each session's raw 64-bit words from ``bit_generator.random_raw`` in
blocks and decodes them as ``Generator.random()`` and
``Generator.integers(n)`` do, so a run draws the same numbers as calling
the generator once per draw.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import asdict, dataclass

import numpy as np

from .mdp import PositionalPolicy
from .product import PolicyEvaluation, ProductMdp, RewardScheme, evaluate_policy, require_positive


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one experiment.

    ``epsilon_scope`` controls the visit counts behind the exploration
    schedule: "episode" restarts them with every episode (the default;
    exploration survives long enough for the trap-heavy products to be
    learned), "session" accumulates them across a whole session.
    """

    gamma: float = 0.95
    r_p: float = 2.0
    episodes: int = 200
    steps_per_episode: int = 1000
    sessions: int = 10
    epsilon_numerator: float = 0.95
    alpha_exponent: float = 0.85
    rng_seed: int = 0
    epsilon_scope: str = "episode"

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        require_positive("r_p", self.r_p)
        for name in ("episodes", "steps_per_episode", "sessions"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if not 0.5 < self.alpha_exponent <= 1.0:
            raise ValueError(
                "alpha_exponent must lie in (0.5, 1] so that the step sizes "
                "sum to infinity while their squares stay summable"
            )
        require_positive("epsilon_numerator", self.epsilon_numerator)
        if self.epsilon_scope not in ("episode", "session"):
            raise ValueError("epsilon_scope must be 'episode' or 'session'")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        """Config from a JSON object; unknown fields and values of the wrong
        type raise ValueError naming the field."""
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, not {type(data).__name__}")
        defaults = cls().to_dict()
        for name, value in data.items():
            if name not in defaults:
                raise ValueError(f"unknown config field {name!r}")
            kind = type(defaults[name])
            allowed = (int, float) if kind is float else kind
            if isinstance(value, bool) or not isinstance(value, allowed):
                what = {int: "an integer", float: "a number", str: "a string"}[kind]
                raise ValueError(f"config field {name!r} must be {what}, not {value!r}")
        return cls(**data)

    @classmethod
    def from_json(cls, path) -> "TrainConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def epsilon(n: int, numerator: float = 0.95) -> float:
    """Exploration probability after the n-th visit to a state (n >= 1)."""
    if n < 1:
        raise ValueError("visit count must include the current visit")
    return min(1.0, numerator / n)


def alpha(k: int, exponent: float = 0.85) -> float:
    """Learning rate for the k-th update of a state-action pair (k >= 1)."""
    if k < 1:
        raise ValueError("update count must include the current update")
    return float(k) ** (-exponent)


class QTable:
    """Action values plus visit counts of a product, initialized to zero:
    ``values`` and ``pair_visits`` are indexed by pair (``product.keys``
    names them), ``state_visits`` by state."""

    def __init__(self, product: ProductMdp):
        self.product = product
        self.values: list[float] = [0.0] * len(product.keys)
        self.pair_visits: list[int] = [0] * len(product.keys)
        self.state_visits: list[int] = [0] * product.num_states


def _first_maximal(product: ProductMdp, values) -> PositionalPolicy:
    """The action of each state's first maximal pair in ``values``, so ties
    go to the lowest action id."""
    first, keys = product.first, product.keys
    choice = {}
    for s, (lo, hi) in enumerate(zip(first, first[1:])):
        qs = values[lo:hi]
        choice[s] = keys[lo + qs.index(max(qs))][1]
    return PositionalPolicy(choice)


def greedy_policy(q: QTable) -> PositionalPolicy:
    """Greedy action per state, ties broken by the lowest action id."""
    return _first_maximal(q.product, q.values)


class RawDraws:
    """``Generator.random()`` and ``Generator.integers(n)`` of numpy's PCG64
    generator, decoded from blocks of its raw 64-bit words.

    ``random()`` is ``(x >> 11) * 2**-53`` of the next word.  ``integers(n)``
    is Lemire's bounded method on 32-bit halves: a word's low half is used
    first and its high half is kept for the next 32-bit draw, across calls,
    and n = 1 draws nothing.  ``doubles[pos]`` is the next ``random()``; a
    caller may read it directly and advance ``pos`` itself.  ``reserve(n)``
    keeps at least n undrawn words (dropping drawn ones in place, so the
    lists keep their identity), and a word taken by ``integers`` first
    reserves ``margin`` words.
    """

    def __init__(self, bit_generator, margin: int = 1, block: int = 4096):
        self._raw = bit_generator.random_raw
        self._margin = margin
        self._block = block
        self._half: int | None = None
        self.words: list[int] = []
        self.doubles: list[float] = []
        self.pos = 0

    def reserve(self, n: int) -> None:
        left = len(self.words) - self.pos
        if left >= n:
            return
        del self.words[: self.pos]
        del self.doubles[: self.pos]
        self.pos = 0
        raw = self._raw(max(n - left, self._block))
        self.words += raw.tolist()
        self.doubles += ((raw >> 11) * 2.0**-53).tolist()

    def random(self) -> float:
        self.reserve(1)
        self.pos += 1
        return self.doubles[self.pos - 1]

    def _uint32(self) -> int:
        if self._half is not None:
            x, self._half = self._half, None
            return x
        self.reserve(self._margin)
        w = self.words[self.pos]
        self.pos += 1
        self._half = w >> 32
        return w & 0xFFFFFFFF

    def integers(self, n: int) -> int:
        if n == 1:
            return 0
        m = self._uint32() * n
        while m & 0xFFFFFFFF < (1 << 32) % n:
            m = self._uint32() * n
        return m >> 32


@dataclass(frozen=True)
class LearningCurve:
    """Per-episode average reward (total reward / steps) per session, plus
    the across-session mean and standard deviation per episode."""

    per_session: np.ndarray  # shape (sessions, episodes)
    mean: np.ndarray
    std: np.ndarray


@dataclass(frozen=True)
class TrainResult:
    """``evaluations`` holds each final policy's exact evaluation, or None
    when satisfaction was not tracked."""

    qtables: tuple[QTable, ...]
    curve: LearningCurve
    policies: tuple[PositionalPolicy, ...]
    first_positive_episode: tuple[int | None, ...]
    first_sat1_episode: tuple[int | None, ...]
    evaluations: tuple[PolicyEvaluation | None, ...]


def train(
    product: ProductMdp,
    scheme: RewardScheme,
    cfg: TrainConfig,
    track_satisfaction: bool = True,
) -> TrainResult:
    """Q-learning over ``cfg.sessions`` independent seeded sessions.

    ``scheme`` is a reward scheme of the product module; the kernel applies
    its bitmask rule to the product's masks.  After each episode the greedy
    policy is evaluated exactly, unless it equals the last one evaluated, to
    record when it first positively satisfies the specification and when its
    satisfaction probability first reaches one; the evaluation never feeds
    back into learning.
    """
    keys, first, succ, cuts, masks = (
        product.keys, list(product.first), product.succ, product.cuts, product.masks
    )
    spans = tuple(zip(first, first[1:]))
    r_p, empty = scheme.r_p, scheme.empty
    gamma, eps_num, neg_exp = cfg.gamma, cfg.epsilon_numerator, -cfg.alpha_exponent
    steps = cfg.steps_per_episode
    margin = 2 * steps + 1  # the most words the rest of an episode reads inline
    n = product.num_states
    initial = product.mdp.initial

    def policy(greedy: list[int]) -> PositionalPolicy:
        return PositionalPolicy({s: keys[p][1] for s, p in enumerate(greedy)})

    seeds = np.random.SeedSequence(cfg.rng_seed).spawn(cfg.sessions)
    curves = np.zeros((cfg.sessions, cfg.episodes))
    qtables: list[QTable] = []
    policies: list[PositionalPolicy] = []
    first_pos: list[int | None] = []
    first_sat1: list[int | None] = []
    evaluations: list[PolicyEvaluation | None] = []

    for si in range(cfg.sessions):
        draws = RawDraws(np.random.PCG64(seeds[si]), margin)
        doubles = draws.doubles
        values = [0.0] * len(keys)
        pair_visits = [0] * len(keys)
        state_visits = [0] * n
        best = first[:-1]  # per state, its first pair of maximal value
        top = [0.0] * n  # per state, that maximal value
        pos_ep: int | None = None
        sat1_ep: int | None = None
        evaluated: list[int] | None = None
        ev: PolicyEvaluation | None = None
        for ep in range(cfg.episodes):
            if cfg.epsilon_scope == "episode":
                state_visits = [0] * n
            draws.reserve(margin)
            pos = draws.pos
            s = initial
            done = 0
            total = 0.0
            for _ in range(steps):
                k = state_visits[s] + 1
                state_visits[s] = k
                pos += 1  # u < eps_num / k is u < epsilon(k), since u < 1
                if doubles[pos - 1] < eps_num / k:
                    lo, hi = spans[s]
                    draws.pos = pos
                    p = lo + draws.integers(hi - lo)
                    pos = draws.pos
                else:
                    p = best[s]
                j = bisect_right(cuts[p], doubles[pos])
                pos += 1
                dst = succ[p][j]
                target = gamma * top[dst]  # adding a zero reward changes no bit
                m = masks[p][j]
                if m and not m & done:
                    done |= m
                    if empty[done]:
                        done = 0
                    target = r_p + target
                    total += r_p
                k = pair_visits[p] + 1
                pair_visits[p] = k
                v = values[p]
                new = v + k**neg_exp * (target - v)  # k**neg_exp is alpha(k)
                values[p] = new
                # keep best[s] and top[s] equal to a fresh argmax and max
                if new > top[s]:
                    top[s] = new
                    best[s] = p
                elif p == best[s]:
                    if new < v:
                        lo, hi = spans[s]
                        qs = values[lo:hi]
                        top[s] = new = max(qs)
                        best[s] = lo + qs.index(new)
                elif new == top[s] and p < best[s]:
                    best[s] = p
                s = dst
            draws.pos = pos
            curves[si, ep] = total / steps
            if track_satisfaction and sat1_ep is None and best != evaluated:
                evaluated, ev = best[:], evaluate_policy(product, policy(best))
                if pos_ep is None and ev.positively_satisfies:
                    pos_ep = ep + 1
                if ev.sat_probability == 1.0:
                    sat1_ep = ep + 1
        if track_satisfaction and best != evaluated:
            ev = evaluate_policy(product, policy(best))
        q = QTable(product)
        q.values, q.pair_visits, q.state_visits = values, pair_visits, state_visits
        qtables.append(q)
        policies.append(policy(best))
        first_pos.append(pos_ep)
        first_sat1.append(sat1_ep)
        evaluations.append(ev if track_satisfaction else None)

    curve = LearningCurve(
        per_session=curves,
        mean=curves.mean(axis=0),
        std=curves.std(axis=0),
    )
    return TrainResult(
        qtables=tuple(qtables),
        curve=curve,
        policies=tuple(policies),
        first_positive_episode=tuple(first_pos),
        first_sat1_episode=tuple(first_sat1),
        evaluations=tuple(evaluations),
    )


def value_iteration(
    product: ProductMdp, gamma: float, r_p: float, tol: float = 1e-10
) -> tuple[dict[int, float], PositionalPolicy]:
    """Optimal discounted values under the accepting-transition reward.

    Synchronous Bellman-optimality iteration on the product's integer
    tables to a sup-norm error below ``tol``; the returned greedy policy
    breaks ties by lowest action id, as ``greedy_policy`` does.  ``r_p``
    must be positive and finite, as for ``AcceptingReward``, and ``tol``
    must be non-negative.

    The tables are laid out in successor slots: ``dst``, ``prob`` and
    ``rew`` are ``(width, pairs)`` arrays, where ``width`` is the most
    successors of any pair, slot ``j`` of pair ``p`` holds its ``j``-th
    successor, and unused slots hold ``(0, 0.0, 0.0)``.  The backup adds
    the slots one at a time, left to right, which is the order of a
    per-pair loop over the successors; a padding slot adds ``+0.0`` and
    changes no bit.  So every value is the float that loop gives, and the
    pinned oracle hashes hold.  A reduction such as ``np.sum`` would be
    free to regroup the additions and change the last bits.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must lie in [0, 1)")
    if not tol >= 0.0:
        raise ValueError("tol must be non-negative")
    require_positive("r_p", r_p)
    width = max(map(len, product.succ))
    shape = (width, len(product.keys))
    dst, prob, rew = np.zeros(shape, dtype=np.intp), np.zeros(shape), np.zeros(shape)
    for pair, row in enumerate(zip(product.succ, product.probs, product.masks)):
        for j, (d, p, m) in enumerate(zip(*row)):
            dst[j, pair], prob[j, pair], rew[j, pair] = d, p, r_p if m else 0.0
    starts = np.array(product.first[:-1], dtype=np.intp)

    def backup(v: np.ndarray) -> np.ndarray:
        total = prob[0] * (rew[0] + gamma * v[dst[0]])
        for j in range(1, width):
            total += prob[j] * (rew[j] + gamma * v[dst[j]])
        return total

    v = np.zeros(product.num_states)
    threshold = tol if gamma == 0.0 else tol * (1.0 - gamma) / gamma
    while True:
        new_v = np.maximum.reduceat(backup(v), starts)
        delta = np.abs(new_v - v).max()
        v = new_v
        if delta <= threshold:
            break

    return dict(enumerate(v.tolist())), _first_maximal(product, backup(v).tolist())
