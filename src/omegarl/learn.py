"""Tabular Q-learning on product-MDP simulators, plus a value-iteration
oracle for desk-scale verification.

Training runs independent seeded sessions; each episode restarts the
simulator at product state 0, the initial one, while the Q-table and visit
counts persist across episodes within a session.  Exploration follows a
visit-count epsilon schedule and the learning rate decays per state-action
pair under a Robbins-Monro-compatible power law.  Value iteration is a
test oracle only and takes no part in training.

Both loops run in C (``_kernel.c``) on the product's integer tables, its
only store (layout in the product module), padded to the widest row by
``_padded_tables``: row ``p`` holds pair ``p``'s successors,
probabilities, cuts (derived there from the probabilities) and masks,
padded with state 0, probability 0, cut ``+inf`` and mask 0.
``run_episode`` runs one episode's step loop; Python seeds the sessions,
resets the per-episode counts, evaluates greedy policies and assembles the
result.  ``value_sweeps`` runs the synchronous sweeps of value iteration
and hands back the final values and each pair's backup from them.  A
``QTable`` holds flat lists: Q-values and visit counts indexed by pair,
state visits indexed by state, copied from the kernel's arrays.  Action
names come back only in the returned policies, which ``greedy_policy`` and
``value_iteration`` extract by one rule: the first maximal pair of each
state.  Per state, the training kernel also keeps its greedy pair and
maximal value current through every update, so neither the greedy choice
nor the bootstrap target scans the state's actions; only a drop in the
greedy pair's value rescans the state for its first maximal pair.

The training kernel replays numpy's PCG64 ``Generator`` exactly.  Each
session's generator state is ``PCG64(seed).state``: the 128-bit ``state``
and ``inc``, handed over as four 64-bit halves, plus the buffered high
half-word of the last 32-bit draw, which starts empty in each session and
lives in the caller's array, never in the kernel.  Each 64-bit word is the
XSL-RR output of the advanced state; ``random()`` is ``(w >> 11) *
2**-53``; ``integers(n)`` is Lemire's method on 32-bit halves, the low
half of a word first with its high half kept for the next 32-bit draw,
and n = 1 draws nothing.

Both entry points do the IEEE operations of their Python references (kept
with the tests as ``reference_train`` and ``scalar_value_iteration``) in
the same order, so every float they return is bit-identical to the
reference's.  Training: ``eps_num / k``; ``gamma * top[dst]``, then ``r_p
+ target`` on a fresh accepting mask; ``v + pow(k, -alpha_exponent) *
(target - v)``, since CPython's ``int ** float`` is the same libm ``pow``
call; the successor is the count of the pair's cuts that are ``<= u``, as
``bisect_right`` gives, with the cut rows padded by ``+inf``.  Value
iteration: a pair's backup is ``p0 * (r0 + gamma * v[d0])``, then ``+=
pj * (rj + gamma * v[dj])`` for each further slot from the left, where
``r`` is ``r_p`` on a non-zero mask and 0 otherwise, so a padding slot
adds ``+0.0`` and changes no bit; a state's value is the maximum of its
pairs' backups; a sweep's change is the maximum of ``|new - old|``.  The
kernel is compiled with ``gcc -O2 -ffp-contract=off`` and no
``-ffast-math``, ``-Ofast`` or ``-march``, since a fused multiply-add or a
reassociated sum would change the last bits.  The module builds the
kernel on first import into ``__pycache__`` next to this file, under a
name keyed by a CRC-32 of the C source, the declarations and the flags;
the compiler runs in a private temporary directory and the result is
moved into place atomically, so concurrent first imports all succeed.  A
failed build raises ``ImportError`` with the compiler's message; there is
no Python fallback.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import asdict, dataclass
from importlib.machinery import EXTENSION_SUFFIXES
from importlib.util import module_from_spec, spec_from_file_location
from itertools import chain
from pathlib import Path

import numpy as np

from .mdp import PositionalPolicy
from .product import PolicyEvaluation, ProductMdp, RewardScheme, evaluate_pairs, require_positive

_KERNEL_CDEF = """
double run_episode(
    int64_t steps, int64_t initial,
    double gamma, double r_p, double eps_num, double neg_exp,
    int64_t width, const int64_t *first, const int64_t *succ,
    const double *cuts, const int64_t *masks, const uint8_t *empty,
    double *values, int64_t *pair_visits, int64_t *state_visits,
    int64_t *best, double *top, uint64_t *rng);
void draw(uint64_t *rng, const int64_t *ops, int64_t count, uint64_t *out);
int64_t value_sweeps(
    int64_t states, int64_t width, const int64_t *first, const int64_t *succ,
    const double *probs, const int64_t *masks, double gamma, double r_p,
    double threshold, int64_t limit, double *v, double *next, double *q);
"""
_KERNEL_FLAGS = ("-O2", "-ffp-contract=off")
_SWEEPS_PER_CALL = 4096


def _load_kernel():
    """The compiled kernel's ``(ffi, lib)``, built on a cache miss."""
    here = Path(__file__).resolve().parent
    source = (here / "_kernel.c").read_text(encoding="utf-8")
    key = zlib.crc32("\0".join((source, _KERNEL_CDEF, *_KERNEL_FLAGS)).encode())
    name = f"_omegarl_kernel_{key:08x}"
    path = here / "__pycache__" / (name + EXTENSION_SUFFIXES[0])
    if not path.exists():
        _build_kernel(name, source, path)
    spec = spec_from_file_location(name, path)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ffi, module.lib


def _build_kernel(name: str, source: str, path: Path) -> None:
    """Emit the cffi wrapper, compile it with gcc in a private directory and
    move the result to ``path`` in one step.  Its imports serve only this
    cold path."""
    import subprocess
    import sysconfig
    import tempfile

    import cffi

    builder = cffi.FFI()
    builder.cdef(_KERNEL_CDEF)
    builder.set_source(name, source, compiler_verbose=False)
    try:
        path.parent.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=path.parent) as tmp:
            c_file, so_file = os.path.join(tmp, name + ".c"), os.path.join(tmp, path.name)
            builder.emit_c_code(c_file)
            cmd = ["gcc", "-shared", "-fPIC", *_KERNEL_FLAGS,
                   "-I" + sysconfig.get_paths()["include"], c_file, "-o", so_file, "-lm"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode == 0:
                os.replace(so_file, path)
    except OSError as exc:  # no gcc, or no writable cache directory
        raise ImportError(f"cannot build the omegarl training kernel: {exc}") from None
    if proc.returncode != 0:
        raise ImportError(
            f"cannot build the omegarl training kernel: gcc exited with status "
            f"{proc.returncode}:\n{proc.stderr}"
        )


# Built at import, so that no train call pays the one-time compile.
_ffi, _lib = _load_kernel()


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


def _generator_array(bit_generator: np.random.PCG64) -> np.ndarray:
    """The kernel's generator state for ``bit_generator``: its 128-bit
    ``state`` and ``inc`` as high and low 64-bit halves, then an empty
    buffered half-word (a has-half flag and the half)."""
    pcg = bit_generator.state["state"]
    halves = (*divmod(pcg["state"], 1 << 64), *divmod(pcg["inc"], 1 << 64))
    return np.array([*halves, 0, 0], dtype=np.uint64)


def _padded_tables(product: ProductMdp) -> tuple[np.ndarray, ...]:
    """The product's ``succ``, ``probs`` and ``masks`` as ``(pairs, width)``
    arrays, each row padded to the widest one with state 0, probability 0
    and mask 0, and the cuts: the running sums of ``probs`` (``cumsum`` adds
    left to right, as the reference's ``accumulate`` does), ``+inf`` from
    each row's last successor on."""
    lengths = np.array([len(row) for row in product.succ])
    slots = np.arange(lengths.max())
    used = slots < lengths[:, None]
    succ, probs = np.zeros(used.shape, dtype=np.int64), np.zeros(used.shape)
    masks = np.zeros(used.shape, dtype=np.int64)
    # a boolean index fills the selected slots row by row, left to right
    for table, rows in ((succ, product.succ), (probs, product.probs), (masks, product.masks)):
        table[used] = list(chain.from_iterable(rows))
    cuts = np.where(slots < lengths[:, None] - 1, np.cumsum(probs, axis=1), np.inf)
    return succ, probs, cuts, masks


_CTYPES = {np.dtype(t): c for t, c in (
    (np.float64, "double[]"), (np.int64, "int64_t[]"),
    (np.uint8, "uint8_t[]"), (np.uint64, "uint64_t[]"),
)}


def _pointers(*arrays: np.ndarray) -> tuple:
    """Typed cffi views of C-contiguous arrays; each keeps its array alive."""
    return tuple(_ffi.from_buffer(_CTYPES[a.dtype], a) for a in arrays)


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
    policy, one pair id per state, is evaluated exactly on the product's
    tables (``evaluate_pairs``), unless it equals the last one evaluated, to
    record when it first positively satisfies the specification and when its
    satisfaction probability first reaches one; the evaluation never feeds
    back into learning.
    """
    keys = product.keys
    succ, _, cuts, masks = _padded_tables(product)
    first = np.array(product.first, dtype=np.int64)
    empty = np.array(scheme.empty, dtype=np.uint8)
    n = product.num_states
    tables = (
        cfg.steps_per_episode, 0,
        cfg.gamma, scheme.r_p, cfg.epsilon_numerator, -cfg.alpha_exponent,
        succ.shape[1], *_pointers(first, succ, cuts, masks, empty),
    )

    seeds = np.random.SeedSequence(cfg.rng_seed).spawn(cfg.sessions)
    curves = np.zeros((cfg.sessions, cfg.episodes))
    qtables: list[QTable] = []
    policies: list[PositionalPolicy] = []
    first_pos: list[int | None] = []
    first_sat1: list[int | None] = []
    evaluations: list[PolicyEvaluation | None] = []

    for si in range(cfg.sessions):
        rng = _generator_array(np.random.PCG64(seeds[si]))
        values = np.zeros(len(keys))
        pair_visits = np.zeros(len(keys), dtype=np.int64)
        state_visits = np.zeros(n, dtype=np.int64)
        best = first[:-1].copy()  # per state, its first pair of maximal value
        top = np.zeros(n)  # per state, that maximal value
        session = _pointers(values, pair_visits, state_visits, best, top, rng)
        pos_ep: int | None = None
        sat1_ep: int | None = None
        evaluated: bytes | None = None
        ev: PolicyEvaluation | None = None
        for ep in range(cfg.episodes):
            if cfg.epsilon_scope == "episode":
                state_visits.fill(0)
            curves[si, ep] = _lib.run_episode(*tables, *session) / cfg.steps_per_episode
            if track_satisfaction and sat1_ep is None and best.tobytes() != evaluated:
                evaluated, ev = best.tobytes(), evaluate_pairs(product, best.tolist())
                if pos_ep is None and ev.positively_satisfies:
                    pos_ep = ep + 1
                if ev.sat_probability == 1.0:
                    sat1_ep = ep + 1
        if track_satisfaction and best.tobytes() != evaluated:
            ev = evaluate_pairs(product, best.tolist())
        q = QTable(product)
        q.values, q.pair_visits = values.tolist(), pair_visits.tolist()
        q.state_visits = state_visits.tolist()
        qtables.append(q)
        policies.append(PositionalPolicy({s: keys[p][1] for s, p in enumerate(best.tolist())}))
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

    The sweeps run in the kernel's ``value_sweeps``: each sweep backs up
    every pair from the last sweep's values, keeps each state's maximum,
    and the loop stops after the first sweep whose largest change is at
    most ``tol * (1 - gamma) / gamma`` (``tol`` itself at gamma 0).  One
    kernel call runs at most ``_SWEEPS_PER_CALL`` sweeps and the next call
    resumes from its values, so a keyboard interrupt still lands within one
    call where the sweeps take long (tens of thousands near gamma 1).
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must lie in [0, 1)")
    if not tol >= 0.0:
        raise ValueError("tol must be non-negative")
    require_positive("r_p", r_p)
    succ, probs, _, masks = _padded_tables(product)
    first = np.array(product.first, dtype=np.int64)
    v, scratch, q = np.zeros(product.num_states), np.zeros(product.num_states), np.zeros(len(succ))
    threshold = tol if gamma == 0.0 else tol * (1.0 - gamma) / gamma
    args = (product.num_states, succ.shape[1], *_pointers(first, succ, probs, masks),
            gamma, r_p, threshold, _SWEEPS_PER_CALL, *_pointers(v, scratch, q))
    while not _lib.value_sweeps(*args):
        pass
    return dict(enumerate(v.tolist())), _first_maximal(product, q.tolist())
