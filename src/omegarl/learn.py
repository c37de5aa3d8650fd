"""Tabular Q-learning on product-MDP simulators, plus a value-iteration
oracle for desk-scale verification.

Training runs independent seeded sessions.  Each episode restarts the
simulator at product state 0, the initial one, and its state visits, which
set the exploration probability (``TrainConfig``); the Q-values and the pair
visits, which set the step size, persist across a session's episodes.  An
episode ends after its configured steps or on entering a dead state
(``ProductMdp.dead``), from which no reward is reachable: every update there
would write 0 over 0.  Value iteration is a test oracle only and takes no
part in training.

Both loops run in C (``_kernel.c``) on the product's integer tables, its
only store (layout in the product module), which ``_problem`` hands to the
kernel once as one ``struct problem``: the rows laid end to end, pair
``p``'s successors, probabilities and masks in the slots from ``slots[p]``
up to ``slots[p + 1]``, with ``first``, the dead states, gamma and ``r_p``.
``train`` adds the training fields to it and fills ``struct session`` with
one session's arrays (Q-values, counts, greedy pairs, generator, curve row;
reset for each session) and the watched states, those the last evaluation
reached, with their greedy pairs then.  ``run_session`` runs episodes until
the greedy pair changes at a watched state or the session ends, so Python
wakes only to evaluate.  ``value_sweeps`` runs the synchronous sweeps of
value iteration over the live states, since a dead state's value stays 0,
and hands back the final values and each pair's backup from them.  A
``QTable`` holds flat lists, Q-values and pair visits, copied from the
kernel's arrays; the state visits that set the exploration probability are
the kernel's per-episode scratch and are not returned.  Action
names come back only in the returned policies, which ``greedy_policy`` and
``value_iteration`` extract by one rule: the first maximal pair of each
state.  Per state, the training kernel also keeps its greedy pair and
maximal value current through every update, so neither the greedy choice
nor the bootstrap target scans the state's actions; only a drop in the
greedy pair's value rescans the state for its first maximal pair.

The kernel replays numpy's PCG64 ``Generator`` exactly, for training and
for the tests' ``draw``, without importing ``numpy.random``.  Session ``si``
of ``n`` starts from the state of ``PCG64(SeedSequence(seed).spawn(n)[si])``,
that is of ``SeedSequence(seed, spawn_key=(si,))``; ``_generator_array``
computes it in Python by numpy's documented seeding (SeedSequence's hash
mixing of the seed and spawn-key words into a pool of four uint32 words,
``generate_state(4, uint64)``, then PCG64's set-seq seeding), and the
tests check it against numpy.  The state goes to the kernel as the 128-bit
``state`` and ``inc`` in four 64-bit halves, plus the buffered high
half-word of the last 32-bit draw, which starts empty and lives in the
caller's array, never in the kernel.  Each 64-bit word is the
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
call; the successor is the first slot of the pair's row whose running sum
of probabilities, added from the left, exceeds ``u``, else its last slot:
the index that ``bisect_right`` gives on ``accumulate`` of the row's
probabilities but the last, from the same sums.  Value iteration: a pair's
backup is ``p0 * (r0 + gamma * v[d0])``, then ``+= pj * (rj + gamma *
v[dj])`` for each further slot of its row from the left, where ``r`` is
``r_p`` on a non-zero mask and 0 otherwise; a state's value is the maximum
of its pairs' backups; a sweep's change is the maximum of ``|new - old|``.  The
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
from itertools import accumulate, chain, permutations
from pathlib import Path

import numpy as np

from .mdp import PositionalPolicy
from .product import PolicyEvaluation, ProductMdp, RewardScheme, evaluate_pairs, require_positive

# The kernel's entry points; the cdef prepends the structs that _kernel.c defines.
_KERNEL_CDEF = """
int64_t run_session(const struct problem *problem, struct session *session,
                    int64_t episode, int64_t limit);
void draw(uint64_t *rng, const int64_t *ops, int64_t count, uint64_t *out);
int64_t value_sweeps(const struct problem *problem, double threshold, int64_t limit,
                     double *v, double *next, double *q);
"""
_KERNEL_FLAGS = ("-O2", "-ffp-contract=off")
_SWEEPS_PER_CALL = 4096
_STEPS_PER_CALL = 1 << 24


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
    import re
    import subprocess
    import sysconfig
    import tempfile

    import cffi

    builder = cffi.FFI()
    structs = re.findall(r"^struct \w+ \{.*?^\};", source, re.M | re.S)
    builder.cdef("\n".join(structs) + _KERNEL_CDEF)
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

MAX_CURVE_CELLS = 1 << 24


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one experiment.

    The k-th visit to a state within an episode explores with probability
    ``min(1, epsilon_numerator / k)``, and the k-th update of a pair within a
    session has step size ``k ** -alpha_exponent``, a Robbins-Monro-compatible
    power law.

    ``episodes * sessions`` is at most ``MAX_CURVE_CELLS`` (2**24, far above
    the paper preset's 10**5): training keeps one learning-curve value per
    episode of every session, a float64 table of 128 MiB at the bound.
    """

    gamma: float = 0.95
    r_p: float = 2.0
    episodes: int = 200
    steps_per_episode: int = 1000
    sessions: int = 10
    epsilon_numerator: float = 0.95
    alpha_exponent: float = 0.85
    rng_seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        require_positive("r_p", self.r_p)
        for name in ("episodes", "steps_per_episode", "sessions"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.steps_per_episode >= 1 << 63:  # the kernel counts steps in an int64
            raise ValueError("steps_per_episode must be below 2**63")
        cells = self.episodes * self.sessions  # the learning curve's size
        if cells > MAX_CURVE_CELLS:
            raise ValueError(f"episodes * sessions must be at most 2**24, not {cells}")
        if not 0.5 < self.alpha_exponent <= 1.0:
            raise ValueError(
                "alpha_exponent must lie in (0.5, 1] so that the step sizes "
                "sum to infinity while their squares stay summable"
            )
        require_positive("epsilon_numerator", self.epsilon_numerator)
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")

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


class QTable:
    """Action values plus visit counts of a product, initialized to zero and
    indexed by pair (``product.keys`` names them)."""

    def __init__(self, product: ProductMdp):
        self.product = product
        self.values: list[float] = [0.0] * len(product.keys)
        self.pair_visits: list[int] = [0] * len(product.keys)


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


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = (2549297995355413924 << 64) | 4865540595714422341
# numpy SeedSequence's hash constants
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _words(n: int) -> list[int]:
    """``n`` as little-endian uint32 words, ``[0]`` for 0."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    return [n >> shift & _M32 for shift in range(0, max(n.bit_length(), 1), 32)]


def _hasher(h: int, mult: int):
    """SeedSequence's ``hashmix`` on uint32 words; its hash constant starts
    at ``h`` and is multiplied by ``mult`` on every call."""

    def hashmix(value: int) -> int:
        nonlocal h
        value ^= h
        h = h * mult & _M32
        value = value * h & _M32
        return value ^ value >> 16

    return hashmix


def _mix(x: int, y: int) -> int:
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
    return r ^ r >> 16


def _generator_array(seed: int, spawn_key: tuple[int, ...] = ()) -> np.ndarray:
    """The kernel's generator state for
    ``PCG64(SeedSequence(seed, spawn_key=spawn_key))``: its 128-bit
    ``state`` and ``inc`` as high and low 64-bit halves, then an empty
    buffered half-word (a has-half flag and the half)."""
    entropy, key = _words(seed), [w for k in spawn_key for w in _words(k)]
    if key:  # a spawned sequence pads the run entropy to the pool size
        entropy += [0] * (4 - len(entropy))
    entropy += key
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in (entropy + [0] * 4)[:4]]
    for src, dst in permutations(range(4), 2):  # mix every word into every other
        pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in entropy[4:]:
        pool = [_mix(p, hashmix(w)) for p in pool]
    hashmix = _hasher(_INIT_B, _MULT_B)
    out = [hashmix(pool[i % 4]) for i in range(8)]  # generate_state(4, uint64)
    s64 = [lo | hi << 32 for lo, hi in zip(out[::2], out[1::2])]
    initstate, initseq = s64[0] << 64 | s64[1], s64[2] << 64 | s64[3]
    inc = (initseq << 1 | 1) & _M128  # PCG64's set-seq seeding
    state = ((inc + initstate) * _PCG_MULT + inc) & _M128  # step from 0, add, step
    return np.array([state >> 64, state & _M64, inc >> 64, inc & _M64, 0, 0], dtype=np.uint64)


_CTYPES = {np.dtype(t): c for t, c in (
    (np.float64, "double[]"), (np.int64, "int64_t[]"),
    (np.uint8, "uint8_t[]"), (np.uint64, "uint64_t[]"),
)}


def _pointers(*arrays: np.ndarray) -> tuple:
    """Typed cffi views of C-contiguous arrays; each keeps its array alive."""
    return tuple(_ffi.from_buffer(_CTYPES[a.dtype], a) for a in arrays)


def _problem(product: ProductMdp, gamma: float, r_p: float, **fields) -> tuple:
    """A ``struct problem`` on the product's rows, laid end to end: pair
    ``p``'s successors, probabilities and masks fill the slots from
    ``slots[p]`` up to ``slots[p + 1]``.  ``fields`` sets the rest, which
    only training reads.  Returns the struct and the views that keep its
    arrays alive."""
    slots = np.array([0, *accumulate(map(len, product.succ))], dtype=np.int64)

    def flat(rows, dtype) -> np.ndarray:
        return np.fromiter(chain.from_iterable(rows), dtype, slots[-1])

    handles = _pointers(np.array(product.first, dtype=np.int64), slots,
                        flat(product.succ, np.int64), flat(product.probs, np.float64),
                        flat(product.masks, np.int64), np.array(product.dead, dtype=np.uint8))
    names = ("first", "slots", "succ", "probs", "masks", "dead")
    return _ffi.new("struct problem *", {
        **dict(zip(names, handles)), "states": product.num_states, "gamma": gamma, "r_p": r_p,
        **fields,
    }), handles


@dataclass(frozen=True)
class LearningCurve:
    """Per-episode reward per configured step (total reward /
    ``steps_per_episode``, also for an episode that a dead state ended
    early) per session, plus the across-session mean and standard deviation
    per episode."""

    per_session: np.ndarray  # shape (sessions, episodes)
    mean: np.ndarray
    std: np.ndarray


@dataclass(frozen=True)
class TrainResult:
    """``evaluations`` holds each final policy's exact evaluation, or None
    when satisfaction was not tracked.  It may be that of an earlier
    episode's greedy policy, which agrees with the final one at every state
    it reached and so has the same evaluation."""

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
    its bitmask rule to the product's masks.  An episode ends early on
    entering a dead state; its steps there would change no Q-value, greedy
    pair or curve cell, only their pairs' visit counts and the draws.  A
    curve cell is the episode's reward per configured step.  The greedy
    policy, one pair id per state, is evaluated exactly on the product's
    tables (``evaluate_pairs``) after the first episode and after each episode that
    changes it at a state the last evaluation reached; ``evaluate_pairs``
    reads no other state's pair, so a skipped evaluation would repeat the
    last one; the same rule decides the evaluation at the session's end.
    This records when the policy first positively satisfies the
    specification and when its satisfaction probability first reaches one;
    the evaluation never feeds back into learning.  One kernel call runs at
    most ``_STEPS_PER_CALL`` steps in whole episodes, so a keyboard
    interrupt lands between calls; an episode longer than that still runs
    in one call.
    """
    keys, n = product.keys, product.num_states
    curves = np.zeros((cfg.sessions, cfg.episodes))
    values, top = np.zeros(len(keys)), np.zeros(n)  # top: per state, its maximal value
    # state_visits: the kernel's scratch, cleared before every episode
    pair_visits, state_visits = np.zeros(len(keys), dtype=np.int64), np.zeros(n, dtype=np.int64)
    best = np.array(product.first[:-1], dtype=np.int64)  # per state, its first maximal pair
    rng, watch, held = np.zeros(6, dtype=np.uint64), np.zeros_like(best), np.zeros_like(best)
    handles = _pointers(np.array(scheme.empty, dtype=np.uint8), values, pair_visits,
                        state_visits, best, top, rng, curves, watch, held)  # alive with the structs
    problem, alive = _problem(
        product, cfg.gamma, scheme.r_p, empty=handles[0], steps=cfg.steps_per_episode,
        eps_num=cfg.epsilon_numerator, neg_exp=-cfg.alpha_exponent)
    fields = ("values", "pair_visits", "state_visits", "best", "top", "rng", "curve", "watch",
              "held")
    session = _ffi.new("struct session *", dict(zip(fields, handles[1:])))

    qtables: list[QTable] = []
    policies: list[PositionalPolicy] = []
    first_pos: list[int | None] = []
    first_sat1: list[int | None] = []
    evaluations: list[PolicyEvaluation | None] = []

    for si in range(cfg.sessions):
        for array in (values, top, pair_visits):
            array.fill(0)
        best[:] = product.first[:-1]
        rng[:] = _generator_array(cfg.rng_seed, (si,))  # SeedSequence(seed).spawn(n)[si]
        session.curve, session.n_watch = handles[7] + si * cfg.episodes, 0
        pos_ep: int | None = None
        sat1_ep: int | None = None
        ev: PolicyEvaluation | None = None
        ep = k = 0  # watch[:k] holds the states that ev reached
        while ep < cfg.episodes:
            tracking = track_satisfaction and sat1_ep is None
            limit = 1 if tracking and ev is None else cfg.episodes  # the first policy is due
            limit = min(limit, ep + max(1, _STEPS_PER_CALL // cfg.steps_per_episode))
            ep = _lib.run_session(problem, session, ep, limit)
            if tracking and (ev is None or (best[watch[:k]] != held[:k]).any()):
                ev = evaluate_pairs(product, best.tolist())
                reached = [*ev.transient, *chain.from_iterable(c.states for c in ev.classes)]
                k = len(reached)
                watch[:k], held[:k] = reached, best[reached]
                if pos_ep is None and ev.positively_satisfies:
                    pos_ep = ep
                if ev.sat_probability == 1.0:
                    sat1_ep = ep
                session.n_watch = k if sat1_ep is None else 0
        if track_satisfaction and (best[watch[:k]] != held[:k]).any():
            ev = evaluate_pairs(product, best.tolist())
        q = QTable(product)
        q.values, q.pair_visits = values.tolist(), pair_visits.tolist()
        qtables.append(q)
        policies.append(PositionalPolicy({s: keys[p][1] for s, p in enumerate(best.tolist())}))
        first_pos.append(pos_ep)
        first_sat1.append(sat1_ep)
        evaluations.append(ev)

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
    call where the sweeps take long (tens of thousands near gamma 1).  The
    sweeps skip the product's dead states (``ProductMdp.dead``): their
    pairs carry mask 0 and lead only to dead states, so their values and
    backups stay exactly 0, as the reference's full sweeps compute them.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must lie in [0, 1)")
    if not tol >= 0.0:
        raise ValueError("tol must be non-negative")
    require_positive("r_p", r_p)
    problem, alive = _problem(product, gamma, r_p)
    n = product.num_states
    v, scratch, q = np.zeros(n), np.zeros(n), np.zeros(len(product.keys))  # q: one per pair
    threshold = tol if gamma == 0.0 else tol * (1.0 - gamma) / gamma
    args = (problem, threshold, _SWEEPS_PER_CALL, *_pointers(v, scratch, q))
    while not _lib.value_sweeps(*args):
        pass
    return dict(enumerate(v.tolist())), _first_maximal(product, q.tolist())
