"""Product of a labeled MDP with a specification automaton.

The product synchronizes MDP transitions with automaton moves on the
produced labels and adds a probability-one action for each automaton
epsilon transition.  Accepting transition sets lift to product transitions
and drive the two reward schemes: the memoryless accepting-transition
reward and the working-set ("frontier") baseline.  Policies are evaluated
exactly through recurrence decomposition of the induced chain.

``build_product`` also lays the product out as the integer tables that
training and value iteration run on.  Pair ``p`` is the p-th enabled
(state, action), in state order and then action-id order; state ``s`` owns
the pairs from ``first[s]`` up to ``first[s + 1]``, and ``keys[p]`` names
the pair.  Each pair has a tuple of successor states, a tuple of their
probabilities (training derives the cuts a uniform draw bisects from these;
none are stored), and a tuple of bitmasks: each is the mask the automaton
(``TGba.masks``) gives the move it synchronizes with, whose bit ``k`` says that the move lies in accepting
set ``k``.  An epsilon guess carries mask 0, since the automaton has no
accepting epsilon move.  Acceptance lives only in these masks: both reward
schemes are one rule over them (``RewardScheme``), and policy evaluation
and the positional impossibility certificate read them too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

from .automata import EPSILON, TGba
from .graphs import explore
from .mdp import (
    LabeledMdp,
    PositionalPolicy,
    decompose,
    induce_chain,
    reach_probability,
)

ProductTransition = tuple[int, str, int]  # (state index, action, state index)


class ProductError(ValueError):
    pass


class AlphabetMismatch(ProductError):
    pass


class MissingAutomatonMove(ProductError):
    """The automaton has no move for a label the MDP can produce."""


class NondeterministicMove(ProductError):
    """The automaton has several moves for one (state, letter) pair."""


@dataclass(frozen=True)
class ProductMdp:
    """Reachable product, exposed as a labeled MDP plus the integer tables.

    ``pairs[i]`` gives the (MDP state, automaton state) decomposition of
    product state ``i``.  The remaining fields are the integer tables
    (layout in the module docstring).
    """

    mdp: LabeledMdp
    pairs: tuple[tuple[int, int], ...]
    automaton: TGba
    keys: tuple[tuple[int, str], ...]  # pair -> (state, action name)
    first: tuple[int, ...]
    succ: tuple[tuple[int, ...], ...]
    probs: tuple[tuple[float, ...], ...]
    masks: tuple[tuple[int, ...], ...]

    @property
    def num_states(self) -> int:
        return self.mdp.num_states

    def name_of(self, i: int) -> str:
        return self.mdp.name_of(i)

    def render_transition(self, t: ProductTransition) -> str:
        src, a, dst = t
        return f"{self.name_of(src)} -{a}-> {self.name_of(dst)}"


def build_product(m: LabeledMdp, b: TGba) -> ProductMdp:
    """Reachable synchronous product of ``m`` with ``b``.

    Labels are projected onto the automaton's AP universe before lookup.
    The automaton must be deterministic per letter (epsilon guesses model
    the allowed nondeterminism) and must offer a move for every label the
    MDP can produce from a reachable pair; otherwise construction fails
    with a diagnostic rather than dropping probability mass.
    """
    if not b.ap <= m.ap:
        raise AlphabetMismatch(
            f"automaton propositions {sorted(b.ap - m.ap)} missing from the MDP"
        )

    # every state, reachable or not: the automaton itself is malformed
    for x, row in enumerate(b.moves):
        for letter, ts in row.items():
            if letter is not EPSILON and len(ts) > 1:
                raise NondeterministicMove(
                    f"automaton state {b.name_of(x)} has {len(ts)} successors on "
                    f"letter {sorted(letter)}"
                )

    def successors(node):
        s, x = node
        moves = b.moves[x]
        for a in m.enabled[s]:
            for dst, p in m.prob[(s, a)]:
                full_label = m.label_of(s, a, dst)
                letter = full_label & b.ap
                step = moves.get(letter)
                if step is None:
                    raise MissingAutomatonMove(
                        f"automaton state {b.name_of(x)} has no move on label "
                        f"{sorted(letter)} produced by ({m.name_of(s)}, {a}, {m.name_of(dst)})"
                    )
                t = step[0]
                yield (dst, t.dst), (a, p, t, full_label)
        # action ids keep the base MDP's ordering, epsilon guesses last
        for t in moves.get(EPSILON, ()):
            yield (s, t.dst), (f"eps->{b.name_of(t.dst)}", 1.0, t, frozenset())

    order, rows = explore((m.initial, b.initial), successors)
    enabled: list[tuple[str, ...]] = []
    prob: dict[tuple[int, str], tuple[tuple[int, float], ...]] = {}
    label: dict[tuple[int, str, int], frozenset[str]] = {}
    keys, succ, probs, masks = [], [], [], []
    for i, row in enumerate(rows):
        dists: dict[str, list[tuple[int, float, int]]] = {}
        for (a, p, t, full_label), j in row:
            if full_label:
                label[(i, a, j)] = full_label
            dists.setdefault(a, []).append((j, p, b.masks[t]))
        for a, dist in dists.items():
            js, ps, ms = zip(*sorted(dist))
            keys.append((i, a))
            prob[(i, a)] = tuple(zip(js, ps))
            succ.append(js)
            probs.append(ps)
            masks.append(ms)
        enabled.append(tuple(dists))

    names = tuple(f"({m.name_of(s)}|{b.name_of(x)})" for (s, x) in order)
    product_mdp = LabeledMdp(
        num_states=len(order),
        initial=0,
        ap=m.ap,
        enabled=tuple(enabled),
        prob=prob,
        label=label,
        state_names=names,
    )
    return ProductMdp(
        mdp=product_mdp,
        pairs=tuple(order),
        automaton=b,
        keys=tuple(keys),
        first=(0, *accumulate(map(len, enabled))),
        succ=tuple(succ),
        probs=tuple(probs),
        masks=tuple(masks),
    )


# --- rewards ---------------------------------------------------------------

def require_positive(name: str, x: float) -> None:
    """Reject anything but a finite positive number (NaN and infinity too)."""
    if not (math.isfinite(x) and x > 0):
        raise ValueError(f"{name} must be positive and finite, not {x!r}")


class RewardScheme:
    """A reward scheme as one bitmask rule over the product's ``masks``.

    ``done`` holds the bits of the accepting sets hit since the working set
    was last full, starting from 0.  A transition whose mask is nonzero and
    disjoint from ``done`` scores ``r_p``; the sets it hits join ``done``,
    which returns to 0 once ``empty[done]`` says that no pending transition
    is left.  The schemes differ only in ``empty``.  The training kernel
    inlines ``step``; calling the scheme on a product transition applies
    ``step`` to a running ``done`` that ``reset`` clears.
    """

    def __init__(self, product: ProductMdp, r_p: float, empty: tuple[bool, ...]):
        require_positive("r_p", r_p)
        self.product = product
        self.r_p = float(r_p)
        self.empty = empty
        self.done = 0

    def step(self, done: int, mask: int) -> tuple[float, int]:
        """Reward of a transition with ``mask`` and the next ``done``."""
        if not mask or mask & done:
            return 0.0, done
        done |= mask
        return self.r_p, 0 if self.empty[done] else done

    def reset(self) -> None:
        self.done = 0

    def __call__(self, t: ProductTransition) -> float:
        s, a, dst = t
        product = self.product
        p = product.first[s] + product.mdp.enabled[s].index(a)
        r, self.done = self.step(self.done, product.masks[p][product.succ[p].index(dst)])
        return r


def AcceptingReward(product: ProductMdp, r_p: float) -> RewardScheme:
    """Reward of the memory-augmented method: every hit empties the working
    set, so every accepting transition scores ``r_p``."""
    n_sets = len(product.automaton.acceptance)
    return RewardScheme(product, r_p, (False,) + (True,) * ((1 << n_sets) - 1))


def FrontierReward(product: ProductMdp, r_p: float) -> RewardScheme:
    """Working-set baseline: scores the first occurrence of each accepting
    set's transitions, re-initializing once every set has been hit."""
    b = product.automaton
    masks = set(b.masks.values()) - {0}
    empty = tuple(
        all(mask & done for mask in masks) for done in range(1 << len(b.acceptance))
    )
    return RewardScheme(product, r_p, empty)


# --- exact policy evaluation -------------------------------------------------

@dataclass(frozen=True)
class ClassReport:
    """One recurrent class: its states, which accepting sets its internal
    transitions cover, and one witness transition per covered set."""

    states: tuple[int, ...]
    coverage: tuple[bool, ...]
    accepting: bool
    witnesses: dict[int, ProductTransition]


@dataclass(frozen=True)
class PolicyEvaluation:
    sat_probability: float
    positively_satisfies: bool
    transient: tuple[int, ...]
    classes: tuple[ClassReport, ...]

    def to_dict(self, product: ProductMdp, pi: PositionalPolicy) -> dict:
        return {
            "policy": {
                product.name_of(s): a for s, a in sorted(pi.choice.items())
            },
            "sat_probability": self.sat_probability,
            "positively_satisfies": self.positively_satisfies,
            "transient_count": len(self.transient),
            "classes": [
                {
                    "states": [product.name_of(s) for s in c.states],
                    "coverage": [int(x) for x in c.coverage],
                    "accepting": c.accepting,
                    "witnesses": {
                        str(j + 1): product.render_transition(t)
                        for j, t in sorted(c.witnesses.items())
                    },
                }
                for c in self.classes
            ],
        }


def evaluate_policy(p: ProductMdp, pi: PositionalPolicy) -> PolicyEvaluation:
    """Exact satisfaction analysis of a positional policy on the product.

    A recurrent class of the induced chain is accepting when its internal
    transitions intersect every accepting set; the satisfaction probability
    is the probability of reaching the union of accepting classes.  The
    all-accepting and no-accepting cases short-circuit to exact 1.0/0.0
    (a finite chain enters its recurrent part with probability one).
    """
    chain = induce_chain(p.mdp, pi)
    dec = decompose(chain)
    n_sets = len(p.automaton.acceptance)

    classes: list[ClassReport] = []
    accepting_states: set[int] = set()
    for members in dec.recurrent_classes:
        # OR the chosen pairs' masks over the class; states ascend and so
        # does each row's succ, so a set's witness is its lowest transition
        covered = 0
        witnesses: dict[int, ProductTransition] = {}
        for s in sorted(members):
            a = pi.choice[s]
            pair = p.first[s] + p.mdp.enabled[s].index(a)
            for dst, mask in zip(p.succ[pair], p.masks[pair]):
                new = mask & ~covered
                if new:
                    covered |= new
                    for j in range(n_sets):
                        if new >> j & 1:
                            witnesses[j] = (s, a, dst)
        coverage = tuple(bool(covered >> j & 1) for j in range(n_sets))
        accepting = all(coverage)
        if accepting:
            accepting_states.update(members)
        classes.append(
            ClassReport(
                states=tuple(sorted(members)),
                coverage=coverage,
                accepting=accepting,
                witnesses=dict(sorted(witnesses.items())),
            )
        )

    if not accepting_states:
        sat = 0.0
    elif all(c.accepting for c in classes):
        sat = 1.0
    else:
        sat = reach_probability(chain, accepting_states)[chain.initial]
    return PolicyEvaluation(
        sat_probability=sat,
        positively_satisfies=sat > 0.0,
        transient=tuple(sorted(dec.transient)),
        classes=tuple(classes),
    )


def check_positional_impossibility(p: ProductMdp) -> bool:
    """Certificate that no positional policy can hit two accepting sets.

    True when two accepting sets exist whose transitions all depart from
    one common product state under disjoint action sets; a positional
    policy fixes a single action there, so it can intersect at most one of
    the two sets.
    """
    sources: list[set[tuple[int, str]]] = [set() for _ in p.automaton.acceptance]
    for key, masks in zip(p.keys, p.masks):
        for j, acc in enumerate(sources):
            if any(m >> j & 1 for m in masks):
                acc.add(key)
    for i, fi in enumerate(sources):
        for fj in sources[i + 1:]:
            if not fi or not fj:
                continue
            if len({s for s, _ in fi | fj}) != 1:
                continue
            if {a for _, a in fi}.isdisjoint(a for _, a in fj):
                return True
    return False
