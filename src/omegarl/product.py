"""Product of a labeled MDP with a specification automaton.

The product synchronizes MDP transitions with automaton moves on the
produced labels and adds a probability-one action for each automaton
epsilon transition.  Each product transition carries the accepting-set
mask of the automaton move it synchronizes with, and these masks drive the
two reward schemes: the memoryless accepting-transition reward and the
working-set ("frontier") baseline.  Policies are evaluated exactly on the
chosen pairs' rows of the integer tables below.

``build_product`` also lays the product out as the integer tables that
training and value iteration run on.  Pair ``p`` is the p-th enabled
(state, action), in state order and then action-id order; state ``s`` owns
the pairs from ``first[s]`` up to ``first[s + 1]``, and ``keys[p]`` names
the pair.  Each pair has a tuple of successor states, a tuple of their
probabilities (training derives the cuts a uniform draw bisects from these;
none are stored), and a tuple of bitmasks: each is the mask that
``TGba.masks`` stores for the move it synchronizes with, whose bit ``k``
says that the move lies in accepting set ``k + 1``.  An epsilon guess
carries mask 0, since the automaton has no accepting epsilon move.
Acceptance lives only in these masks and in the automaton's ``n_sets``,
the number of accepting sets and so of mask bits: both reward schemes are
one rule over them (``RewardScheme``), and policy evaluation and the
positional impossibility certificate read them too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, chain

from .automata import EPSILON, TGba
from .graphs import explore, strongly_connected_components
from .mdp import (
    LabeledMdp,
    MarkovChain,
    MdpError,
    PositionalPolicy,
    UndefinedChoice,
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
    n_sets = product.automaton.n_sets
    return RewardScheme(product, r_p, (False,) + (True,) * ((1 << n_sets) - 1))


def FrontierReward(product: ProductMdp, r_p: float) -> RewardScheme:
    """Working-set baseline: scores the first occurrence of each accepting
    set's transitions, re-initializing once every set has been hit."""
    b = product.automaton
    masks = set(b.masks.values()) - {0}
    empty = tuple(
        all(mask & done for mask in masks) for done in range(1 << b.n_sets)
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
                        str(j + 1): f"{product.name_of(src)} -{a}-> {product.name_of(dst)}"
                        for j, (src, a, dst) in sorted(c.witnesses.items())
                    },
                }
                for c in self.classes
            ],
        }


def recurrent_classes(p: ProductMdp, chosen) -> tuple[tuple[int, ...], tuple]:
    """Transient states and recurrent classes of the chain that pair
    ``chosen[s]`` at each state ``s`` induces from state 0, reading
    ``chosen`` at reached states only.  A class is a bottom strongly
    connected component: its ascending states and the OR of its pairs'
    ``masks``, lowest state first."""
    succ, masks = p.succ, p.masks
    transient, classes = [], []
    for comp in strongly_connected_components((0,), lambda s: succ[chosen[s]]):
        rows = [chosen[s] for s in comp]
        members = set(comp)
        if all(dst in members for pair in rows for dst in succ[pair]):
            covered = 0
            for mask in chain.from_iterable(masks[pair] for pair in rows):
                covered |= mask
            classes.append((tuple(sorted(comp)), covered))
        else:
            transient += comp
    return tuple(sorted(transient)), tuple(sorted(classes))


def evaluate_pairs(p: ProductMdp, chosen) -> PolicyEvaluation:
    """:func:`evaluate_policy` of the policy that takes pair ``chosen[s]`` at
    each state ``s``."""
    transient, found = recurrent_classes(p, chosen)
    n_sets = p.automaton.n_sets
    classes, accepting_states = [], set()
    for states, covered in found:
        # states ascend and so does each row's succ, so a set's witness is
        # its lowest transition
        witnesses: dict[int, ProductTransition] = {}
        seen = 0
        for s in states:
            pair = chosen[s]
            for dst, mask in zip(p.succ[pair], p.masks[pair]):
                new = mask & ~seen
                if new:
                    seen |= new
                    for j in range(n_sets):
                        if new >> j & 1:
                            witnesses[j] = (s, p.keys[pair][1], dst)
        coverage = tuple(bool(covered >> j & 1) for j in range(n_sets))
        if all(coverage):
            accepting_states.update(states)
        witnesses = dict(sorted(witnesses.items()))
        classes.append(ClassReport(states, coverage, all(coverage), witnesses))
    if not accepting_states:
        sat = 0.0
    elif all(c.accepting for c in classes):
        sat = 1.0
    else:
        reached = sorted(chain(transient, *(c.states for c in classes)))
        rows = {s: tuple(zip(p.succ[chosen[s]], p.probs[chosen[s]])) for s in reached}
        sat = reach_probability(MarkovChain(tuple(reached), rows, 0), accepting_states)[0]
    return PolicyEvaluation(sat, sat > 0.0, transient, tuple(classes))


class _ChosenPairs(dict):
    """A name-keyed policy's pair id at each state, looked up when first read."""

    def __init__(self, p: ProductMdp, pi: PositionalPolicy):
        self.first, self.enabled, self.choice = p.first, p.mdp.enabled, pi.choice

    def __missing__(self, s: int) -> int:
        a, actions = self.choice.get(s), self.enabled[s]
        if a is None:
            raise UndefinedChoice(s)
        if a not in actions:
            raise MdpError(f"policy chooses disabled action {a!r} at state {s}")
        self[s] = pair = self.first[s] + actions.index(a)
        return pair


def evaluate_policy(p: ProductMdp, pi: PositionalPolicy) -> PolicyEvaluation:
    """Exact satisfaction analysis of a positional policy on the product.

    A recurrent class of the induced chain is accepting when its internal
    transitions intersect every accepting set; the satisfaction probability
    is the probability of reaching the union of accepting classes.  The
    all-accepting and no-accepting cases short-circuit to exact 1.0/0.0
    (a finite chain enters its recurrent part with probability one).
    Names map to pair ids once, at reached states only: there a missing
    choice raises :class:`UndefinedChoice`, a disabled one :class:`MdpError`.
    """
    return evaluate_pairs(p, _ChosenPairs(p, pi))


def check_positional_impossibility(p: ProductMdp) -> bool:
    """Certificate that no positional policy can hit two accepting sets.

    True when two accepting sets exist whose transitions all depart from
    one common product state under disjoint action sets; a positional
    policy fixes a single action there, so it can intersect at most one of
    the two sets.
    """
    sources: list[set[tuple[int, str]]] = [set() for _ in range(p.automaton.n_sets)]
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
