"""Memory-vector augmentation of generalized Buchi automata.

The augmentation pairs each automaton state with a binary memory vector, one
bit per accepting set, recording which sets have been visited since the
last time all of them were.  Accepting sets of the augmented automaton keep
only the "first visit since reset" transitions, which spreads accepting
transitions over distinct memory-tagged states while preserving the
accepted language.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import TGba, Transition, _by_src
from .graphs import closure, explore

MemoryVector = tuple[int, ...]


def visitf(e: Transition, acceptance: tuple[frozenset[Transition], ...]) -> MemoryVector:
    """Bit i is set iff the transition belongs to accepting set i."""
    return tuple(1 if e in acc else 0 for acc in acceptance)


def reset(v: MemoryVector) -> MemoryVector:
    """All-zeros when every set has been visited; otherwise unchanged."""
    return (0,) * len(v) if all(v) else v


def vec_max(v: MemoryVector, u: MemoryVector) -> MemoryVector:
    """Elementwise maximum (bitwise OR for 0/1 vectors)."""
    if len(v) != len(u):
        raise ValueError("memory vectors differ in length")
    return tuple(max(a, b) for a, b in zip(v, u))


@dataclass(frozen=True)
class AugmentedState:
    """Original state plus its memory vector; ``memory=None`` marks a state
    produced by merging a reward-free region."""

    base: int
    memory: MemoryVector | None


def augment(b: TGba) -> TGba:
    """Reachable fragment of the memory-vector augmentation of ``b``."""
    return augment_with_states(b)[0]


def augment_with_states(b: TGba) -> tuple[TGba, tuple[AugmentedState, ...]]:
    """Augmentation plus the (base, memory) decomposition of each new state.

    Transitions update memory by ``reset(max(v, visitf(e)))``; epsilon
    transitions contribute an all-zero visit vector, so they carry the
    memory through unchanged.  Accepting set j of the result keeps exactly
    the set-j transitions leaving a state whose j-th memory bit is 0.
    """
    n = len(b.acceptance)
    out = _by_src(b)
    visit = {t: visitf(t, b.acceptance) for t in b.transitions}

    def successors(node):
        x, v = node
        for t in out[x]:
            yield (t.dst, reset(v) if t.is_epsilon() else reset(vec_max(v, visit[t]))), t

    order, rows = explore((b.initial, (0,) * n), successors)
    transitions: list[Transition] = []
    accepting: list[list[Transition]] = [[] for _ in range(n)]
    for i_src, ((_, v), row) in enumerate(zip(order, rows)):
        for t, i_dst in row:
            nt = Transition(i_src, t.letter, i_dst)
            transitions.append(nt)
            if not t.is_epsilon():
                for j in range(n):
                    if v[j] == 0 and t in b.acceptance[j]:
                        accepting[j].append(nt)

    names = tuple(
        f"{b.name_of(x)}@{''.join(map(str, v))}" for (x, v) in order
    )
    aug = TGba(
        num_states=len(order),
        initial=0,
        ap=b.ap,
        transitions=frozenset(transitions),
        acceptance=tuple(frozenset(acc) for acc in accepting),
        names=names,
    )
    states = tuple(AugmentedState(base=x, memory=v) for (x, v) in order)
    return aug, states


def merge_unaccepting(b_aug: TGba) -> TGba:
    """Collapse memory in regions that can never see another accepting transition.

    States from which no accepting transition of ``b_aug`` is reachable are
    quotiented by their base state, read from the augmented state names
    (``base@bits``); every run entering such a region is non-accepting
    regardless of its continuation, so the language is unchanged.
    """
    if b_aug.names is None or any("@" not in name for name in b_aug.names):
        raise ValueError("merge needs augmented state names ('base@bits')")
    base_names = tuple(name.split("@", 1)[0] for name in b_aug.names)

    acc_all = frozenset().union(*b_aug.acceptance)
    preds: list[set[int]] = [set() for _ in range(b_aug.num_states)]
    for t in b_aug.transitions:
        preds[t.dst].add(t.src)
    live = closure({t.src for t in acc_all}, lambda v: preds[v])
    dead = [s for s in b_aug.states() if s not in live]
    if not dead:
        return b_aug

    rep_of_base: dict[str, int] = {}
    new_index: dict[int, int] = {}
    new_names: list[str] = []
    for s in b_aug.states():
        if s in live:
            new_index[s] = len(new_names)
            new_names.append(b_aug.name_of(s))
    for s in dead:
        base = base_names[s]
        if base not in rep_of_base:
            rep_of_base[base] = len(new_names)
            new_names.append(f"{base}@*")
        new_index[s] = rep_of_base[base]

    transitions = frozenset(
        Transition(new_index[t.src], t.letter, new_index[t.dst])
        for t in b_aug.transitions
    )
    acceptance = tuple(
        frozenset(Transition(new_index[t.src], t.letter, new_index[t.dst]) for t in acc)
        for acc in b_aug.acceptance
    )
    return TGba(
        num_states=len(new_names),
        initial=new_index[b_aug.initial],
        ap=b_aug.ap,
        transitions=transitions,
        acceptance=acceptance,
        names=tuple(new_names),
    )
