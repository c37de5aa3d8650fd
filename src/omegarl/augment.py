"""Memory augmentation of generalized Buchi automata.

The augmentation pairs each automaton state with a memory, one bit per
accepting set, recording which sets have been visited since the last time
all of them were.  The memory is an accepting-set bitmask, like the masks
of ``TGba``: a transition ORs its mask in, and a full memory resets to 0.
Accepting sets of the augmented automaton keep only the "first visit since
reset" transitions, which spreads accepting transitions over distinct
memory-tagged states while preserving the accepted language.
"""

from __future__ import annotations

from itertools import chain

from .automata import TGba, Transition
from .graphs import closure, explore


def augment(b: TGba) -> TGba:
    """Reachable fragment of the memory augmentation of ``b``.

    Transitions update memory ``v`` to ``v | mask``, reset to 0 when every
    bit is set; an epsilon move's mask is 0, so it carries the memory
    through unchanged.  Accepting set j of the result keeps exactly the
    set-j transitions leaving a state whose memory bit j is 0.  A state is
    named ``base@bits`` with the bit of set 1 first.
    """
    n = len(b.acceptance)
    full = (1 << n) - 1

    def successors(node):
        x, v = node
        for t in chain.from_iterable(b.moves[x].values()):
            w = v | b.masks[t]
            yield (t.dst, 0 if w == full else w), t

    order, rows = explore((b.initial, 0), successors)
    transitions: list[Transition] = []
    accepting: list[list[Transition]] = [[] for _ in range(n)]
    for i_src, ((_, v), row) in enumerate(zip(order, rows)):
        for t, i_dst in row:
            nt = Transition(i_src, t.letter, i_dst)
            transitions.append(nt)
            fresh = b.masks[t] & ~v
            for j in range(n):
                if fresh >> j & 1:
                    accepting[j].append(nt)

    names = tuple(
        f"{b.name_of(x)}@{''.join(str(v >> j & 1) for j in range(n))}" for (x, v) in order
    )
    return TGba(
        num_states=len(order),
        initial=0,
        ap=b.ap,
        transitions=frozenset(transitions),
        acceptance=tuple(frozenset(acc) for acc in accepting),
        names=names,
    )


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

    preds: list[set[int]] = [set() for _ in range(b_aug.num_states)]
    for t in b_aug.transitions:
        preds[t.dst].add(t.src)
    live = closure({t.src for t, mask in b_aug.masks.items() if mask}, lambda v: preds[v])
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
