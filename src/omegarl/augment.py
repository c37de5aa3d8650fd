"""Memory augmentation of generalized Buchi automata.

The augmentation pairs each automaton state with a memory, one bit per
accepting set, recording which sets have been visited since the last time
all of them were.  The memory is an accepting-set bitmask, like the masks
of ``TGba``: a transition ORs its mask in, and a full memory resets to 0.
The augmented automaton's masks keep only the "first visit since reset"
bits, which spreads accepting transitions over distinct memory-tagged
states while preserving the accepted language.
"""

from __future__ import annotations

from itertools import chain

from .automata import TGba, Transition
from .graphs import explore, reaching


def augment(b: TGba) -> TGba:
    """Reachable fragment of the memory augmentation of ``b``.

    Transitions update memory ``v`` to ``v | mask``, reset to 0 when every
    bit is set; an epsilon move's mask is 0, so it carries the memory
    through unchanged.  A result transition's mask is ``mask & ~v``: it
    keeps exactly the accepting sets whose memory bit is still 0 at its
    source.  A state is named ``base@bits`` with the bit of set 1 first.
    """
    n = b.n_sets
    full = (1 << n) - 1

    masks: dict[Transition, int] = {}

    def expand(node, number):
        x, v = node
        i = number(node)
        for t in chain.from_iterable(b.moves[x].values()):
            w = v | b.masks[t]
            j = number((t.dst, 0 if w == full else w))
            masks[Transition(i, t.letter, j)] = b.masks[t] & ~v

    order = explore((b.initial, 0), expand)
    names = tuple(
        f"{b.name_of(x)}@{''.join(str(v >> j & 1) for j in range(n))}" for (x, v) in order
    )
    return TGba(num_states=len(order), initial=0, ap=b.ap, masks=masks, n_sets=n, names=names)


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

    live = reaching({t.src for t, mask in b_aug.masks.items() if mask},
                    ((t.src, t.dst) for t in b_aug.masks))
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

    masks: dict[Transition, int] = {}  # transitions that collapse to one union their sets
    for t, mask in b_aug.masks.items():
        nt = Transition(new_index[t.src], t.letter, new_index[t.dst])
        masks[nt] = masks.get(nt, 0) | mask
    return TGba(
        num_states=len(new_names),
        initial=new_index[b_aug.initial],
        ap=b_aug.ap,
        masks=masks,
        n_sets=b_aug.n_sets,
        names=tuple(new_names),
    )
