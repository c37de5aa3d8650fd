"""Seeded slip-gridworld instances for the ``scaled-short`` workload.

An instance is an n x n grid with k goal cells and a few unsafe cells.
Every move reaches the intended neighbour with probability 0.9 and the
opposite one with 0.1, staying put where a move would leave the grid, as
in the library's grid9 rooms.  Entering goal cell j is labeled ``a<j>``,
entering an unsafe cell ``c``.  The specification is
``GF a1 & ... & GF ak & G !c``.

Both are emitted as text in the library's ``.mdp`` and ``.tgba`` formats, so
the workload goes through the real parsers.  The satisfiability check below
works on the generator's own grid model and shares no code with the
library: a layout is rejected unless some policy satisfies the
specification with positive probability.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

ACTIONS = ("right", "left", "up", "down")
_MOVES = {"right": (0, 1), "left": (0, -1), "up": (-1, 0), "down": (1, 0)}
_OPPOSITE = {"right": "left", "left": "right", "up": "down", "down": "up"}
SLIP = 0.1
MAX_ATTEMPTS = 1000


@dataclass(frozen=True)
class Instance:
    """One layout; ``goals[j]`` is the cell whose entry is labeled ``a<j+1>``."""

    n: int
    initial: int
    goals: tuple[int, ...]
    unsafe: frozenset[int]
    rejected: int  # unsatisfiable layouts drawn before this one

    @property
    def k(self) -> int:
        return len(self.goals)

    def successors(self, s: int, a: str) -> tuple[tuple[int, float], ...]:
        intended = _move(self.n, s, a)
        slip = _move(self.n, s, _OPPOSITE[a])
        dist = {intended: 1.0 - SLIP}
        dist[slip] = dist.get(slip, 0.0) + SLIP
        return tuple(sorted(dist.items()))

    def label(self, dst: int) -> str | None:
        if dst in self.unsafe:
            return "c"
        if dst in self.goals:
            return f"a{self.goals.index(dst) + 1}"
        return None

    def ap(self) -> tuple[str, ...]:
        return tuple(sorted([f"a{j + 1}" for j in range(self.k)] + ["c"]))

    def mdp_text(self) -> str:
        """The grid in the canonical ``.mdp`` form the library serializes to."""
        cells = self.n * self.n
        lines = [f"states: {cells}", f"initial: {self.initial}", f"ap: {' '.join(self.ap())}"]
        labels = []
        for s in range(cells):
            for a in ACTIONS:
                for dst, p in self.successors(s, a):
                    lines.append(f"prob {s} {a} {dst} {p!r}")
                    name = self.label(dst)
                    if name is not None:
                        labels.append((s, a, dst, name))
        lines += [f"label {s} {a} {dst} {{{name}}}" for s, a, dst, name in sorted(labels)]
        return "\n".join(lines) + "\n"

    def tgba_text(self) -> str:
        """Two-state tLDGBA: x0 loops on c-free letters, set j holds the
        a<j> loops, and any c letter falls into the trap x1."""
        lines = [
            f"ap: {' '.join(self.ap())}",
            "states: 2",
            "initial: 0",
            f"acceptance-sets: {self.k}",
            "0 !c 0",
        ]
        lines += [f"0 a{j + 1} & !c 0 acc: {j + 1}" for j in range(self.k)]
        lines += ["0 c 1", "1 true 1"]
        return "\n".join(lines) + "\n"


def _move(n: int, s: int, a: str) -> int:
    r, c = divmod(s, n)
    dr, dc = _MOVES[a]
    r2, c2 = r + dr, c + dc
    return r2 * n + c2 if 0 <= r2 < n and 0 <= c2 < n else s


def _shuffled(rng: random.Random, items: list) -> list:
    # Fisher-Yates on rng.random() alone: random() is the one stream Python
    # keeps fixed across versions, unlike shuffle() and randrange().
    items = list(items)
    for i in range(len(items) - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        items[i], items[j] = items[j], items[i]
    return items


def _reach(start, succ) -> set:
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in succ(v):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def satisfiable(inst: Instance) -> bool:
    """Whether some policy satisfies the specification with positive probability.

    That holds iff a maximal end component of the safe sub-MDP (actions that
    cannot enter an unsafe cell) enters every goal, and the initial cell
    reaches it along a positive-probability path through safe cells.
    """
    safe = [s for s in range(inst.n * inst.n) if s not in inst.unsafe]
    actions = {
        s: {a for a in ACTIONS if all(d not in inst.unsafe for d, _ in inst.successors(s, a))}
        for s in safe
    }
    while True:  # end components: drop actions that may leave their SCC
        def succ(v):
            return {d for a in actions[v] for d, _ in inst.successors(v, a)}

        reach = {v: _reach(v, succ) for v in actions}
        scc = {v: frozenset(w for w in reach[v] if v in reach[w]) for v in actions}
        pruned = {
            v: {a for a in acts if all(d in scc[v] for d, _ in inst.successors(v, a))}
            for v, acts in actions.items()
        }
        if pruned == actions:
            break
        actions = pruned

    def safe_succ(v):
        return {d for a in ACTIONS for d, _ in inst.successors(v, a) if d not in inst.unsafe}

    reachable = _reach(inst.initial, safe_succ)
    for comp in set(scc.values()):
        entered = {d for v in comp for a in actions[v] for d, _ in inst.successors(v, a)}
        if comp & reachable and all(g in entered for g in inst.goals):
            return True
    return False


def generate(seed: int, n: int, k: int, n_unsafe: int) -> Instance:
    """First satisfiable layout drawn from ``seed``: distinct random cells
    for the initial state, the k goals and the unsafe cells."""
    if k < 1 or n_unsafe < 0 or 1 + k + n_unsafe > n * n:
        raise ValueError(f"cannot place 1 + {k} + {n_unsafe} cells on a {n}x{n} grid")
    rng = random.Random(seed)
    for attempt in range(MAX_ATTEMPTS):
        cells = _shuffled(rng, range(n * n))
        inst = Instance(
            n=n,
            initial=cells[0],
            goals=tuple(cells[1 : 1 + k]),
            unsafe=frozenset(cells[1 + k : 1 + k + n_unsafe]),
            rejected=attempt,
        )
        if satisfiable(inst):
            return inst
    raise ValueError(f"no satisfiable layout in {MAX_ATTEMPTS} draws from seed {seed}")
