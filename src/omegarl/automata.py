"""Transition-based generalized Buchi automata with epsilon moves.

Provides the data model, a line-oriented text format, limit-determinism
checking, degeneralization to a single accepting set, an exact acceptance
test for ultimately periodic words that decides every state against many
cycles in one numpy pass over bitset relations (:func:`lasso_acceptor`),
and the packaged example automata (:func:`named_fixture`).  Transitions
carry explicit letters (subsets of the AP universe).  An automaton stores
its transitions once, in ``TGba.masks``, each with its accepting-set
bitmask; ``TGba.acceptance`` is a per-set view derived from it.  Every walk
over an automaton's moves, here and in the augmentation and the product,
reads the one per-state index ``TGba.moves``.

Text format
-----------
One item per line.  ``#`` starts a comment that runs to the end of the
line, and blank lines are skipped.  Four headers, in any order and each at
most once::

    ap: a b c            # atomic propositions; optional, default none
    states: 2            # states 0..1, named x0 and x1
    initial: 0
    acceptance-sets: 2   # accepting sets 1..2; at least one

Each other line is a transition ``src guard dst``, optionally followed by
``acc: j,k`` to put it in accepting sets ``j`` and ``k``.  A guard is
``eps``, an epsilon move that reads no letter and may not be accepting, or
a Boolean expression over the declared propositions in the grammar of
:mod:`omegarl.ltl` without temporal operators: names, ``true``,
``false``, ``!``, ``&``, ``|``, ``->`` and parentheses.  A guard is
shorthand for one transition per letter that satisfies it, so over
``ap: a b c`` the line ``0 !c 0`` stands for the four c-free letters.
Transitions with the same source, letter and target merge, and their
accepting sets are unioned: ``0 !c 0`` and ``0 a & !c 0 acc: 1`` together
put the a-loops, and only those, in set 1.  ``states:`` may declare no
state above the highest id that ``initial:`` or a transition line names.
:func:`serialize_automaton` writes the canonical form: one line per
transition with its full-conjunction guard, in ``TGba.moves`` order.  A
proposition name must match ``[a-z][a-z0-9_]*`` and be none of ``true``,
``false`` and ``eps``, so that the canonical text reads back as the same
automaton.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import ltl
from .graphs import close_rows, closure, explore, holding, pack_rows, unpack_rows
from .ltl import LassoWord


class _Epsilon:
    """Distinguished non-letter symbol for guess transitions."""

    __slots__ = ()

    def __repr__(self):
        return "eps"


EPSILON = _Epsilon()


class AutomatonError(ValueError):
    pass


class NotLimitDeterministic(AutomatonError):
    """Raised with the first violated limit-determinism condition."""


@dataclass(frozen=True)
class Transition:
    src: int
    letter: object  # frozenset of AP names, or EPSILON
    dst: int

    def is_epsilon(self) -> bool:
        return self.letter is EPSILON


@dataclass(frozen=True)
class TGba:
    """Generalized Buchi automaton with transition-based acceptance.

    States are the integers ``0..num_states-1``.  ``masks`` is the one
    store of transitions: it maps each transition to its accepting-set
    bitmask, whose bit ``j`` says that the transition lies in accepting set
    ``j + 1`` of ``n_sets`` (0: in none).  A run is accepting when it takes
    transitions from every set infinitely often.  An accepting set may be
    empty, but there is at least one.  Epsilon moves consume no letter, so
    none may be accepting: their mask is always 0.  ``acceptance`` derives
    the per-set view from ``masks``.

    ``moves[x]``, computed at construction, maps each letter of state
    ``x`` (``EPSILON`` included) to the tuple of its transitions on it.
    Letters follow :func:`letter_key` order and each tuple ascends by target,
    so walking ``moves`` visits every transition once, in the order of
    :func:`serialize_automaton`, which fixes the numbering of every
    automaton and product built from this one.
    """

    num_states: int
    initial: int
    ap: frozenset[str]
    masks: dict[Transition, int] = field(hash=False)  # compared, but a dict has no hash
    n_sets: int
    names: tuple[str, ...] | None = None
    moves: tuple[dict[object, tuple[Transition, ...]], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.num_states < 1:
            raise AutomatonError("automaton needs at least one state")
        if not 0 <= self.initial < self.num_states:
            raise AutomatonError(f"initial state {self.initial} out of range")
        if self.n_sets < 1:
            raise AutomatonError("automaton needs at least one accepting set")
        for t, mask in self.masks.items():
            if not (0 <= t.src < self.num_states and 0 <= t.dst < self.num_states):
                raise AutomatonError(f"transition {t} references an undeclared state")
            if t.letter is not EPSILON and not frozenset(t.letter) <= self.ap:
                raise AutomatonError(f"transition {t} uses undeclared propositions")
            if not 0 <= mask < 1 << self.n_sets:
                raise AutomatonError(
                    f"transition {t} has mask {mask}, not in 0..{(1 << self.n_sets) - 1}"
                )
        if self.names is not None and len(self.names) != self.num_states:
            raise AutomatonError("state name list does not match state count")
        if self.names is not None and len(set(self.names)) < self.num_states:
            raise AutomatonError("state names must be distinct")
        # name the lowest offender: masks built from a set iterate in an order
        # that differs from process to process (EPSILON hashes by identity)
        accepting_eps = [t for t, mask in self.masks.items() if mask and t.is_epsilon()]
        if accepting_eps:
            t = min(accepting_eps, key=lambda t: (t.src, t.dst))
            raise AutomatonError(f"epsilon transition {_render(self, t)} is accepting")
        ap = tuple(sorted(self.ap))
        moves = tuple({} for _ in self.states())
        for t in sorted(self.masks, key=lambda t: (t.src, letter_key(t.letter, ap), t.dst)):
            moves[t.src][t.letter] = moves[t.src].get(t.letter, ()) + (t,)
        object.__setattr__(self, "moves", moves)

    @property
    def acceptance(self) -> tuple[frozenset[Transition], ...]:
        """Accepting set ``j + 1`` as a set of transitions at index ``j``,
        derived from ``masks`` on every read."""
        return tuple(
            frozenset(t for t, mask in self.masks.items() if mask >> j & 1)
            for j in range(self.n_sets)
        )

    def name_of(self, state: int) -> str:
        return self.names[state] if self.names else f"x{state}"

    def states(self) -> range:
        return range(self.num_states)


@dataclass(frozen=True)
class LimitDetPartition:
    x_initial: frozenset[int]
    x_final: frozenset[int]


def letter_key(letter, ap_sorted: tuple[str, ...]) -> tuple:
    """Total order on letters: epsilon first, then bitstring over sorted AP."""
    if letter is EPSILON:
        return (0, "")
    return (1, "".join("1" if x in letter else "0" for x in ap_sorted))


# --- limit determinism --------------------------------------------------

def check_limit_deterministic(b: TGba) -> LimitDetPartition:
    """Find the state partition required of a limit-deterministic automaton.

    The final part is the forward closure of all accepting-transition
    endpoints and all epsilon targets; it is the unique minimal candidate,
    so if it violates any condition no valid partition exists.  Some
    conditions hold by construction and are not checked: the final part
    holds both endpoints of every accepting transition and no transition
    leaves it, since it is the forward closure of those endpoints; and no
    accepting transition is an epsilon move, since ``TGba`` rejects one.
    What is checked is that no epsilon move starts inside the final part,
    and determinism there, per letter (at most one successor for each
    state/letter pair), the reading under which standard constructions
    satisfy the transition-count condition.  States and letters are walked
    in the order of ``b.moves``, so the violation named is the same in
    every process (``EPSILON`` hashes by identity, so set order is not).
    """
    seeds: set[int] = set()
    for t, mask in b.masks.items():
        if mask:
            seeds.update((t.src, t.dst))
        elif t.is_epsilon():
            seeds.add(t.dst)
    x_final = closure(seeds, lambda v: (t.dst for ts in b.moves[v].values() for t in ts))

    for x in sorted(x_final):
        for letter, ts in b.moves[x].items():
            if letter is EPSILON:
                raise NotLimitDeterministic(
                    f"epsilon transition {_render(b, ts[0])} starts inside the final part"
                )
            if len(ts) > 1:
                raise NotLimitDeterministic(
                    f"state {b.name_of(x)} has {len(ts)} successors on letter "
                    f"{sorted(letter)} inside the final part "
                    "(per-letter reading of the determinism condition failed)"
                )

    x_initial = frozenset(b.states()) - x_final
    return LimitDetPartition(frozenset(x_initial), frozenset(x_final))


# --- text format ---------------------------------------------------------

def _guard_text(letter, ap_sorted) -> str:
    if letter is EPSILON:
        return "eps"
    if not ap_sorted:
        return "true"
    return " & ".join(a if a in letter else f"!{a}" for a in ap_sorted)


def serialize_automaton(b: TGba) -> str:
    """Canonical text form: sorted states, sorted letters, full-conjunction guards."""
    ap_sorted = tuple(sorted(b.ap))
    lines = [
        f"ap: {' '.join(ap_sorted)}".rstrip(),
        f"states: {b.num_states}",
        f"initial: {b.initial}",
        f"acceptance-sets: {b.n_sets}",
    ]
    for t in itertools.chain.from_iterable(ts for row in b.moves for ts in row.values()):
        accs = [str(j + 1) for j in range(b.n_sets) if b.masks[t] >> j & 1]
        line = f"{t.src} {_guard_text(t.letter, ap_sorted)} {t.dst}"
        if accs:
            line += f" acc: {','.join(accs)}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def parse_automaton(text: str) -> TGba:
    """Parse the automaton text format of the module docstring.

    Every error but a missing header names the line that caused it.
    """
    headers: dict[str, tuple[int, str]] = {}
    body: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key = line.split(":", 1)[0].strip()
        if key in ("ap", "states", "initial", "acceptance-sets") and ":" in line:
            if key in headers:
                raise AutomatonError(f"line {lineno}: duplicate header {key!r}")
            headers[key] = (lineno, line.split(":", 1)[1].strip())
        else:
            body.append((lineno, line))

    def number(key: str) -> int:
        lineno, value = headers[key]
        try:
            return int(value)
        except ValueError:
            raise AutomatonError(f"line {lineno}: bad {key} value {value!r}") from None

    for key in ("states", "initial", "acceptance-sets"):
        if key not in headers:
            raise AutomatonError(f"missing header {key!r}")
    ap_list = headers.get("ap", (0, ""))[1].split()
    if len(set(ap_list)) != len(ap_list):
        raise AutomatonError(
            f"line {headers['ap'][0]}: duplicate atomic proposition in 'ap' header"
        )
    for name in ap_list:
        if not re.fullmatch(r"[a-z][a-z0-9_]*", name) or name in ("true", "false", "eps"):
            raise AutomatonError(
                f"line {headers['ap'][0]}: {name!r} is not a proposition name "
                "(need [a-z][a-z0-9_]*, not true, false or eps)"
            )
    ap = frozenset(ap_list)
    num_states = number("states")
    initial = number("initial")
    n_sets = number("acceptance-sets")
    for key, bad, problem in (
        ("states", num_states < 1, "automaton needs at least one state"),
        ("initial", not 0 <= initial < num_states, f"initial state {initial} out of range"),
        ("acceptance-sets", n_sets < 1, "acceptance-sets must be at least 1"),
    ):
        if bad:
            raise AutomatonError(f"line {headers[key][0]}: {problem}")

    ap_sorted = tuple(sorted(ap))
    letters = [
        frozenset(a for a, bit in zip(ap_sorted, bits) if bit)
        for bits in itertools.product((False, True), repeat=len(ap_sorted))
    ]

    masks: dict[Transition, int] = {}
    top = initial  # the highest state id any line names
    for lineno, line in body:
        tokens = line.split()
        if len(tokens) < 3:
            raise AutomatonError(f"line {lineno}: expected 'src <guard> dst [acc: ...]'")
        acc = 0
        if "acc:" in tokens:
            k = tokens.index("acc:")
            acc_text = "".join(tokens[k + 1 :])
            tokens = tokens[:k]
            for part in acc_text.split(","):
                if not part:
                    continue
                try:
                    j = int(part)
                except ValueError:
                    raise AutomatonError(
                        f"line {lineno}: bad acceptance index {part!r}"
                    ) from None
                if not 1 <= j <= n_sets:
                    raise AutomatonError(
                        f"line {lineno}: acceptance index {j} out of range 1..{n_sets}"
                    )
                acc |= 1 << (j - 1)
        if len(tokens) < 3:
            raise AutomatonError(f"line {lineno}: expected 'src <guard> dst'")
        try:
            src = int(tokens[0])
            dst = int(tokens[-1])
        except ValueError as exc:
            raise AutomatonError(f"line {lineno}: bad state id ({exc})") from None
        if not (0 <= src < num_states and 0 <= dst < num_states):
            raise AutomatonError(f"line {lineno}: state id out of range")
        top = max(top, src, dst)
        guard = " ".join(tokens[1:-1])
        if guard == "eps":
            if acc:
                raise AutomatonError(f"line {lineno}: an epsilon move cannot be accepting")
            expanded = [Transition(src, EPSILON, dst)]
        else:
            try:
                phi = ltl.parse_ltl(guard)
            except ltl.ParseError as exc:
                raise AutomatonError(f"line {lineno}: bad guard: {exc}") from None
            if not ltl.is_propositional(phi):
                raise AutomatonError(f"line {lineno}: temporal operator in guard")
            undeclared = ltl.atoms(phi) - ap
            if undeclared:
                raise AutomatonError(
                    f"line {lineno}: undeclared proposition(s) {sorted(undeclared)}"
                )
            # a propositional guard holds on letter^w iff it holds on letter
            holds = ltl.formula_evaluator(phi, [(letter,) for letter in letters])(())
            expanded = [
                Transition(src, letter, dst)
                for j, letter in enumerate(letters)
                if holds >> j & 1
            ]
        for t in expanded:
            masks[t] = masks.get(t, 0) | acc

    # a state no line names is unreachable and has no moves, so a count past
    # the highest named id is a typo; catch it before tables of that size exist
    if num_states > top + 1:
        raise AutomatonError(
            f"line {headers['states'][0]}: {num_states} states declared, "
            f"but no line names a state above {top}"
        )
    return TGba(
        num_states=num_states,
        initial=initial,
        ap=ap,
        masks=masks,
        n_sets=n_sets,
        names=tuple(f"x{i}" for i in range(num_states)),
    )


def load_automaton(path) -> TGba:
    with open(path, encoding="utf-8") as fh:
        return parse_automaton(fh.read())


# --- degeneralization ----------------------------------------------------

def degeneralize(b: TGba) -> TGba:
    """Counter product collapsing the acceptance condition to a single set.

    State (x, j) tracks that sets 1..j-1 have been seen this round; taking a
    transition of set j while the counter is j advances it (wrapping from n
    back to 1).  The single accepting set holds the wrap transitions, so the
    language is preserved while the order of visits becomes fixed.
    """
    n = b.n_sets

    def successors(node):
        x, j = node
        for t in itertools.chain.from_iterable(b.moves[x].values()):
            yield (t.dst, j % n + 1 if b.masks[t] >> (j - 1) & 1 else j), t

    order, rows = explore((b.initial, 1), successors)
    masks = {
        Transition(i_src, t.letter, i_dst): b.masks[t] >> (n - 1) & 1 if j == n else 0
        for i_src, ((_, j), row) in enumerate(zip(order, rows))
        for t, i_dst in row
    }
    names = tuple(f"{b.name_of(x)}.{j}" for (x, j) in order)
    return TGba(num_states=len(order), initial=0, ap=b.ap, masks=masks, n_sets=1, names=names)


# --- acceptance of lasso words -------------------------------------------

def accepts_lasso(b: TGba, w: LassoWord) -> bool:
    """Exact membership of ``prefix . cycle^w`` in the automaton's language:
    the table of :func:`lasso_acceptor` over the single cycle ``w.cycle``,
    read at ``w.prefix``.  Nothing is kept across calls, so a caller that
    decides many words on one automaton should build one acceptor over all
    of their cycles."""
    return lasso_acceptor(b, (w.cycle,))(w.prefix) == 1


def lasso_acceptor(b: TGba, cycles) -> Callable[[tuple], int]:
    """Decide every word ``prefix . cycle^w`` with ``cycle`` in ``cycles``
    at once: the returned function maps a prefix (a tuple of letters) to an
    int whose bit ``j`` is set iff ``prefix . cycles[j]^w`` is accepted.

    Epsilon transitions consume no letter.  The prefix is walked letter by
    letter, each step an epsilon closure and then the letter's moves, to
    the set of states that enter the first cycle position; a word is
    accepted iff one of them accepts ``cycle^w`` alone, so the answer for a
    prefix is the OR of one bitset per entering state.

    Those bitsets come from one array pass over all cycles, on relations
    stored as bitset rows (:func:`~omegarl.graphs.pack_rows`).  Per letter
    ``l``, ``D_l`` relates a state to those that an epsilon closure and then
    an ``l`` move reach, and ``D_l^j`` is its part whose ``l`` move lies in
    accepting set ``j``.  Per cycle, ``T`` composes the ``D`` of its letters,
    relating the states that enter the cycle to those that enter it again,
    and ``T^j`` does the same through a set-``j`` move somewhere along it.
    State ``x`` accepts ``cycle^w`` iff some ``y`` in ``T*(x)`` has, for every
    ``j``, a ``T^j`` pair inside the strongly connected component of ``y``
    under ``T``.

    This is exact for epsilon moves, nondeterminism and missing moves.  In
    the run graph, with one node per cycle position and state, epsilon
    cycles are rejected and letters only advance the position, so every
    cycle passes position 0.  An SCC of the run graph with an internal edge
    therefore meets position 0 in one ``T``-component, and its internal
    transitions meet set ``j`` iff ``T^j`` has a pair inside that component.

    The acceptor reads ``b.moves`` and ``b.masks`` once; the bitsets live
    only as long as the returned function.  Raises ``AutomatonError`` here,
    before any prefix is read, if epsilon transitions form a cycle (such a
    cycle would allow runs that never consume the word).
    """
    moves, n = b.moves, b.num_states
    eps_out = [[t.dst for t in row.get(EPSILON, ())] for row in moves]
    eps = np.zeros((n, n), dtype=bool)
    if any(eps_out):  # no closure pass, and no epsilon cycle, without epsilon moves
        for x, targets in enumerate(eps_out):
            eps[x, targets] = True
        eps = unpack_rows(close_rows(pack_rows(eps)), n)
        if eps.diagonal().any():
            raise AutomatonError("epsilon transitions form a cycle")
    eps |= np.eye(n, dtype=bool)
    index = {letter: i for i, letter in enumerate(dict.fromkeys(itertools.chain(*cycles)))}
    # step[l, 0] holds the moves on letter l and step[l, 1 + j] those in set
    # j; the extra last letter pads short cycles with the identity relation
    step = np.zeros((len(index) + 1, 1 + b.n_sets, n, n), dtype=bool)
    l, src, dst, mask = np.array(
        [(index[t.letter], t.src, t.dst, m) for t, m in b.masks.items() if t.letter in index],
        dtype=int,
    ).reshape(-1, 4).T
    step[l, 0, src, dst] = True
    step[l, 1:, src, dst] = mask[:, None] >> np.arange(b.n_sets) & 1
    d = eps @ step
    d[-1, 0] = np.eye(n, dtype=bool)
    d = pack_rows(d)
    lengths = np.array([len(cycle) for cycle in cycles], dtype=int)
    letters = np.full((len(cycles), lengths.max(initial=1)), len(index))
    letters[np.arange(letters.shape[1]) < lengths[:, None]] = [
        index[letter] for letter in itertools.chain(*cycles)
    ]
    rel = d[letters[:, 0]]  # per cycle: [T, T^1, ..., T^n_sets] of its letters so far
    for column in letters.T[1:]:
        d_next, before = d[column], rel
        rel = np.zeros_like(before)
        for z in range(n):  # compose through z: the rows holding z take on z's row
            via = holding(before, z)[..., None]
            rel |= via & d_next[:, None, 0, z : z + 1]
            rel[:, 1:] |= via[:, :1] & d_next[:, 1:, z : z + 1]
    reach = unpack_rows(close_rows(rel[:, 0] | d[-1, 0]), n)  # T*: the padding is the identity
    back = reach.transpose(0, 2, 1)
    # a T^j pair (u, v) lies inside u's component when v reaches u
    inside = (unpack_rows(rel[:, 1:], n) & back[:, None]) @ np.ones(n, dtype=bool)
    good = ((reach & back) @ inside.transpose(0, 2, 1)).all(-1)
    verdicts = (reach @ good[..., None])[..., 0].T
    table = [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
             for row in verdicts]

    def accepts(prefix) -> int:
        entering = {b.initial}
        for letter in prefix:
            entering = {
                t.dst
                for y in closure(entering, lambda s: eps_out[s])
                for t in moves[y].get(letter, ())
            }
        bits = 0
        for x in entering:
            bits |= table[x]
        return bits

    return accepts


def _render(b: TGba, t: Transition) -> str:
    letter = "eps" if t.is_epsilon() else "{" + ",".join(sorted(t.letter)) + "}"
    return f"({b.name_of(t.src)},{letter},{b.name_of(t.dst)})"


# --- packaged fixtures ----------------------------------------------------

_FIXTURES = {path.stem: path for path in Path(__file__).with_name("fixtures").glob("*.tgba")}


def named_fixture(name: str) -> TGba:
    """The packaged automaton ``fixtures/<name>.tgba``."""
    try:
        path = _FIXTURES[name]
    except KeyError:
        raise AutomatonError(
            f"unknown fixture {name!r}; available: {', '.join(sorted(_FIXTURES))}"
        ) from None
    return load_automaton(path)
