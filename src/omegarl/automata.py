"""Transition-based generalized Buchi automata with epsilon moves.

Provides the data model, a line-oriented text format, limit-determinism
checking, degeneralization to a single accepting set, an exact acceptance
test for ultimately periodic words that decides every state against many
cycles at once on relations bit-sliced into ints (:func:`lasso_acceptor`),
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
most once (:func:`read_text` reads these rules for the MDP format too)::

    ap: a b c            # atomic propositions; optional, default none
    states: 2            # states 0..1, named x0 and x1
    initial: 0
    acceptance-sets: 2   # accepting sets 1..2; at least 1, at most 16

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
proposition name must be one that :func:`~omegarl.ltl.parse_ltl` reads as
that atom, and not ``eps``, so that the canonical text reads back as the
same automaton; ``ap:`` names at most :data:`MAX_AP` of them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import reduce
from operator import and_, or_
from pathlib import Path
from typing import Callable

from . import ltl
from .graphs import close_rows, closure, explore
from .ltl import LassoWord


class _Epsilon:
    """Distinguished non-letter symbol for guess transitions."""

    __slots__ = ()

    def __repr__(self):
        return "eps"


EPSILON = _Epsilon()
MAX_SETS = 16  # accepting sets; each reward scheme tabulates 2**n_sets working sets
MAX_AP = 16  # propositions in a parsed automaton; a guard expands to 2**len(ap) letters


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
    empty; there is at least one and at most :data:`MAX_SETS`.  Epsilon
    moves consume no letter, so none may be accepting: their mask is always
    0.  ``acceptance`` derives the per-set view from ``masks``.

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
        if self.n_sets > MAX_SETS:
            raise AutomatonError(
                f"automaton has {self.n_sets} accepting sets, more than {MAX_SETS}"
            )
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
    return " & ".join(a if a in letter else f"!{a}" for a in ap_sorted) or "true"


def proposition_names(lineno: int, value: str, error: type[ValueError]) -> frozenset[str]:
    """The names of the ``ap:`` header ``value`` on line ``lineno``.  Raises
    ``error`` at a duplicate, or at a name that a guard cannot write: one
    that :func:`~omegarl.ltl.parse_ltl` does not read as that atom, or eps."""
    names: set[str] = set()
    for name in value.split():
        if name in names:
            raise error(f"line {lineno}: duplicate atomic proposition in 'ap' header")
        try:
            atom = name != "eps" and ltl.parse_ltl(name) == ltl.Atom(name)
        except ltl.ParseError:
            atom = False
        if not atom:
            raise error(f"line {lineno}: {name!r} is not a proposition name "
                        "(need an LTL atom other than eps)")
        names.add(name)
    return frozenset(names)


def number(kind, token: str, lineno: int, what: str, error: type[ValueError]):
    """``kind(token)``, or else ``error`` naming line ``lineno`` and ``what``."""
    try:
        return kind(token)
    except ValueError:
        raise error(f"line {lineno}: bad {what} {token!r}") from None


def read_text(text: str, required: tuple[str, ...], error: type[ValueError]):
    """Split ``text`` by the rules both text formats share: ``#`` comments and
    blank lines are dropped, and a ``key: value`` line whose stripped key is
    ``ap`` (read by :func:`proposition_names`, none if absent) or one of
    ``required`` (an int, which must appear) is a header, at most once.
    Returns ``(headers, body)``: ``headers`` maps ``ap``, then ``required``
    in order, to ``(line, value)``; ``body`` holds the other lines as ``(line,
    tokens)``.  Raises ``error``, naming the line unless a header is missing."""
    keys = ("ap", *required)
    found: dict[str, tuple[int, str]] = {}
    body: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0]
        key, colon, value = line.partition(":")
        if colon and (key := key.strip()) in keys:
            if key in found:
                raise error(f"line {lineno}: duplicate header {key!r}")
            found[key] = (lineno, value.strip())
        elif tokens := line.split():
            body.append((lineno, tokens))
    lineno, value = found.get("ap", (0, ""))
    headers = {"ap": (lineno, proposition_names(lineno, value, error))}
    for key in required:
        if key not in found:
            raise error(f"missing header {key!r}")
        lineno, value = found[key]
        headers[key] = (lineno, number(int, value, lineno, f"{key} value", error))
    return headers, body


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
    headers, body = read_text(text, ("states", "initial", "acceptance-sets"), AutomatonError)
    (_, ap), (_, num_states), (_, initial), (_, n_sets) = headers.values()
    for key, bad, problem in (
        ("ap", len(ap) > MAX_AP, f"at most {MAX_AP} atomic propositions "
         "(each guard expands to one transition per letter)"),
        ("states", num_states < 1, "automaton needs at least one state"),
        ("initial", not 0 <= initial < num_states, f"initial state {initial} out of range"),
        ("acceptance-sets", n_sets < 1, "acceptance-sets must be at least 1"),
        ("acceptance-sets", n_sets > MAX_SETS, f"acceptance-sets must be at most {MAX_SETS}"),
    ):
        if bad:
            raise AutomatonError(f"line {headers[key][0]}: {problem}")

    ap_sorted = tuple(sorted(ap))
    letters = [
        frozenset(a for a, bit in zip(ap_sorted, bits) if bit)
        for bits in itertools.product((False, True), repeat=len(ap_sorted))
    ]
    # a propositional guard holds on letter^w iff it holds on letter
    one_letter_cycles = ltl.CycleTable([(letter,) for letter in letters])

    masks: dict[Transition, int] = {}
    top = initial  # the highest state id any line names
    for lineno, tokens in body:
        acc = 0
        if "acc:" in tokens:
            k = tokens.index("acc:")
            tokens, acc_text = tokens[:k], "".join(tokens[k + 1 :])
            for part in filter(None, acc_text.split(",")):
                j = number(int, part, lineno, "acceptance index", AutomatonError)
                if not 1 <= j <= n_sets:
                    raise AutomatonError(
                        f"line {lineno}: acceptance index {j} out of range 1..{n_sets}"
                    )
                acc |= 1 << (j - 1)
        if len(tokens) < 3:
            raise AutomatonError(f"line {lineno}: expected 'src <guard> dst [acc: ...]'")
        src = number(int, tokens[0], lineno, "state id", AutomatonError)
        dst = number(int, tokens[-1], lineno, "state id", AutomatonError)
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
            holds = ltl.formula_evaluator(phi, one_letter_cycles)(())
            expanded = [Transition(src, letter, dst)
                        for j, letter in enumerate(letters) if holds >> j & 1]
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
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_automaton(fh.read())
    except AutomatonError as exc:
        raise AutomatonError(f"{path}: {exc}") from None


# --- degeneralization ----------------------------------------------------

def degeneralize(b: TGba) -> TGba:
    """Counter product collapsing the acceptance condition to a single set.

    State (x, j) tracks that sets 1..j-1 have been seen this round; taking a
    transition of set j while the counter is j advances it (wrapping from n
    back to 1).  The single accepting set holds the wrap transitions, so the
    language is preserved while the order of visits becomes fixed.
    """
    n = b.n_sets

    masks: dict[Transition, int] = {}

    def expand(node, number):
        x, j = node
        i = number(node)
        for t in itertools.chain.from_iterable(b.moves[x].values()):
            k = number((t.dst, j % n + 1 if b.masks[t] >> (j - 1) & 1 else j))
            masks[Transition(i, t.letter, k)] = b.masks[t] >> (n - 1) & 1 if j == n else 0

    order = explore((b.initial, 1), expand)
    names = tuple(f"{b.name_of(x)}.{j}" for (x, j) in order)
    return TGba(num_states=len(order), initial=0, ap=b.ap, masks=masks, n_sets=1, names=names)


# --- acceptance of lasso words -------------------------------------------

def accepts_lasso(b: TGba, w: LassoWord) -> bool:
    """Exact membership of ``prefix . cycle^w`` in the automaton's language:
    the table of :func:`lasso_acceptor` over the single cycle ``w.cycle``,
    read at ``w.prefix``.  Nothing is kept across calls, so a caller that
    decides many words on one automaton should build one acceptor over all
    of their cycles."""
    return lasso_acceptor(b, ltl.CycleTable((w.cycle,)))(w.prefix) == 1


def lasso_acceptor(b: TGba, cycles: ltl.CycleTable) -> Callable[[tuple], int]:
    """Decide every word ``prefix . cycle^w`` with ``cycle`` among the
    tabled ``cycles`` at once: the returned function maps a prefix (a tuple
    of letters) to an int whose bit ``j`` is set iff ``prefix .
    cycles[j]^w`` is accepted.

    Epsilon transitions consume no letter.  The prefix is walked letter by
    letter, each step an epsilon closure and then the letter's moves, to
    the set of states that enter the first cycle position; a word is
    accepted iff one of them accepts ``cycle^w`` alone, so the answer for a
    prefix is the OR of one bitset per entering state.

    Those bitsets come from relations bit-sliced across the cycles: bit
    ``c`` of entry ``(x, y)`` says that the relation of ``cycles[c]``
    relates ``x`` to ``y``.  Per letter ``l``, ``D_l`` relates a state to
    those that an epsilon closure and then an ``l`` move reach, and
    ``D_l^j`` is its part whose ``l`` move lies in accepting set ``j``.  Per
    cycle, ``T`` composes the ``D`` of its letters, position by position,
    relating the states that enter the cycle to those that enter it again,
    and ``T^j`` does the same through a set-``j`` move somewhere along it.
    State ``x`` accepts ``cycle^w`` iff some ``y`` in ``T*(x)`` has, for
    every ``j``, a ``T^j`` pair inside ``y``'s strongly connected component
    under ``T``.

    This is exact for epsilon moves, nondeterminism and missing moves.  In
    the run graph, with one node per cycle position and state, epsilon
    cycles are rejected and letters only advance the position, so every
    cycle passes position 0.  An SCC of the run graph with an internal edge
    therefore meets position 0 in one ``T``-component, and its internal
    transitions meet set ``j`` iff ``T^j`` has a pair inside that component.

    A letter is read projected onto ``b.ap``, as :func:`~omegarl.product.
    build_product` projects labels, so propositions outside it are ignored;
    the projection goes into a copy of the table's columns.  The acceptor
    reads ``b.moves`` and ``b.masks`` once.  Raises ``AutomatonError``
    here, before any prefix is read, if epsilon transitions form a cycle
    (which would allow runs that consume nothing).
    """
    moves, n = b.moves, b.num_states
    eps_out = [[t.dst for t in row.get(EPSILON, ())] for row in moves]
    eps = close_rows([[int(y in targets) for y in range(n)] for targets in eps_out])
    if any(eps[x][x] for x in range(n)):
        raise AutomatonError("epsilon transitions form a cycle")
    into = [[z for z in range(n) if z == w or eps[z][w]] for w in range(n)]
    # per position, each letter's cycles, a letter projected onto b.ap as
    # build_product projects labels; None pads the cycles that have ended
    for column in (columns := [dict(column) for column in cycles.columns]):
        for letter in [x for x in column if x is not None and not x <= b.ap]:
            column[letter & b.ap] = column.get(letter & b.ap, 0) | column.pop(letter)
    # per letter, D_l as triples (z, y, mask): an epsilon closure from z and a
    # move in the sets of mask reach y; None is the identity
    steps = {None: [(z, z, 0) for z in range(n)]}
    for letter in set().union(*columns) - {None}:
        steps[letter] = [(z, t.dst, b.masks[t]) for row in moves
                         for t in row.get(letter, ()) for z in into[t.src]]

    def compose(rel, column, j=None, out=None):  # out | rel D, or out | rel D^j
        out = out or [[0] * n for _ in range(n)]
        for letter, group in column.items():
            for z, y, mask in steps[letter]:
                if j is None or mask >> j & 1:
                    for x, row in enumerate(rel):
                        out[x][y] |= row[z] & group
        return out

    full = (1 << cycles.count) - 1
    identity = [[full * (x == y) for y in range(n)] for x in range(n)]
    t = compose(identity, columns[0])  # T, and T^j at index j
    t_sets = [compose(identity, columns[0], j) for j in range(b.n_sets)]
    for column in columns[1:]:  # T D, and T^j D | T D^j
        t, t_sets = compose(t, column), [compose(t, column, j, compose(tj, column))
                                         for j, tj in enumerate(t_sets)]
    # T*; a T^j pair (u, v) lies inside u's component when v reaches u, and y
    # is good on the cycles where its component holds such a pair for every j
    reach = close_rows([[a | i for a, i in zip(row, ones)] for row, ones in zip(t, identity)])
    inside = [[reduce(or_, (bits & reach[v][u] for v, bits in enumerate(tj[u]))) for u in range(n)]
              for tj in t_sets]
    good = [reduce(and_, (reduce(or_, (reach[y][u] & reach[u][y] & pairs[u] for u in range(n)))
                          for pairs in inside), full) for y in range(n)]
    table = [reduce(or_, (bits & good[y] for y, bits in enumerate(row))) for row in reach]

    def accepts(prefix) -> int:
        entering = {b.initial}
        for letter in prefix:
            entering = {
                t.dst
                for y in closure(entering, lambda s: eps_out[s])
                for t in moves[y].get(letter & b.ap, ())
            }
        return reduce(or_, (table[x] for x in entering), 0)

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
