"""Linear temporal logic: syntax trees, a small concrete grammar, and exact
evaluation on ultimately periodic words.

An infinite word is a :class:`LassoWord` ``prefix . cycle^w`` whose letters
are sets of atomic-proposition names.  :func:`formula_evaluator` decides a
formula exactly on many such words at once, as its docstring explains, so
it serves as a ground-truth oracle for the automata in this package.

Syntax: atoms match ``[a-z][a-z0-9_]*``, ``true`` and ``false`` are
constants, and parentheses group.  A formula nests at most :data:`MAX_DEPTH`
levels deep, counting each operator and pair of parentheses; a node built
in code is held to the same cap, less parentheses, when it is made.  An
operator's syntax lives in one place, the tables ``_UNARY`` (prefix symbol
to class) and ``_BINARY`` (infix symbol to class, precedence and whether it
groups right); every unary operator binds tighter than every binary one.
The token pattern ``_TOKEN``, the parser, the printer, the walk
``_operands`` and so each node's depth read them.  So a new operator needs
its class, one table row, an opcode and one case of :func:`_step`: its
value at a position from its operands' there and values one position later.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Callable


class ParseError(ValueError):
    """Malformed formula text; carries the offending character position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


MAX_DEPTH = 200  # nesting levels: far below the stack limit of the recursive parser and walks


@dataclass(frozen=True)
class Formula:
    """A node; its ``depth`` counts levels as :func:`parse_ltl` does, less parentheses.
    A node deeper than :data:`MAX_DEPTH` raises ``ValueError`` when it is made."""

    def __post_init__(self):
        depth = 1 + max([f.depth for f in operands]) if (operands := _operands(self)) else 1
        if depth > MAX_DEPTH:
            raise ValueError(f"formula nested more than {MAX_DEPTH} deep")
        object.__setattr__(self, "depth", depth)


@dataclass(frozen=True)
class TrueBool(Formula):
    pass


@dataclass(frozen=True)
class FalseBool(Formula):
    pass


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class Next(Formula):
    operand: Formula


@dataclass(frozen=True)
class Eventually(Formula):
    operand: Formula


@dataclass(frozen=True)
class Globally(Formula):
    operand: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Until(Formula):
    left: Formula
    right: Formula


_CONSTANTS = {"true": TrueBool, "false": FalseBool}
_UNARY = {"!": Not, "X": Next, "F": Eventually, "G": Globally}
_BINARY = {  # symbol: (class, precedence, groups right)
    "U": (Until, 3, True),
    "&": (And, 2, False),
    "|": (Or, 1, False),
    "->": (Implies, 0, True),
}
_PREFIX = 1 + max(level for _, level, _ in _BINARY.values())  # the unary operators' level
# class: (symbol, level, groups right) for the printer; a constant binds tightest of all
_SYNTAX = {cls: (word, _PREFIX + 1, False) for word, cls in _CONSTANTS.items()}
_SYNTAX |= {cls: (symbol, _PREFIX, False) for symbol, cls in _UNARY.items()}
_SYNTAX |= {cls: (symbol, level, right) for symbol, (cls, level, right) in _BINARY.items()}
_UNARY_CLASSES = frozenset(_UNARY.values())
_BINARY_CLASSES = frozenset(cls for cls, _, _ in _BINARY.values())
_BOOLEAN = frozenset([*_CONSTANTS.values(), Atom, Not, And, Or, Implies])


def _operands(phi: Formula) -> tuple[Formula, ...]:
    """The immediate subformulas of ``phi``, left to right."""
    if type(phi) in _UNARY_CLASSES:
        return (phi.operand,)
    if type(phi) in _BINARY_CLASSES:
        return (phi.left, phi.right)
    return ()


def _subformulas(phi: Formula) -> list[Formula]:
    """``phi`` and each occurrence of a subformula in it, breadth first."""
    found = [phi]
    for f in found:  # grows while it is read
        found.extend(_operands(f))
    return found


def atoms(phi: Formula) -> frozenset[str]:
    """Set of atomic-proposition names occurring in the formula."""
    names, found = [], [phi]
    for f in found:  # the _subformulas walk, without asking a leaf for operands
        if type(f) is Atom:
            names.append(f.name)
        else:
            found.extend(_operands(f))
    return frozenset(names)


def is_propositional(phi: Formula) -> bool:
    """True when the formula contains no temporal operator."""
    found = [phi]
    for f in found:  # the _subformulas walk, up to the first temporal operator
        if type(f) not in _BOOLEAN:
            return False
        found.extend(_operands(f))
    return True


@dataclass(frozen=True)
class LassoWord:
    """The infinite word ``prefix . cycle^w`` with set-valued letters."""

    prefix: tuple[frozenset[str], ...]
    cycle: tuple[frozenset[str], ...]

    def __post_init__(self):
        if len(self.cycle) < 1:
            raise ValueError("lasso cycle must be nonempty")

    @property
    def positions(self) -> int:
        """Number of distinct suffix classes."""
        return len(self.prefix) + len(self.cycle)

    def letter(self, i: int) -> frozenset[str]:
        """Letter at position ``i`` of the infinite word."""
        p = len(self.prefix)
        if i < p:
            return self.prefix[i]
        return self.cycle[(i - p) % len(self.cycle)]


def lasso(prefix, cycle) -> LassoWord:
    """Convenience constructor accepting any iterables of AP collections."""
    return LassoWord(
        tuple(frozenset(x) for x in prefix),
        tuple(frozenset(x) for x in cycle),
    )


# --- parsing -----------------------------------------------------------

_SYMBOLS = sorted([*_UNARY, *_BINARY, "(", ")"], key=len, reverse=True)  # longest match first
_TOKEN = re.compile(r"\s*(?:([a-z][a-z0-9_]*|%s)|(\S))" % "|".join(map(re.escape, _SYMBOLS)))


def parse_ltl(text: str) -> Formula:
    """Parse formula text. Raises :class:`ParseError` with a position.

    Precedence climbing: ``infix(least, depth)`` folds into an ``operand``
    each binary operator of precedence ``least`` or more, whose right side
    binds one tighter unless the operator groups right.  Both return a
    subformula and its height, and check that with the ``depth`` it sits at
    it stays within :data:`MAX_DEPTH`: on the way down and after each fold."""
    tokens = []  # (token, position), then ("", len(text)) for the end
    for m in _TOKEN.finditer(text):
        token, bad = m.groups()
        if bad is not None:
            what = "unknown operator" if "A" <= bad <= "Z" else "unexpected character"
            raise ParseError(f"{what} {bad!r}", m.start(2))
        tokens.append((token, m.start(1)))
    tokens.append(("", len(text)))
    i = 0

    def operand(depth: int) -> tuple[Formula, int]:
        nonlocal i
        token, at = tokens[i]
        if depth >= MAX_DEPTH:
            raise ParseError(f"formula nested more than {MAX_DEPTH} deep", at)
        i += 1
        if token in _UNARY:
            phi, height = operand(depth + 1)
            return _UNARY[token](phi), height + 1
        if token == "(":
            phi, height = infix(0, depth + 1)
            token, at = tokens[i]
            if token != ")":
                raise ParseError("expected ')'", at)
            i += 1
            return phi, height + 1
        if token[:1].islower():  # an atom or a constant
            return (_CONSTANTS[token]() if token in _CONSTANTS else Atom(token)), 1
        raise ParseError(f"unexpected {token!r}" if token else "unexpected end of input", at)

    def infix(least: int, depth: int) -> tuple[Formula, int]:
        nonlocal i
        phi, height = operand(depth)
        while (row := _BINARY.get(tokens[i][0])) is not None and row[1] >= least:
            cls, level, right = row
            at = tokens[i][1]
            i += 1
            rhs, rhs_height = infix(level if right else level + 1, depth + 1)
            height = 1 + max(height, rhs_height)
            if depth + height > MAX_DEPTH:  # a left-grouping chain deepens its first operand
                raise ParseError(f"formula nested more than {MAX_DEPTH} deep", at)
            phi = cls(phi, rhs)
        return phi, height

    phi, _ = infix(0, 0)
    token, at = tokens[i]
    if token:
        raise ParseError(f"unexpected {token!r}", at)
    return phi


def load_formula(path) -> Formula:
    """Read one formula from a UTF-8 file; ``#`` starts a line comment."""
    with open(path, encoding="utf-8") as fh:
        body = " ".join(line.split("#", 1)[0] for line in fh)
    return parse_ltl(body)


# --- printing ----------------------------------------------------------


def _fmt(phi: Formula, least: int = 0) -> str:
    """``phi`` as text, in parentheses if it binds looser than ``least``; an operand
    binds as tight as its operator on the side it groups to, one tighter on the other."""
    if isinstance(phi, Atom):
        return phi.name
    syntax = _SYNTAX.get(type(phi))
    if syntax is None:
        raise TypeError(f"not a formula: {phi!r}")
    symbol, level, right = syntax
    operands = _operands(phi)
    if not operands:
        text = symbol
    elif level == _PREFIX:
        text = symbol + " " * symbol.isalpha() + _fmt(operands[0], level)
    else:
        a, b = operands
        text = f"{_fmt(a, level + right)} {symbol} {_fmt(b, level + (not right))}"
    return f"({text})" if level < least else text


def format_ltl(phi: Formula) -> str:
    """Render with minimal parentheses; re-parses to an equal tree."""
    return _fmt(phi)


# --- evaluation --------------------------------------------------------

# A compiled formula is a post-order list of (opcode, x, y) instructions; x and
# y index earlier instructions (an atom's x is its name, unused operands are 0).
_TRUE, _FALSE, _ATOM, _NOT, _AND, _OR, _IMPLIES, _NEXT, _UNTIL, _EVENTUALLY, _GLOBALLY = range(11)
_OPCODE = {
    TrueBool: _TRUE, FalseBool: _FALSE, Atom: _ATOM, Not: _NOT, And: _AND, Or: _OR,
    Implies: _IMPLIES, Next: _NEXT, Until: _UNTIL, Eventually: _EVENTUALLY, Globally: _GLOBALLY,
}


class CycleTable:
    """The cycles of a batch of lasso words, tabled once for the oracles
    that decide them all at once (:func:`formula_evaluator` and
    :func:`~omegarl.automata.lasso_acceptor`), which only read it.  Sets
    are ints whose bit ``j`` speaks of ``cycles[j]``: ``columns[i]`` maps
    each letter to the cycles that read it at position ``i`` of the longest
    cycle, where a cycle that has ended reads ``None``; ``lengths`` maps
    each cycle length to its cycles; ``count`` is the number of cycles.
    Raises ``ValueError`` naming the first empty cycle."""

    def __init__(self, cycles):
        self.columns = [{} for _ in range(max(map(len, cycles), default=1))]
        self.lengths: dict[int, int] = {}
        for j, cycle in enumerate(cycles):
            if not cycle:
                raise ValueError(f"cycle {j} is empty")
            for column, letter in itertools.zip_longest(self.columns, cycle):
                column[letter] = column.get(letter, 0) | 1 << j
            self.lengths[len(cycle)] = self.lengths.get(len(cycle), 0) | 1 << j
        self.count = len(cycles)


def _step(program, k: int, now: list[int], later: list[int], atoms: dict, full: int) -> int:
    """Instruction ``k``'s value at one position, a bitset over cycles, by its
    one-step rule: ``now`` holds the earlier instructions' values there and
    ``later`` all of them one position later; ``atoms`` maps a name to the
    cycles whose letter here holds it, and ``full`` has every cycle."""
    op, x, y = program[k]
    if op == _ATOM:
        return atoms.get(x, 0)
    if op == _NOT:
        return full ^ now[x]
    if op == _AND:
        return now[x] & now[y]
    if op == _OR:
        return now[x] | now[y]
    if op == _IMPLIES:
        return (full ^ now[x]) | now[y]
    if op == _NEXT:
        return later[x]
    if op == _UNTIL:  # l U r  is  r | (l & X (l U r))
        return now[y] | (now[x] & later[k])
    if op == _EVENTUALLY:  # F r  is  r | X F r
        return now[x] | later[k]
    if op == _GLOBALLY:  # G g  is  g & X G g
        return now[x] & later[k]
    return full if op == _TRUE else 0


def formula_evaluator(phi: Formula, cycles: CycleTable) -> Callable[[tuple], int]:
    """Compile ``phi`` once and decide it on every word ``prefix . cycle^w``
    with ``cycle`` among the tabled ``cycles`` at once: the returned
    function maps a prefix (a tuple of letters) to an int whose bit ``j``
    is set iff ``prefix . cycles[j]^w`` satisfies ``phi``.

    Each subformula becomes one instruction, and a subformula object that
    occurs twice is compiled once.  Every value is bit-sliced across the
    cycles: an int whose bit ``j`` speaks of ``cycles[j]``.  The cycles of
    one length share their positions, and there each instruction's value
    follows from its one-step rule (:func:`_step`): an atom ORs the cycles
    whose letter holds it, connectives are bit operations, ``X f`` reads
    ``f`` one position later, wrapping around, ``l U r`` is ``r | (l & X
    (l U r))`` and ``G g`` is ``g & X G g``.  Until and Eventually sweep
    those rules backwards round the positions from all-false to their least
    fixpoint, Globally from all-true to its greatest, which is exact on the
    finitely many positions.  The entry values are position 0's, ORed over
    the lengths.  A prefix position is never revisited, so the same rules,
    with an atom true on every cycle or on none, walk a prefix backwards
    from the entry values to position 0, whose top instruction is the
    verdict.
    """
    program: list[tuple[int, object, int]] = []
    # keyed on node identity: a frozen formula re-hashes its whole subtree on
    # every lookup, and phi keeps every node alive, so no id is reused
    slot: dict[int, int] = {}

    def emit(f: Formula) -> int:
        got = slot.get(id(f))
        if got is not None:
            return got
        op = _OPCODE.get(type(f))
        if op is None:
            raise TypeError(f"not a formula: {f!r}")
        x, y = (f.name, 0) if op == _ATOM else (*map(emit, _operands(f)), 0, 0)[:2]
        slot[id(f)] = len(program)
        program.append((op, x, y))
        return len(program) - 1

    emit(phi)
    entry = [0] * len(program)
    for length, full in cycles.lengths.items():
        atoms = [{} for _ in range(length)]  # per position, each name's cycles
        for names, column in zip(atoms, cycles.columns):
            for letter, bits in column.items():
                for name in letter or ():
                    names[name] = names.get(name, 0) | bits & full
        values = [[] for _ in range(length)]  # per position, each instruction's cycles
        for k, (op, _, _) in enumerate(program):
            for now in values:
                now.append(full if op == _GLOBALLY else 0)
            changed = True
            while changed:
                changed = False
                for i in reversed(range(length)):
                    val = _step(program, k, values[i], values[(i + 1) % length], atoms[i], full)
                    changed |= val != values[i][k]
                    values[i][k] = val
        entry = [e | v for e, v in zip(entry, values[0])]
    every = (1 << cycles.count) - 1

    def holds(prefix) -> int:
        later = entry
        for letter in reversed(prefix):
            atoms, now = dict.fromkeys(letter, every), []
            for k in range(len(program)):
                now.append(_step(program, k, now, later, atoms, every))
            later = now
        return later[-1]

    return holds


def eval_lasso(phi: Formula, w: LassoWord) -> bool:
    """Exact satisfaction of ``phi`` on the infinite word ``w``: the table of
    :func:`formula_evaluator` over the single cycle ``w.cycle``, read at
    ``w.prefix``.  A caller that decides one formula on many words should
    build one evaluator over all of their cycles."""
    return formula_evaluator(phi, CycleTable((w.cycle,)))(w.prefix) == 1
