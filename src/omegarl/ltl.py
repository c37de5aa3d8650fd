"""Linear temporal logic: syntax trees, a small concrete grammar, and exact
evaluation on ultimately periodic words.

An infinite word is represented as a :class:`LassoWord` ``prefix . cycle^w``
whose letters are sets of atomic-proposition names.  A formula is compiled
once into a post-order program, one instruction per subformula, together
with a list of cycles; the compiled evaluator then answers one prefix
against every cycle at once, as an int whose bit ``j`` is the verdict on
``prefix . cycles[j]^w``.  Each word is decided in two exact steps.  The
truth values of every subformula at the cycle's entry depend only on the
cycle, since the suffix there is ``cycle^w``; they are found by running the
program on the cycle's positions as bitsets, with the temporal operators
decided by fixpoint iteration.  Each earlier position's values depend only
on its letter and on the values one position later, so the prefix is walked
backwards one letter at a time, once per distinct set of entry values
rather than once per cycle.  The evaluator therefore serves as a
ground-truth oracle for the automata in this package.

Grammar (tightest binding first)::

    unary   !  X  F  G
    until   U            (right-associative)
    and     &            (left-associative)
    or      |            (left-associative)
    implies ->           (right-associative)

Atoms match ``[a-z][a-z0-9_]*``; ``true`` and ``false`` are constants;
parentheses group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


class ParseError(ValueError):
    """Malformed formula text; carries the offending character position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


@dataclass(frozen=True)
class Formula:
    pass


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


def atoms(phi: Formula) -> frozenset[str]:
    """Set of atomic-proposition names occurring in the formula."""
    if isinstance(phi, Atom):
        return frozenset([phi.name])
    if isinstance(phi, (Not, Next, Eventually, Globally)):
        return atoms(phi.operand)
    if isinstance(phi, (And, Or, Implies, Until)):
        return atoms(phi.left) | atoms(phi.right)
    return frozenset()


def is_propositional(phi: Formula) -> bool:
    """True when the formula contains no temporal operator."""
    if isinstance(phi, (Next, Eventually, Globally, Until)):
        return False
    if isinstance(phi, Not):
        return is_propositional(phi.operand)
    if isinstance(phi, (And, Or, Implies)):
        return is_propositional(phi.left) and is_propositional(phi.right)
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

_UNARY = {"!": Not, "X": Next, "F": Eventually, "G": Globally}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("->", i):
            tokens.append(("OP", "->", i))
            i += 2
        elif ch in "!&|()":
            tokens.append(("OP", ch, i))
            i += 1
        elif ch in "XUFG":
            tokens.append(("OP", ch, i))
            i += 1
        elif "a" <= ch <= "z":
            j = i + 1
            while j < n and (text[j].isdigit() or text[j] == "_" or "a" <= text[j] <= "z"):
                j += 1
            word = text[i:j]
            if word == "true":
                tokens.append(("CONST", "true", i))
            elif word == "false":
                tokens.append(("CONST", "false", i))
            else:
                tokens.append(("IDENT", word, i))
            i = j
        elif ch.isupper():
            raise ParseError(f"unknown operator {ch!r}", i)
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], length: int):
        self.tokens = tokens
        self.pos = 0
        self.length = length

    def _peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return ("EOF", "", self.length)

    def _take(self):
        tok = self._peek()
        self.pos += 1
        return tok

    def parse(self) -> Formula:
        phi = self.implies()
        kind, value, at = self._peek()
        if kind != "EOF":
            raise ParseError(f"unexpected {value!r}", at)
        return phi

    def implies(self) -> Formula:
        left = self.disjunction()
        kind, value, _ = self._peek()
        if kind == "OP" and value == "->":
            self._take()
            return Implies(left, self.implies())
        return left

    def disjunction(self) -> Formula:
        phi = self.conjunction()
        while True:
            kind, value, _ = self._peek()
            if kind == "OP" and value == "|":
                self._take()
                phi = Or(phi, self.conjunction())
            else:
                return phi

    def conjunction(self) -> Formula:
        phi = self.until()
        while True:
            kind, value, _ = self._peek()
            if kind == "OP" and value == "&":
                self._take()
                phi = And(phi, self.until())
            else:
                return phi

    def until(self) -> Formula:
        left = self.unary()
        kind, value, _ = self._peek()
        if kind == "OP" and value == "U":
            self._take()
            return Until(left, self.until())
        return left

    def unary(self) -> Formula:
        kind, value, at = self._peek()
        if kind == "OP" and value in _UNARY:
            self._take()
            return _UNARY[value](self.unary())
        return self.atom()

    def atom(self) -> Formula:
        kind, value, at = self._take()
        if kind == "CONST":
            return TrueBool() if value == "true" else FalseBool()
        if kind == "IDENT":
            return Atom(value)
        if kind == "OP" and value == "(":
            phi = self.implies()
            kind2, value2, at2 = self._take()
            if not (kind2 == "OP" and value2 == ")"):
                raise ParseError("expected ')'", at2)
            return phi
        if kind == "EOF":
            raise ParseError("unexpected end of input", at)
        raise ParseError(f"unexpected {value!r}", at)


def parse_ltl(text: str) -> Formula:
    """Parse formula text. Raises :class:`ParseError` with a position."""
    return _Parser(_tokenize(text), len(text)).parse()


def load_formula(path) -> Formula:
    """Read one formula from a UTF-8 file; ``#`` starts a line comment."""
    with open(path, encoding="utf-8") as fh:
        body = " ".join(line.split("#", 1)[0] for line in fh)
    return parse_ltl(body)


# --- printing ----------------------------------------------------------

_LEVEL_ATOM = 5
_LEVEL_UNARY = 4
_LEVEL_UNTIL = 3
_LEVEL_AND = 2
_LEVEL_OR = 1
_LEVEL_IMPLIES = 0


def _fmt(phi: Formula) -> tuple[str, int]:
    if isinstance(phi, TrueBool):
        return "true", _LEVEL_ATOM
    if isinstance(phi, FalseBool):
        return "false", _LEVEL_ATOM
    if isinstance(phi, Atom):
        return phi.name, _LEVEL_ATOM
    if isinstance(phi, Not):
        return "!" + _wrap(phi.operand, _LEVEL_UNARY), _LEVEL_UNARY
    if isinstance(phi, Next):
        return "X " + _wrap(phi.operand, _LEVEL_UNARY), _LEVEL_UNARY
    if isinstance(phi, Eventually):
        return "F " + _wrap(phi.operand, _LEVEL_UNARY), _LEVEL_UNARY
    if isinstance(phi, Globally):
        return "G " + _wrap(phi.operand, _LEVEL_UNARY), _LEVEL_UNARY
    if isinstance(phi, Until):
        return _wrap(phi.left, _LEVEL_UNARY) + " U " + _wrap(phi.right, _LEVEL_UNTIL), _LEVEL_UNTIL
    if isinstance(phi, And):
        return _wrap(phi.left, _LEVEL_AND) + " & " + _wrap(phi.right, _LEVEL_AND + 1), _LEVEL_AND
    if isinstance(phi, Or):
        return _wrap(phi.left, _LEVEL_OR) + " | " + _wrap(phi.right, _LEVEL_OR + 1), _LEVEL_OR
    if isinstance(phi, Implies):
        return _wrap(phi.left, _LEVEL_IMPLIES + 1) + " -> " + _wrap(phi.right, _LEVEL_IMPLIES), _LEVEL_IMPLIES
    raise TypeError(f"not a formula: {phi!r}")


def _wrap(phi: Formula, min_level: int) -> str:
    text, level = _fmt(phi)
    return f"({text})" if level < min_level else text


def format_ltl(phi: Formula) -> str:
    """Render with minimal parentheses; re-parses to an equal tree."""
    return _fmt(phi)[0]


# --- evaluation --------------------------------------------------------

# A compiled formula is a post-order list of (opcode, x, y) instructions; x and
# y index earlier instructions (an atom's x is its name, unused operands are 0).
# ``F f`` compiles as ``true U f``.
_TRUE, _FALSE, _ATOM, _NOT, _AND, _OR, _IMPLIES, _NEXT, _UNTIL, _GLOBALLY = range(10)
_OPCODE = {
    TrueBool: _TRUE, FalseBool: _FALSE, Atom: _ATOM, Not: _NOT, And: _AND, Or: _OR,
    Implies: _IMPLIES, Next: _NEXT, Until: _UNTIL, Eventually: _UNTIL, Globally: _GLOBALLY,
}
_TRUE_NODE = TrueBool()


def _values(program, letters, later: int | None = None) -> int:
    """Every instruction's truth value at the first of ``letters``, packed
    into one int (bit ``k`` is instruction ``k``).

    The positions are ``letters`` in order.  After the last one the word
    goes back to the first when ``later`` is None, so the word is
    ``letters^w``; otherwise it goes on to a position whose packed values
    are ``later``.  Each instruction's value is a bitset over the positions:
    bit ``i`` of a Python int is the truth value at position ``i``.
    Boolean connectives are bit operations and ``X v`` shifts ``v`` down one
    position, taking the last position's bit from the position after it.
    Until/Eventually iterate their one-step expansion ``r | (l & X s)`` up
    from ``r`` to the least fixpoint and Globally its ``g & X s`` down from
    ``g`` to the greatest, which is exact on the finitely many positions.
    """
    top = len(letters) - 1
    full = (1 << len(letters)) - 1

    def shift(val: int, k: int) -> int:  # X of instruction k's bitset ``val``
        after = val if later is None else later >> k
        return (val >> 1) | ((after & 1) << top)

    v: list[int] = []
    for k, (op, x, y) in enumerate(program):
        if op == _ATOM:
            val = 0
            for i, letter in enumerate(letters):
                if x in letter:
                    val |= 1 << i
        elif op == _NOT:
            val = full ^ v[x]
        elif op == _AND:
            val = v[x] & v[y]
        elif op == _OR:
            val = v[x] | v[y]
        elif op == _IMPLIES:
            val = (full ^ v[x]) | v[y]
        elif op == _NEXT:
            val = shift(v[x], x)
        elif op == _UNTIL:  # least fixpoint of  r | (l & X s), from s = r
            left, r = v[x], v[y]
            val = r
            while True:
                nxt = r | (left & shift(val, k))
                if nxt == val:
                    break
                val = nxt
        elif op == _GLOBALLY:  # greatest fixpoint of  g & X s, from s = g
            g = val = v[x]
            while True:
                nxt = g & shift(val, k)
                if nxt == val:
                    break
                val = nxt
        elif op == _TRUE:
            val = full
        else:
            val = 0
        v.append(val)
    return sum((val & 1) << k for k, val in enumerate(v))


def formula_evaluator(phi: Formula, cycles) -> Callable[[tuple], int]:
    """Compile ``phi`` once and decide it on every word ``prefix . cycle^w``
    with ``cycle`` in ``cycles`` at once: the returned function maps a
    prefix (a tuple of letters) to an int whose bit ``j`` is set iff
    ``prefix . cycles[j]^w`` satisfies ``phi``.

    Each subformula becomes one instruction, and a subformula object that
    occurs twice is compiled once.  A position's values are packed into one
    int, bit ``k`` being instruction ``k``'s truth value there.  The values
    at a cycle's entry depend only on the cycle: they are
    ``_values(program, cycle)``, computed here for every cycle, and cycles
    with equal entry values form one group with one mask of cycle bits.
    The values at an earlier position depend only on its letter and the
    next position's values: they are ``_values(program, (letter,),
    next_values)``, where an atom tests the letter, connectives combine bits
    of the same position, ``X f`` reads ``f`` one position later, ``l U r``
    is ``r | (l & X (l U r))`` and ``G g`` is ``g & X G g``.  A prefix
    position is never revisited, so those one-step rules decide it exactly.
    For each group the prefix is walked backwards from the entry values to
    the values at position 0, and the masks of the groups whose top
    instruction holds there are ORed together.

    The returned function memoizes each backward step per
    ``(letter, values)``; the memo belongs to it alone and lives as long as
    it does.
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
        if op == _ATOM:
            ins = (op, f.name, 0)
        elif op in (_TRUE, _FALSE):
            ins = (op, 0, 0)
        elif isinstance(f, Eventually):
            ins = (op, emit(_TRUE_NODE), emit(f.operand))
        elif op in (_AND, _OR, _IMPLIES, _UNTIL):
            ins = (op, emit(f.left), emit(f.right))
        else:
            ins = (op, emit(f.operand), 0)
        slot[id(f)] = len(program)
        program.append(ins)
        return len(program) - 1

    emit(phi)
    verdict_bit = 1 << (len(program) - 1)
    groups: dict[int, int] = {}
    for j, cycle in enumerate(cycles):
        entry = _values(program, cycle)
        groups[entry] = groups.get(entry, 0) | 1 << j
    steps: dict[tuple, int] = {}

    def holds(prefix) -> int:
        bits = 0
        for values, mask in groups.items():
            for letter in reversed(prefix):
                key = (letter, values)
                got = steps.get(key)
                if got is None:
                    got = steps[key] = _values(program, (letter,), values)
                values = got
            if values & verdict_bit:
                bits |= mask
        return bits

    return holds


def eval_lasso(phi: Formula, w: LassoWord) -> bool:
    """Exact satisfaction of ``phi`` on the infinite word ``w``: the table of
    :func:`formula_evaluator` over the single cycle ``w.cycle``, read at
    ``w.prefix``.  A caller that decides one formula on many words should
    build one evaluator over all of their cycles."""
    return formula_evaluator(phi, (w.cycle,))(w.prefix) == 1
