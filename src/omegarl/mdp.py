"""Labeled Markov decision processes and induced-chain analysis.

Includes a text format for MDPs, the packaged environments
(:data:`ENVIRONMENTS`, among them the paper's nine-room grid ``grid9``),
transient/recurrent decomposition of induced chains, and exact
reachability probabilities via a direct linear solve.

Text format
-----------
One item per line.  ``#`` starts a comment that runs to the end of the
line, and blank lines are skipped.  Three headers, in any order and each
at most once::

    states: 9     # states 0..8, named s0..s8; required
    initial: 7    # required
    ap: a b c     # atomic propositions; optional, default none

Each other line is one of::

    prob s act t p        # act in state s moves to t with probability p
    label s act t {a,b}   # the transition (s, act, t) carries letter {a, b}

State ids are integers and action names hold no spaces.  Every state
needs a ``prob`` line; a state's actions are numbered in the order they
first appear, and each action's probabilities must sum to one.  Two
``prob`` lines for the same ``(s, act, t)`` add up.  A ``label`` must sit
on a positive-probability transition and use only declared propositions;
a later ``label`` line for the same transition replaces an earlier one,
and a transition with none carries the empty label ``{}``.
:func:`serialize_mdp` writes the canonical form: the rows state by state
and action by action, then the nonempty labels in sorted order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .graphs import closure, strongly_connected_components

ROW_SUM_TOL = 1e-12


class MdpError(ValueError):
    pass


class UndefinedChoice(MdpError):
    """A state reachable under the policy has no action choice."""

    def __init__(self, state):
        super().__init__(f"policy undefined on reachable state {state}")
        self.state = state


@dataclass(frozen=True)
class LabeledMdp:
    """Finite MDP whose transitions carry sets of atomic propositions.

    ``prob[(s, a)]`` is a tuple of (successor, probability) pairs summing to
    one; ``label`` is defined exactly on positive-probability triples and
    defaults to the empty set.
    """

    num_states: int
    initial: int
    ap: frozenset[str]
    enabled: tuple[tuple[str, ...], ...]
    prob: dict[tuple[int, str], tuple[tuple[int, float], ...]]
    label: dict[tuple[int, str, int], frozenset[str]]
    state_names: tuple[str, ...] | None = None

    def __post_init__(self):
        if len(self.enabled) != self.num_states:
            raise MdpError("enabled-action table does not match state count")
        if not 0 <= self.initial < self.num_states:
            raise MdpError(f"initial state {self.initial} out of range")
        triples = set()
        for s, actions in enumerate(self.enabled):
            if not actions:
                raise MdpError(f"state {s} has no enabled action")
            for a in actions:
                row = self.prob.get((s, a))
                if row is None:
                    raise MdpError(f"missing distribution for ({s}, {a})")
                total = 0.0
                for dst, p in row:
                    if not 0 <= dst < self.num_states:
                        raise MdpError(f"({s}, {a}) targets undeclared state {dst}")
                    if p <= 0:
                        raise MdpError(f"({s}, {a}, {dst}) has nonpositive probability")
                    total += p
                    triples.add((s, a, dst))
                if not abs(total - 1.0) <= ROW_SUM_TOL:  # a NaN fails too
                    raise MdpError(f"({s}, {a}) probabilities sum to {total!r}, not 1")
        for key, letter in self.label.items():
            if key not in triples:
                raise MdpError(f"label on zero-probability triple {key}")
            if not letter <= self.ap:
                raise MdpError(f"label {sorted(letter)} uses undeclared propositions")
        if self.state_names is not None and len(self.state_names) != self.num_states:
            raise MdpError("state name list does not match state count")

    def name_of(self, state: int) -> str:
        return self.state_names[state] if self.state_names else f"s{state}"

    def label_of(self, s: int, a: str, dst: int) -> frozenset[str]:
        return self.label.get((s, a, dst), frozenset())

    def states(self) -> range:
        return range(self.num_states)


@dataclass(frozen=True)
class PositionalPolicy:
    """Deterministic stationary policy: one enabled action per state."""

    choice: dict[int, str]


@dataclass(frozen=True)
class MarkovChain:
    """Chain over a subset of MDP states (those reachable under a policy)."""

    states: tuple[int, ...]
    prob: dict[int, tuple[tuple[int, float], ...]]
    initial: int
    state_names: tuple[str, ...] | None = None

    def __post_init__(self):
        members = set(self.states)
        if self.initial not in members:
            raise MdpError("chain initial state missing from state set")
        for s in self.states:
            row = self.prob.get(s)
            if row is None:
                raise MdpError(f"missing distribution for chain state {s}")
            total = 0.0
            for dst, p in row:
                if dst not in members:
                    raise MdpError(f"chain row {s} leaves the state set")
                if p <= 0:
                    raise MdpError(f"chain edge ({s}, {dst}) has nonpositive probability")
                total += p
            if abs(total - 1.0) > ROW_SUM_TOL:
                raise MdpError(f"chain row {s} sums to {total!r}, not 1")


@dataclass(frozen=True)
class RecurrenceDecomposition:
    """Transient states plus the closed irreducible recurrent classes."""

    transient: frozenset[int]
    recurrent_classes: tuple[frozenset[int], ...]


# --- text format ----------------------------------------------------------

def serialize_mdp(m: LabeledMdp) -> str:
    lines = [
        f"states: {m.num_states}",
        f"initial: {m.initial}",
        f"ap: {' '.join(sorted(m.ap))}".rstrip(),
    ]
    for s in m.states():
        for a in m.enabled[s]:
            for dst, p in m.prob[(s, a)]:
                lines.append(f"prob {s} {a} {dst} {p!r}")
    for (s, a, dst) in sorted(m.label):
        letter = m.label[(s, a, dst)]
        if letter:
            lines.append(f"label {s} {a} {dst} {{{','.join(sorted(letter))}}}")
    return "\n".join(lines) + "\n"


def _number(kind, token: str, lineno: int, what: str):
    try:
        return kind(token)
    except ValueError:
        raise MdpError(f"line {lineno}: bad {what} {token!r}") from None


def parse_mdp(text: str) -> LabeledMdp:
    """Parse the MDP text format of the module docstring.

    Errors name their line, except a missing header and what
    :class:`LabeledMdp` rejects: a nonpositive probability or a row that
    does not sum to one.
    """
    headers: dict[str, tuple[int, str]] = {}
    prob_rows: dict[tuple[int, str], dict[int, float]] = {}
    sources: dict[int, int] = {}  # each source state's first prob line
    targets: dict[int, int] = {}  # each target state's first prob line
    labels: dict[tuple[int, str, int], tuple[int, frozenset[str]]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith(("states:", "initial:", "ap:")):
            key, value = line.split(":", 1)
            if key in headers:
                raise MdpError(f"line {lineno}: duplicate header {key!r}")
            headers[key] = (lineno, value.strip())
            continue
        tokens = line.split()
        if tokens[0] not in ("prob", "label") or len(tokens) != 5:
            raise MdpError(f"line {lineno}: expected 'prob s a s2 p' or 'label s a s2 {{..}}'")
        s = _number(int, tokens[1], lineno, "state id")
        a = tokens[2]
        dst = _number(int, tokens[3], lineno, "state id")
        if tokens[0] == "prob":
            p = _number(float, tokens[4], lineno, "probability")
            sources.setdefault(s, lineno)
            targets.setdefault(dst, lineno)
            row = prob_rows.setdefault((s, a), {})
            row[dst] = row.get(dst, 0.0) + p
        else:
            body = tokens[4].strip()
            if not (body.startswith("{") and body.endswith("}")):
                raise MdpError(f"line {lineno}: label must be written as {{a,b}}")
            inner = body[1:-1].strip()
            letter = frozenset(x.strip() for x in inner.split(",") if x.strip())
            labels[(s, a, dst)] = (lineno, letter)
    for key in ("states", "initial"):
        if key not in headers:
            raise MdpError(f"missing header {key!r}")
    lineno, value = headers["states"]
    num_states = _number(int, value, lineno, "state count")
    if num_states < 1:
        raise MdpError(f"line {lineno}: an MDP needs at least one state")
    for s, line in sources.items():
        if not 0 <= s < num_states:
            raise MdpError(f"line {line}: prob line references undeclared state {s}")
    # every state needs a prob line, so the count is bounded before anything
    # of that size is allocated
    if num_states > len(sources):
        missing = min(set(range(len(sources) + 1)).difference(sources))
        raise MdpError(
            f"line {lineno}: {num_states} states declared, but state {missing} has no prob line"
        )
    lineno, value = headers["initial"]
    initial = _number(int, value, lineno, "initial state")
    if not 0 <= initial < num_states:
        raise MdpError(f"line {lineno}: initial state {initial} out of range")
    for dst, line in targets.items():
        if not 0 <= dst < num_states:
            raise MdpError(f"line {line}: prob line targets undeclared state {dst}")
    ap = frozenset(headers.get("ap", (0, ""))[1].split())
    for key, (line, letter) in labels.items():
        if key[2] not in prob_rows.get(key[:2], ()):
            raise MdpError(f"line {line}: label on zero-probability triple {key}")
        if not letter <= ap:
            raise MdpError(f"line {line}: label {sorted(letter)} uses undeclared propositions")
    enabled: list[list[str]] = [[] for _ in range(num_states)]
    prob: dict[tuple[int, str], tuple[tuple[int, float], ...]] = {}
    # action ids per state follow first appearance in the file
    for (s, a), row in prob_rows.items():
        enabled[s].append(a)
        prob[(s, a)] = tuple(sorted(row.items()))
    return LabeledMdp(
        num_states=num_states,
        initial=initial,
        ap=ap,
        enabled=tuple(tuple(actions) for actions in enabled),
        prob=prob,
        label={key: letter for key, (_, letter) in labels.items()},
        state_names=tuple(f"s{i}" for i in range(num_states)),
    )


def load_mdp(path) -> LabeledMdp:
    with open(path, encoding="utf-8") as fh:
        return parse_mdp(fh.read())


# each packaged fixtures/<name>.mdp, by name, as a zero-argument loader
ENVIRONMENTS = {
    path.stem: partial(load_mdp, path)
    for path in sorted(Path(__file__).with_name("fixtures").glob("*.mdp"))
}


# --- analysis --------------------------------------------------------------

def induce_chain(m: LabeledMdp, pi: PositionalPolicy) -> MarkovChain:
    """Markov chain over the states reachable from the initial state under
    ``pi``.  With :func:`decompose`, the name-keyed path to recurrent classes
    (products use ``product.recurrent_classes``), kept for library callers,
    the tests' reference and the benchmark's probes."""
    prob: dict[int, tuple[tuple[int, float], ...]] = {}

    def successors(s: int):
        a = pi.choice.get(s)
        if a is None:
            raise UndefinedChoice(s)
        if a not in m.enabled[s]:
            raise MdpError(f"policy chooses disabled action {a!r} at state {s}")
        prob[s] = row = m.prob[(s, a)]
        return (dst for dst, _ in row)

    seen = closure((m.initial,), successors)
    return MarkovChain(
        states=tuple(sorted(seen)),
        prob=prob,
        initial=m.initial,
        state_names=m.state_names,
    )


def decompose(mc: MarkovChain) -> RecurrenceDecomposition:
    """Recurrent classes are the bottom SCCs of the positive-probability
    digraph, on the name-keyed path (see :func:`induce_chain`)."""
    succ = {s: tuple(dst for dst, _ in mc.prob[s]) for s in mc.states}
    comps = strongly_connected_components(mc.states, lambda v: succ[v])
    classes = []
    for comp in comps:
        members = set(comp)
        if all(dst in members for v in comp for dst in succ[v]):
            classes.append(frozenset(members))
    classes.sort(key=min)
    recurrent = set().union(*classes) if classes else set()
    transient = frozenset(set(mc.states) - recurrent)
    return RecurrenceDecomposition(transient=transient, recurrent_classes=tuple(classes))


def reach_probability(
    mc: MarkovChain, target: set[int], residual_tol: float = 1e-10
) -> dict[int, float]:
    """Exact per-state probability of ever reaching ``target``.

    States that cannot reach the target get 0, target states get 1, and the
    rest solve the standard linear system directly; the solution's residual
    must stay below ``residual_tol``.
    """
    target = set(target) & set(mc.states)
    if not target:
        raise MdpError("target set is empty (or disjoint from the chain)")
    preds: dict[int, list[int]] = {s: [] for s in mc.states}
    for s in mc.states:
        for dst, _ in mc.prob[s]:
            preds[dst].append(s)
    can_reach = closure(target, lambda v: preds[v])

    result = {s: 0.0 for s in mc.states}
    for s in target:
        result[s] = 1.0
    unknown = sorted(can_reach - target)
    if unknown:
        pos = {s: i for i, s in enumerate(unknown)}
        n = len(unknown)
        a = np.eye(n)
        bvec = np.zeros(n)
        for s in unknown:
            i = pos[s]
            for dst, p in mc.prob[s]:
                if dst in target:
                    bvec[i] += p
                elif dst in pos:
                    a[i, pos[dst]] -= p
        x = np.linalg.solve(a, bvec)
        residual = float(np.max(np.abs(a @ x - bvec)))
        if residual > residual_tol:
            raise MdpError(f"reachability solve residual {residual} exceeds {residual_tol}")
        for s in unknown:
            result[s] = float(x[pos[s]])
    return result
