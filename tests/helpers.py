"""Independent oracles and generators shared across the test modules.

Everything here deliberately avoids the library's own decision procedures:
formula evaluation walks suffixes directly, automaton acceptance searches
for accepting closed walks with a layered DP, the reference lasso check
compares those two word by word, reachability is estimated
by vectorized simulation, the reference policy evaluation works on the
product's name-keyed chain, the reference value iteration backs up one
pair at a time with a scalar loop over its successors, the reference
training loop steps in Python on numpy's raw generator words, the reference
frontier reward keeps its working set as a set of transitions, and a
product's accepting transitions are rebuilt from its base MDP and
automaton rather than read from its masks.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right

import numpy as np

from omegarl import EPSILON, LassoWord, PositionalPolicy, Transition, ltl
from omegarl.graphs import closure
from omegarl.learn import LearningCurve, QTable, TrainResult
from omegarl.mdp import decompose, induce_chain, reach_probability
from omegarl.product import ClassReport, PolicyEvaluation
from omegarl.verify import all_lassos

AP3 = ("a", "b", "c")


def letters_over(ap):
    return [
        frozenset(s)
        for r in range(len(ap) + 1)
        for s in itertools.combinations(sorted(ap), r)
    ]


# --- formula-side oracle -----------------------------------------------------

def bf_eval(phi, w: LassoWord) -> bool:
    """Direct semantic evaluation by walking suffix positions.

    Until/Eventually/Globally scan the (finitely many) positions reachable
    from the current one; n+1 walk entries cover every distinct suffix.
    """
    n = w.positions
    loop = len(w.prefix)

    def succ(i):
        return i + 1 if i + 1 < n else loop

    def walk(i):
        seq = [i]
        for _ in range(n):
            i = succ(i)
            seq.append(i)
        return seq

    def ev(f, i):
        if isinstance(f, ltl.TrueBool):
            return True
        if isinstance(f, ltl.FalseBool):
            return False
        if isinstance(f, ltl.Atom):
            return f.name in w.letter(i)
        if isinstance(f, ltl.Not):
            return not ev(f.operand, i)
        if isinstance(f, ltl.And):
            return ev(f.left, i) and ev(f.right, i)
        if isinstance(f, ltl.Or):
            return ev(f.left, i) or ev(f.right, i)
        if isinstance(f, ltl.Implies):
            return (not ev(f.left, i)) or ev(f.right, i)
        if isinstance(f, ltl.Next):
            return ev(f.operand, succ(i))
        if isinstance(f, ltl.Until):
            for k in walk(i):
                if ev(f.right, k):
                    return True
                if not ev(f.left, k):
                    return False
            return False
        if isinstance(f, ltl.Eventually):
            return any(ev(f.operand, k) for k in walk(i))
        if isinstance(f, ltl.Globally):
            return all(ev(f.operand, k) for k in walk(i))
        raise TypeError(f)

    return ev(phi, 0)


# --- automaton-side oracle ---------------------------------------------------

def enum_accepts(b, w: LassoWord) -> bool:
    """Acceptance by explicit bounded search for an accepting closed walk.

    Builds the (position, state) run graph, then for every reachable anchor
    node runs a layered (node, visited-set-mask) reachability of bounded
    depth looking for a closed walk through the anchor that covers every
    accepting set.  The bound (#sets + 1) * #nodes suffices: inside one
    strongly connected region each set needs at most a #nodes-long detour.
    """
    acceptance = b.acceptance
    n_sets = len(acceptance)
    full = (1 << n_sets) - 1
    mask_of = {}
    for t in b.masks:
        mask_of[t] = 0
        for j, acc in enumerate(acceptance):
            if t in acc:
                mask_of[t] |= 1 << j

    n = w.positions
    loop = len(w.prefix)

    def succ(i):
        return i + 1 if i + 1 < n else loop

    edges: dict[tuple[int, int], list[tuple[tuple[int, int], int]]] = {}
    start = (0, b.initial)
    stack = [start]
    edges[start] = []
    while stack:
        node = stack.pop()
        pos, x = node
        out = []
        for t in b.masks:
            if t.src != x:
                continue
            if t.letter is EPSILON:
                out.append(((pos, t.dst), mask_of[t]))
            elif t.letter == w.letter(pos):
                out.append(((succ(pos), t.dst), mask_of[t]))
        edges[node] = out
        for nxt, _ in out:
            if nxt not in edges:
                edges[nxt] = []
                stack.append(nxt)

    nodes = list(edges)
    bound = max(12, (n_sets + 1) * len(nodes))
    for anchor in nodes:
        frontier = {(anchor, 0)}
        seen = set(frontier)
        for _ in range(bound):
            nxt_frontier = set()
            for node, mask in frontier:
                for nxt, m in edges[node]:
                    state = (nxt, mask | m)
                    if state not in seen:
                        seen.add(state)
                        nxt_frontier.add(state)
            if (anchor, full) in seen:
                return True
            frontier = nxt_frontier
            if not frontier:
                break
        if (anchor, full) in seen:
            return True
    return False


def cycle_verdict(table, cycles, w: LassoWord) -> bool:
    """The verdict on ``w`` read off a bitset-over-cycles oracle (a
    ``lasso_acceptor`` or ``formula_evaluator`` built over ``cycles``)."""
    return bool(table(w.prefix) >> cycles.index(w.cycle) & 1)


def assert_table_matches(table, prefixes, cycles, decide) -> None:
    """Every bit of a bitset-over-cycles oracle built over ``cycles``, at
    every prefix, equals ``decide`` on its word; no bit beyond the cycles
    is set."""
    for prefix in prefixes:
        bits = table(prefix)
        assert bits >> len(cycles) == 0
        for j, cycle in enumerate(cycles):
            w = LassoWord(prefix, cycle)
            assert bool(bits >> j & 1) == decide(w), w


def reference_lasso_agreement(base, candidates, max_prefix: int, max_cycle: int):
    """Reference for ``verify._lasso_agreement``: the word-by-word loop over
    ``all_lassos``.  The base automaton is decided with ``enum_accepts``;
    each candidate, an automaton or a formula paired with the phrase that
    reports its disagreement, with ``enum_accepts`` or ``bf_eval``.  Returns
    the check's ``(passed, detail)``: the first word on which some
    candidate disagrees, the earlier candidate on a tie."""

    def decide(oracle, w):
        return bf_eval(oracle, w) if isinstance(oracle, ltl.Formula) else enum_accepts(oracle, w)

    count = 0
    for w in all_lassos(sorted(base.ap), max_prefix, max_cycle):
        expect = enum_accepts(base, w)
        for oracle, disagreement in candidates:
            if decide(oracle, w) != expect:
                return False, f"{disagreement} on {w}"
        count += 1
    return True, f"{count} lasso words agree"


# --- policy-evaluation oracle -----------------------------------------------------

def reference_evaluate_policy(p, pi) -> PolicyEvaluation:
    """Reference for ``product.evaluate_policy``: the induced chain of the
    product's name-keyed MDP view, its recurrence decomposition and, when
    some classes accept and others do not, the reachability solve on it."""
    chain = induce_chain(p.mdp, pi)
    dec = decompose(chain)
    n_sets = len(p.automaton.acceptance)

    classes: list[ClassReport] = []
    accepting_states: set[int] = set()
    for members in dec.recurrent_classes:
        # OR the chosen pairs' masks over the class; states ascend and so
        # does each row's succ, so a set's witness is its lowest transition
        covered = 0
        witnesses = {}
        for s in sorted(members):
            a = pi.choice[s]
            pair = p.first[s] + p.mdp.enabled[s].index(a)
            for dst, mask in zip(p.succ[pair], p.masks[pair]):
                new = mask & ~covered
                if new:
                    covered |= new
                    for j in range(n_sets):
                        if new >> j & 1:
                            witnesses[j] = (s, a, dst)
        coverage = tuple(bool(covered >> j & 1) for j in range(n_sets))
        accepting = all(coverage)
        if accepting:
            accepting_states.update(members)
        classes.append(
            ClassReport(
                states=tuple(sorted(members)),
                coverage=coverage,
                accepting=accepting,
                witnesses=dict(sorted(witnesses.items())),
            )
        )

    if not accepting_states:
        sat = 0.0
    elif all(c.accepting for c in classes):
        sat = 1.0
    else:
        sat = reach_probability(chain, accepting_states)[chain.initial]
    return PolicyEvaluation(
        sat_probability=sat,
        positively_satisfies=sat > 0.0,
        transient=tuple(sorted(dec.transient)),
        classes=tuple(classes),
    )


# --- value-iteration oracle ------------------------------------------------------

def scalar_value_iteration(product, gamma: float, r_p: float, tol: float = 1e-10):
    """Reference for ``learn.value_iteration``: the same sweeps with a scalar
    per-pair backup that adds the successors left to right."""
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must lie in [0, 1)")
    rows = tuple(
        tuple((dst, p, r_p if m else 0.0) for dst, p, m in zip(*row))
        for row in zip(product.succ, product.probs, product.masks)
    )
    spans = tuple(zip(product.first, product.first[1:]))

    def backup(pair: int, v: list[float]) -> float:
        total = 0.0
        for dst, p, r in rows[pair]:
            total += p * (r + gamma * v[dst])
        return total

    v = [0.0] * product.num_states
    threshold = tol if gamma == 0.0 else tol * (1.0 - gamma) / gamma
    while True:
        new_v = [max([backup(pair, v) for pair in range(lo, hi)]) for lo, hi in spans]
        delta = max([abs(a - b) for a, b in zip(new_v, v)])
        v = new_v
        if delta <= threshold:
            break

    # max keeps the first maximal pair, so ties go to the lowest action id
    choice = {
        s: product.keys[max(range(lo, hi), key=lambda pair: backup(pair, v))][1]
        for s, (lo, hi) in enumerate(spans)
    }
    return dict(enumerate(v)), PositionalPolicy(choice)


# --- training reference -------------------------------------------------------

class RawDraws:
    """``Generator.random()`` and ``Generator.integers(n)`` of numpy's PCG64
    generator, decoded from blocks of its raw 64-bit words.

    ``random()`` is ``(x >> 11) * 2**-53`` of the next word.  ``integers(n)``
    is Lemire's bounded method on 32-bit halves: a word's low half is used
    first and its high half is kept for the next 32-bit draw, across calls,
    and n = 1 draws nothing.  ``doubles[pos]`` is the next ``random()``; a
    caller may read it directly and advance ``pos`` itself.  ``reserve(n)``
    keeps at least n undrawn words (dropping drawn ones in place, so the
    lists keep their identity), and a word taken by ``integers`` first
    reserves ``margin`` words.
    """

    def __init__(self, bit_generator, margin: int = 1, block: int = 4096):
        self._raw = bit_generator.random_raw
        self._margin = margin
        self._block = block
        self._half: int | None = None
        self.words: list[int] = []
        self.doubles: list[float] = []
        self.pos = 0

    def reserve(self, n: int) -> None:
        left = len(self.words) - self.pos
        if left >= n:
            return
        del self.words[: self.pos]
        del self.doubles[: self.pos]
        self.pos = 0
        raw = self._raw(max(n - left, self._block))
        self.words += raw.tolist()
        self.doubles += ((raw >> 11) * 2.0**-53).tolist()

    def random(self) -> float:
        self.reserve(1)
        self.pos += 1
        return self.doubles[self.pos - 1]

    def _uint32(self) -> int:
        if self._half is not None:
            x, self._half = self._half, None
            return x
        self.reserve(self._margin)
        w = self.words[self.pos]
        self.pos += 1
        self._half = w >> 32
        return w & 0xFFFFFFFF

    def integers(self, n: int) -> int:
        if n == 1:
            return 0
        m = self._uint32() * n
        while m & 0xFFFFFFFF < (1 << 32) % n:
            m = self._uint32() * n
        return m >> 32


def reference_train(product, scheme, cfg, track_satisfaction: bool = True):
    """Reference for ``learn.train``: the same sessions with the step loop in
    Python, drawing from ``RawDraws``; its floats are the ones the compiled
    kernel must reproduce bit for bit."""
    keys, first, succ, masks = product.keys, list(product.first), product.succ, product.masks
    cuts = [tuple(itertools.accumulate(ps[:-1])) for ps in product.probs]
    spans = tuple(zip(first, first[1:]))
    r_p, empty = scheme.r_p, scheme.empty
    gamma, eps_num, neg_exp = cfg.gamma, cfg.epsilon_numerator, -cfg.alpha_exponent
    steps = cfg.steps_per_episode
    margin = 2 * steps + 1  # the most words the rest of an episode reads inline
    n = product.num_states
    initial = product.mdp.initial

    def policy(greedy: list[int]) -> PositionalPolicy:
        return PositionalPolicy({s: keys[p][1] for s, p in enumerate(greedy)})

    seeds = np.random.SeedSequence(cfg.rng_seed).spawn(cfg.sessions)
    curves = np.zeros((cfg.sessions, cfg.episodes))
    qtables: list[QTable] = []
    policies: list[PositionalPolicy] = []
    first_pos: list[int | None] = []
    first_sat1: list[int | None] = []
    evaluations: list[PolicyEvaluation | None] = []

    for si in range(cfg.sessions):
        draws = RawDraws(np.random.PCG64(seeds[si]), margin)
        doubles = draws.doubles
        values = [0.0] * len(keys)
        pair_visits = [0] * len(keys)
        state_visits = [0] * n
        best = first[:-1]  # per state, its first pair of maximal value
        top = [0.0] * n  # per state, that maximal value
        pos_ep: int | None = None
        sat1_ep: int | None = None
        evaluated: list[int] | None = None
        ev: PolicyEvaluation | None = None
        for ep in range(cfg.episodes):
            if cfg.epsilon_scope == "episode":
                state_visits = [0] * n
            draws.reserve(margin)
            pos = draws.pos
            s = initial
            done = 0
            total = 0.0
            for _ in range(steps):
                k = state_visits[s] + 1
                state_visits[s] = k
                pos += 1  # u < eps_num / k is u < epsilon(k), since u < 1
                if doubles[pos - 1] < eps_num / k:
                    lo, hi = spans[s]
                    draws.pos = pos
                    p = lo + draws.integers(hi - lo)
                    pos = draws.pos
                else:
                    p = best[s]
                j = bisect_right(cuts[p], doubles[pos])
                pos += 1
                dst = succ[p][j]
                target = gamma * top[dst]  # adding a zero reward changes no bit
                m = masks[p][j]
                if m and not m & done:
                    done |= m
                    if empty[done]:
                        done = 0
                    target = r_p + target
                    total += r_p
                k = pair_visits[p] + 1
                pair_visits[p] = k
                v = values[p]
                new = v + k**neg_exp * (target - v)  # k**neg_exp is alpha(k)
                values[p] = new
                # keep best[s] and top[s] equal to a fresh argmax and max
                if new > top[s]:
                    top[s] = new
                    best[s] = p
                elif p == best[s]:
                    if new < v:
                        lo, hi = spans[s]
                        qs = values[lo:hi]
                        top[s] = new = max(qs)
                        best[s] = lo + qs.index(new)
                elif new == top[s] and p < best[s]:
                    best[s] = p
                s = dst
            draws.pos = pos
            curves[si, ep] = total / steps
            if track_satisfaction and sat1_ep is None and best != evaluated:
                evaluated, ev = best[:], reference_evaluate_policy(product, policy(best))
                if pos_ep is None and ev.positively_satisfies:
                    pos_ep = ep + 1
                if ev.sat_probability == 1.0:
                    sat1_ep = ep + 1
        if track_satisfaction and best != evaluated:
            ev = reference_evaluate_policy(product, policy(best))
        q = QTable(product)
        q.values, q.pair_visits, q.state_visits = values, pair_visits, state_visits
        qtables.append(q)
        policies.append(policy(best))
        first_pos.append(pos_ep)
        first_sat1.append(sat1_ep)
        evaluations.append(ev if track_satisfaction else None)

    curve = LearningCurve(
        per_session=curves,
        mean=curves.mean(axis=0),
        std=curves.std(axis=0),
    )
    return TrainResult(
        qtables=tuple(qtables),
        curve=curve,
        policies=tuple(policies),
        first_positive_episode=tuple(first_pos),
        first_sat1_episode=tuple(first_sat1),
        evaluations=tuple(evaluations),
    )


# --- product views -----------------------------------------------------------------

def product_aut_edge(m, product) -> dict:
    """Each product transition ``(i, action, j)`` mapped to the automaton
    transition it synchronizes with, rebuilt from the base MDP ``m`` and the
    product's automaton in the order the product explores them: state by
    state, the base MDP's actions and rows first, then the epsilon guesses
    by target state."""
    b = product.automaton
    index = {pair: i for i, pair in enumerate(product.pairs)}
    edges = {}
    for i, (s, x) in enumerate(product.pairs):
        out = [t for t in b.masks if t.src == x]
        for a in m.enabled[s]:
            for dst, _ in m.prob[(s, a)]:
                letter = m.label_of(s, a, dst) & b.ap
                (t,) = [t for t in out if not t.is_epsilon() and t.letter == letter]
                edges[(i, a, index[(dst, t.dst)])] = t
        for t in sorted((t for t in out if t.is_epsilon()), key=lambda t: t.dst):
            edges[(i, f"eps->{b.name_of(t.dst)}", index[(s, t.dst)])] = t
    return edges


def product_view(m, product):
    """The product's name-keyed ``LabeledMdp``, rebuilt from the base MDP
    ``m`` and :func:`product_aut_edge`: each product transition carries its
    base transition's probability and label, an epsilon guess probability
    one and no label."""
    from omegarl import LabeledMdp

    b, pairs = product.automaton, product.pairs
    enabled = [[] for _ in pairs]
    prob, label = {}, {}
    for (i, a, j), t in product_aut_edge(m, product).items():
        s, dst = pairs[i][0], pairs[j][0]
        if a not in enabled[i]:
            enabled[i].append(a)
        if t.is_epsilon():
            prob[(i, a)] = [(j, 1.0)]
            continue
        prob.setdefault((i, a), []).append((j, dict(m.prob[(s, a)])[dst]))
        if m.label_of(s, a, dst):
            label[(i, a, j)] = m.label_of(s, a, dst)
    return LabeledMdp(
        num_states=len(pairs),
        initial=0,
        ap=m.ap,
        enabled=tuple(map(tuple, enabled)),
        prob={key: tuple(sorted(row)) for key, row in prob.items()},
        label=label,
        state_names=tuple(f"({m.name_of(s)}|{b.name_of(x)})" for s, x in pairs),
    )


def product_acceptance(m, product) -> tuple[frozenset, ...]:
    """The product transitions in each accepting set of the product's
    automaton; epsilon moves never accept."""
    edges = product_aut_edge(m, product)
    return tuple(
        frozenset(pt for pt, t in edges.items() if not t.is_epsilon() and t in acc)
        for acc in product.automaton.acceptance
    )


# --- augmented state names --------------------------------------------------------

def split_augmented(name: str) -> tuple[str, tuple[int, ...]]:
    """Base state name and memory vector of an augmented state named
    ``base@bits``; entry j of the vector is the bit of accepting set j + 1."""
    base, bits = name.split("@")
    return base, tuple(int(c) for c in bits)


# --- frontier reward oracle ------------------------------------------------------

def frontier_init(acceptance) -> frozenset:
    """The full working set: every transition of every accepting set."""
    return frozenset().union(*acceptance)


def frontier_step(remaining: frozenset, t, acceptance) -> tuple[frozenset, bool]:
    """Remove every accepting set containing ``t`` when ``t`` is still pending.

    Returns the new working set and whether the transition scored.  An
    emptied working set is re-initialized to all accepting transitions.
    """
    if t not in remaining:
        return remaining, False
    remaining -= frozenset().union(*(acc for acc in acceptance if t in acc))
    return remaining or frontier_init(acceptance), True


# --- random generators ---------------------------------------------------------

def random_formula(rng, depth: int):
    kinds = ("atom", "true", "false", "not", "next", "even", "glob", "and", "or", "imp", "until")
    if depth == 0:
        kind = kinds[rng.integers(3)]
    else:
        kind = kinds[rng.integers(len(kinds))]
    if kind == "atom":
        return ltl.Atom(AP3[rng.integers(3)])
    if kind == "true":
        return ltl.TrueBool()
    if kind == "false":
        return ltl.FalseBool()
    sub = depth - 1
    if kind == "not":
        return ltl.Not(random_formula(rng, sub))
    if kind == "next":
        return ltl.Next(random_formula(rng, sub))
    if kind == "even":
        return ltl.Eventually(random_formula(rng, sub))
    if kind == "glob":
        return ltl.Globally(random_formula(rng, sub))
    left, right = random_formula(rng, sub), random_formula(rng, sub)
    if kind == "and":
        return ltl.And(left, right)
    if kind == "or":
        return ltl.Or(left, right)
    if kind == "imp":
        return ltl.Implies(left, right)
    return ltl.Until(left, right)


def random_lasso(rng, max_prefix=3, max_cycle=3, ap=AP3) -> LassoWord:
    letters = letters_over(ap)
    np_ = rng.integers(max_prefix + 1)
    nc = rng.integers(1, max_cycle + 1)
    return LassoWord(
        tuple(letters[rng.integers(len(letters))] for _ in range(np_)),
        tuple(letters[rng.integers(len(letters))] for _ in range(nc)),
    )


def lassos_sharing_cycles(rng, n_cycles=6, per_cycle=8, max_prefix=4, max_cycle=3, ap=AP3):
    """Random lasso words in groups of ``per_cycle`` that share one cycle and
    differ in their prefixes (the empty one and up to ``max_prefix``
    letters); the groups are interleaved, so an oracle reused across the
    words that memoizes per cycle is hit out of order."""
    letters = letters_over(ap)

    def draw(length):
        return tuple(letters[rng.integers(len(letters))] for _ in range(length))

    words = []
    for _ in range(n_cycles):
        cycle = draw(rng.integers(1, max_cycle + 1))
        words.append(LassoWord((), cycle))
        words.extend(LassoWord(draw(rng.integers(1, max_prefix + 1)), cycle) for _ in range(per_cycle - 1))
    return [words[i] for i in rng.permutation(len(words))]


def random_tgba(rng, n_states=3, ap=("a", "b"), n_sets=2, allow_eps=True):
    """Random small automaton; may be nondeterministic and partial, with
    acyclic epsilon edges (source id < target id)."""
    from omegarl import TGba

    letters = letters_over(ap)
    transitions = []
    for s in range(n_states):
        for letter in letters:
            k = rng.integers(3)  # 0, 1 or 2 successors
            dsts = rng.choice(n_states, size=min(k, n_states), replace=False)
            for d in dsts:
                transitions.append(Transition(s, letter, int(d)))
    if allow_eps:
        for s in range(n_states):
            for d in range(s + 1, n_states):
                if rng.random() < 0.25:
                    transitions.append(Transition(s, EPSILON, d))
    non_eps = [t for t in transitions if t.letter is not EPSILON]
    acceptance = []
    for _ in range(n_sets):
        members = [t for t in non_eps if rng.random() < 0.35]
        acceptance.append(frozenset(members))
    return TGba(
        num_states=n_states,
        initial=0,
        ap=frozenset(ap),
        masks={t: sum(1 << j for j, acc in enumerate(acceptance) if t in acc) for t in transitions},
        n_sets=n_sets,
    )


def random_labeled_mdp(rng, n_states=8, ap=AP3, letters=None, max_succ=4, twin=0.3):
    """Random labeled MDP with one to three actions per state and rows of
    one to ``max_succ`` successors, labeled with letters drawn from
    ``letters`` (default: every letter over ``ap``); with probability
    ``twin`` a state's last action copies the row and labels of its first,
    so the two tie."""
    from omegarl import LabeledMdp

    letters = letters_over(ap) if letters is None else letters
    enabled, prob, label = [], {}, {}
    for s in range(n_states):
        actions = tuple(f"u{k}" for k in range(int(rng.integers(1, 4))))
        enabled.append(actions)
        for a in actions:
            deg = int(rng.integers(1, max_succ + 1))
            dsts = sorted(rng.choice(n_states, size=min(deg, n_states), replace=False).tolist())
            weights = rng.random(len(dsts)) + 0.05
            weights = weights / weights.sum()
            weights[-1] = 1.0 - float(weights[:-1].sum())
            prob[(s, a)] = tuple((d, float(p)) for d, p in zip(dsts, weights))
            for d in dsts:
                letter = letters[rng.integers(len(letters))]
                if letter:
                    label[(s, a, d)] = letter
        if len(actions) > 1 and rng.random() < twin:
            a0, a1 = actions[0], actions[-1]
            prob[(s, a1)] = prob[(s, a0)]
            for key in [key for key in label if key[:2] == (s, a1)]:
                del label[key]
            for d, _ in prob[(s, a0)]:
                if (s, a0, d) in label:
                    label[(s, a1, d)] = label[(s, a0, d)]
    return LabeledMdp(
        num_states=n_states,
        initial=0,
        ap=frozenset(ap),
        enabled=tuple(enabled),
        prob=prob,
        label=label,
    )


def random_chain(rng, n_states=20, n_absorbing=3):
    """Random sparse Markov chain with a few absorbing states."""
    from omegarl import MarkovChain

    prob = {}
    absorbing = set(rng.choice(n_states, size=n_absorbing, replace=False).tolist())
    for s in range(n_states):
        if s in absorbing:
            prob[s] = ((s, 1.0),)
            continue
        deg = int(rng.integers(2, 5))
        dsts = sorted(set(rng.choice(n_states, size=deg, replace=False).tolist()))
        weights = rng.random(len(dsts)) + 0.05
        weights = weights / weights.sum()
        weights[-1] = 1.0 - float(weights[:-1].sum())
        prob[s] = tuple((d, float(p)) for d, p in zip(dsts, weights))
    return MarkovChain(states=tuple(range(n_states)), prob=prob, initial=0)


# --- simulation estimators -----------------------------------------------------

def _chain_arrays(mc):
    states = list(mc.states)
    pos = {s: i for i, s in enumerate(states)}
    n = len(states)
    deg = max(len(mc.prob[s]) for s in states)
    dst = np.zeros((n, deg), dtype=np.int64)
    cum = np.ones((n, deg))
    for s in states:
        row = mc.prob[s]
        acc = 0.0
        for k, (d, p) in enumerate(row):
            acc += p
            dst[pos[s], k] = pos[d]
            cum[pos[s], k] = acc
        for k in range(len(row), deg):
            dst[pos[s], k] = dst[pos[s], len(row) - 1]
    return states, pos, dst, cum


def mc_reach_estimate(mc, target, runs, max_steps, rng):
    """Monte Carlo estimate of the reach probability, stopping each run as
    soon as its verdict is decided (target hit, or no path to the target
    remains)."""
    states, pos, dst, cum = _chain_arrays(mc)
    preds = {s: [] for s in states}
    for s in states:
        for d, _ in mc.prob[s]:
            preds[d].append(s)
    can_reach = closure(set(target) & set(states), lambda v: preds[v])
    is_target = np.array([s in target for s in states])
    is_null = np.array([s not in can_reach for s in states])

    cur = np.full(runs, pos[mc.initial], dtype=np.int64)
    verdict = np.full(runs, -1, dtype=np.int64)
    for _ in range(max_steps + 1):
        undecided = verdict < 0
        if not undecided.any():
            break
        idx = np.flatnonzero(undecided)
        here = cur[idx]
        verdict[idx[is_target[here]]] = 1
        verdict[idx[is_null[here]]] = 0
        undecided = verdict < 0
        if not undecided.any():
            break
        idx = np.flatnonzero(undecided)
        u = rng.random(idx.size)
        rows = cur[idx]
        choice = (u[:, None] > cum[rows]).sum(axis=1)
        cur[idx] = dst[rows, choice]
    assert (verdict >= 0).all(), "some simulated runs never reached a verdict"
    return float((verdict == 1).mean())


def mc_absorption_estimate(mc, accepting_states, other_recurrent, runs, max_steps, rng):
    """Fraction of runs that settle in an accepting recurrent class."""
    states, pos, dst, cum = _chain_arrays(mc)
    acc = np.array([s in accepting_states for s in states])
    rej = np.array([s in other_recurrent for s in states])
    cur = np.full(runs, pos[mc.initial], dtype=np.int64)
    verdict = np.full(runs, -1, dtype=np.int64)
    for _ in range(max_steps + 1):
        undecided = verdict < 0
        if not undecided.any():
            break
        idx = np.flatnonzero(undecided)
        here = cur[idx]
        verdict[idx[acc[here]]] = 1
        verdict[idx[rej[here]]] = 0
        undecided = verdict < 0
        if not undecided.any():
            break
        idx = np.flatnonzero(undecided)
        u = rng.random(idx.size)
        rows = cur[idx]
        choice = (u[:, None] > cum[rows]).sum(axis=1)
        cur[idx] = dst[rows, choice]
    assert (verdict >= 0).all()
    return float((verdict == 1).mean())
