import hashlib
import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import omegarl
from helpers import (
    AP3,
    assert_table_matches,
    cycle_verdict,
    enum_accepts,
    lassos_sharing_cycles,
    letters_over,
    random_lasso,
    random_tgba,
)
from omegarl import (
    EPSILON,
    AutomatonError,
    CycleTable,
    NotLimitDeterministic,
    TGba,
    Transition,
    accepts_lasso,
    augment,
    check_limit_deterministic,
    degeneralize,
    eval_lasso,
    formula_evaluator,
    lasso,
    lasso_acceptor,
    merge_unaccepting,
    named_fixture,
    parse_automaton,
    parse_ltl,
    serialize_automaton,
)
from omegarl.verify import SPEC_FORMULA, lasso_parts

A = frozenset({"a"})
B = frozenset({"b"})
AB = frozenset({"a", "b"})
EMPTY = frozenset()


def serialized_order(b: TGba) -> list[Transition]:
    """The transitions sorted as the canonical text lists them: by source,
    then letter (epsilon first, then the bitstring over the sorted AP),
    then target."""
    ap_sorted = tuple(sorted(b.ap))
    return sorted(
        b.masks,
        key=lambda t: (
            t.src,
            (0, "") if t.letter is EPSILON else (1, "".join("1" if x in t.letter else "0" for x in ap_sorted)),
            t.dst,
        ),
    )


def canonical_form(b: TGba) -> str:
    """BFS renumbering from the initial state, then canonical text; equal
    strings mean isomorphic automata (valid for per-letter-deterministic
    inputs, which is all this helper is used on)."""
    out = {}
    for t in serialized_order(b):
        out.setdefault(t.src, []).append(t)
    order = [b.initial]
    index = {b.initial: 0}
    queue = [b.initial]
    while queue:
        x = queue.pop(0)
        for t in out.get(x, ()):
            if t.dst not in index:
                index[t.dst] = len(order)
                order.append(t.dst)
                queue.append(t.dst)
    remap = lambda t: Transition(index[t.src], t.letter, index[t.dst])
    relabeled = TGba(
        num_states=len(order),
        initial=0,
        ap=b.ap,
        masks={remap(t): mask for t, mask in b.masks.items() if t.src in index and t.dst in index},
        n_sets=b.n_sets,
    )
    return serialize_automaton(relabeled)


# --- fixture structure --------------------------------------------------------


def test_fixture_structure(fig_automaton):
    b = fig_automaton
    assert b == named_fixture("gfa_gfb_gnc") and hash(b) == hash(named_fixture("gfa_gfb_gnc"))
    assert b.num_states == 2
    assert b.n_sets == 2
    assert len(b.masks) == 16
    assert b.acceptance[0] == frozenset({Transition(0, A, 0), Transition(0, AB, 0)})
    assert b.acceptance[1] == frozenset({Transition(0, B, 0), Transition(0, AB, 0)})
    # every letter containing c traps; x1 absorbs everything
    for letter in letters_over(("a", "b", "c")):
        dst = 1 if "c" in letter else 0
        assert Transition(0, letter, dst) in b.masks
        assert Transition(1, letter, 1) in b.masks


def test_fixture_acceptance_examples(fig_automaton):
    assert accepts_lasso(fig_automaton, lasso([], [{"a"}, {"b"}])) is True
    assert accepts_lasso(fig_automaton, lasso([], [{"a"}])) is False
    assert accepts_lasso(fig_automaton, lasso([{"c"}], [{"a"}, {"b"}])) is False


def test_fixture_agrees_with_formula_on_random_words(fig_automaton):
    phi = parse_ltl("G F a & G F b & G !c")
    rng = np.random.default_rng(3)
    for _ in range(200):
        w = random_lasso(rng, max_prefix=2, max_cycle=3)
        assert accepts_lasso(fig_automaton, w) == eval_lasso(phi, w)


# --- limit determinism -----------------------------------------------------------


def test_check_ld_fixture_all_final(fig_automaton):
    part = check_limit_deterministic(fig_automaton)
    assert part.x_initial == frozenset()
    assert part.x_final == frozenset({0, 1})


def test_check_ld_single_state_total():
    letters = letters_over(("a",))
    trans = frozenset(Transition(0, letter, 0) for letter in letters)
    b = TGba(1, 0, frozenset({"a"}), dict.fromkeys(trans, 1), 1)
    part = check_limit_deterministic(b)
    assert part.x_initial == frozenset()
    assert part.x_final == frozenset({0})


def test_check_ld_epsilon_fixture(eps_automaton):
    part = check_limit_deterministic(eps_automaton)
    assert part.x_initial == frozenset({0})
    assert part.x_final == frozenset({1, 2})


def test_check_ld_allows_nondeterminism_in_initial_part():
    # the branching state stays outside the final part, which is legal
    t1, t2, t3 = Transition(0, A, 0), Transition(0, A, 1), Transition(1, A, 1)
    b = TGba(2, 0, frozenset({"a"}), {t1: 0, t2: 0, t3: 1}, 1)
    part = check_limit_deterministic(b)
    assert part.x_initial == frozenset({0})
    assert part.x_final == frozenset({1})


def test_check_ld_rejects_nondeterminism_in_final_part():
    # the accepting self-loop pulls state 0 into the final part, where its
    # two a-successors violate per-letter determinism
    t0 = Transition(0, A, 0)
    t1, t2, t3 = Transition(0, A, 1), Transition(1, A, 1), Transition(1, EMPTY, 1)
    b = TGba(2, 0, frozenset({"a"}), {t0: 1, t1: 0, t2: 0, t3: 0}, 1)
    with pytest.raises(NotLimitDeterministic, match="per-letter"):
        check_limit_deterministic(b)


def test_check_ld_rejects_epsilon_inside_final_part():
    t1 = Transition(0, A, 0)
    te = Transition(0, EPSILON, 1)
    t2 = Transition(1, A, 1)
    b = TGba(2, 0, frozenset({"a"}), {t1: 1, te: 0, t2: 0}, 1)
    # state 0 carries an accepting transition, so it sits in the final part
    with pytest.raises(NotLimitDeterministic, match="epsilon"):
        check_limit_deterministic(b)


def test_tgba_rejects_accepting_epsilon():
    te = Transition(0, EPSILON, 1)
    t2 = Transition(1, A, 1)
    with pytest.raises(AutomatonError, match=r"epsilon transition \(x0,eps,x1\) is accepting"):
        TGba(2, 0, frozenset({"a"}), {te: 1, t2: 1}, 1)


FIRST_VIOLATION = """
import sys
history = [object() for _ in range(int(sys.argv[1]))]
from omegarl import EPSILON, NotLimitDeterministic, TGba, Transition, check_limit_deterministic
a = frozenset({"a"})
loop = Transition(0, a, 0)
rest = [Transition(0, a, 1)] + [Transition(0, EPSILON, d) for d in range(1, 6)]
b = TGba(6, 0, frozenset({"a"}), {**dict.fromkeys(frozenset(rest), 0), loop: 1}, 1)
try:
    check_limit_deterministic(b)
except NotLimitDeterministic as err:
    print(err)
"""


def test_check_ld_names_the_first_violation_in_every_process():
    # state 0 is final (accepting self-loop), so each epsilon edge out of it
    # and its second a-successor are violations; EPSILON hashes by identity,
    # so each process allocates a different number of objects before the
    # import to give the transition set a different iteration order
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(Path(omegarl.__file__).parents[1]))
    named = {
        subprocess.run(
            [sys.executable, "-c", FIRST_VIOLATION, str(history)],
            env=env, capture_output=True, text=True, check=True,
        ).stdout.strip()
        for history in range(4)
    }
    assert named == {"epsilon transition (x0,eps,x1) starts inside the final part"}


# --- text format -----------------------------------------------------------------


# sha256 of each packaged automaton's canonical text: an edit to a file's
# comments or guard shorthand must leave the automaton it defines as it is
FIXTURE_SHA256 = {
    "fg_a": "0c1fce026639c8a65a9dc60740eb1768ce27df5561098839eaa30c40ef8d6833",
    "gfa_gfb_gnc": "80e4b2fa364c7aa6f5fe350e9c2bdb3bca97dfaf67be79732a393d6050054fff",
}


@pytest.mark.parametrize("name", sorted(FIXTURE_SHA256))
def test_fixture_canonical_text_is_pinned(name):
    text = serialize_automaton(named_fixture(name))
    assert hashlib.sha256(text.encode()).hexdigest() == FIXTURE_SHA256[name]


def test_unknown_fixture_lists_the_packaged_automata():
    stems = sorted(p.stem for p in Path(omegarl.__file__).with_name("fixtures").glob("*.tgba"))
    assert stems == sorted(FIXTURE_SHA256)
    with pytest.raises(AutomatonError) as exc:
        named_fixture("nope")
    assert str(exc.value) == f"unknown fixture 'nope'; available: {', '.join(stems)}"


@pytest.mark.parametrize("name", ["gfa_gfb_gnc", "fg_a"])
def test_serialize_parse_identity_on_canonical_text(name):
    text = serialize_automaton(named_fixture(name))
    assert serialize_automaton(parse_automaton(text)) == text


def test_parse_guard_shorthand_expansion():
    text = "ap: a b c\nstates: 2\ninitial: 0\nacceptance-sets: 1\n0 !c 1 acc: 1\n"
    b = parse_automaton(text)
    assert len(b.masks) == 4  # the four c-free subsets
    assert all(t.src == 0 and t.dst == 1 and "c" not in t.letter for t in b.masks)
    assert b.acceptance[0] == set(b.masks)


def test_parse_overlapping_guards_union_acceptance():
    text = (
        "ap: a b\nstates: 1\ninitial: 0\nacceptance-sets: 2\n"
        "0 a 0 acc: 1\n0 b 0 acc: 2\n"
    )
    b = parse_automaton(text)
    both = Transition(0, AB, 0)
    assert both in b.acceptance[0] and both in b.acceptance[1]


def test_parse_acceptance_index_out_of_range():
    text = "ap: a\nstates: 1\ninitial: 0\nacceptance-sets: 2\n0 a 0 acc: 3\n"
    with pytest.raises(AutomatonError, match="out of range"):
        parse_automaton(text)


def test_parse_undeclared_proposition():
    text = "ap: a\nstates: 1\ninitial: 0\nacceptance-sets: 1\n0 d 0\n"
    with pytest.raises(AutomatonError, match="undeclared"):
        parse_automaton(text)


def test_parse_undeclared_state():
    text = "ap: a\nstates: 1\ninitial: 0\nacceptance-sets: 1\n0 a 4\n"
    with pytest.raises(AutomatonError, match="out of range"):
        parse_automaton(text)


def test_parse_rejects_temporal_guard():
    text = "ap: a\nstates: 1\ninitial: 0\nacceptance-sets: 1\n0 X a 0\n"
    with pytest.raises(AutomatonError, match="temporal"):
        parse_automaton(text)


ACCEPTING_EPSILON = "ap: a\nstates: 2\ninitial: 0\nacceptance-sets: 1\n0 a 1\n1 eps 0 acc: 1\n"


def test_parse_rejects_accepting_epsilon():
    with pytest.raises(AutomatonError, match="line 6: an epsilon move cannot be accepting"):
        parse_automaton(ACCEPTING_EPSILON)


def test_moves_hold_every_transition_once_in_serialized_order():
    rng = np.random.default_rng(27)
    automata = [named_fixture("gfa_gfb_gnc"), named_fixture("fg_a")]
    automata += [random_tgba(rng, n_states=4, allow_eps=True) for _ in range(30)]
    assert any(EPSILON in row for b in automata for row in b.moves)
    for b in automata:
        assert len(b.moves) == b.num_states
        for x, row in enumerate(b.moves):
            for letter, ts in row.items():
                assert ts and all(t.src == x and t.letter == letter for t in ts)
        flat = [t for row in b.moves for ts in row.values() for t in ts]
        assert flat == serialized_order(b)


@pytest.mark.parametrize("name", ["eps", ":", "A", "true", "false", "G", "a-b"])
def test_parse_rejects_proposition_names_guards_cannot_write(name):
    text = f"states: 1\nap: a {name}\ninitial: 0\nacceptance-sets: 1\n0 a 0 acc: 1\n"
    with pytest.raises(AutomatonError, match=rf"line 2: '{name}' is not a proposition name"):
        parse_automaton(text)


def test_masks_match_acceptance_on_random_automata():
    rng = np.random.default_rng(25)
    for k in range(30):
        b = random_tgba(rng, n_states=4, n_sets=1 + k % 4)
        assert set(b.masks) == {t for row in b.moves for ts in row.values() for t in ts}
        acceptance = b.acceptance
        for t, mask in b.masks.items():
            assert mask >> b.n_sets == 0
            for j, acc in enumerate(acceptance):
                assert bool(mask >> j & 1) == (t in acc)


def test_tgba_requires_accepting_set():
    with pytest.raises(AutomatonError, match="accepting set"):
        TGba(1, 0, frozenset({"a"}), {Transition(0, A, 0): 0}, 0)


def test_tgba_bounds_its_accepting_sets():
    """Both reward schemes tabulate all 2**n_sets working sets, so more
    than 16 sets are refused up front rather than exhausting memory; 16
    sets still build and parse."""
    assert TGba(1, 0, frozenset({"a"}), {Transition(0, A, 0): 1 << 15}, 16).n_sets == 16
    text = "ap: a\nstates: 1\ninitial: 0\nacceptance-sets: 16\n0 a 0 acc: 1,16\n0 !a 0\n"
    assert parse_automaton(text).n_sets == 16
    for n_sets in (17, 40):
        with pytest.raises(AutomatonError, match=f"^automaton has {n_sets} accepting sets, "
                                                 "more than 16$"):
            TGba(1, 0, frozenset({"a"}), {Transition(0, A, 0): 1}, n_sets)


def test_tgba_rejects_duplicate_state_names():
    # a name labels product states and epsilon-guess actions: two guesses of
    # equally named states would share one product row
    masks = {Transition(0, A, 1): 0, Transition(1, A, 0): 1}
    with pytest.raises(AutomatonError, match="state names must be distinct"):
        TGba(2, 0, frozenset({"a"}), masks, 1, names=("y", "y"))


@pytest.mark.parametrize(
    "mask,n_sets,match",
    [
        (0b100, 2, "has mask 4, not in 0..3"),
        (0b10, 1, "has mask 2, not in 0..1"),
        (-1, 2, "has mask -1, not in 0..3"),
    ],
    ids=["bit-above-sets", "bit-at-n-sets", "negative"],
)
def test_tgba_rejects_masks_outside_its_sets(mask, n_sets, match):
    with pytest.raises(AutomatonError, match=match):
        TGba(1, 0, frozenset({"a"}), {Transition(0, A, 0): 1, Transition(0, EMPTY, 0): mask}, n_sets)


# --- degeneralization ----------------------------------------------------------


def test_degeneralize_fixture_structure(fig_automaton):
    d = degeneralize(fig_automaton)
    assert d.num_states == 4
    assert d.n_sets == 1
    # accepting transitions wrap the counter: b-letters taken at (x0, 2)
    by_name = {d.names[i]: i for i in range(d.num_states)}
    x02 = by_name["x0.2"]
    x01 = by_name["x0.1"]
    assert d.acceptance[0] == frozenset(
        {Transition(x02, B, x01), Transition(x02, AB, x01)}
    )


def test_degeneralize_single_set_is_isomorphic(eps_automaton):
    assert canonical_form(degeneralize(eps_automaton)) == canonical_form(eps_automaton)


def test_degeneralize_preserves_language_on_sample(fig_automaton):
    d = degeneralize(fig_automaton)
    assert accepts_lasso(d, lasso([], [{"a"}, {"b"}])) is True
    rng = np.random.default_rng(4)
    for _ in range(200):
        w = random_lasso(rng, max_prefix=2, max_cycle=3)
        assert accepts_lasso(d, w) == accepts_lasso(fig_automaton, w)


def test_degeneralize_preserves_limit_determinism(fig_automaton, eps_automaton):
    for b in (fig_automaton, eps_automaton):
        check_limit_deterministic(b)
        check_limit_deterministic(degeneralize(b))


# --- lasso acceptance ------------------------------------------------------------


def test_epsilon_guess_acceptance(eps_automaton):
    assert accepts_lasso(eps_automaton, lasso([], [{"a"}])) is True
    assert accepts_lasso(eps_automaton, lasso([set()], [{"a"}])) is True
    assert accepts_lasso(eps_automaton, lasso([], [{"a"}, set()])) is False


def test_partial_automaton_rejects_missing_letter():
    t = Transition(0, A, 0)
    b = TGba(1, 0, frozenset({"a"}), {t: 1}, 1)
    assert accepts_lasso(b, lasso([], [{"a"}])) is True
    assert accepts_lasso(b, lasso([], [set()])) is False
    assert accepts_lasso(b, lasso([set()], [{"a"}])) is False


def test_epsilon_cycle_rejected():
    t1 = Transition(0, EPSILON, 1)
    t2 = Transition(1, EPSILON, 0)
    ta = Transition(0, A, 0)
    b = TGba(2, 0, frozenset({"a"}), {t1: 0, t2: 0, ta: 1}, 1)
    for _ in range(2):  # every call raises, not only the first
        with pytest.raises(AutomatonError, match="cycle"):
            accepts_lasso(b, lasso([], [{"a"}]))


def epsilon_automaton(eps_edges):
    """Four states that loop on {a}, with the given epsilon edges; the
    a-loop of the last state is accepting."""
    loops = [Transition(x, A, x) for x in range(4)]
    eps = [Transition(src, EPSILON, dst) for src, dst in eps_edges]
    return TGba(4, 0, frozenset({"a"}), {**dict.fromkeys(loops + eps, 0), loops[3]: 1}, 1)


# test_epsilon_cycle_rejected covers the two-cycle
@pytest.mark.parametrize("eps_edges", [
    [(0, 0)],  # self-loop
    [(0, 1), (1, 2), (2, 3), (3, 1)],  # cycle behind an acyclic prefix
], ids=["self-loop", "behind-prefix"])
def test_epsilon_cycle_shapes_rejected(eps_edges):
    b = epsilon_automaton(eps_edges)
    for w in (lasso([], [{"a"}]), lasso([{"a"}], [{"a"}])):
        with pytest.raises(AutomatonError, match="cycle"):
            accepts_lasso(b, w)


def test_epsilon_diamond_is_no_cycle():
    b = epsilon_automaton([(0, 1), (0, 2), (1, 3), (2, 3)])
    w = lasso([], [{"a"}])
    assert accepts_lasso(b, w) is True
    assert enum_accepts(b, w) is True


def test_acceptance_agrees_with_walk_enum_on_random_automata():
    rng = np.random.default_rng(12)
    for _ in range(150):
        b = random_tgba(rng, n_states=3, ap=("a", "b"), n_sets=int(rng.integers(1, 3)))
        for _ in range(4):
            w = random_lasso(rng, max_prefix=2, max_cycle=2, ap=("a", "b"))
            assert accepts_lasso(b, w) == enum_accepts(b, w)


def test_acceptance_agrees_with_walk_enum_on_fixtures(fig_automaton, eps_automaton):
    rng = np.random.default_rng(13)
    for b, ap in ((fig_automaton, ("a", "b", "c")), (eps_automaton, ("a",))):
        for _ in range(60):
            w = random_lasso(rng, max_prefix=2, max_cycle=2, ap=ap)
            assert accepts_lasso(b, w) == enum_accepts(b, w)


def test_unreachable_epsilon_edge_keeps_the_language(fig_automaton):
    """An unreachable state with an epsilon edge into the automaton changes
    the relations of the acceptor's array pass but not the language."""
    b = fig_automaton
    padded = TGba(
        num_states=3,
        initial=0,
        ap=b.ap,
        masks={**b.masks, Transition(2, EPSILON, 2 - 1): 0},
        n_sets=b.n_sets,
    )
    rng = np.random.default_rng(14)
    for _ in range(150):
        w = random_lasso(rng, max_prefix=2, max_cycle=3)
        assert accepts_lasso(b, w) == accepts_lasso(padded, w)


@pytest.mark.parametrize(
    "old,new,match",
    [
        ("states: 1", "states: one", "line 2: bad states value 'one'"),
        ("initial: 0", "initial: x0", "line 3: bad initial value 'x0'"),
        ("acceptance-sets: 1", "acceptance-sets: ?", "line 4: bad acceptance-sets value"),
        ("acc: 1", "acc: 1,x", "line 5: bad acceptance index 'x'"),
        ("0 a 0", "x a 0", "line 5: bad state id 'x'$"),
        ("initial: 0", "initial: 5", "line 3: initial state 5 out of range"),
        ("states: 1", "states: 0", "line 2: automaton needs at least one state"),
        ("acceptance-sets: 1", "acceptance-sets: 0", "line 4: acceptance-sets must be at least 1"),
        ("acceptance-sets: 1", "acceptance-sets: 17", "line 4: acceptance-sets must be at most 16"),
        ("acceptance-sets: 1", "acceptance-sets: 40", "line 4: acceptance-sets must be at most 16"),
        ("ap: a", "ap: a a", "line 1: duplicate atomic proposition in 'ap' header"),
        ("states: 1", "states: 3", "line 2: 3 states declared, but no line names a state above 0"),
        ("ap: a", "ap: a " + " ".join(f"p{i}" for i in range(16)),
         r"line 1: at most 16 atomic propositions \(each guard expands to one transition per "
         r"letter\)$"),
        ("0 !a 0", "0 " + "!" * 1000 + "a 0",
         "line 6: bad guard: formula nested more than 200 deep"),
        ("0 !a 0", "0 " + "(" * 500 + "!a" + ")" * 500 + " 0",
         "line 6: bad guard: formula nested more than 200 deep"),
    ],
    ids=["states", "initial", "acceptance-sets", "acc-index", "state-id", "initial-range",
         "no-states", "no-acceptance-sets", "17-acceptance-sets", "40-acceptance-sets", "duplicate-ap",
         "states-above-named", "17-ap", "guard-not-1000", "guard-parentheses-500"],
)
def test_parse_malformed_numbers_raise_line_numbered_errors(old, new, match):
    good = "ap: a\nstates: 1\ninitial: 0\nacceptance-sets: 1\n0 a 0 acc: 1\n0 !a 0\n"
    assert parse_automaton(good).num_states == 1
    with pytest.raises(AutomatonError, match=match):
        parse_automaton(good.replace(old, new, 1))


def test_parse_takes_up_to_max_ap_propositions(monkeypatch):
    """The bound on ``ap:`` holds at exactly MAX_AP names, here lowered to 2
    so that the letters stay few."""
    monkeypatch.setattr(omegarl.automata, "MAX_AP", 2)
    text = "ap: a b\nstates: 1\ninitial: 0\nacceptance-sets: 1\n0 true 0 acc: 1\n"
    assert parse_automaton(text).ap == frozenset("ab")
    with pytest.raises(AutomatonError, match="^line 1: at most 2 atomic propositions"):
        parse_automaton(text.replace("ap: a b", "ap: a b c"))


def test_parse_checks_the_state_count_before_allocating():
    """A mistyped state count is an error, not an automaton of that many
    states, as for ``parse_mdp``."""
    text = "ap: a\nstates: 1000000\ninitial: 0\nacceptance-sets: 1\n0 a 0 acc: 1\n"
    tracemalloc.start()
    try:
        with pytest.raises(
            AutomatonError, match="line 2: 1000000 states declared, but no line names a state above 0"
        ):
            parse_automaton(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_parse_counts_initial_and_both_ends_of_a_transition_as_named():
    for text in (
        "states: 3\ninitial: 2\nacceptance-sets: 1\n0 true 0\n",
        "states: 3\ninitial: 0\nacceptance-sets: 1\n2 true 0\n",
        "states: 3\ninitial: 0\nacceptance-sets: 1\n0 eps 2\n",
    ):
        assert parse_automaton(text).num_states == 3
    with pytest.raises(AutomatonError, match="line 1: 4 states declared, but no line names a state above 2"):
        parse_automaton("states: 4\ninitial: 0\nacceptance-sets: 1\n0 eps 2\n")


def test_reused_acceptor_matches_walk_enum_on_random_automata():
    """One acceptor per automaton over the cycles of words that share
    cycles, so each state's bitset is reused across different prefixes."""
    rng = np.random.default_rng(15)
    for _ in range(40):
        b = random_tgba(rng, n_states=3, ap=("a", "b"), n_sets=int(rng.integers(1, 3)))
        words = lassos_sharing_cycles(rng, n_cycles=4, per_cycle=8, ap=("a", "b"))
        cycles = list(dict.fromkeys(w.cycle for w in words))
        accepts = lasso_acceptor(b, CycleTable(cycles))
        for w in words:
            assert cycle_verdict(accepts, cycles, w) == enum_accepts(b, w)


def test_reused_acceptor_matches_walk_enum_on_fixtures(fig_automaton, eps_automaton):
    rng = np.random.default_rng(16)
    for b, ap in ((fig_automaton, ("a", "b", "c")), (eps_automaton, ("a",))):
        words = lassos_sharing_cycles(rng, n_cycles=10, per_cycle=10, ap=ap)
        assert any(w.prefix for w in words)
        cycles = list(dict.fromkeys(w.cycle for w in words))
        accepts = lasso_acceptor(b, CycleTable(cycles))
        for w in words:
            assert cycle_verdict(accepts, cycles, w) == enum_accepts(b, w)


def test_acceptors_of_distinct_automata_share_no_verdicts(fig_automaton):
    """An acceptor built right after another one, over the same cycles, for
    an automaton with the same states and transitions, must not reuse the
    first one's bitsets."""
    corrupted = TGba(
        num_states=fig_automaton.num_states,
        initial=fig_automaton.initial,
        ap=fig_automaton.ap,
        masks={t: mask & 1 for t, mask in fig_automaton.masks.items()},  # set 2 emptied
        n_sets=2,
    )
    words = lassos_sharing_cycles(np.random.default_rng(17), n_cycles=12, per_cycle=6)
    cycles = list(dict.fromkeys(w.cycle for w in words))
    good = lasso_acceptor(fig_automaton, CycleTable(cycles))
    verdicts = [cycle_verdict(good, cycles, w) for w in words]
    bad = lasso_acceptor(corrupted, CycleTable(cycles))
    corrupted_verdicts = [cycle_verdict(bad, cycles, w) for w in words]
    assert corrupted_verdicts == [enum_accepts(corrupted, w) for w in words]
    assert verdicts == [enum_accepts(fig_automaton, w) for w in words]
    assert corrupted_verdicts != verdicts


def test_acceptor_bits_match_walk_enum_on_battery_automata(fig_automaton):
    """Every bit of the table, on the four automata of the verify battery
    and every lasso word with prefix <= 1 and cycle <= 2."""
    prefixes, cycles = lasso_parts(AP3, 1, 2)
    aug = augment(fig_automaton)
    for b in (fig_automaton, aug, merge_unaccepting(aug), degeneralize(fig_automaton)):
        accepts = lasso_acceptor(b, CycleTable(cycles))
        assert_table_matches(accepts, prefixes, cycles, lambda w: enum_accepts(b, w))


def test_acceptor_bits_match_walk_enum_on_random_automata():
    """Nondeterministic and partial automata of 2 to 6 states and 1 to 3
    accepting sets, most with epsilon edges, over every cycle of at most
    three letters.  An empty tuple of cycles gives 0 at every prefix."""
    rng = np.random.default_rng(18)
    prefixes, cycles = lasso_parts(("a", "b"), 1, 3)
    with_eps, sizes = 0, set()
    for _ in range(30):
        b = random_tgba(rng, n_states=int(rng.integers(2, 7)), n_sets=int(rng.integers(1, 4)))
        with_eps += any(t.is_epsilon() for t in b.masks)
        sizes.add((b.num_states, b.n_sets))
        accepts = lasso_acceptor(b, CycleTable(cycles))
        assert_table_matches(accepts, prefixes, cycles, lambda w: enum_accepts(b, w))
        assert {lasso_acceptor(b, CycleTable(()))(prefix) for prefix in prefixes} == {0}
    assert with_eps >= 20
    assert {n for n, _ in sizes} == set(range(2, 7)) and {k for _, k in sizes} == {1, 2, 3}


@pytest.mark.parametrize(
    "edges", [((2, 2),), ((1, 2), (2, 1)), ((0, 1), (1, 2), (2, 1))],
    ids=["self-loop", "two-cycle", "behind-a-path"],
)
def test_acceptor_rejects_epsilon_cycles(edges):
    """Before any prefix is read, also over no cycles."""
    b = TGba(
        num_states=3,
        initial=0,
        ap=frozenset("a"),
        masks={**dict.fromkeys((Transition(x, EPSILON, y) for x, y in edges), 0),
               Transition(0, A, 0): 1},
        n_sets=1,
    )
    for cycles in ((), ((A,),)):
        with pytest.raises(AutomatonError, match="epsilon transitions form a cycle"):
            lasso_acceptor(b, CycleTable(cycles))


@pytest.mark.parametrize(
    "oracle", [lambda cycles: lasso_acceptor(named_fixture("gfa_gfb_gnc"), CycleTable(cycles)),
               lambda cycles: formula_evaluator(parse_ltl(SPEC_FORMULA), CycleTable(cycles))],
    ids=["acceptor", "evaluator"],
)
def test_oracles_reject_an_empty_cycle(oracle):
    """Tabling the cycles for the oracle raises, before any prefix is read,
    and names the first empty cycle."""
    for cycles, index in ([()], 0), ([(A,), (), (B, A), ()], 1):
        with pytest.raises(ValueError, match=f"^cycle {index} is empty$"):
            oracle(cycles)


def test_acceptor_ignores_propositions_outside_its_ap(fig_automaton):
    """Letters are projected onto the automaton's ap, as build_product
    projects labels: with a proposition z that the fixture does not
    declare, the acceptor agrees with the spec formula on every word, and
    decides each word as it decides the word without z."""
    prefixes, cycles = lasso_parts(("a", "b", "c", "z"), 1, 2)
    accepts = lasso_acceptor(fig_automaton, CycleTable(cycles))
    holds = formula_evaluator(parse_ltl(SPEC_FORMULA), CycleTable(cycles))
    plain = lasso_acceptor(fig_automaton, CycleTable([tuple(x - {"z"} for x in c) for c in cycles]))
    for prefix in prefixes:
        assert accepts(prefix) == holds(prefix) == plain(tuple(x - {"z"} for x in prefix))
    assert any(accepts(prefix) for prefix in prefixes if any("z" in x for x in prefix))
    spec = parse_ltl(SPEC_FORMULA)
    for prefix, verdict in ([{"c", "z"}], False), ([{"z"}], True):
        w = lasso(prefix, [{"a", "z"}, {"b"}])
        assert accepts_lasso(fig_automaton, w) is eval_lasso(spec, w) is verdict
