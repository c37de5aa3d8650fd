from functools import reduce

import numpy as np
import pytest

from helpers import (
    AP3,
    assert_table_matches,
    bf_eval,
    cycle_verdict,
    lassos_sharing_cycles,
    letters_over,
    random_formula,
    random_lasso,
)
from omegarl import (
    CycleTable,
    LassoWord,
    ParseError,
    eval_lasso,
    format_ltl,
    formula_evaluator,
    lasso,
    load_formula,
    parse_ltl,
)
from omegarl.ltl import (
    MAX_DEPTH,
    And,
    Atom,
    Eventually,
    FalseBool,
    Globally,
    Implies,
    Next,
    Not,
    Or,
    TrueBool,
    Until,
    _operands,
    _subformulas,
    atoms,
    is_propositional,
)
from omegarl.verify import lasso_parts

SPEC = "G F a & G F b & G !c"


def test_parse_spec_formula_shape():
    phi = parse_ltl(SPEC)
    gfa = Globally(Eventually(Atom("a")))
    gfb = Globally(Eventually(Atom("b")))
    gnc = Globally(Not(Atom("c")))
    assert phi == And(And(gfa, gfb), gnc)


def test_parse_constants():
    assert parse_ltl("true") == TrueBool()
    assert parse_ltl("  true  ") == TrueBool()


def test_until_is_right_associative():
    nested = Until(Atom("a"), Until(Atom("b"), Atom("c")))
    assert parse_ltl("a U (b U c)") == nested
    assert parse_ltl("a U b U c") == nested


def test_unary_binds_tighter_than_until():
    assert parse_ltl("X a U b") == Until(Next(Atom("a")), Atom("b"))
    assert parse_ltl("! a U b") == Until(Not(Atom("a")), Atom("b"))


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_ltl("a & )")
    assert err.value.pos == 4


def test_parse_unknown_operator():
    with pytest.raises(ParseError, match="unknown operator"):
        parse_ltl("a R b")
    with pytest.raises(ParseError, match="unexpected character"):
        parse_ltl("a $ b")


@pytest.mark.parametrize(
    "text,message,pos",
    [
        ("", "unexpected end of input", 0),
        ("a U", "unexpected end of input", 3),
        ("(a", "expected ')'", 2),
        ("(a b", "expected ')'", 3),
        ("a & )", "unexpected ')'", 4),
        ("a b", "unexpected 'b'", 2),
        ("a R b", "unknown operator 'R'", 2),
        ("a - b", "unexpected character '-'", 2),
    ],
)
def test_parse_error_message_and_position(text, message, pos):
    with pytest.raises(ParseError) as err:
        parse_ltl(text)
    assert (str(err.value), err.value.pos) == (f"{message} (at position {pos})", pos)


@pytest.mark.parametrize(
    "text,pos", [("a²", 1), ("b٣", 1), ("É", 0)], ids=["superscript", "arabic-digit", "capital"]
)
def test_atoms_and_operators_are_ascii(text, pos):
    """Atoms match ``[a-z][a-z0-9_]*``: a non-ASCII digit does not continue
    one, and a non-ASCII capital is no operator."""
    with pytest.raises(ParseError) as err:
        parse_ltl(text)
    assert (str(err.value), err.value.pos) == (
        f"unexpected character {text[pos]!r} (at position {pos})", pos)


@pytest.mark.parametrize(
    "text,pos",
    [("!" * 1000 + "a", MAX_DEPTH), ("(" * 1000 + "a" + ")" * 1000, MAX_DEPTH),
     ("(" * 500 + "a" + ")" * 500, MAX_DEPTH), (" & ".join(["a"] * 1000), 4 * MAX_DEPTH - 2)],
    ids=["not-1000", "parentheses-1000", "parentheses-500", "and-chain-1000"],
)
def test_parse_rejects_formulas_nested_past_the_cap(text, pos):
    """Deep nesting is a ParseError at the first token past the cap, not a
    RecursionError; a left-grouping chain is deep on its left side and
    fails at the operator that takes it past the cap."""
    with pytest.raises(ParseError) as err:
        parse_ltl(text)
    assert (str(err.value), err.value.pos) == (
        f"formula nested more than {MAX_DEPTH} deep (at position {pos})", pos)


@pytest.mark.parametrize(
    "nest,same",
    [(lambda k: "!" * (k - 1) + "a", "a" if MAX_DEPTH % 2 else "!a"),
     (lambda k: "(" * (k - 1) + "a" + ")" * (k - 1), "a"),
     (lambda k: " & ".join(["a"] * k), "a"),
     (lambda k: " -> ".join(["a"] * k), "true")],
    ids=["not", "parentheses", "and-chain", "implies-chain"],
)
def test_formulas_at_the_nesting_cap_parse_walk_evaluate_and_print(nest, same):
    """A formula exactly MAX_DEPTH deep parses, and the recursive evaluator
    and printer and the walks handle it; one level more does not parse."""
    phi = parse_ltl(nest(MAX_DEPTH))
    cycles = [(frozenset("a"),), (frozenset(),)]
    assert formula_evaluator(phi, CycleTable(cycles))(()) == formula_evaluator(parse_ltl(same), CycleTable(cycles))(())
    assert (atoms(phi), is_propositional(phi)) == (frozenset("a"), True)
    assert parse_ltl(format_ltl(phi)) == phi
    with pytest.raises(ParseError, match=f"^formula nested more than {MAX_DEPTH} deep"):
        parse_ltl(nest(MAX_DEPTH + 1))


@pytest.mark.parametrize(
    "build",
    [lambda k: reduce(And, [Atom("a")] * k),
     lambda k: reduce(lambda f, _: Not(f), range(k - 1), Atom("a")),
     lambda k: reduce(lambda f, _: Until(Atom("a"), f), range(k - 1), Atom("a"))],
    ids=["and-chain", "not", "until-right"],
)
def test_nodes_built_past_the_cap_raise(build):
    """A tree built in code is held to the parser's cap, without a
    RecursionError: one level past MAX_DEPTH raises ValueError when the node
    is made, and a tree exactly MAX_DEPTH deep builds, prints, hashes,
    compares and evaluates."""
    for k in (MAX_DEPTH + 1, 2000):
        with pytest.raises(ValueError, match=f"^formula nested more than {MAX_DEPTH} deep$"):
            build(k)
    phi = build(MAX_DEPTH)
    assert phi.depth == MAX_DEPTH and (Atom("a").depth, Not(Atom("a")).depth) == (1, 2)
    again = parse_ltl(format_ltl(phi))
    assert again == phi and hash(again) == hash(phi) and again is not phi
    cycles = [(frozenset("a"),), (frozenset(),), (frozenset(), frozenset("a"))]
    w = LassoWord((), cycles[2])
    assert formula_evaluator(phi, CycleTable(cycles))(()) >> 2 & 1 == bf_eval(phi, w) == eval_lasso(phi, w)


# symbol: (class, precedence, groups right), tightest binding first
BINARY = {"U": (Until, 3, True), "&": (And, 2, False), "|": (Or, 1, False),
          "->": (Implies, 0, True)}
UNARY = {"!": Not, "X": Next, "F": Eventually, "G": Globally}
a, b, c = Atom("a"), Atom("b"), Atom("c")


@pytest.mark.parametrize("op1", BINARY)
@pytest.mark.parametrize("op2", BINARY)
def test_binary_pairs_group_by_precedence(op1, op2):
    """``a op1 b op2 c`` groups as the precedence table says, and each of its
    two groupings prints with parentheses only where the bare text would
    group the other way."""
    (cls1, prec1, right1), (cls2, prec2, _) = BINARY[op1], BINARY[op2]
    bare = f"a {op1} b {op2} c"
    left_first = cls2(cls1(a, b), c)
    right_first = cls1(a, cls2(b, c))
    first_binds_tighter = prec1 > prec2 or (prec1 == prec2 and not right1)
    assert parse_ltl(bare) == (left_first if first_binds_tighter else right_first)
    for phi, wrapped in ((left_first, f"(a {op1} b) {op2} c"),
                         (right_first, f"a {op1} (b {op2} c)")):
        text = format_ltl(phi)
        assert text == (bare if parse_ltl(bare) == phi else wrapped)
        assert parse_ltl(text) == phi


@pytest.mark.parametrize("op", BINARY)
@pytest.mark.parametrize("un", UNARY)
def test_unary_binds_tighter_than_every_binary(un, op):
    cls, binary = UNARY[un], BINARY[op][0]
    gap = "" if un == "!" else " "
    assert parse_ltl(f"{un} a {op} b") == binary(cls(a), b)
    assert parse_ltl(f"a {op} {un} b") == binary(a, cls(b))
    for phi, text in ((binary(cls(a), b), f"{un}{gap}a {op} b"),
                      (cls(binary(a, b)), f"{un}{gap}(a {op} b)"),
                      (binary(a, cls(b)), f"a {op} {un}{gap}b")):
        assert format_ltl(phi) == text
        assert parse_ltl(text) == phi


def test_parse_unbalanced_and_trailing():
    with pytest.raises(ParseError):
        parse_ltl("(a & b")
    with pytest.raises(ParseError):
        parse_ltl("a b")
    with pytest.raises(ParseError):
        parse_ltl("")


def test_format_examples():
    assert format_ltl(parse_ltl(SPEC)) == "G F a & G F b & G !c"
    assert format_ltl(parse_ltl("a U (b U c)")) == "a U b U c"
    assert format_ltl(parse_ltl("(a U b) U c")) == "(a U b) U c"
    assert format_ltl(parse_ltl("!(a & b)")) == "!(a & b)"
    assert format_ltl(parse_ltl("a & (b & c)")) == "a & (b & c)"


def test_roundtrip_random_formulas():
    rng = np.random.default_rng(11)
    for _ in range(400):
        phi = random_formula(rng, depth=4)
        assert parse_ltl(format_ltl(phi)) == phi


def test_load_formula_with_comments(tmp_path):
    path = tmp_path / "spec.ltl"
    path.write_text("# the steady alternation property\nG F a &  # visit a\n G F b & G !c\n")
    assert load_formula(path) == parse_ltl(SPEC)


def test_subformulas_walk_every_occurrence_breadth_first():
    phi = parse_ltl("a U !b & a")
    assert _subformulas(phi) == [phi, Until(a, Not(b)), a, a, Not(b), b]
    rng = np.random.default_rng(15)
    boolean = (TrueBool, FalseBool, Atom, Not, And, Or, Implies)
    for _ in range(200):
        phi = random_formula(rng, depth=4)
        subs = _subformulas(phi)
        assert len(subs) == 1 + sum(len(_operands(f)) for f in subs)
        assert atoms(phi) == {f.name for f in subs if isinstance(f, Atom)}
        assert is_propositional(phi) == all(isinstance(f, boolean) for f in subs)


def test_lasso_requires_nonempty_cycle():
    with pytest.raises(ValueError):
        LassoWord((), ())


def test_eval_spec_formula_basic_words():
    phi = parse_ltl(SPEC)
    assert eval_lasso(phi, lasso([], [{"a"}, {"b"}])) is True
    assert eval_lasso(phi, lasso([], [{"a"}])) is False
    assert eval_lasso(phi, lasso([{"c"}], [{"a"}, {"b"}])) is False


def test_eval_until_with_prefix():
    phi = parse_ltl("a U b")
    w = lasso([{"a"}, {"a"}, {"b"}], [set()])
    # independent check: scan the four distinct suffixes directly
    assert bf_eval(phi, w) is True
    assert eval_lasso(phi, w) is True


def test_eval_matches_suffix_walk_oracle():
    rng = np.random.default_rng(5)
    for _ in range(600):
        phi = random_formula(rng, depth=4)
        w = random_lasso(rng)
        assert eval_lasso(phi, w) == bf_eval(phi, w)


def test_cycle_absorption_does_not_change_answers():
    rng = np.random.default_rng(6)
    for _ in range(250):
        phi = random_formula(rng, depth=4)
        w = random_lasso(rng)
        for k in (1, 2):
            absorbed = LassoWord(w.prefix + w.cycle * k, w.cycle)
            assert eval_lasso(phi, absorbed) == eval_lasso(phi, w)


def test_derived_operator_identities():
    rng = np.random.default_rng(7)
    for _ in range(250):
        inner = random_formula(rng, depth=3)
        w = random_lasso(rng)
        assert eval_lasso(Eventually(inner), w) == eval_lasso(Until(TrueBool(), inner), w)
        assert eval_lasso(Globally(inner), w) == eval_lasso(Not(Eventually(Not(inner))), w)


def test_de_morgan():
    rng = np.random.default_rng(8)
    for _ in range(250):
        left = random_formula(rng, depth=3)
        right = random_formula(rng, depth=3)
        w = random_lasso(rng)
        lhs = Not(And(left, right))
        rhs = parse_ltl(f"!({format_ltl(left)}) | !({format_ltl(right)})")
        assert eval_lasso(lhs, w) == eval_lasso(rhs, w)


def test_reused_evaluator_matches_suffix_walk_oracle():
    """One evaluator per formula over the cycles of words that share cycles
    and differ in prefixes of up to four letters."""
    rng = np.random.default_rng(9)
    for _ in range(60):
        phi = random_formula(rng, depth=4)
        words = lassos_sharing_cycles(rng, n_cycles=3, per_cycle=5)
        cycles = list(dict.fromkeys(w.cycle for w in words))
        holds = formula_evaluator(phi, CycleTable(cycles))
        for w in words:
            assert cycle_verdict(holds, cycles, w) == bf_eval(phi, w)


def test_evaluator_on_rotated_and_repeated_cycles():
    """Cycles that are rotations or powers of one another, such as (a, b),
    (b, a) and (a, b, a, b), have the same length or the same letters but
    may have different entry values; one evaluator per formula, built over
    all of them, decides them behind prefixes of 0-4 letters."""
    rng = np.random.default_rng(12)
    letters = letters_over(AP3)

    def draw(length):
        return tuple(letters[rng.integers(len(letters))] for _ in range(length))

    words = []
    for _ in range(3):
        base = draw(rng.integers(2, 4))
        family = {base[k:] + base[:k] for k in range(len(base))}
        family |= {c * 2 for c in family}
        for cycle in family:
            words.extend(LassoWord(draw(rng.integers(5)), cycle) for _ in range(3))
    words = [words[i] for i in rng.permutation(len(words))]
    cycles = list(dict.fromkeys(w.cycle for w in words))
    for _ in range(60):
        phi = random_formula(rng, depth=4)
        holds = formula_evaluator(phi, CycleTable(cycles))
        for w in words:
            assert cycle_verdict(holds, cycles, w) == bf_eval(phi, w)


def test_evaluators_built_back_to_back_give_their_own_verdicts():
    """Two evaluators built back to back over the same cycles and run on the
    same prefixes each give their own formula's verdicts."""
    rng = np.random.default_rng(13)
    words = lassos_sharing_cycles(rng, n_cycles=4, per_cycle=5)
    cycles = list(dict.fromkeys(w.cycle for w in words))
    spec = parse_ltl(SPEC)
    pairs = [(spec, Not(spec))] + [
        (random_formula(rng, depth=4), random_formula(rng, depth=4)) for _ in range(40)
    ]
    for phi, psi in pairs:
        holds_phi, holds_psi = formula_evaluator(phi, CycleTable(cycles)), formula_evaluator(psi, CycleTable(cycles))
        for w in words:
            assert cycle_verdict(holds_phi, cycles, w) == bf_eval(phi, w)
            assert cycle_verdict(holds_psi, cycles, w) == bf_eval(psi, w)


def test_spec_evaluator_on_every_short_lasso():
    prefixes, cycles = lasso_parts(AP3, 1, 2)
    assert len(prefixes) * len(cycles) == 648
    phi = parse_ltl(SPEC)
    holds = formula_evaluator(phi, CycleTable(cycles))
    assert_table_matches(holds, prefixes, cycles, lambda w: bf_eval(phi, w))


def test_evaluator_bits_match_suffix_walk_at_the_battery_bounds():
    """Every bit of the table on the 42,632 words of the verify battery,
    prefix <= 2 and cycle <= 3, for the spec formula and ten random depth-4
    formulas that have a temporal operator."""
    rng = np.random.default_rng(19)
    prefixes, cycles = lasso_parts(AP3, 2, 3)
    assert (len(prefixes), len(cycles)) == (73, 584)
    words = [[LassoWord(prefix, cycle) for cycle in cycles] for prefix in prefixes]
    phis = [parse_ltl(SPEC)]
    while len(phis) < 11:
        phi = random_formula(rng, depth=4)
        if not is_propositional(phi):
            phis.append(phi)
    for phi in phis:
        holds = formula_evaluator(phi, CycleTable(cycles))
        for prefix, row in zip(prefixes, words):  # every bit, and none beyond the cycles
            assert holds(prefix) == sum(bf_eval(phi, w) << j for j, w in enumerate(row)), prefix


def test_evaluator_bits_match_suffix_walk_on_random_formulas():
    """Every bit of the table, for random depth-4 formulas on every lasso
    word with prefix <= 1 and cycle <= 2."""
    rng = np.random.default_rng(14)
    prefixes, cycles = lasso_parts(AP3, 1, 2)
    for _ in range(60):
        phi = random_formula(rng, depth=4)
        holds = formula_evaluator(phi, CycleTable(cycles))
        assert_table_matches(holds, prefixes, cycles, lambda w: bf_eval(phi, w))
