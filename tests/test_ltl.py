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
    And,
    Atom,
    Eventually,
    Globally,
    Next,
    Not,
    TrueBool,
    Until,
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
        holds = formula_evaluator(phi, cycles)
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
        holds = formula_evaluator(phi, cycles)
        for w in words:
            assert cycle_verdict(holds, cycles, w) == bf_eval(phi, w)


def test_evaluators_keep_their_own_memos():
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
        holds_phi, holds_psi = formula_evaluator(phi, cycles), formula_evaluator(psi, cycles)
        for w in words:
            assert cycle_verdict(holds_phi, cycles, w) == bf_eval(phi, w)
            assert cycle_verdict(holds_psi, cycles, w) == bf_eval(psi, w)


def test_spec_evaluator_on_every_short_lasso():
    prefixes, cycles = lasso_parts(AP3, 1, 2)
    assert len(prefixes) * len(cycles) == 648
    phi = parse_ltl(SPEC)
    holds = formula_evaluator(phi, cycles)
    assert_table_matches(holds, prefixes, cycles, lambda w: bf_eval(phi, w))


def test_evaluator_bits_match_suffix_walk_on_random_formulas():
    """Every bit of the table, for random depth-4 formulas on every lasso
    word with prefix <= 1 and cycle <= 2."""
    rng = np.random.default_rng(14)
    prefixes, cycles = lasso_parts(AP3, 1, 2)
    for _ in range(60):
        phi = random_formula(rng, depth=4)
        holds = formula_evaluator(phi, cycles)
        assert_table_matches(holds, prefixes, cycles, lambda w: bf_eval(phi, w))
