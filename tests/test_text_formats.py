"""Tests of the two text parsers: the rules they share, and properties on
mutated canonical texts.

A mutated text either parses or raises the parser's own error, which names
its line unless a header is missing; when it parses, its canonical text
reads back as the same canonical text.  The examples are derandomized, so
every run checks the same texts.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegarl import (
    AutomatonError,
    MdpError,
    named_fixture,
    parse_automaton,
    parse_mdp,
    serialize_automaton,
    serialize_mdp,
)
from omegarl.mdp import ENVIRONMENTS
from test_golden import slip_mdp_text

AUTOMATON_TEXTS = [serialize_automaton(named_fixture(name)) for name in ("gfa_gfb_gnc", "fg_a")]
MDP_TEXTS = [serialize_mdp(ENVIRONMENTS["grid9"]()), serialize_mdp(parse_mdp(slip_mdp_text()))]

# pieces of both grammars and near misses; none holds more than one digit,
# so a mutated header declares few enough states to build
PIECES = (
    "a", "b", "c", "d", "A", "X", "U", "F", "G", "eps", "true", "false", "acc:", "ap:",
    "states:", "initial:", "acceptance-sets:", "prob", "label", "up", "0", "1", "7", "-",
    ".5", "e", "nan", "inf", "_", "{", "}", "{a}", ",", ":", "#", "!", "&", "|", "->",
    "(", ")", " ", "\n", "\t", "é",
)
EDITS = ("insert", "delete", "token", "append", "duplicate", "drop", "move")


@st.composite
def mutated(draw, texts):
    """One of ``texts`` after one to four edits, each to one line: a piece
    inserted, appended as a new token or put in place of a token, a span
    deleted, or the line duplicated, dropped or moved."""
    lines = draw(st.sampled_from(texts)).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            break
        k = draw(st.integers(0, len(lines) - 1))
        line, edit = lines[k], draw(st.sampled_from(EDITS))
        if edit == "insert":
            i = draw(st.integers(0, len(line)))
            lines[k] = line[:i] + draw(st.sampled_from(PIECES)) + line[i:]
        elif edit == "delete":
            i = draw(st.integers(0, len(line)))
            lines[k] = line[:i] + line[i + draw(st.integers(1, 8)):]
        elif edit == "token":
            parts = re.split(r"(\s+)", line)
            parts[draw(st.integers(0, len(parts) - 1))] = draw(st.sampled_from(PIECES))
            lines[k] = "".join(parts)
        elif edit == "append":
            lines[k] = f"{line} {draw(st.sampled_from(PIECES))}"
        else:
            del lines[k]
            if edit != "drop":
                lines.insert(draw(st.integers(0, len(lines))), line)
            if edit == "duplicate":
                lines.insert(draw(st.integers(0, len(lines))), line)
    return "\n".join(lines) + "\n"


FUZZ = settings(max_examples=300, derandomize=True, database=None, deadline=None)
LOCATED = re.compile(r"line \d+: |missing header '[^']*'$")

# one small text per format, with the same three header lines first
SHARED = {
    "mdp": (parse_mdp, MdpError, "states: 2\ninitial: 0\nap: a\nprob 0 go 1 1.0\nprob 1 go 1 1.0\n"),
    "tgba": (parse_automaton, AutomatonError,
             "states: 2\ninitial: 0\nap: a\nacceptance-sets: 1\n0 a 1 acc: 1\n1 true 1\n"),
}


@pytest.mark.parametrize("fmt", sorted(SHARED))
@pytest.mark.parametrize(
    "old,new,match",
    [
        ("states: 2", "states: 2  # two states", None),
        ("states: 2", "states : 2", None),
        ("ap: a\n", "ap: a\ninitial: 1\n", "^line 4: duplicate header 'initial'$"),
        ("initial: 0\n", "", "^missing header 'initial'$"),
        ("states: 2", "states: two", "^line 1: bad states value 'two'$"),
    ],
    ids=["mid-line-comment", "spaced-colon", "duplicate-header", "missing-header", "bad-int"],
)
def test_both_formats_share_comment_and_header_rules(fmt, old, new, match):
    parse, error, text = SHARED[fmt]
    if match is None:
        assert parse(text.replace(old, new, 1)) == parse(text)
    else:
        with pytest.raises(error, match=match):
            parse(text.replace(old, new, 1))


@pytest.mark.parametrize("text", AUTOMATON_TEXTS + MDP_TEXTS)
def test_serialize_parse_is_identity_on_canonical_text(text):
    if text in AUTOMATON_TEXTS:
        assert serialize_automaton(parse_automaton(text)) == text
    else:
        assert serialize_mdp(parse_mdp(text)) == text


@FUZZ
@given(mutated(AUTOMATON_TEXTS))
def test_mutated_automaton_text_parses_or_raises(text):
    try:
        b = parse_automaton(text)
    except AutomatonError as exc:
        assert LOCATED.match(str(exc)), exc
        return
    canonical = serialize_automaton(b)
    assert serialize_automaton(parse_automaton(canonical)) == canonical


@FUZZ
@given(mutated(MDP_TEXTS))
def test_mutated_mdp_text_parses_or_raises(text):
    try:
        m = parse_mdp(text)
    except MdpError as exc:
        assert LOCATED.match(str(exc)), exc
        return
    canonical = serialize_mdp(m)
    assert serialize_mdp(parse_mdp(canonical)) == canonical
