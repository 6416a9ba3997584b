"""Hypothesis properties of the text formats: round trips and fuzzed input.

The examples are derandomized so that every run of the suite checks the
same inputs.
"""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from dlts_bisim import (
    Dfa,
    LtsParseError,
    NondeterminismError,
    RawLts,
    format_dfa,
    format_dlts,
    normalize,
    parse_dfa,
    parse_lts,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)

# Valid names: non-empty, no whitespace, no `#`; a state name may not end in `:`.
_name_char = st.characters(exclude_categories=("Cs",)).filter(
    lambda c: not c.isspace() and c != "#"
)
_letter_name = st.text(_name_char, min_size=1, max_size=4)
_state_name = _letter_name.filter(lambda name: not name.endswith(":"))


@st.composite
def systems(draw):
    states = draw(st.lists(_state_name, max_size=6, unique=True))
    letters = draw(st.lists(_letter_name, max_size=4, unique=True))
    transitions = []
    for src in states:
        for letter in letters:
            dst = draw(st.none() | st.sampled_from(states))
            if dst is not None:
                transitions.append((src, letter, dst))
    order = draw(st.permutations(range(len(transitions))))
    return normalize(RawLts(states, letters, [transitions[i] for i in order]))


@st.composite
def automata(draw):
    T = draw(systems())
    if T.n == 0:
        return Dfa(T, None, set())
    initial = draw(st.integers(0, T.n - 1))
    finals = draw(st.sets(st.integers(0, T.n - 1)))
    return Dfa(T, initial, finals)


@PROPERTY
@given(systems())
def test_dlts_round_trip(T):
    assert normalize(parse_lts(format_dlts(T))) == T


@PROPERTY
@given(automata())
def test_dfa_round_trip(dfa):
    again = parse_dfa(format_dfa(dfa))
    assert again.dlts == dfa.dlts
    assert again.initial == dfa.initial
    assert again.finals == dfa.finals


_HEADERS = ["states:", "letters:", "initial:", "finals:", "bogus:"]
_NAMES = ["a", "b", "q0", "x:", "0", "1", "2", "17", "\u00b2", "\u0663", "a#b"]
_SPACES = [" ", "  ", "\t", "\u00a0", "\u2003", "\u3000"]
_BREAKS = ["\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\r\n"]  # whitespace that ends a line


def _joined(words, min_size, max_size, spaces=_SPACES):
    parts = st.lists(st.tuples(st.sampled_from(words), st.sampled_from(spaces)),
                     min_size=min_size, max_size=max_size)
    return parts.map(lambda parts: "".join(word + space for word, space in parts))


_free_line = _joined(["dlts", "dfa", "#"] + _HEADERS + _NAMES, 0, 6, _SPACES + _BREAKS + [""])
_header_line = st.tuples(st.sampled_from(_HEADERS), _joined(_NAMES, 0, 4)).map(" ".join)
_transition_line = _joined(["0", "1", "2", "a", "b"], 3, 3)  # few names: repeats and forks


@st.composite
def fuzzed_texts(draw):
    # The state count stays small: a large `dlts <count>` header still makes
    # the parser build `count` default names, whatever the input's length.
    kind = draw(st.sampled_from(["dlts", "dfa"]))
    count = draw(st.integers(0, 64))
    body = draw(st.lists(_transition_line, max_size=8))
    extras = draw(st.lists(_header_line, max_size=2)) + draw(st.lists(_free_line, max_size=1))
    if kind == "dfa" and draw(st.booleans()):
        extras.append("initial: 0")
    for line in extras:
        body.insert(draw(st.integers(0, len(body))), line)
    return kind, "\n".join([f"{kind} {count}"] + body) + "\n"


def _assert_points_at_token(text, error):
    """A column must point at the start of a token outside comments, and the
    token there is either the one the message quotes or the first on its line."""
    if error.column is None:
        return
    line = text.splitlines()[error.line - 1].split("#", 1)[0]
    i = error.column - 1
    assert 0 <= i < len(line) and not line[i].isspace(), error
    assert i == 0 or line[i - 1].isspace(), error
    token = line[i:].split(maxsplit=1)[0]
    quoted = re.search(r"(state|letter|header|name|got) ['\"]", str(error))
    if quoted:
        assert repr(token) in str(error), error
    else:
        assert i == len(line) - len(line.lstrip()), error


@settings(PROPERTY, max_examples=300)
@given(fuzzed_texts())
def test_fuzzed_text_parses_or_raises_a_located_error(case):
    """Any fuzzed body either parses or raises LtsParseError (or, for a dfa,
    NondeterminismError), and a reported column points at the offending token.

    The header count is capped at 64: a hostile header such as
    `dlts 30000000` still allocates memory out of proportion to the input,
    which this property does not cover.
    """
    kind, text = case
    try:
        if kind == "dlts":
            parse_lts(text)
        else:
            parse_dfa(text)
    except NondeterminismError:
        assert kind == "dfa"
    except LtsParseError as error:
        _assert_points_at_token(text, error)
