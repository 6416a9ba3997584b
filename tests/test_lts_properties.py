"""Hypothesis properties of the text formats: round trips and fuzzed input.

The examples are derandomized so that every run of the suite checks the
same inputs.
"""

import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dlts_bisim.lts
from dlts_bisim import (
    Dfa,
    LtsError,
    LtsParseError,
    NondeterminismError,
    RawLts,
    format_dfa,
    format_dlts,
    normalize,
    parse_dfa,
    parse_lts,
)

from _canon import normalize_outcome, read_dlts

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
    assert parse_lts(format_dlts(T)) == T


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


def _once_in(draw, times):
    return draw(st.integers(0, times - 1)) == 1  # not an end point, which Hypothesis favours


@st.composite
def _transition_line(draw, count):
    """`<src> <letter> <dst>` over the first four default names and two letters, so that
    repeats and forks are common; one token in 30 is drawn from `_NAMES` instead."""
    def token(names):
        return draw(st.sampled_from(_NAMES if _once_in(draw, 30) or not names else names))

    states = [str(q) for q in range(min(count, 4))]
    tokens = [token(states), token(["a", "b"]), token(states)]
    return "".join(name + draw(st.sampled_from(_SPACES)) for name in tokens)


@st.composite
def fuzzed_texts(draw):
    """A `dlts` or `dfa` text whose transition lines mostly name declared states and
    letters: many parse, fork, or fail on names or repeats only.  Header lines with
    random names and free lines of any tokens, which mostly break the syntax, come in
    one text out of six each."""
    # The state count stays small: a large `dlts <count>` header still makes
    # the parser build `count` default names, whatever the input's length.
    kind = draw(st.sampled_from(["dlts", "dfa"]))
    count = draw(st.integers(0, 64))
    body = draw(st.lists(_transition_line(count), max_size=8))
    extras = []
    if _once_in(draw, 6):
        extras += draw(st.lists(_header_line, min_size=1, max_size=2))
    if _once_in(draw, 6):
        extras.append(draw(_free_line))
    if draw(st.booleans()):
        extras.append(draw(st.sampled_from(["letters: a b", "letters: b a", "letters: a"])))
    if kind == "dfa":
        if not _once_in(draw, 10):
            extras.append("initial: 0")
        if draw(st.booleans()):
            extras.append("finals: " + " ".join(map(str, range(min(count, 2)))))
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
    """Any fuzzed body either parses or raises LtsParseError or
    NondeterminismError, and a reported column points at the offending token.
    A parsed dfa's transitions are what `normalize` makes of the plain reading
    of the same text as a dlts.

    The header count is capped at 64: a hostile header such as
    `dlts 30000000` still allocates memory out of proportion to the input,
    which this property does not cover.
    """
    kind, text = case
    try:
        if kind == "dlts":
            parse_lts(text)
        else:
            dfa = parse_dfa(text)
            assert dfa.dlts == normalize(read_dlts(_as_dlts(text)))
    except NondeterminismError:
        pass
    except LtsParseError as error:
        _assert_points_at_token(text, error)


def _as_dlts(text):
    """A dfa text with its `dfa` header word made `dlts` and its `initial:`
    and `finals:` lines dropped."""
    lines = ("dlts" + text[len("dfa"):]).splitlines()
    heads = [line.partition("#")[0].split()[:1] for line in lines]
    return "\n".join(line for line, head in zip(lines, heads)
                     if head not in (["initial:"], ["finals:"]))


@st.composite
def dfa_texts(draw):
    """Dfa texts over default or declared names, with and without `letters:`,
    whose transitions are mostly deterministic: one in two has a fork or a
    repeated line, and headers, comments and blank lines fall anywhere.  One in
    three with a `states:` or `letters:` line has a transition before it whose
    name that line lacks."""
    count = draw(st.integers(1, 3))
    named = draw(st.booleans())
    states = ["p", "q:r", "s"][:count] if named else [str(i) for i in range(count)]
    letters = draw(st.permutations(["x", "y", "z:"]))[: draw(st.integers(1, 3))]
    pairs = draw(st.lists(st.tuples(st.sampled_from(states), st.sampled_from(letters)),
                          unique=True, max_size=6))
    body = [f"{s} {a} {draw(st.sampled_from(states))}" for s, a in pairs]
    if pairs and draw(st.booleans()):
        s, a = draw(st.sampled_from(pairs))
        body.append(f"{s}  {a}\t{draw(st.sampled_from(states))}  # again")
    body = draw(st.permutations(body))
    finals = draw(st.lists(st.sampled_from(states), unique=True, max_size=count))
    extras = [f"initial: {draw(st.sampled_from(states))}", "finals: " + " ".join(finals),
              "# comment", ""]
    if named:
        extras.append("states: " + " ".join(states))
    if draw(st.booleans()):
        extras.append("letters: " + " ".join(letters))
    for line in extras:
        body.insert(draw(st.integers(0, len(body))), line)
    headers = [line for line in body if line.startswith(("states:", "letters:"))]
    if headers and _once_in(draw, 3):
        header = draw(st.sampled_from(headers))
        s, a = states[0], letters[0]
        strays = [f"t {a} {s}", f"{s} {a} t"] if header.startswith("states:") else [f"{s} w {s}"]
        stray = draw(st.sampled_from(strays))
        body.insert(draw(st.integers(0, body.index(header))), stray)
    return "\n".join([f"dfa {count}"] + body) + "\n"


@PROPERTY
@given(dfa_texts())
def test_parsed_dfa_encodes_as_normalize_does(text):
    """`parse_dfa` encodes without `normalize`; `normalize` of the plain reading is its
    reference."""
    try:
        want = normalize(read_dlts(_as_dlts(text)))
    except NondeterminismError as error:
        with pytest.raises(NondeterminismError) as info:
            parse_dfa(text)
        assert info.value.violations == error.violations
    except LtsError as error:
        with pytest.raises(LtsParseError) as info:
            parse_dfa(text)
        assert str(error).startswith(("duplicate transition", "undeclared "))
        assert str(error).startswith(str(info.value).split(": ", 1)[1])
    else:
        assert parse_dfa(text).dlts == want


# ---------------------------------------------------------------------------
# Error contract: the first defect in input order decides the error.

_RULE_TEXT = {
    "token": "is empty or has whitespace or `#`",
    "colon": "ends in `:`",
}


def _broken_rule(name, what):
    """The `_RULE_TEXT` key of the rule that `name` breaks, or None."""
    if not name or any(c.isspace() or c == "#" for c in name):
        return "token"
    return "colon" if what == "state" and name.endswith(":") else None


def _normalize_outcome(raw):
    """What `normalize(raw)` must raise, as (type, message or violations), or None.

    Names are checked first, states before letters, each list in order.
    Then the transitions, in order: undeclared names and repeated triples
    raise at once; a fork is recorded and the scan goes on, so its
    NondeterminismError comes only when no transition is wrong otherwise.
    """
    for what, names in (("state", raw.states), ("letter", raw.letters)):
        seen = set()
        for name in names:
            rule = _broken_rule(name, what)
            if rule is not None:
                return LtsError, f"{what} name {name!r} {_RULE_TEXT[rule]}"
            if name in seen:
                return LtsError, f"duplicate {what} name {name!r}"
            seen.add(name)
    target = {}
    forked = set()  # later triples of a forked (state, letter) pair
    violations = []
    for src, letter, dst in raw.transitions:
        where = f"in transition {src} {letter} {dst}"
        if src not in raw.states:
            return LtsError, f"undeclared state {src!r} {where}"
        if dst not in raw.states:
            return LtsError, f"undeclared state {dst!r} {where}"
        if letter not in raw.letters:
            return LtsError, f"undeclared letter {letter!r} {where}"
        pair = (src, letter)
        if pair not in target:
            target[pair] = dst
        elif target[pair] == dst or (src, letter, dst) in forked:
            return LtsError, f"duplicate transition {src} {letter} {dst}"
        else:
            forked.add((src, letter, dst))
            if pair not in violations:
                violations.append(pair)
    if violations:
        return NondeterminismError, violations
    return None


@st.composite
def defective_systems(draw):
    """Systems with one to three extra transitions on pairs that already have
    one, which makes repeats and forks; in one example out of six each, a
    bad or repeated name is declared or an undeclared one used."""
    states = draw(st.lists(st.sampled_from(["p", "q", "r", "s"]), unique=True, max_size=4))
    letters = draw(st.lists(st.sampled_from(["x", "y", "z"]), unique=True, max_size=3))
    for names, extra in ((states, ["", "q r", "s#", "t:", "p"]), (letters, ["", "x y", "#", "x"])):
        if _once_in(draw, 6):
            names.insert(draw(st.integers(0, len(names))), draw(st.sampled_from(extra)))
    used_states = states + ["u"] if _once_in(draw, 6) or not states else states
    used_letters = letters + ["w"] if _once_in(draw, 6) or not letters else letters
    pair = st.tuples(st.sampled_from(used_states), st.sampled_from(used_letters))
    transitions = [(s, a, draw(st.sampled_from(used_states)))
                   for s, a in draw(st.lists(pair, unique=True, max_size=6))]
    for _ in range(draw(st.integers(1, 3)) if transitions else 0):
        s, a, _d = draw(st.sampled_from(transitions))  # a repeat or a fork of this pair
        transitions.insert(draw(st.integers(0, len(transitions))),
                           (s, a, draw(st.sampled_from(used_states))))
    return RawLts(states, letters, transitions)


@settings(PROPERTY, max_examples=400)
@given(defective_systems())
def test_normalize_raises_the_first_error_in_input_order(raw):
    want = _normalize_outcome(raw)
    try:
        T = normalize(raw)
    except NondeterminismError as error:
        assert want == (NondeterminismError, error.violations)
    except LtsError as error:
        assert want == (LtsError, str(error))
    else:
        assert want is None
        names = T.state_names
        named = {(names[s], T.letter_names[a], names[d]) for s, a, d in T.triples()}
        assert named == set(raw.transitions) and T.m == len(raw.transitions)


@st.composite
def declared_names(draw):
    """A `dlts` text whose only lines are its `states:` and `letters:` headers,
    in either order, with the lists they declare; the lists sometimes repeat
    a name or hold a state name ending in `:`.  Returns (text, states,
    letters, the line and token columns of each header)."""
    states = draw(st.lists(st.sampled_from(["a", "b", "q0", "b:", "states:"]), max_size=4))
    letters = draw(st.lists(st.sampled_from(["x", "y", "z", "x:"]), max_size=3))
    words = ["states:"] + (["letters:"] if letters or draw(st.booleans()) else [])
    lines = [f"dlts {len(states)}"] + draw(st.lists(st.sampled_from(["", "# note"]), max_size=1))
    at = {}
    for word in draw(st.permutations(words)):
        line, columns = word, []
        for name in states if word == "states:" else letters:
            line += draw(st.sampled_from(_SPACES))
            columns.append(len(line) + 1)
            line += name
        lines.append(line + draw(st.sampled_from(["", " ", "  # end"])))
        at[word] = (len(lines), columns)
    return "\n".join(lines) + "\n", states, letters, at


@settings(PROPERTY, max_examples=300)
@given(declared_names())
def test_parser_and_normalize_judge_declared_names_alike(case):
    """A bad or repeated declared name makes `parse_lts` raise at its header
    line and column with exactly the message `normalize` gives for the same
    lists; without one, both accept."""
    text, states, letters, at = case
    try:
        want = normalize(RawLts(states, letters, []))
    except LtsError as error:
        assert type(error) is LtsError
        lists = (("states:", "state", states), ("letters:", "letter", letters))
        word, i = next((word, i) for word, what, names in lists for i, name in enumerate(names)
                       if _broken_rule(name, what) or name in names[:i])
        lineno, columns = at[word]
        with pytest.raises(LtsParseError) as info:
            parse_lts(text)
        assert (info.value.line, info.value.column) == (lineno, columns[i])
        assert str(info.value) == f"line {lineno}, column {columns[i]}: {error}"
    else:
        assert parse_lts(text) == want


def _first_defective_transition_line(text):
    """The first transition line an undeclared name or a repeated triple makes
    defective, or None; for a text whose header lines parse."""
    rows = [line.split("#", 1)[0].split() for line in text.splitlines()]
    header = next(i for i, row in enumerate(rows) if row)
    count = int(rows[header][1])
    headers = {row[0]: row[1:] for row in rows[header + 1 :] if row and row[0].endswith(":")}
    states = set(headers.get("states:", [str(i) for i in range(count)]))
    letters = set(headers["letters:"]) if "letters:" in headers else None
    seen = set()
    for lineno, row in enumerate(rows[header + 1 :], start=header + 2):
        if len(row) != 3 or row[0].endswith(":"):
            continue
        src, letter, dst = row
        if src not in states or dst not in states or tuple(row) in seen:
            return lineno
        if letters is not None and letter not in letters:
            return lineno
        seen.add(tuple(row))
    return None


_TRANSITION_ERROR = re.compile(
    r"line \d+, column \d+: (undeclared (state|letter)|duplicate transition) "
)


@settings(PROPERTY, max_examples=400)
@given(fuzzed_texts())
def test_fuzzed_text_reports_the_first_defective_transition_line(case):
    """A transition error names the first defective transition line; an input
    that gets past the transition lines has none."""
    kind, text = case
    try:
        if kind == "dlts":
            parse_lts(text)
        else:
            parse_dfa(text)
    except NondeterminismError:
        pass
    except LtsParseError as error:
        message = str(error)
        row = text.splitlines()[error.line - 1].split("#", 1)[0].split() if error.line else []
        if _TRANSITION_ERROR.match(message) and not row[0].endswith(":"):
            assert error.line == _first_defective_transition_line(text), error
            return
        # parse_dfa checks `initial:` and `finals:` after the transition lines
        late = kind == "dfa" and (
            "missing `initial:`" in message
            or "`initial:` takes" in message
            or (row[:1] in (["initial:"], ["finals:"]) and "undeclared state" in message)
        )
        if not late:
            return  # a header or shape error comes before any transition check
    assert _first_defective_transition_line(text) is None


# ---------------------------------------------------------------------------
# Both parsers against a plain reading of the text.


@settings(PROPERTY, max_examples=300)
@given(st.one_of(fuzzed_texts(), dfa_texts().map(lambda text: ("dfa", text))))
def test_parsers_give_what_normalize_gives_for_the_plain_reading(case):
    """A dlts text, and a dfa text both as it is and read as a dlts: where a
    parser returns a system or raises NondeterminismError, `normalize` of
    `read_dlts`'s reading gives the same system or the same error.  Where
    `parse_lts` raises at a position and the syntax is sound, `normalize` raises
    an LtsError whose message starts with the parser's, past its position."""
    kind, text = case
    dlts_text = _as_dlts(text) if kind == "dfa" else text
    raw = read_dlts(dlts_text)
    runs = [(parse_lts, dlts_text)]
    if kind == "dfa":
        runs.append((lambda text: parse_dfa(text).dlts, text))
    for parse, source in runs:
        try:
            got = parse(source)
        except NondeterminismError as error:
            got = type(error), str(error), error.violations
        except LtsParseError as error:
            if parse is parse_lts and raw is not None:
                want = normalize_outcome(raw)
                assert isinstance(want, tuple) and want[0] is LtsError, (error, want)
                assert want[1].startswith(str(error).split(": ", 1)[1]), (error, want)
            continue
        assert raw is not None
        assert got == normalize_outcome(raw)


# ---------------------------------------------------------------------------
# The same properties with the text read in pieces of a few characters: pieces
# end inside lines, headers come after pieces whose names are already resolved,
# and undeclared names turn up in later pieces.

_SMALL_PIECES = st.sampled_from([1, 2, 3, 5, 8])


def _outcome(parse, text):
    """What `parse(text)` returns, or the type, message, position and violations of its error."""
    try:
        return parse(text)
    except LtsError as error:
        return (type(error), str(error), getattr(error, "line", None),
                getattr(error, "column", None), getattr(error, "violations", None))


def _in_small_pieces(piece, runs, check):
    """Each (parse, text) of `runs` gives in pieces of `piece` characters what it gives
    in the default pieces, and `check()` passes in those small pieces."""
    want = [_outcome(parse, text) for parse, text in runs]
    with mock.patch.object(dlts_bisim.lts, "_PIECE", piece):
        assert [_outcome(parse, text) for parse, text in runs] == want
        check()


@settings(PROPERTY, max_examples=300)
@given(st.one_of(fuzzed_texts(), dfa_texts().map(lambda text: ("dfa", text))), _SMALL_PIECES)
def test_plain_reading_property_holds_in_small_pieces(case, piece):
    kind, text = case
    runs = [(parse_lts, _as_dlts(text) if kind == "dfa" else text)]
    if kind == "dfa":
        runs.append((parse_dfa, text))
    inner = test_parsers_give_what_normalize_gives_for_the_plain_reading.hypothesis.inner_test
    _in_small_pieces(piece, runs, lambda: inner(case))


@PROPERTY
@given(dfa_texts(), _SMALL_PIECES)
def test_dfa_encoding_property_holds_in_small_pieces(text, piece):
    inner = test_parsed_dfa_encodes_as_normalize_does.hypothesis.inner_test
    _in_small_pieces(piece, [(parse_dfa, text)], lambda: inner(text))
