"""Parsing, validation, and the normalized encoding."""

import dataclasses
import random
import sys
import tracemalloc
from itertools import chain

import pytest

import dlts_bisim.lts
from dlts_bisim import (
    Dfa,
    LtsError,
    LtsParseError,
    NondeterminismError,
    NormalizedDlts,
    RawLts,
    format_dfa,
    format_dlts,
    format_partition,
    normalize,
    parse_dfa,
    parse_lts,
    parse_partition,
)

from _canon import normalize_outcome, read_dlts


def test_parse_empty_transition_section():
    T = parse_lts("dlts 3\nstates: a b c\n")
    assert T.state_names == ["a", "b", "c"]
    assert (T.k, T.m, T.in_offsets) == (0, 0, [0, 0, 0, 0])


def test_parse_single_transition():
    T = parse_lts("dlts 2\nstates: q0 q1\nq0 a q1\n")
    assert T.triples() == [(0, 0, 1)]
    assert (T.state_names, T.letter_names) == (["q0", "q1"], ["a"])


def test_parse_duplicate_transition_rejected():
    with pytest.raises(LtsParseError, match="line 4.*duplicate transition"):
        parse_lts("dlts 2\nstates: q0 q1\nq0 a q1\nq0 a q1\n")


def test_parse_scans_past_forks():
    # a later undeclared name or repeat is reported first; a fork only without one
    fork = "dlts 3\nstates: a b c\na x b\na x c\n"
    with pytest.raises(LtsParseError) as info:
        parse_lts(fork + "b x q\n")
    assert (info.value.line, info.value.column) == (5, 5)
    assert "undeclared state 'q'" in str(info.value)
    with pytest.raises(LtsParseError) as info:
        parse_lts(fork + "b y c\n# repeat\n  a x c\n")
    assert (info.value.line, info.value.column) == (7, 3)
    assert "duplicate transition a x c" in str(info.value)
    with pytest.raises(NondeterminismError) as info:
        parse_lts(fork)
    assert info.value.violations == [("a", "x")]


def test_parse_default_names_are_indices():
    T = parse_lts("dlts 3\n0 a 1\n1 a 2\n")
    assert T.state_names == ["0", "1", "2"]
    with pytest.raises(LtsParseError, match="undeclared state 'q0'"):
        parse_lts("dlts 3\nq0 a q1\n")


def test_parse_undeclared_letter_with_letters_line():
    with pytest.raises(LtsParseError, match="undeclared letter 'b'"):
        parse_lts("dlts 2\nstates: x y\nletters: a\nx b y\n")


def test_parse_comments_blanks_and_columns():
    T = parse_lts("# heading\ndlts 2\n\nstates: x y  # names\nx a y\n")
    assert (T.state_names, T.letter_names, T.triples()) == (["x", "y"], ["a"], [(0, 0, 1)])
    with pytest.raises(LtsParseError) as info:
        parse_lts("dlts 2\nstates: x y\nx a z\n")
    assert info.value.line == 3
    assert info.value.column == 5


def test_parse_state_count_mismatch():
    with pytest.raises(LtsParseError, match="lists 2 names but the header declares 3"):
        parse_lts("dlts 3\nstates: a b\n")


def test_parse_bad_shapes():
    with pytest.raises(LtsParseError, match="expected `dlts`"):
        parse_lts("dfa 2\nstates: x y\ninitial: x\n")
    with pytest.raises(LtsParseError, match="expected `<src> <letter> <dst>`"):
        parse_lts("dlts 2\nstates: x y\nx a\n")
    with pytest.raises(LtsParseError, match="unknown header"):
        parse_lts("dlts 1\nstates: x\nbogus: 1\n")
    with pytest.raises(LtsParseError, match="only valid in dfa"):
        parse_lts("dlts 1\nstates: x\nfinals: x\n")
    with pytest.raises(LtsParseError, match="empty input"):
        parse_lts("# nothing\n")
    for text in ("dlts\n", "dlts 2 3\n"):
        with pytest.raises(LtsParseError, match="^line 1, column 1: expected `dlts <n-states>`$"):
            parse_lts(text)
    with pytest.raises(LtsParseError, match="^line 1, column 1: expected `dfa <n-states>`$"):
        parse_dfa("dfa\n")
    # digits outside ASCII pass str.isdigit but not int()
    for count in ("\u00b2", "\u0663", "-1", "1e3"):
        with pytest.raises(LtsParseError, match="line 2, column 6: state count"):
            parse_lts(f"# header\ndlts {count}\n")
    with pytest.raises(LtsParseError, match="line 1, column 5: state count"):
        parse_dfa("dfa \u00b2\n")


def test_parse_dfa():
    dfa = parse_dfa("dfa 2\nstates: e o\ninitial: e\nfinals: e\ne a o\no a e\n")
    assert dfa.initial == 0
    assert dfa.finals == {0}
    with pytest.raises(LtsParseError, match="missing `initial:`"):
        parse_dfa("dfa 1\nstates: x\n")
    for line in ("initial: e o", "initial:"):
        with pytest.raises(LtsParseError, match="^line 3: `initial:` takes exactly one state name$"):
            parse_dfa(f"dfa 2\nstates: e o\n{line}\ne a o\n")


# (b, y) forks before (a, x) does
FORKED_DFA = "dfa 3\nstates: a b c\n{}a x b\nb y a\nb y c\na x c\nc x a\n{}"


def test_parse_dfa_checks_initial_and_finals_before_forks():
    for headers, position in (("initial: q\n", (8, 10)), ("initial: a\nfinals: c q\n", (9, 11))):
        with pytest.raises(LtsParseError) as info:
            parse_dfa(FORKED_DFA.format("", headers))
        assert (info.value.line, info.value.column) == position
        assert "undeclared state 'q'" in str(info.value)


def test_parse_dfa_reports_forks_like_normalize():
    text = FORKED_DFA.format("initial: a\n", "")
    with pytest.raises(NondeterminismError) as info:
        parse_dfa(text)
    with pytest.raises(NondeterminismError) as want:
        parse_lts(text.replace("dfa", "dlts", 1).replace("initial: a\n", ""))
    assert info.value.violations == want.value.violations == [("b", "y"), ("a", "x")]


def test_parse_dfa_does_not_call_normalize(monkeypatch):
    def fail(raw):
        raise AssertionError("parse_dfa called normalize")

    monkeypatch.setattr(dlts_bisim.lts, "normalize", fail)
    dfa = parse_dfa("dfa 2\nstates: e o\ninitial: e\nfinals: e\ne a o\no a e\n")
    assert (dfa.dlts.triples(), dfa.initial, dfa.finals) == ([(1, 0, 0), (0, 0, 1)], 0, {0})


def test_parse_lts_encodes_once_without_normalize(monkeypatch):
    calls = []
    encode = dlts_bisim.lts._encode

    def spy(*args):
        calls.append(args)
        return encode(*args)

    def fail(raw):
        raise AssertionError("parse_lts called normalize")

    monkeypatch.setattr(dlts_bisim.lts, "_encode", spy)
    monkeypatch.setattr(dlts_bisim.lts, "normalize", fail)
    T = parse_lts("dlts 3\nstates: a b c\na x b\nb x c\nc y a\n")
    assert len(calls) == 1
    assert (T.state_names, T.letter_names) == (["a", "b", "c"], ["x", "y"])
    assert T.triples() == [(2, 1, 0), (0, 0, 1), (1, 0, 2)]


def test_normalize_returns_an_encoded_system_unchanged(monkeypatch):
    T = parse_lts("dlts 3\nstates: a b c\na x b\nb x c\nc y a\n")

    def fail(*args):
        raise AssertionError("normalize encoded an encoded system again")

    monkeypatch.setattr(dlts_bisim.lts, "_encode", fail)
    assert normalize(T) is T


def _append_undeclared(raw):
    raw.transitions.append(("p", "w", "q"))
    return raw


def _rename_state(raw):
    raw.states[0] = "a b"
    return raw


def _reverse_letters(raw):
    raw.letters.reverse()
    return raw


def _replace_transitions(raw):
    return dataclasses.replace(raw, transitions=[("q", "x", "p"), ("q", "x", "q")])


@pytest.mark.parametrize("edit, want", [
    (_append_undeclared, (LtsError, "undeclared letter 'w' in transition p w q", None)),
    (_rename_state, (LtsError, "state name 'a b' is empty or has whitespace or `#`", None)),
    (_reverse_letters, ["p", "q"]),
    (_replace_transitions, (NondeterminismError,
                            "nondeterministic: state 'q' has several transitions on letter 'x'",
                            [("q", "x")])),
])
def test_normalize_sees_edits_made_after_parse_lts(edit, want):
    """`parse_lts` returns the encoded system, so the names a caller edits are
    those of a `RawLts` built by hand; `normalize` validates it in full."""
    triples = [("p", "x", "q"), ("q", "y", "p")]
    raw = edit(RawLts(["p", "q"], ["x", "y"], triples))
    got = normalize_outcome(raw)
    if isinstance(want, list):
        assert (got.state_names, got.letter_names) == (want, ["y", "x"])
        assert got.triples() == [(1, 0, 0), (0, 1, 1)]
    else:
        assert got == want


_HEADER_LINES = {  # a header line, then a repeat that would otherwise parse
    "states:": ("states: p q", "states: q p"),
    "letters:": ("letters: x y", "letters: y x"),
}


@pytest.mark.parametrize("piece", [None, 16])
@pytest.mark.parametrize("kind", ["dlts", "dfa"])
@pytest.mark.parametrize("word", ["states:", "letters:"])
def test_repeated_header_line_raises_at_the_repeat(monkeypatch, word, kind, piece):
    """A second `states:` or `letters:` line is an error at its own line, column 1,
    even where it would otherwise parse; with small pieces, it lies in a later piece
    than the first, after transitions that were resolved with the first."""
    first, repeat = _HEADER_LINES[word]
    other = _HEADER_LINES["letters:" if word == "states:" else "states:"][0]
    lines = [f"{kind} 2", first, other] + ["initial: p"] * (kind == "dfa")
    lines += ["p x q", "q y p", "p y p", repeat]
    text = "\n".join(lines) + "\n"
    if piece is not None:
        monkeypatch.setattr(dlts_bisim.lts, "_PIECE", piece)
        pieces = list(dlts_bisim.lts._pieces(text))
        assert first in pieces[0] and repeat not in pieces[0]
    with pytest.raises(LtsParseError) as info:
        (parse_lts if kind == "dlts" else parse_dfa)(text)
    lineno = len(lines)
    assert (str(info.value), info.value.line, info.value.column) == (
        f"line {lineno}, column 1: duplicate `{word}` line", lineno, 1)


def test_parse_empty_dfa_has_no_initial():
    dfa = parse_dfa("dfa 0\n")
    assert dfa.initial is None
    assert dfa.finals == set()
    assert format_dfa(dfa) == "dfa 0\n"


def test_dfa_index_validation():
    T = normalize(RawLts(["x"], [], []))
    with pytest.raises(LtsError, match="initial"):
        Dfa(T, 3, set())
    with pytest.raises(LtsError, match="final"):
        Dfa(T, 0, {1})
    with pytest.raises(LtsError, match="missing initial state"):
        Dfa(T, None, set())


def test_raw_validate_catches_bad_names_and_duplicates():
    with pytest.raises(LtsError, match="undeclared state"):
        normalize(RawLts(["a"], ["x"], [("a", "x", "b")]))
    with pytest.raises(LtsError, match="undeclared letter"):
        normalize(RawLts(["a", "b"], [], [("a", "x", "b")]))
    with pytest.raises(LtsError, match="duplicate transition"):
        normalize(RawLts(["a"], ["x"], [("a", "x", "a"), ("a", "x", "a")]))
    with pytest.raises(LtsError, match="duplicate transition a x b"):
        normalize(RawLts(["a", "b"], ["x"], [("a", "x", "a"), ("a", "x", "b"), ("a", "x", "b")]))
    with pytest.raises(LtsError, match="duplicate state name"):
        normalize(RawLts(["a", "a"], [], []))
    with pytest.raises(LtsError, match="duplicate letter name"):
        normalize(RawLts(["a"], ["x", "x"], []))


@pytest.mark.parametrize(
    "states, letters",
    [
        (["a", ""], ["x"]),
        (["a", "b c"], ["x"]),
        (["a", "b\u3000"], ["x"]),
        (["a", "b#"], ["x"]),
        (["a", "states:"], ["x"]),
        (["a", "b:"], ["x"]),
        (["a", "b"], [""]),
        (["a", "b"], ["x y"]),
        (["a", "b"], ["x\n"]),
        (["a", "b"], ["#x"]),
    ],
)
def test_normalize_rejects_names_that_cannot_round_trip(states, letters):
    # Each case has one bad name: the second state, else the letter.
    what, name = ("state", states[1]) if states != ["a", "b"] else ("letter", letters[0])
    rule = "ends in `:`" if name in ("states:", "b:") else "is empty or has whitespace or `#`"
    with pytest.raises(LtsError) as info:
        normalize(RawLts(states, letters, []))
    assert type(info.value) is LtsError and str(info.value) == f"{what} name {name!r} {rule}"


def test_names_that_do_round_trip():
    # letters may end in `:`, state names may be header words without it
    T = normalize(RawLts(["dlts", "states", "a:b"], ["x:", "y"], [("dlts", "x:", "a:b")]))
    assert parse_lts(format_dlts(T)) == T


def test_parse_rejects_state_name_ending_in_colon():
    with pytest.raises(LtsParseError, match="line 3, column 12: state name 'b:' ends in `:`"):
        parse_lts("dlts 2\n\nstates: a  b: \na x a\n")
    with pytest.raises(LtsParseError, match="line 2, column 9: state name 'states:'"):
        parse_dfa("dfa 1\nstates: states:\ninitial: states:\n")


def test_normalize_drops_unused_letters():
    raw = RawLts(
        states=["q0", "q1"],
        letters=["a", "b", "c"],
        transitions=[("q0", "a", "q1"), ("q1", "b", "q0")],
    )
    T = normalize(raw)
    assert T.k == 2
    assert T.letter_names == ["a", "b"]


def test_normalize_sorts_by_destination():
    raw = RawLts(
        states=["q0", "q1", "q2"],
        letters=["a", "b"],
        transitions=[("q1", "a", "q0"), ("q2", "b", "q0"), ("q0", "a", "q1")],
    )
    T = normalize(raw)
    assert T.in_offsets[1] - T.in_offsets[0] == 2
    assert set(T.in_src[T.in_offsets[0] : T.in_offsets[1]]) == {1, 2}
    assert T.triples() == [(1, 0, 0), (2, 1, 0), (0, 0, 1)]


def test_normalize_rejects_nondeterminism():
    raw = RawLts(["q0", "q1", "q2"], ["a"], [("q0", "a", "q1"), ("q0", "a", "q2")])
    with pytest.raises(NondeterminismError, match="'q0'.*'a'"):
        normalize(raw)


def test_check_deterministic():
    cycle = RawLts(["a", "b", "c"], ["x"], [("a", "x", "b"), ("b", "x", "c"), ("c", "x", "a")])
    assert normalize(cycle).m == 3
    fork = RawLts(["a", "b", "c"], ["x"], [("a", "x", "b"), ("a", "x", "c")])
    with pytest.raises(NondeterminismError) as info:
        normalize(fork)
    assert info.value.violations == [("a", "x")]
    assert normalize(RawLts(["a"], [], [])).m == 0
    # each pair once, in the order of its first conflict
    forks = RawLts(
        ["a", "b", "c"],
        ["x", "y"],
        [("b", "y", "a"), ("a", "x", "b"), ("b", "y", "c"), ("a", "x", "c"),
         ("b", "y", "b"), ("a", "x", "a"), ("c", "x", "a")],
    )
    with pytest.raises(NondeterminismError) as info:
        normalize(forks)
    assert info.value.violations == [("b", "y"), ("a", "x")]


def test_normalize_retains_isolated_states():
    raw = RawLts(["q0", "q1", "lonely"], ["a"], [("q0", "a", "q1")])
    T = normalize(raw)
    assert T.n == 3
    assert T.state_names == ["q0", "q1", "lonely"]
    assert T.in_offsets[2] == T.in_offsets[3] == T.m


def test_normalize_idempotent():
    raw = RawLts(
        states=["s", "t", "u"],
        letters=["b", "a", "z"],
        transitions=[("s", "b", "t"), ("t", "a", "s"), ("u", "a", "u")],
    )
    once = normalize(raw)
    names, letters = once.state_names, once.letter_names
    transitions = [(names[s], letters[a], names[d]) for s, a, d in once.triples()]
    twice = normalize(RawLts(list(names), list(letters), transitions))
    assert (twice.n, twice.k, twice.m) == (once.n, once.k, once.m)
    assert twice.in_src == once.in_src
    assert twice.in_letter == once.in_letter
    assert twice.in_offsets == once.in_offsets
    assert twice.state_names == once.state_names
    assert twice.letter_names == once.letter_names


def test_incoming_slices_match_brute_force():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(1, 20)
        states = [f"q{i}" for i in range(n)]
        letters = ["a", "b", "c"]
        transitions = []
        for q in states:
            for a in letters:
                if rng.random() < 0.5:
                    transitions.append((q, a, states[rng.randrange(n)]))
        T = normalize(RawLts(states, letters, transitions))
        assert sum(T.in_offsets[q + 1] - T.in_offsets[q] for q in range(n)) == T.m
        for q in range(n):
            incoming = range(T.in_offsets[q], T.in_offsets[q + 1])
            got = {(T.state_names[T.in_src[t]], T.letter_names[T.in_letter[t]]) for t in incoming}
            want = {(s, a) for s, a, d in transitions if d == T.state_names[q]}
            assert got == want


def _grouped_by_sort(n, src, letter, dst, state_names, letter_names):
    """The reference encoding: a stable comparison sort by destination."""
    order = sorted(range(len(dst)), key=dst.__getitem__)
    offsets = [0] * (n + 1)
    for d in dst:
        offsets[d + 1] += 1
    for q in range(n):
        offsets[q + 1] += offsets[q]
    in_src = [src[t] for t in order]
    in_letter = [letter[t] for t in order]
    return NormalizedDlts._from_sorted(in_src, in_letter, offsets, state_names, letter_names)


def _random_columns(rng):
    """Deterministic columns in shuffled order; some letters and states go unused."""
    n, k = rng.randint(1, 30), rng.randint(1, 6)
    pairs = [(s, a) for s in range(n) for a in range(k) if rng.random() < 0.4]
    rng.shuffle(pairs)
    targets = rng.sample(range(n), rng.randint(1, n))  # few targets: repeated destinations
    dst = [rng.choice(targets) for _ in pairs]
    src, letter = [s for s, _ in pairs], [a for _, a in pairs]
    return n, src, letter, dst, [f"q{i}" for i in range(n)], [f"a{i}" for i in range(k)]


def test_from_columns_groups_by_destination_stably():
    rng = random.Random(11)
    cases = [(0, [], [], [], [], []), (3, [], [], [], ["x", "y", "z"], ["a"])]
    cases += [_random_columns(rng) for _ in range(300)]
    shared_slices = 0
    for case in cases:
        got = NormalizedDlts._from_columns(*case[1:])
        assert got == _grouped_by_sort(*case), case
        offsets = got.in_offsets
        shared_slices += sum(offsets[q + 1] - offsets[q] >= 2 for q in range(got.n))
    assert shared_slices > 1000  # an unstable placement has room to show


@pytest.mark.parametrize("src, dst, message", [
    ([0, 1], [-1, 0], "destination state index -1 out of range"),
    ([0, 1], [0, 2], "destination state index 2 out of range"),
])
def test_from_columns_rejects_bad_columns(src, dst, message):
    # without the check, one transition is lost or misplaced
    with pytest.raises(LtsError, match=message):
        NormalizedDlts._from_columns(src, [0, 0], dst, ["a", "b"], ["x", "y"])


def _complete_two_letter(n, name=str):
    states = [name(f"q{i}") for i in range(n)]
    transitions = [(name(f"q{i}"), name("a"), name(f"q{(i + 1) % n}")) for i in range(n)]
    transitions += [(name(f"q{i}"), name("b"), name(f"q{(2 * i) % n}")) for i in range(n)]
    return RawLts(states, [name("a"), name("b")], transitions)


def _normalize_steps(n):
    """Work done while normalizing a complete two-letter system on n states.

    Lines executed in lts.py, plus every hash and equality test of a name:
    bulk builtins do their per-item work in C, where only the name calls
    show.  The transitions hold their own copies of the names, so that
    every lookup that finds a name also compares it.
    """
    steps = 0

    class Name(str):
        def __hash__(self):
            nonlocal steps
            steps += 1
            return str.__hash__(self)

        def __eq__(self, other):
            nonlocal steps
            steps += 1
            return str.__eq__(self, other)

    def tracer(frame, event, _arg):
        nonlocal steps
        if frame.f_code.co_filename != dlts_bisim.lts.__file__:
            return None
        if event == "line":
            steps += 1
        return tracer

    raw = _complete_two_letter(n, Name)
    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        normalize(raw)
    finally:
        sys.settrace(previous)
    return steps


def test_normalize_step_count_is_linear():
    small = _normalize_steps(500)
    big = _normalize_steps(1000)
    assert small >= 3 * 1000  # each of the 1000 transitions looks up three names
    assert big <= 2.5 * small + 100


def test_format_round_trips():
    T = parse_lts("dlts 3\nstates: x y z\nx a y\ny b z\n")
    assert parse_lts(format_dlts(T)) == T

    dfa = parse_dfa("dfa 2\nstates: e o\ninitial: e\nfinals: e\ne a o\no a e\n")
    again_dfa = parse_dfa(format_dfa(dfa))
    assert again_dfa.initial == 0 and again_dfa.finals == {0}


def test_parse_partition():
    names = ["q0", "q1", "q2"]
    assert parse_partition("q0 q2\nq1\n", names) == [{0, 2}, {1}]
    with pytest.raises(LtsParseError, match="already belongs"):
        parse_partition("q0 q1\nq1 q2\n", names)
    with pytest.raises(LtsParseError, match="not covered"):
        parse_partition("q0 q1\n", names)
    with pytest.raises(LtsParseError, match="unknown state"):
        parse_partition("q0 what\nq1 q2\n", names)
    # lines are counted in the file, comments and blank lines included
    with pytest.raises(LtsParseError) as info:
        parse_partition("# blocks\n\nq0 q2  # first\nq1   q2 # second\n", names)
    assert (info.value.line, info.value.column) == (4, 6)
    assert "state 'q2' already belongs to the block on line 3" in str(info.value)


def _partition_outcome(text, names):
    """`parse_partition(text, names)`, or the message, line and column of its error."""
    try:
        return parse_partition(text, names)
    except LtsParseError as error:
        return str(error), error.line, error.column


def _partition_texts(rng, names):
    """A partition file of `names` with comments, blank lines and mixed line breaks,
    then the same file with an unknown name, a repeated name or a state left out."""
    order = rng.sample(names, len(names))
    cuts = sorted(rng.sample(range(1, len(names)), rng.randrange(len(names))))
    lines = [" ".join(order[i:j]) for i, j in zip([0] + cuts, cuts + [len(names)])]
    for _ in range(rng.randrange(4)):
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(["", "  ", "# note"]))
    good = "".join(line + rng.choice(_BREAKS) for line in lines)
    unknown = good.replace(order[-1], "what", 1)
    repeated = good.replace(order[-1], f"{order[-1]} {order[0]}", 1)
    uncovered = good.replace(order[-1], "", 1)
    return [good, unknown, repeated, uncovered]


@pytest.mark.parametrize("piece", range(1, 9))
def test_parse_partition_in_small_pieces_matches_one_piece(monkeypatch, piece):
    """A partition file is read one piece at a time: small pieces give the same blocks,
    and the same errors at the same line and column, as one piece does."""
    names = [f"q{i}" for i in range(10)]
    rng = random.Random(piece)
    texts = ["# blocks\n\nq0 q2  # first\r\nq1 q3 q4 q5 q6\n\nq7 q8 q9\n",
             "q0 q2\nq1 what\nq3 q4 q5 q6 q7 q8 q9\n",
             "# blocks\n\nq0 q2  # first\nq1   q2 # second\nq3 q4 q5 q6 q7 q8 q9\n",
             "q0 q2\r\n\nq1 q3 q4 q5 q6 q7 q8\n"]
    for _ in range(30):
        texts += _partition_texts(rng, names)
    want = [_partition_outcome(text, names) for text in texts]
    assert want[:4] == [
        [{0, 2}, {1, 3, 4, 5, 6}, {7, 8, 9}],
        ("line 2, column 4: unknown state 'what'", 2, 4),
        ("line 4, column 6: state 'q2' already belongs to the block on line 3", 4, 6),
        ("state 'q9' is not covered by any block", None, None),
    ]
    assert {type(outcome) for outcome in want} == {list, tuple}
    monkeypatch.setattr(dlts_bisim.lts, "_PIECE", piece)
    assert len(list(dlts_bisim.lts._pieces(texts[0]))) > 2
    for text, outcome in zip(texts, want):
        assert _partition_outcome(text, names) == outcome, repr(text)


def test_format_partition():
    assert format_partition([[0, 2], [1]], ["x", "y", "z"]) == "x z\ny\n"
    assert format_partition([], []) == ""


def _rows_at_once(text):
    """The one-shot tokenizer that the piecewise line walker must match."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.partition("#")[0] for line in lines]
    return list(map(str.split, lines))


def _walked_rows(text):
    """The token lists of `text` as every reader walks them: split one piece at a time."""
    return list(chain.from_iterable(map(dlts_bisim.lts._split, dlts_bisim.lts._pieces(text))))


_LINES = ["0 a 1", "", "   ", "# note", "q x p  # why", "\xa0p\u2003b q", "#", "a#b c"]
_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\n\n", "\r\n\r\n"]


def _line_soup(rng):
    parts = []
    for _ in range(rng.randrange(12)):
        parts += [rng.choice(_LINES), rng.choice(_BREAKS)]
    if parts and rng.random() < 0.5:
        parts.pop()  # no final line break
    return "".join(parts)


@pytest.mark.parametrize("piece", range(1, 13))
def test_rows_match_one_shot_across_piece_boundaries(monkeypatch, piece):
    monkeypatch.setattr(dlts_bisim.lts, "_PIECE", piece)
    rng = random.Random(piece)
    texts = ["", "\n", "\r\n", "a\r\n\r\nb", "x y\r\n" * 8, "ab\r\n" * 8 + "c", "1 2\r\n3 #\r\n4"]
    texts += [_line_soup(rng) for _ in range(150)]
    for text in texts:
        assert _walked_rows(text) == _rows_at_once(text), repr(text)
        for lineno, line in enumerate(text.splitlines(), start=1):
            assert dlts_bisim.lts._line(text, lineno) == line, (repr(text), lineno)


def test_rows_of_a_text_longer_than_one_piece():
    rng = random.Random(3)
    lines = ["# many pieces", "dlts 8000", ""]
    lines += [f"{q} {rng.choice('ab')} {rng.randrange(8000)}  # {q}" for q in range(8000)]
    text = "\r\n".join(lines)
    assert len(text) > 2 * dlts_bisim.lts._PIECE
    assert _walked_rows(text) == _rows_at_once(text)
    assert parse_lts(text) == normalize(read_dlts(text))


def _parsed(text):
    """The triples that `parse_lts` reads from `text`, or the message of its error."""
    try:
        return parse_lts(text).triples()
    except LtsError as error:
        return str(error)


_SHAPE = "line 3, column 1: expected `<src> <letter> <dst>`"


# Pieces whose tokens a flat split would misread as transitions three by three.
@pytest.mark.parametrize("piece, want", [
    ("0 a 1#c\n", [(0, 0, 1)]),  # a comment glued to a token
    ("states: 0 1\n", []),  # a three-token header
    ("0 a\n1 b 0 a\n", _SHAPE),  # six tokens on lines of two and four
    ("0 a\x851\n", _SHAPE),  # a line break that is not "\n"
    ("0 a 1\r\n1 a 0\r\n", [(1, 0, 0), (0, 0, 1)]),
    ("0\ta 1\n", [(0, 0, 1)]),
    ("0  a 1\n", [(0, 0, 1)]),
    ("0\u2003a\xa01\n", [(0, 0, 1)]),
    ("0 a 1\n1 a 0", [(1, 0, 0), (0, 0, 1)]),  # no final "\n"
])
def test_a_piece_that_is_not_plain_is_walked_line_by_line(monkeypatch, piece, want):
    """A piece after the header's that is not exactly its tokens three to a line, single
    spaces between, with no `#` and no header word, reads as the line walk reads it."""
    head = "dlts 2\n" + "#" * 40 + "\n"
    text = head + piece
    assert _parsed(text) == want  # one piece, walked line by line
    monkeypatch.setattr(dlts_bisim.lts, "_PIECE", len(head))
    assert list(dlts_bisim.lts._pieces(text)) == [head, piece]
    assert _parsed(text) == want


@pytest.mark.parametrize("fmt, parse", [(format_dlts, parse_lts), (format_dfa, parse_dfa)])
def test_only_the_header_piece_of_a_written_text_is_walked_line_by_line(monkeypatch, fmt, parse):
    """`format_dlts` and `format_dfa` write every transition as a plain line, so each piece
    after the one that holds the headers is read as flat columns."""
    rng = random.Random(7)
    n = 7000
    raw = RawLts([f"s{q}" for q in range(n)], ["a", "b:"],
                 [(f"s{q}", a, f"s{rng.randrange(n)}") for q in range(n) for a in ("a", "b:")])
    system = normalize(raw)
    written = fmt(system if fmt is format_dlts else Dfa(system, 0, {1, 2}))
    assert len(list(dlts_bisim.lts._pieces(written))) >= 3
    monkeypatch.setattr(dlts_bisim.lts, "_PIECE", 5)
    small = parse(written)
    monkeypatch.undo()

    walked = []
    split = dlts_bisim.lts._split

    def counted(piece):
        walked.append(piece)
        return split(piece)

    monkeypatch.setattr(dlts_bisim.lts, "_split", counted)
    assert parse(written) == small
    assert (small if fmt is format_dlts else small.dlts) == system
    assert walked == [next(dlts_bisim.lts._pieces(written))]
    assert "letters: a b:\n" in walked[0]


def _cell_table_sizes(monkeypatch):
    """The size of each `bytearray` that `lts` makes from now on, as a growing list."""
    sizes = []

    def counting(size):
        sizes.append(size)
        return bytearray(size)

    monkeypatch.setattr(dlts_bisim.lts, "bytearray", counting, raising=False)
    return sizes


# Two transitions on one letter: with 16 states, the 16 cells are at most 8
# per transition and the bitmap counts them; with 17 states, a set counts
# the keys.
@pytest.mark.parametrize("n, cells", [(16, [16]), (17, [])])
def test_determinism_check_on_both_sides_of_the_bitmap(monkeypatch, n, cells):
    sizes = _cell_table_sizes(monkeypatch)
    states = [str(q) for q in range(n)]
    repeat, fork = [("0", "x", "1"), ("0", "x", "1")], [("0", "x", "0"), ("0", "x", "1")]

    with pytest.raises(LtsParseError) as info:
        parse_lts(f"dlts {n}\n0 x 1\n  0 x 1\n")
    assert (str(info.value), info.value.line, info.value.column) == (
        "line 3, column 3: duplicate transition 0 x 1", 3, 3)
    with pytest.raises(LtsError) as info:
        normalize(RawLts(states, ["x"], repeat))
    assert type(info.value) is LtsError and str(info.value) == "duplicate transition 0 x 1"
    assert sizes == cells * 2

    for system in (lambda: parse_lts(f"dlts {n}\n0 x 0\n0 x 1\n"),
                   lambda: normalize(RawLts(states, ["x"], fork))):
        with pytest.raises(NondeterminismError) as info:
            system()
        assert info.value.violations == [("0", "x")]
        assert str(info.value) == "nondeterministic: state '0' has several transitions on letter 'x'"
    with pytest.raises(NondeterminismError):
        parse_dfa(f"dfa {n}\ninitial: 0\n0 x 0\n0 x 1\n")
    assert sizes == cells * 5

    sizes.clear()
    good = parse_lts(f"dlts {n}\n0 x 1\n1 x 0\n")
    assert (good.n, good.m, good.triples()) == (n, 2, [(1, 0, 0), (0, 0, 1)])
    assert sizes == cells


def test_hostile_header_takes_no_cell_table(monkeypatch):
    sizes = _cell_table_sizes(monkeypatch)
    dlts = parse_lts("dlts 1000000\n999999 a 0\n")
    assert (dlts.n, dlts.k, dlts.m, dlts.in_src) == (1000000, 1, 1, [999999])
    assert sizes == []


def _traced(f, *args):
    """`f(*args)`, what its result keeps allocated, and the peak of the call."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = f(*args)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept - before, peak - before


def test_parse_peak_memory_stays_near_its_result():
    """Each piece's lines become index columns before the next piece is read, so
    neither parser holds a string per token of the whole text: each peaks at most
    2.5 times above what its result keeps (a parser that tokenizes the whole
    text first peaks 3 times above it)."""
    rng = random.Random(5)
    n = 10000
    body = "".join(f"{q} {a} {rng.randrange(n)}\n" for q in range(n) for a in "ab")
    for parse, text in ((parse_lts, f"dlts {n}\n" + body),
                        (parse_dfa, f"dfa {n}\ninitial: 0\nfinals: 1 2 3\n" + body)):
        assert len(text) >= 200_000
        result, kept, peak = _traced(parse, text)
        dlts = result if parse is parse_lts else result.dlts
        assert (dlts.n, dlts.m) == (n, 2 * n)
        assert peak <= 2.5 * kept, (parse.__name__, peak, kept)


def test_late_repeat_error_peaks_near_the_success_path():
    # The last line repeats an earlier transition, so the error path finds
    # repeats after every name has resolved.
    rng = random.Random(6)
    n = 17000
    lines = [f"dlts {n}"] + [f"{q} {a} {rng.randrange(n)}" for q in range(n) for a in "abc"]
    good = "\n".join(lines) + "\n"
    assert len(lines) - 1 >= 50_000
    errors = []

    def traced_peak(text):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            try:
                parse_lts(text)
            except LtsParseError as error:
                errors.append(str(error))
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    success = traced_peak(good)
    failure = traced_peak(good + lines[9] + "\n")
    assert errors == [f"line {len(lines) + 1}, column 1: duplicate transition {lines[9]}"]
    assert failure <= 1.3 * success, (failure, success)
