"""Labelled transition systems: text formats, validation, indexed encoding.

The refinement engine works on a dense, index-based encoding of a
deterministic LTS in which the alphabet is restricted to letters that
actually label a transition and the transition array is counting-sorted by
destination, so that the incoming transitions of a state form one
contiguous slice.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import accumulate, islice
from typing import Iterable, Sequence


class LtsError(Exception):
    """Invalid transition system, automaton, or partition input."""


class LtsParseError(LtsError):
    """Syntax or name-resolution error in a text-format input."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            where = f"line {line}" if column is None else f"line {line}, column {column}"
            message = f"{where}: {message}"
        super().__init__(message)


class NondeterminismError(LtsError):
    """Some state has two outgoing transitions carrying the same letter."""

    def __init__(self, violations: Sequence[tuple[str, str]]):
        self.violations = list(violations)
        state, letter = self.violations[0]
        more = f" (and {len(self.violations) - 1} more)" if len(self.violations) > 1 else ""
        super().__init__(
            f"nondeterministic: state {state!r} has several transitions on letter {letter!r}{more}"
        )


@dataclass
class RawLts:
    """A labelled transition system over named states and letters.

    States and letters are identified by their declaration order; letters
    that label no transition are allowed here and dropped by `normalize`,
    which is also where the system is validated.
    """

    states: list[str]
    letters: list[str]
    transitions: list[tuple[str, str, str]]


@dataclass
class NormalizedDlts:
    """Dense index encoding of a deterministic LTS.

    `transitions` holds (source, letter, destination) index triples sorted by
    destination; the incoming transitions of state q are exactly
    transitions[in_offsets[q]:in_offsets[q + 1]].  Letter indices cover only
    letters that label at least one transition, so k <= m.  Instances are
    immutable after construction and safe to share between threads.
    """

    n: int
    k: int
    m: int
    transitions: list[tuple[int, int, int]]
    in_offsets: list[int]
    state_names: list[str]
    letter_names: list[str]

    @classmethod
    def from_triples(
        cls,
        n: int,
        triples: Sequence[tuple[int, int, int]],
        state_names: list[str],
        letter_names: Sequence[str],
    ) -> "NormalizedDlts":
        """Encode triples that `normalize` has validated, or that are valid by construction.

        Unused letters are dropped, keeping the order of the others, and the
        triples are counting-sorted by destination, stably.
        """
        used = [False] * len(letter_names)
        counts = [0] * (n + 1)
        for _src, a, dst in triples:
            used[a] = True
            counts[dst + 1] += 1
        kept = [name for name, is_used in zip(letter_names, used) if is_used]
        new_letter = list(accumulate(used, initial=0))  # used letters before each letter

        # The prefix sums double as in_offsets.
        for q in range(n):
            counts[q + 1] += counts[q]
        cursor = counts[:]
        transitions: list[tuple[int, int, int]] = [(0, 0, 0)] * len(triples)
        for src, a, dst in triples:
            transitions[cursor[dst]] = (src, new_letter[a], dst)
            cursor[dst] += 1
        return cls(n, len(kept), len(triples), transitions, counts, state_names, kept)

    def incoming(self, q: int) -> list[tuple[int, int, int]]:
        """Transitions whose destination is q, O(in-degree)."""
        return self.transitions[self.in_offsets[q] : self.in_offsets[q + 1]]

    def to_raw(self) -> RawLts:
        return RawLts(
            states=list(self.state_names),
            letters=list(self.letter_names),
            transitions=[
                (self.state_names[s], self.letter_names[a], self.state_names[d])
                for s, a, d in self.transitions
            ],
        )


@dataclass
class Dfa:
    """Deterministic automaton: a normalized DLTS plus an initial state and final states.

    `initial` may be None only for the canonical empty automaton (n = 0).
    """

    dlts: NormalizedDlts
    initial: int | None
    finals: set[int]

    def __post_init__(self) -> None:
        n = self.n
        if self.initial is None:
            if n > 0:
                raise LtsError("missing initial state")
        elif not 0 <= self.initial < n:
            raise LtsError(f"initial state index {self.initial} out of range")
        bad = [q for q in self.finals if not 0 <= q < n]
        if bad:
            raise LtsError(f"final state index {bad[0]} out of range")

    @property
    def n(self) -> int:
        return self.dlts.n


# Names must survive a trip through the text format: one token, no comment
# sign, and no state name that would read as a header word at a line start.
_NAME_RULES = {
    "state": (re.compile(r"[^\s#]*[^\s#:]"), "is empty, has whitespace or `#`, or ends in `:`"),
    "letter": (re.compile(r"[^\s#]+"), "is empty or has whitespace or `#`"),
}


def _index_names(names: Sequence[str], what: str) -> dict[str, int]:
    rule, rule_text = _NAME_RULES[what]
    index: dict[str, int] = {}
    for i, name in enumerate(names):
        if not rule.fullmatch(name):
            raise LtsError(f"{what} name {name!r} {rule_text}")
        if index.setdefault(name, i) != i:
            raise LtsError(f"duplicate {what} name {name!r}")
    return index


def normalize(raw: RawLts) -> NormalizedDlts:
    """Validate `raw` and encode it: used-only alphabet, destination-sorted transitions.

    States without any incident transition are retained: the index space is
    identical to the declaration order of `raw.states`.  Raises
    NondeterminismError, listing each (state, letter) pair with two outgoing
    transitions once, in first-conflict order; LtsError for bad, repeated
    or undeclared names and repeated triples.
    """
    states = _index_names(raw.states, "state")
    letters = _index_names(raw.letters, "letter")

    triples: list[tuple[int, int, int]] = []
    # Per letter: source -> destination.  Keyed by the state indices already
    # held in `states`, so the check allocates no object per transition.
    targets: list[dict[int, int]] = [{} for _ in letters]
    forks: dict[tuple[int, int, int], None] = {}  # later triples of a forked pair, in order
    for src, letter, dst in raw.transitions:
        s = states.get(src)
        if s is None:
            raise LtsError(f"undeclared state {src!r} in transition {src} {letter} {dst}")
        d = states.get(dst)
        if d is None:
            raise LtsError(f"undeclared state {dst!r} in transition {src} {letter} {dst}")
        a = letters.get(letter)
        if a is None:
            raise LtsError(f"undeclared letter {letter!r} in transition {src} {letter} {dst}")
        known = targets[a].get(s)
        if known is None:
            targets[a][s] = d
        elif known == d or (s, a, d) in forks:
            raise LtsError(f"duplicate transition {src} {letter} {dst}")
        else:
            forks[(s, a, d)] = None
        triples.append((s, a, d))
    if forks:
        pairs = dict.fromkeys((raw.states[s], raw.letters[a]) for s, a, _d in forks)
        raise NondeterminismError(list(pairs))
    del targets  # the check's tables go before the encoding allocates
    return NormalizedDlts.from_triples(len(raw.states), triples, list(raw.states), raw.letters)


# ---------------------------------------------------------------------------
# Text formats
#
#   dlts <n-states>                  (dfa files start `dfa <n-states>`)
#   states: <name> <name> ...        optional; default names are "0".."n-1"
#   letters: <name> <name> ...       optional; default: interned on first use
#   initial: <name>                  dfa only, required when n > 0
#   finals: <name> <name> ...        dfa only, optional
#   <src> <letter> <dst>             one transition per line
#
# `#` starts a comment; blank lines are ignored.  A name is any token
# without `#`; a state name must not end in `:`, or its transition lines
# would read as headers.

_TOKEN = re.compile(r"\S+")

_DLTS_HEADERS = ("states:", "letters:")
_DFA_HEADERS = _DLTS_HEADERS + ("initial:", "finals:")


def _content_lines(text: str):
    """(line number, tokens) for each line that has tokens outside comments."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        cut = line.find("#")
        tokens = (line if cut < 0 else line[:cut]).split()
        if tokens:
            yield lineno, tokens


def _error_at(text: str, message: str, lineno: int, index: int) -> LtsParseError:
    """An error at the index-th token of a line, whose column only errors compute.

    `str.split` and `_TOKEN` split at the same characters.
    """
    line = text.splitlines()[lineno - 1].split("#", 1)[0]
    match = next(islice(_TOKEN.finditer(line), index, None))
    return LtsParseError(message, lineno, match.start() + 1)


def _parse(text: str, kind: str):
    """The system in `text`, its headers and state index; checks only what needs a position."""
    lines = _content_lines(text)
    first = next(lines, None)
    if first is None:
        raise LtsParseError(f"empty input, expected a `{kind} <n-states>` header")
    lineno, tokens = first
    if tokens[0] != kind:
        raise _error_at(text, f"expected `{kind}` header, got {tokens[0]!r}", lineno, 0)
    if len(tokens) != 2:
        raise _error_at(text, f"expected `{kind} <n-states>`", lineno, 0)
    count = tokens[1]
    # str.isdigit alone also accepts digits that int() rejects, such as "²".
    if not (count.isascii() and count.isdigit()):
        raise _error_at(text, f"state count must be ASCII digits, got {count!r}", lineno, 1)
    n = int(count)

    allowed = _DFA_HEADERS if kind == "dfa" else _DLTS_HEADERS
    headers: dict[str, tuple[int, list[str]]] = {}
    transition_lines: list[tuple[int, list[str]]] = []
    for lineno, tokens in lines:
        word = tokens[0]
        if word.endswith(":"):
            if word not in _DFA_HEADERS:
                raise _error_at(text, f"unknown header {word!r}", lineno, 0)
            if word not in allowed:
                raise _error_at(text, f"`{word}` is only valid in dfa files", lineno, 0)
            if word in headers:
                raise _error_at(text, f"duplicate `{word}` line", lineno, 0)
            headers[word] = (lineno, tokens)
        elif len(tokens) != 3:
            raise _error_at(text, "expected `<src> <letter> <dst>`", lineno, 0)
        else:
            transition_lines.append((lineno, tokens))

    if "states:" in headers:
        lineno, tokens = headers["states:"]
        state_names = tokens[1:]
        if len(state_names) != n:
            raise LtsParseError(
                f"`states:` lists {len(state_names)} names but the header declares {n}", lineno
            )
        state_index: dict[str, int] = {}
        for i, name in enumerate(state_names):
            if name.endswith(":"):
                raise _error_at(text, f"state name {name!r} ends in `:`", lineno, i + 1)
            if state_index.setdefault(name, i) != i:
                raise _error_at(text, f"duplicate state name {name!r}", lineno, i + 1)
    else:
        state_names = [str(i) for i in range(n)]
        state_index = {name: i for i, name in enumerate(state_names)}

    # Insertion-ordered set of letters: declaration order, else first use.
    letters: dict[str, None] = {}
    declared = "letters:" in headers
    if declared:
        lineno, tokens = headers["letters:"]
        for i in range(1, len(tokens)):
            if tokens[i] in letters:
                raise _error_at(text, f"duplicate letter name {tokens[i]!r}", lineno, i)
            letters[tokens[i]] = None

    transitions: list[tuple[str, str, str]] = []
    seen: set[tuple[str, str, str]] = set()
    for lineno, tokens in transition_lines:
        src, letter, dst = tokens
        if src not in state_index:
            raise _error_at(text, f"undeclared state {src!r}", lineno, 0)
        if dst not in state_index:
            raise _error_at(text, f"undeclared state {dst!r}", lineno, 2)
        if letter not in letters:
            if declared:
                raise _error_at(text, f"undeclared letter {letter!r}", lineno, 1)
            letters[letter] = None
        triple = (src, letter, dst)
        if triple in seen:
            raise _error_at(text, f"duplicate transition {src} {letter} {dst}", lineno, 0)
        seen.add(triple)
        transitions.append(triple)

    raw = RawLts(states=state_names, letters=list(letters), transitions=transitions)
    return raw, headers, state_index


def parse_lts(text: str) -> RawLts:
    """Parse the `dlts` text format; diagnostics carry line/column positions."""
    return _parse(text, "dlts")[0]


def parse_dfa(text: str) -> Dfa:
    """Parse the `dfa` text format (dlts format plus `initial:`/`finals:`) and normalize it."""
    raw, headers, state_index = _parse(text, "dfa")
    initial: int | None = None
    if "initial:" in headers:
        lineno, tokens = headers["initial:"]
        if len(tokens) != 2:
            raise LtsParseError("`initial:` takes exactly one state name", lineno)
        if tokens[1] not in state_index:
            raise _error_at(text, f"undeclared state {tokens[1]!r}", lineno, 1)
        initial = state_index[tokens[1]]
    elif raw.states:
        raise LtsParseError("missing `initial:` line")

    finals: set[int] = set()
    if "finals:" in headers:
        lineno, tokens = headers["finals:"]
        for i in range(1, len(tokens)):
            if tokens[i] not in state_index:
                raise _error_at(text, f"undeclared state {tokens[i]!r}", lineno, i)
            finals.add(state_index[tokens[i]])
    return Dfa(dlts=normalize(raw), initial=initial, finals=finals)


def parse_partition(text: str, state_names: Sequence[str]) -> list[set[int]]:
    """Parse a partition file: one block per line, member names space-separated.

    The blocks must partition the full state set exactly.
    """
    index = {name: i for i, name in enumerate(state_names)}
    blocks: list[set[int]] = []
    assigned: dict[int, int] = {}
    for lineno, tokens in _content_lines(text):
        block: set[int] = set()
        for i, name in enumerate(tokens):
            if name not in index:
                raise _error_at(text, f"unknown state {name!r}", lineno, i)
            q = index[name]
            if q in assigned:
                raise _error_at(
                    text,
                    f"state {name!r} already belongs to the block on line {assigned[q]}",
                    lineno,
                    i,
                )
            assigned[q] = lineno
            block.add(q)
        blocks.append(block)
    if len(assigned) != len(state_names):
        missing = next(name for i, name in enumerate(state_names) if i not in assigned)
        raise LtsParseError(f"state {missing!r} is not covered by any block")
    return blocks


def format_dlts(dlts: NormalizedDlts) -> str:
    """Serialize to the `dlts` text format, state names made explicit."""
    return _format(dlts, "dlts", None, None)


def format_dfa(dfa: Dfa) -> str:
    """Serialize to the `dfa` text format; the empty automaton is just `dfa 0`."""
    return _format(dfa.dlts, "dfa", dfa.initial, dfa.finals)


def _format(dlts: NormalizedDlts, kind: str, initial: int | None, finals: set[int] | None) -> str:
    lines = [f"{kind} {dlts.n}"]
    if dlts.n:
        lines.append("states: " + " ".join(dlts.state_names))
    if dlts.k:
        lines.append("letters: " + " ".join(dlts.letter_names))
    if initial is not None:
        lines.append(f"initial: {dlts.state_names[initial]}")
    if finals:
        lines.append("finals: " + " ".join(dlts.state_names[q] for q in sorted(finals)))
    for src, a, dst in dlts.transitions:
        lines.append(f"{dlts.state_names[src]} {dlts.letter_names[a]} {dlts.state_names[dst]}")
    return "\n".join(lines) + "\n"


def format_partition(canonical_blocks: Iterable[Iterable[int]], state_names: Sequence[str]) -> str:
    """Serialize canonical partition blocks: one line per block, names by index order."""
    lines = [" ".join(state_names[q] for q in block) for block in canonical_blocks]
    return "\n".join(lines) + ("\n" if lines else "")
