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
    that label no transition are allowed here and dropped by `normalize`.
    """

    states: list[str]
    letters: list[str]
    transitions: list[tuple[str, str, str]]

    def validate(self) -> None:
        """Raise LtsError on duplicate names, unresolved names, or duplicate triples."""
        _check_unique(self.states, "state")
        _check_unique(self.letters, "letter")
        states = set(self.states)
        letters = set(self.letters)
        seen: set[tuple[str, str, str]] = set()
        for triple in self.transitions:
            src, letter, dst = triple
            if src not in states:
                raise LtsError(f"undeclared state {src!r} in transition {src} {letter} {dst}")
            if dst not in states:
                raise LtsError(f"undeclared state {dst!r} in transition {src} {letter} {dst}")
            if letter not in letters:
                raise LtsError(f"undeclared letter {letter!r} in transition {src} {letter} {dst}")
            if triple in seen:
                raise LtsError(f"duplicate transition {src} {letter} {dst}")
            seen.add(triple)


def _check_unique(names: Sequence[str], what: str) -> None:
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise LtsError(f"duplicate {what} name {name!r}")
        seen.add(name)


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
    """Deterministic automaton: a DLTS plus an initial state and final states.

    `initial` may be None only for the canonical empty automaton (n = 0).
    """

    dlts: RawLts | NormalizedDlts
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
        if isinstance(self.dlts, NormalizedDlts):
            return self.dlts.n
        return len(self.dlts.states)

    def normalized(self) -> "Dfa":
        """A copy whose transition system is in the indexed encoding.

        State indices are preserved by normalization, so `initial` and
        `finals` carry over unchanged.
        """
        if isinstance(self.dlts, NormalizedDlts):
            return self
        return Dfa(normalize(self.dlts), self.initial, set(self.finals))


def check_deterministic(raw: RawLts) -> list[tuple[str, str]]:
    """All (state, letter) pairs with more than one outgoing transition.

    Empty result means the transition relation is a partial function in each
    letter; each violating pair is reported once, in first-conflict order.
    """
    seen: set[tuple[str, str]] = set()
    violations: list[tuple[str, str]] = []
    reported: set[tuple[str, str]] = set()
    for src, letter, _dst in raw.transitions:
        key = (src, letter)
        if key in seen and key not in reported:
            violations.append(key)
            reported.add(key)
        seen.add(key)
    return violations


def normalize(raw: RawLts) -> NormalizedDlts:
    """Build the indexed encoding: used-only alphabet, destination-sorted transitions.

    States without any incident transition are retained: the index space is
    identical to the declaration order of `raw.states`.
    Raises NondeterminismError if some (state, letter) pair has two outgoing
    transitions.
    """
    raw.validate()
    violations = check_deterministic(raw)
    if violations:
        raise NondeterminismError(violations)

    n = len(raw.states)
    state_index = {name: i for i, name in enumerate(raw.states)}
    raw_letter_index = {name: i for i, name in enumerate(raw.letters)}

    m = len(raw.transitions)
    used = [False] * len(raw.letters)
    indexed: list[tuple[int, int, int]] = []
    for src, letter, dst in raw.transitions:
        a = raw_letter_index[letter]
        used[a] = True
        indexed.append((state_index[src], a, state_index[dst]))

    # Restrict the alphabet to used letters, keeping declaration order.
    new_letter = [0] * len(raw.letters)
    letter_names: list[str] = []
    for a, name in enumerate(raw.letters):
        if used[a]:
            new_letter[a] = len(letter_names)
            letter_names.append(name)
    k = len(letter_names)

    # Counting sort by destination; the prefix sums double as in_offsets.
    counts = [0] * (n + 1)
    for _src, _a, dst in indexed:
        counts[dst + 1] += 1
    for q in range(n):
        counts[q + 1] += counts[q]
    in_offsets = list(counts)
    sorted_transitions: list[tuple[int, int, int]] = [(0, 0, 0)] * m
    cursor = counts[:]
    for src, a, dst in indexed:
        sorted_transitions[cursor[dst]] = (src, new_letter[a], dst)
        cursor[dst] += 1

    return NormalizedDlts(
        n=n,
        k=k,
        m=m,
        transitions=sorted_transitions,
        in_offsets=in_offsets,
        state_names=list(raw.states),
        letter_names=letter_names,
    )


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
# `#` starts a comment; blank lines are ignored.

_TOKEN = re.compile(r"\S+")

_DLTS_HEADERS = ("states:", "letters:")
_DFA_HEADERS = _DLTS_HEADERS + ("initial:", "finals:")


def _content_lines(text: str):
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        cut = raw_line.find("#")
        line = raw_line if cut < 0 else raw_line[:cut]
        tokens = [(match.group(), match.start() + 1) for match in _TOKEN.finditer(line)]
        if tokens:
            yield lineno, tokens


def _parse_sections(text: str, kind: str):
    lines = list(_content_lines(text))
    if not lines:
        raise LtsParseError(f"empty input, expected a `{kind} <n-states>` header")
    lineno, tokens = lines[0]
    word, col = tokens[0]
    if word != kind:
        raise LtsParseError(f"expected `{kind}` header, got {word!r}", lineno, col)
    if len(tokens) != 2:
        raise LtsParseError(f"expected `{kind} <n-states>`", lineno, col)
    count, col = tokens[1]
    # str.isdigit alone also accepts digits that int() rejects, such as "²".
    if not (count.isascii() and count.isdigit()):
        raise LtsParseError(f"state count must be ASCII digits, got {count!r}", lineno, col)
    n = int(count)

    allowed = _DFA_HEADERS if kind == "dfa" else _DLTS_HEADERS
    headers: dict[str, tuple[int, list[tuple[str, int]]]] = {}
    transition_lines: list[tuple[int, list[tuple[str, int]]]] = []
    for lineno, tokens in lines[1:]:
        word, col = tokens[0]
        if word in allowed:
            if word in headers:
                raise LtsParseError(f"duplicate `{word}` line", lineno, col)
            headers[word] = (lineno, tokens[1:])
        elif word in _DFA_HEADERS:
            raise LtsParseError(f"`{word}` is only valid in dfa files", lineno, col)
        elif word.endswith(":"):
            raise LtsParseError(f"unknown header {word!r}", lineno, col)
        else:
            if len(tokens) != 3:
                raise LtsParseError("expected `<src> <letter> <dst>`", lineno, col)
            transition_lines.append((lineno, tokens))
    return n, headers, transition_lines


def _resolve_states(n: int, headers) -> tuple[list[str], dict[str, int]]:
    if "states:" in headers:
        lineno, tokens = headers["states:"]
        names = [tok for tok, _col in tokens]
        if len(names) != n:
            raise LtsParseError(
                f"`states:` lists {len(names)} names but the header declares {n}", lineno
            )
        index: dict[str, int] = {}
        for tok, col in tokens:
            if tok in index:
                raise LtsParseError(f"duplicate state name {tok!r}", lineno, col)
            index[tok] = len(index)
        return names, index
    names = [str(i) for i in range(n)]
    return names, {name: i for i, name in enumerate(names)}


def _parse_body(n: int, headers, transition_lines, kind: str):
    state_names, state_index = _resolve_states(n, headers)

    # Insertion-ordered set of letters: declaration order, else first use.
    letters: dict[str, None] = {}
    declared = "letters:" in headers
    if declared:
        lineno, tokens = headers["letters:"]
        for tok, col in tokens:
            if tok in letters:
                raise LtsParseError(f"duplicate letter name {tok!r}", lineno, col)
            letters[tok] = None

    transitions: list[tuple[str, str, str]] = []
    seen: set[tuple[str, str, str]] = set()
    for lineno, tokens in transition_lines:
        (src, src_col), (letter, letter_col), (dst, dst_col) = tokens
        if src not in state_index:
            raise LtsParseError(f"undeclared state {src!r}", lineno, src_col)
        if dst not in state_index:
            raise LtsParseError(f"undeclared state {dst!r}", lineno, dst_col)
        if letter not in letters:
            if declared:
                raise LtsParseError(f"undeclared letter {letter!r}", lineno, letter_col)
            letters[letter] = None
        triple = (src, letter, dst)
        if triple in seen:
            raise LtsParseError(f"duplicate transition {src} {letter} {dst}", lineno, src_col)
        seen.add(triple)
        transitions.append(triple)

    raw = RawLts(states=state_names, letters=list(letters), transitions=transitions)
    if kind == "dlts":
        return raw

    initial: int | None = None
    if "initial:" in headers:
        lineno, tokens = headers["initial:"]
        if len(tokens) != 1:
            raise LtsParseError("`initial:` takes exactly one state name", lineno)
        name, col = tokens[0]
        if name not in state_index:
            raise LtsParseError(f"undeclared state {name!r}", lineno, col)
        initial = state_index[name]
    elif n > 0:
        raise LtsParseError("missing `initial:` line")

    finals: set[int] = set()
    if "finals:" in headers:
        lineno, tokens = headers["finals:"]
        for name, col in tokens:
            if name not in state_index:
                raise LtsParseError(f"undeclared state {name!r}", lineno, col)
            finals.add(state_index[name])
    return Dfa(dlts=raw, initial=initial, finals=finals)


def parse_lts(text: str) -> RawLts:
    """Parse the `dlts` text format; diagnostics carry line/column positions."""
    n, headers, transition_lines = _parse_sections(text, "dlts")
    return _parse_body(n, headers, transition_lines, "dlts")


def parse_dfa(text: str) -> Dfa:
    """Parse the `dfa` text format (dlts format plus `initial:`/`finals:`)."""
    n, headers, transition_lines = _parse_sections(text, "dfa")
    return _parse_body(n, headers, transition_lines, "dfa")


def parse_partition(text: str, state_names: Sequence[str]) -> list[set[int]]:
    """Parse a partition file: one block per line, member names space-separated.

    The blocks must partition the full state set exactly.
    """
    index = {name: i for i, name in enumerate(state_names)}
    blocks: list[set[int]] = []
    assigned: dict[int, int] = {}
    for lineno, tokens in _content_lines(text):
        block: set[int] = set()
        for name, col in tokens:
            if name not in index:
                raise LtsParseError(f"unknown state {name!r}", lineno, col)
            q = index[name]
            if q in assigned:
                raise LtsParseError(
                    f"state {name!r} already belongs to the block on line {assigned[q]}",
                    lineno,
                    col,
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
    normalized = dfa.normalized()
    return _format(normalized.dlts, "dfa", normalized.initial, normalized.finals)


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
