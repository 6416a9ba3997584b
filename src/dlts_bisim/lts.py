"""Labelled transition systems: text formats, validation, indexed encoding.

The refinement engine works on a dense, index-based encoding of a
deterministic LTS in which the alphabet is restricted to letters that
actually label a transition and the transitions are held as parallel
source and letter columns sorted by destination, so that the incoming
transitions of a state form one contiguous slice.  Text and names are
turned into index columns a whole column at a time; a per-item loop over
the names runs only to locate the first error.  Encoding then groups the
transitions by destination in one stable counting-sort pass: O(m + n)
time, two columns of length m and one slot array of length n.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import add, itemgetter, mul, sub
from typing import Container, Iterable, Sequence


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
    which is also where the system is validated.  `parse_lts` also keeps
    its checked index columns on the instance, with copies of the three
    lists they encode; `normalize` reuses them while the lists still equal
    the copies.
    """

    states: list[str]
    letters: list[str]
    transitions: list[tuple[str, str, str]]


@dataclass
class NormalizedDlts:
    """Dense index encoding of a deterministic LTS.

    Transitions are stored column-wise and sorted by destination: transition
    t runs from state in_src[t] on letter in_letter[t], and the incoming
    transitions of state q are exactly the indices
    in_offsets[q] <= t < in_offsets[q + 1].  Letter indices cover only
    letters that label at least one transition, so k <= m.  Instances are
    immutable after construction and safe to share between threads.
    """

    n: int
    k: int
    m: int
    in_src: list[int]
    in_letter: list[int]
    in_offsets: list[int]
    state_names: list[str]
    letter_names: list[str]

    @classmethod
    def from_columns(
        cls,
        n: int,
        src: Sequence[int],
        letter: Sequence[int],
        dst: Sequence[int],
        state_names: list[str],
        letter_names: Sequence[str],
    ) -> "NormalizedDlts":
        """Encode columns that `_encode` has checked, or that are valid by construction.

        The transitions are grouped by destination in one stable counting-sort
        pass, so each incoming slice keeps input order; then `from_sorted`
        encodes them.  This takes O(m + n) time, the two sorted columns of
        length m and one slot array of length n.  Raises LtsError if the
        columns differ in length, a source or destination is outside 0..n-1,
        or a letter is outside 0..len(letter_names)-1.
        """
        m = len(dst)
        if not len(src) == len(letter) == m:
            raise LtsError(f"columns of {len(src)}, {len(letter)} and {m} transitions")
        if m and (min(src) < 0 or max(src) >= n):
            bad = next(s for s in src if s not in range(n))
            raise LtsError(f"source state index {bad!r} out of range")
        if not set(letter).issubset(range(len(letter_names))):
            bad = next(a for a in letter if a not in range(len(letter_names)))
            raise LtsError(f"letter index {bad!r} out of range")
        per_dst = Counter(dst)
        in_offsets = list(accumulate(map(per_dst.get, range(n), repeat(0)), initial=0))
        del per_dst
        if in_offsets[-1] != m:  # the offsets count only destinations in 0..n-1
            bad = next(d for d in dst if d not in range(n))
            raise LtsError(f"destination state index {bad!r} out of range")
        in_src = [0] * m
        in_letter = [0] * m
        slot = in_offsets[:-1]  # the next free position of each destination
        for s, a, d in zip(src, letter, dst):
            t = slot[d]
            slot[d] = t + 1
            in_src[t] = s
            in_letter[t] = a
        return cls.from_sorted(n, in_src, in_letter, in_offsets, state_names, letter_names)

    @classmethod
    def from_sorted(
        cls,
        n: int,
        in_src: list[int],
        in_letter: list[int],
        in_offsets: list[int],
        state_names: list[str],
        letter_names: Sequence[str],
    ) -> "NormalizedDlts":
        """Encode valid columns that are already sorted by destination, with their offsets.

        Unused letters are dropped, keeping the order of the others.  The
        result may keep the given lists as its own.
        """
        used = set(in_letter)
        is_used = list(map(used.__contains__, range(len(letter_names))))
        if len(used) < len(letter_names):
            new_letter = list(accumulate(is_used, initial=0))  # used letters before each letter
            in_letter = list(map(new_letter.__getitem__, in_letter))
        kept = list(compress(letter_names, is_used))
        return cls(n, len(kept), len(in_src), in_src, in_letter, in_offsets, state_names, kept)

    def destinations(self) -> list[int]:
        """The destination of each transition, expanded from `in_offsets`."""
        offsets = self.in_offsets
        return list(chain.from_iterable(map(repeat, range(self.n), map(sub, offsets[1:], offsets))))

    def triples(self) -> list[tuple[int, int, int]]:
        """(source, letter, destination) per transition, in storage order; built on demand."""
        return list(zip(self.in_src, self.in_letter, self.destinations()))


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
    index = dict(zip(names, range(len(names))))
    if len(index) == len(names) and all(map(rule.fullmatch, names)):
        return index
    seen: set[str] = set()
    for name in names:  # the first bad name, in declaration order
        if not rule.fullmatch(name):
            raise LtsError(f"{what} name {name!r} {rule_text}")
        if name in seen:
            raise LtsError(f"duplicate {what} name {name!r}")
        seen.add(name)
    raise AssertionError("unreachable: the bulk check failed on good names")


def normalize(raw: RawLts) -> NormalizedDlts:
    """Validate `raw` and encode it: used-only alphabet, destination-sorted transitions.

    States without any incident transition are retained: the index space is
    identical to the declaration order of `raw.states`.  Raises
    NondeterminismError, listing each (state, letter) pair with two outgoing
    transitions once, in first-conflict order; LtsError for bad, repeated
    or undeclared names and repeated triples.
    """
    snapshot, columns = getattr(raw, "_parsed", (None, None))
    if snapshot != (raw.states, raw.letters, raw.transitions):
        states, letters = _index_names(raw.states, "state"), _index_names(raw.letters, "letter")
        columns, defect = _encode(raw.transitions, states, letters)
        if isinstance(defect, list):
            raise NondeterminismError(defect)
        if defect is not None:
            i, token, message = defect
            if token is not None:
                message += " in transition {} {} {}".format(*raw.transitions[i])
            raise LtsError(message)
    return NormalizedDlts.from_columns(len(raw.states), *columns, list(raw.states), raw.letters)


def _encode(transitions: Sequence[Sequence[str]], states: dict[str, int], letters: dict[str, int]):
    """The (source, letter, destination) index columns of `transitions`, and None; or None
    and `_first_defect`'s result, if a name is undeclared or a (source, letter) pair repeats.
    """
    try:
        src = list(map(states.__getitem__, map(itemgetter(0), transitions)))
        letter = list(map(letters.__getitem__, map(itemgetter(1), transitions)))
        dst = list(map(states.__getitem__, map(itemgetter(2), transitions)))
    except KeyError:
        return None, _first_defect(transitions, states, letters)
    # One int key per (source, letter): a repeat is a repeated triple or a fork.
    if len(set(map(add, map(mul, src, repeat(len(letters))), letter))) != len(src):
        return None, _first_defect(transitions, states, letters)
    return (src, letter, dst), None


def _first_defect(
    transitions: Sequence[Sequence[str]],
    states: Container[str],
    letters: Container[str],
) -> tuple[int, int | None, str] | list[tuple[str, str]]:
    """The first undeclared name or repeated triple of `transitions`, in input order.

    Returns (transition index, index of the undeclared token, message); the
    token index is None for a repeated triple.  Forks do not stop the scan:
    without such a defect, the result is the list of (state, letter) pairs
    with two or more destinations, each once, in first-conflict order.
    """
    seen: set[tuple[str, str, str]] = set()
    first_dst: dict[tuple[str, str], str] = {}
    forked: dict[tuple[str, str], None] = {}  # insertion-ordered set
    for i, (src, letter, dst) in enumerate(transitions):
        if src not in states:
            return i, 0, f"undeclared state {src!r}"
        if dst not in states:
            return i, 2, f"undeclared state {dst!r}"
        if letter not in letters:
            return i, 1, f"undeclared letter {letter!r}"
        if (src, letter, dst) in seen:
            return i, None, f"duplicate transition {src} {letter} {dst}"
        seen.add((src, letter, dst))
        if first_dst.setdefault((src, letter), dst) != dst:
            forked[(src, letter)] = None
    return list(forked)


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


def _rows(text: str) -> list[tuple[str, ...]]:
    """The tokens of each line of `text`, comments cut, one tuple per line."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.partition("#")[0] for line in lines]
    return list(map(tuple, map(str.split, lines)))


def _error_at(text: str, message: str, lineno: int, index: int) -> LtsParseError:
    """An error at the index-th token of a line, whose column only errors compute.

    `str.split` and `_TOKEN` split at the same characters.
    """
    line = text.splitlines()[lineno - 1].partition("#")[0]
    match = next(islice(_TOKEN.finditer(line), index, None))
    return LtsParseError(message, lineno, match.start() + 1)


def _parse(text: str, kind: str):
    """The system in `text`, its headers, state index and `_encode` pair; forks pass."""
    rows = _rows(text)
    first = next(compress(count(), rows), None)
    if first is None:
        raise LtsParseError(f"empty input, expected a `{kind} <n-states>` header")
    lineno, tokens = first + 1, rows[first]
    if tokens[0] != kind:
        raise _error_at(text, f"expected `{kind}` header, got {tokens[0]!r}", lineno, 0)
    if len(tokens) != 2:
        raise _error_at(text, f"expected `{kind} <n-states>`", lineno, 0)
    count_token = tokens[1]
    # str.isdigit alone also accepts digits that int() rejects, such as "²".
    if not (count_token.isascii() and count_token.isdigit()):
        raise _error_at(text, f"state count must be ASCII digits, got {count_token!r}", lineno, 1)
    n = int(count_token)

    # Every row but the `<src> <letter> <dst>` ones is handled line by line,
    # in order: blank lines, headers and rows of the wrong shape.
    is_transition = [True] * len(rows)
    is_transition[: first + 1] = [False] * (first + 1)
    allowed = _DFA_HEADERS if kind == "dfa" else _DLTS_HEADERS
    headers: dict[str, tuple[int, tuple[str, ...]]] = {}
    for i in [i for i, row in enumerate(rows) if len(row) != 3 or row[0][-1] == ":"]:
        is_transition[i] = False
        tokens = rows[i]
        if i <= first or not tokens:
            continue
        lineno, word = i + 1, tokens[0]
        if word.endswith(":"):
            if word not in _DFA_HEADERS:
                raise _error_at(text, f"unknown header {word!r}", lineno, 0)
            if word not in allowed:
                raise _error_at(text, f"`{word}` is only valid in dfa files", lineno, 0)
            if word in headers:
                raise _error_at(text, f"duplicate `{word}` line", lineno, 0)
            headers[word] = (lineno, tokens)
        else:
            raise _error_at(text, "expected `<src> <letter> <dst>`", lineno, 0)

    if "states:" in headers:
        lineno, tokens = headers["states:"]
        state_names = list(tokens[1:])
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
        state_index = dict(zip(state_names, range(n)))

    # Letter indices in declaration order, else in order of first use.
    letters: dict[str, int] = {}
    if "letters:" in headers:
        lineno, tokens = headers["letters:"]
        for i in range(1, len(tokens)):
            if tokens[i] in letters:
                raise _error_at(text, f"duplicate letter name {tokens[i]!r}", lineno, i)
            letters[tokens[i]] = i - 1

    transitions: list[tuple[str, str, str]] = list(compress(rows, is_transition))
    del rows
    if "letters:" not in headers:
        letters = dict(zip(dict.fromkeys(map(itemgetter(1), transitions)), count()))
    columns, defect = _encode(transitions, state_index, letters)
    if isinstance(defect, tuple):  # an undeclared name or a repeated triple; forks go on
        i, token, message = defect
        lineno = next(islice(compress(count(1), is_transition), i, None))
        raise _error_at(text, message, lineno, token or 0)

    raw = RawLts(states=state_names, letters=list(letters), transitions=transitions)
    return raw, headers, state_index, (columns, defect)


def parse_lts(text: str) -> RawLts:
    """Parse the `dlts` text format; diagnostics carry line/column positions."""
    raw, _headers, _state_index, (columns, _forks) = _parse(text, "dlts")
    if columns is not None:  # no fork: `normalize` may reuse the checked columns
        raw._parsed = (list(raw.states), list(raw.letters), list(raw.transitions)), columns
    return raw


def parse_dfa(text: str) -> Dfa:
    """Parse the `dfa` format (dlts plus `initial:`/`finals:`); forks raise after those."""
    raw, headers, state_index, (columns, forks) = _parse(text, "dfa")
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
    if forks:
        raise NondeterminismError(forks)
    dlts = NormalizedDlts.from_columns(len(raw.states), *columns, raw.states, raw.letters)
    return Dfa(dlts=dlts, initial=initial, finals=finals)


def parse_partition(text: str, state_names: Sequence[str]) -> list[set[int]]:
    """Parse a partition file: one block per line, member names space-separated.

    The blocks must partition the full state set exactly.
    """
    index = {name: i for i, name in enumerate(state_names)}
    blocks: list[set[int]] = []
    assigned: dict[int, int] = {}
    for lineno, tokens in enumerate(_rows(text), start=1):
        if not tokens:
            continue
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
    names = dlts.state_names
    sources = map(names.__getitem__, dlts.in_src)
    letters = map(dlts.letter_names.__getitem__, dlts.in_letter)
    lines.extend(map(" ".join, zip(sources, letters, map(names.__getitem__, dlts.destinations()))))
    return "\n".join(lines) + "\n"


def format_partition(canonical_blocks: Iterable[Iterable[int]], state_names: Sequence[str]) -> str:
    """Serialize canonical partition blocks: one line per block, names by index order."""
    lines = [" ".join(state_names[q] for q in block) for block in canonical_blocks]
    return "\n".join(lines) + ("\n" if lines else "")
