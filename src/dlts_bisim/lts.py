"""Labelled transition systems: text formats, validation, indexed encoding.

The refinement engine works on a dense, index-based encoding of a
deterministic LTS in which the alphabet is restricted to letters that
actually label a transition.  Its destination-grouped view holds the
transitions as parallel source and letter columns sorted by destination, so
that the incoming transitions of a state form one contiguous slice.  Names
become index columns a whole column at a time through dicts, and
`parse_lts`, `parse_dfa` and `normalize` then judge every rule on those ints
through one resolver, `_encode`, which raises the first defect through a
locator that its caller passes.  All three keep the (source, letter,
destination) columns in input order and group them by destination only when
the view is first read, in one stable counting-sort pass (`_grouped`):
O(m + n) time, two columns of length m and one slot array of length n; the
view then replaces the input-order columns.  Pre-refinement and the
stability pass read whichever of the two forms the system holds, so a run
whose refinement loop does not start never sorts.

Every reader takes a text one 64 K piece at a time (`_pieces`).  The parsers
turn each piece's transition lines into int columns before they read the
next, so the parse peak is the three int columns, the names and one piece's
tokens.  Only the lines that lead the text up to its first transition line
are cut off and walked line by line on their own.  A plain piece after
them, one that is exactly transition lines of three single-spaced tokens
(`_plain`), becomes name columns through one flat split and three stride
slices; any other piece, and every piece on the error path, is walked line
by line (`_split`).
A transition's line is found only on the error path, by counting the
transition lines again.  The determinism check marks one byte per (state,
letter) cell when there are at most 8 cells per transition, and otherwise
keeps a hash set of the m (source, letter) keys.
"""

from __future__ import annotations

import re
from collections import Counter, deque
from dataclasses import dataclass
from itertools import accumulate, chain, compress, count, filterfalse, islice, repeat
from operator import add, eq, itemgetter, mul, setitem, sub
from typing import Iterable, Iterator, Sequence


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
    """A labelled transition system over named states and letters, built in memory.

    States and letters are identified by their declaration order; letters
    that label no transition are allowed here and dropped by `normalize`,
    which is also where the system is validated.
    """

    states: list[str]
    letters: list[str]
    transitions: list[tuple[str, str, str]]


class NormalizedDlts:
    """Dense index encoding of a deterministic LTS.

    The destination-grouped view holds the transitions column-wise: transition
    t runs from state in_src[t] on letter in_letter[t], and the incoming
    transitions of state q are exactly the indices
    in_offsets[q] <= t < in_offsets[q + 1].  Letter indices cover only
    letters that label at least one transition, so k <= m.  `n`, `k` and `m`
    are the lengths of `state_names`, `letter_names` and the columns.

    The transitions are held in one attribute, in one of two forms: input
    order, (source, letter, None, destination), from `_from_columns`, which
    the parsers and `normalize` use; or grouped, (in_src, in_letter,
    in_offsets, None), from the constructor.
    The first read of `in_src`, `in_letter` or `in_offsets` groups an
    input-order system by one stable counting sort and replaces the attribute,
    so a system keeps 3m ints in input order and 2m + n + 1 once grouped.
    Readers that need no grouping (`init_refine`, the stability pass) read
    the form held through `_stored`.  Equality compares the views and the
    names.  Instances are immutable after construction, apart from that
    one-time grouping, and safe to share between threads: each reader reads
    the attribute once, and the grouping replaces it in one assignment.

    Only the parsers and `normalize` check names; the constructor trusts its
    lists, apart from dropping the letters that label no transition.
    """

    def __init__(self, in_src: list[int], in_letter: list[int], in_offsets: list[int],
                 state_names: list[str], letter_names: list[str]):
        used = set(in_letter)
        if len(used) < len(letter_names):
            is_used = list(map(used.__contains__, range(len(letter_names))))
            new_letter = list(accumulate(is_used, initial=0))  # used letters before each letter
            in_letter = list(map(new_letter.__getitem__, in_letter))
            letter_names = list(compress(letter_names, is_used))
        self.state_names, self.letter_names = state_names, letter_names
        self._transitions = (in_src, in_letter, in_offsets, None)

    n = property(lambda self: len(self.state_names))
    k = property(lambda self: len(self.letter_names))
    m = property(lambda self: len(self._transitions[0]))

    @classmethod
    def _from_columns(cls, src: list[int], letter: list[int], dst: list[int],
                      state_names: list[str], letter_names: Sequence[str]) -> "NormalizedDlts":
        """Encode `_encode`'s (source, letter, destination) index columns, kept in input order.

        Unused letters are dropped, as in the constructor; the view is built
        on first read.  The columns are trusted: `_encode` has resolved them.
        """
        T = cls(src, letter, None, state_names, letter_names)
        T._transitions = (*T._transitions[:3], dst)
        return T

    def _grouped_view(self) -> tuple[list[int], list[int], list[int]]:
        src, letter, offsets, dst = self._transitions
        if offsets is None:
            src, letter, offsets = _grouped(src, letter, dst, self.n)
            self._transitions = (src, letter, offsets, None)
        return src, letter, offsets

    in_src = property(lambda self: self._grouped_view()[0])
    in_letter = property(lambda self: self._grouped_view()[1])
    in_offsets = property(lambda self: self._grouped_view()[2])

    def _stored(self) -> tuple[list[int], list[int], Iterable[int]]:
        """The source, letter and destination columns of the form the system holds.

        A grouped system's destinations come expanded from its offsets, as an
        iterator.  The view is never built here.
        """
        src, letter, offsets, dst = self._transitions
        return src, letter, _expanded(offsets) if dst is None else dst

    def destinations(self) -> list[int]:
        """The destination of each transition of the view, expanded from `in_offsets`."""
        return list(_expanded(self.in_offsets))

    def triples(self) -> list[tuple[int, int, int]]:
        """(source, letter, destination) per transition, in view order; built on demand."""
        return list(zip(self.in_src, self.in_letter, self.destinations()))

    def _fields(self) -> tuple:
        return (*self._grouped_view(), self.state_names, self.letter_names)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        names = ("in_src", "in_letter", "in_offsets", "state_names", "letter_names")
        return "NormalizedDlts({})".format(
            ", ".join(f"{name}={value!r}" for name, value in zip(names, self._fields())))


def _expanded(offsets: list[int]) -> Iterator[int]:
    """Each state q repeated offsets[q + 1] - offsets[q] times, in state order."""
    return chain.from_iterable(map(repeat, count(), map(sub, offsets[1:], offsets)))


def _grouped(src: Sequence[int], letter: Sequence[int], dst: Sequence[int], n: int):
    """The (in_src, in_letter, in_offsets) view of valid columns: the transitions
    grouped by destination in one stable counting-sort pass, so each incoming
    slice keeps storage order.  O(m + n) time, two columns of length m and
    one slot array of length n."""
    per_dst = Counter(dst)
    in_offsets = list(accumulate(map(per_dst.get, range(n), repeat(0)), initial=0))
    del per_dst
    in_src = [0] * len(dst)
    in_letter = [0] * len(dst)
    slot = in_offsets[:-1]  # the next free position of each destination
    for s, a, d in zip(src, letter, dst):
        t = slot[d]
        slot[d] = t + 1
        in_src[t] = s
        in_letter[t] = a
    return in_src, in_letter, in_offsets


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


def _broken_rule(names: Sequence[str], what: str) -> str | None:
    """How some name of `names` breaks the rules for a `what` name, or None.

    Names must survive a trip through the text format: one token, no comment
    sign, and no state name that would read as a header word at a line start.
    The names are checked joined, so a whole list costs about one Python step.
    """
    run = "".join(names)  # one token if no name is empty or holds whitespace
    if names and (not all(names) or "#" in run or run.split(None, 1) != [run]):
        return "is empty or has whitespace or `#`"
    if what == "state" and ": " in " ".join(names) + " ":
        return "ends in `:`"
    return None


def _bad_name(names: Sequence[str], distinct: bool, what: str) -> tuple[int, str] | None:
    """The first name of `names` that breaks a rule or repeats, as (index, message), or None.

    `distinct` says whether the names are distinct, which the size of their index tells,
    so a good list costs one `_broken_rule` call; only a bad one is walked name by name.
    """
    if distinct and _broken_rule(names, what) is None:
        return None
    named: set[str] = set()
    for i, name in enumerate(names):
        if rule := _broken_rule([name], what):
            return i, f"{what} name {name!r} {rule}"
        if name in named:
            return i, f"duplicate {what} name {name!r}"
        named.add(name)
    return None


def normalize(raw: RawLts | NormalizedDlts) -> NormalizedDlts:
    """Validate `raw` and encode it: used-only alphabet, transitions kept in input order.

    States without any incident transition are retained: the index space is
    identical to the declaration order of `raw.states`.  Raises
    NondeterminismError, listing each (state, letter) pair with two outgoing
    transitions once, in first-conflict order; LtsError for bad, repeated
    or undeclared names and repeated triples.  A `NormalizedDlts` is returned as is.
    """
    if isinstance(raw, NormalizedDlts):
        return raw
    states, letters = _indexed(raw.states), _indexed(raw.letters)
    columns = [_ids(list(map(itemgetter(token), raw.transitions)), *names)
               for token, names in ((0, states), (1, letters), (2, states))]

    def fail(_where: int, i: int, token: int | None, message: str) -> LtsError:
        if token is not None:
            message += " in transition {} {} {}".format(*raw.transitions[i])
        return LtsError(message)

    forks = _encode(states, letters, len(raw.states), len(raw.letters), columns, fail)
    return _encoded(states[1], letters[1], columns, forks)


def _encoded(state_names: list[str], letter_names: Sequence[str], columns, forks) -> NormalizedDlts:
    """`_encode`'s columns as a `NormalizedDlts`, or its forks as NondeterminismError."""
    if forks:
        raise NondeterminismError(forks)
    return NormalizedDlts._from_columns(*columns, state_names, letter_names)


# Names are resolved through (index, names) pairs: `names[i]` is the name that id i stands
# for and `index` maps each name back to its id.  The first names are the declared ones;
# a name met in a transition that the index lacks is appended, so an id always encodes its
# name exactly, and an id past the declared names stands for an undeclared one.


def _indexed(declared: Sequence[str]) -> tuple[dict[str, int], list[str]]:
    return dict(zip(declared, count())), list(declared)


def _ids(column: Sequence[str], index: dict[str, int], names: list[str]) -> list[int]:
    """The id of each name of `column`; names that `index` lacks are appended first."""
    try:
        return list(map(index.__getitem__, column))
    except KeyError:
        for name in column:
            if name not in index:
                index[name] = len(names)
                names.append(name)
        return list(map(index.__getitem__, column))


def _encode(states, letters, n: int, k: int, columns: Sequence[list[int]], fail):
    """Judge indexed names and the (source, letter, destination) id columns made with them.

    `states` and `letters` are (index, names) pairs whose first n and k names are the
    declared ones.  The first defect among the state names, letter names and transitions,
    in that order, raises `fail(where, index, token, message)`: `where` 0, 1 or 2 picks the
    list, `index` the item, and `token` an undeclared name's place in its transition, else
    None.  Forks do not stop the scan: the result is the forked (state, letter) name pairs,
    once each, in first-conflict order, and empty when there are none.
    """
    for where, (index, names), size, what in ((0, states, n, "state"), (1, letters, k, "letter")):
        declared = names[:size] if len(names) > size else names
        bad = _bad_name(declared, len(index) == len(names), what)
        if bad is not None:
            raise fail(where, bad[0], None, bad[1])
    state_names, letter_names = states[1], letters[1]
    src, letter, dst = columns
    if len(state_names) == n and len(letter_names) == k and not _repeats(src, letter, n, k):
        return []
    defect = _first_defect(src, letter, dst, n, k)
    if isinstance(defect, list):
        return [(state_names[s], letter_names[a]) for s, a in defect]
    i, token = defect
    triple = (state_names[src[i]], letter_names[letter[i]], state_names[dst[i]])
    if token is None:
        raise fail(2, i, None, "duplicate transition {} {} {}".format(*triple))
    raise fail(2, i, token, f"undeclared {'letter' if token == 1 else 'state'} {triple[token]!r}")


def _repeats(src: list[int], letter: list[int], n: int, k: int) -> bool:
    """Whether some (source, letter) pair repeats: a repeated triple or a fork.  The int keys
    `src * k + letter` are counted as marked cells of an n-by-k byte table when it takes at
    most 8 bytes per transition, else as a set."""
    keys = map(add, map(mul, src, repeat(k)), letter)
    cells = n * k
    if cells <= 8 * len(src):
        seen = bytearray(cells)
        deque(map(setitem, repeat(seen), keys, repeat(1)), 0)
        return cells - seen.count(0) != len(src)
    return len(set(keys)) != len(src)


def _first_defect(src: list[int], letter: list[int], dst: list[int], n: int, k: int):
    """The first defective transition of id columns in which a state id of n or more and a
    letter id of k or more stand for undeclared names: (i, None) if transition i repeats an
    earlier triple, (i, token) if its `token`-th name is undeclared.  Without one, the forked
    (source, letter) id pairs, once each, in first-conflict order.

    The first undeclared name is found a column at a time; repeats and forks are then
    found on the `src * k + letter` int keys of the transitions before it."""
    # At one transition, the source is reported before the destination and the
    # destination before the letter.
    undeclared = None
    stop = len(src)
    for token, column, size in ((0, src, n), (2, dst, n), (1, letter, k)):
        i = next(compress(count(), map(size.__le__, islice(column, stop))), None)
        if i is not None:
            undeclared, stop = (i, token), i

    def keys() -> Iterator[int]:  # one per transition before `stop`
        return map(add, map(mul, islice(src, stop), repeat(k)), islice(letter, stop))

    # The keys that occur more than once, adjacent once sorted.
    ordered = sorted(keys())
    repeated = set(compress(ordered, map(eq, ordered, islice(ordered, 1, None))))
    del ordered
    # Each repeated key's first destination, then the later (key, destination)
    # pairs as int keys; forked keys in first-conflict order.
    first_dst: dict[int, int] = {}
    later: set[int] = set()
    forked: dict[int, None] = {}
    for i, key, d in zip(count(), keys(), dst):
        if key not in repeated:
            continue
        known = first_dst.get(key)
        if known is None:
            first_dst[key] = d
            continue
        pair = key * n + d
        if known == d or pair in later:
            return i, None
        later.add(pair)
        forked[key] = None
    if undeclared is not None:
        return undeclared
    return [divmod(key, k) for key in forked]


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
# `#` starts a comment; blank lines are ignored.  `_broken_rule` says which
# tokens are names.

_TOKEN = re.compile(r"\S+")

_DLTS_HEADERS = ("states:", "letters:")
_DFA_HEADERS = _DLTS_HEADERS + ("initial:", "finals:")


_PIECE = 1 << 16


def _pieces(text: str) -> Iterator[str]:
    """`text` cut after a "\\n" every `_PIECE` or more characters, so that only one piece's
    line strings are alive at a time.  A "\\n" ends a line for `splitlines` whether or not
    a "\\r" precedes it, so no line is cut."""
    start = 0
    while start < len(text):
        stop = text.find("\n", start + _PIECE - 1) + 1 or len(text)
        yield text[start:stop]
        start = stop


def _headed_pieces(text: str) -> Iterator[tuple[str, bool]]:
    """The pieces of `text`, each with whether `_plain` may read it.

    The lines that lead the text up to its first line after the `<kind> <n-states>` line
    that is not blank, a comment or a header are cut off their piece, and may not be
    plain; the rest of that piece and every later piece may.  Those leading lines are
    judged by their first token only.  The cut falls after a "\\n", so the lines read
    are the same wherever it falls.
    """
    pieces = _pieces(text)
    started = False  # whether a line with a token, the `<kind> <n-states>` line, was met
    for piece in pieces:
        start = 0
        while end := piece.find("\n", start) + 1:
            first = piece[start:end].partition("#")[0].split(None, 1)
            if first and started and not first[0].endswith(":"):
                if start:
                    yield piece[:start], False
                yield piece[start:], True
                yield from zip(pieces, repeat(True))
                return
            started = started or bool(first)
            start = end
        yield piece, False


def _split(piece: str) -> list[list[str]]:
    """The tokens of each line of `piece`, comments cut, one list per line."""
    lines = piece.splitlines()
    if "#" in piece:
        lines = [line.partition("#")[0] for line in lines]
    return list(map(str.split, lines))


def _plain(piece: str) -> list[list[str]] | None:
    """The source, letter and destination name columns of `piece` if it is plain, else None.

    A piece is plain when it is exactly its tokens written three to a line, joined by
    single spaces, each line ended by "\\n", with no `#` and no first token that ends in
    `:`.  Its lines are then all transition lines, and the columns are those that `_split`
    and `_odd_rows` would give; rebuilding the text from the columns is the check.
    """
    if "#" in piece:
        return None
    tokens = piece.split()
    columns = [tokens[0::3], tokens[1::3], tokens[2::3]]
    if ("\n".join(map(" ".join, zip(*columns))) + "\n" == piece and tokens
            and (": " not in piece or ": " not in " ".join(columns[0]) + " ")):
        return columns
    return None


def _line(text: str, lineno: int) -> str:
    """Line `lineno` of `text`, counted from 1 as `splitlines` counts."""
    return next(islice(chain.from_iterable(map(str.splitlines, _pieces(text))), lineno - 1, None))


def _error_at(text: str, message: str, lineno: int, index: int) -> LtsParseError:
    """An error at the index-th token of a line, whose column only errors compute.

    `str.split` and `_TOKEN` split at the same characters.
    """
    line = _line(text, lineno).partition("#")[0]
    match = next(islice(_TOKEN.finditer(line), index, None))
    return LtsParseError(message, lineno, match.start() + 1)


def _state_count(text: str, kind: str, tokens: list[str], lineno: int) -> int:
    """The state count of the `<kind> <n-states>` line: the first line that is not blank."""
    if tokens[0] != kind:
        raise _error_at(text, f"expected `{kind}` header, got {tokens[0]!r}", lineno, 0)
    if len(tokens) != 2:
        raise _error_at(text, f"expected `{kind} <n-states>`", lineno, 0)
    count_token = tokens[1]
    # str.isdigit alone also accepts digits that int() rejects, such as "²".
    if not (count_token.isascii() and count_token.isdigit()):
        raise _error_at(text, f"state count must be ASCII digits, got {count_token!r}", lineno, 1)
    return int(count_token)


def _reindexed(old, declared: list[str], columns: Iterable[list[int]]):
    """The (index, names) pair of the names of a `states:` or `letters:` line.  If ids were
    made before the line, with the pair `old`, the ids in `columns` are re-encoded in place,
    and the names they use that the line lacks are appended as undeclared ones."""
    index, names = _indexed(declared)
    if old is not None:
        new_id = list(map(index.get, old[1]))
        if None in new_id:
            for i in sorted(set(chain.from_iterable(columns))):
                if new_id[i] is None:
                    new_id[i] = index[old[1][i]] = len(names)
                    names.append(old[1][i])
        for column in columns:
            column[:] = map(new_id.__getitem__, column)
    return index, names


def _odd_rows(rows: list[list[str]]) -> list[int]:
    """The indices of the rows that are no `<src> <letter> <dst>` lines: blank lines,
    headers, the `<kind> <n-states>` line and rows of the wrong shape."""
    return [i for i, row in enumerate(rows) if len(row) != 3 or row[0][-1] == ":"]


def _transition_line(text: str, i: int) -> int:
    """The line number of the i-th transition line, counted from 0.  Only errors need it,
    so the transition rows are counted again, one piece at a time."""
    lines_before = 0
    for piece in _pieces(text):
        rows = _split(piece)
        odd = set(_odd_rows(rows))
        lines = len(rows)
        del rows  # before the next piece is split
        if i < lines - len(odd):
            return lines_before + next(islice(filterfalse(odd.__contains__, count()), i, None)) + 1
        i -= lines - len(odd)
        lines_before += lines


def _parse(text: str, kind: str):
    """The headers, state index and `_encoded` arguments of `text`; only forks do not raise.

    The text is read one piece at a time, and each piece's transition lines become
    (source, letter, destination) id columns before the next piece is read.  The lines that
    lead the text up to its first transition line are walked line by line on their own
    (`_headed_pieces`).  A plain piece after them (`_plain`) gives its name columns at once;
    any other is walked line by line, and its lines that are no transition lines are
    handled as they come, so syntax errors raise in line order.  The `states:` count, the
    name lists and the transitions are judged once the whole text is read.
    """
    allowed = _DFA_HEADERS if kind == "dfa" else _DLTS_HEADERS
    headers: dict[str, tuple[int, list[str]]] = {}
    n = None  # until the `<kind> <n-states>` line
    states = None  # an (index, names) pair, made when first needed
    letters: tuple[dict[str, int], list[str]] = ({}, [])  # until a `letters:` line: first use
    columns: tuple[list[int], list[int], list[int]] = ([], [], [])
    lines = 0  # the lines of the pieces read so far
    for piece, may_be_plain in _headed_pieces(text):
        found = _plain(piece) if may_be_plain else None  # a plain piece's name columns
        rows = [] if found else _split(piece)
        del piece  # only its columns or rows are held
        start, lines = lines, lines + (len(found[0]) if found else len(rows))
        if n is None:
            first = next(compress(count(), rows), None)
            if first is None:
                continue
            n = _state_count(text, kind, rows[first], start + first + 1)
            rows[first] = []
        odd = _odd_rows(rows)
        for i in odd:
            tokens = rows[i]
            if not tokens:
                continue
            lineno, word = start + i + 1, tokens[0]
            if not word.endswith(":"):
                raise _error_at(text, "expected `<src> <letter> <dst>`", lineno, 0)
            if word not in _DFA_HEADERS:
                raise _error_at(text, f"unknown header {word!r}", lineno, 0)
            if word not in allowed:
                raise _error_at(text, f"`{word}` is only valid in dfa files", lineno, 0)
            if word in headers:
                raise _error_at(text, f"duplicate `{word}` line", lineno, 0)
            headers[word] = (lineno, tokens)
            if word == "states:":
                states = _reindexed(states, tokens[1:], (columns[0], columns[2]))
            elif word == "letters:":
                letters = _reindexed(letters, tokens[1:], (columns[1],))
        if odd:
            skip = set(odd)
            rows = [row for i, row in enumerate(rows) if i not in skip]
        if rows:
            found = list(zip(*rows))
        del rows
        if found:
            if states is None:
                states = _indexed([str(i) for i in range(n)])
            for token, names in enumerate((states, letters, states)):
                columns[token].extend(_ids(found[token], *names))
        del found  # before the next piece is read
    if n is None:
        raise LtsParseError(f"empty input, expected a `{kind} <n-states>` header")

    if "states:" in headers:
        lineno, tokens = headers["states:"]
        if len(tokens) - 1 != n:
            message = f"`states:` lists {len(tokens) - 1} names but the header declares {n}"
            raise LtsParseError(message, lineno)
    if states is None:
        states = _indexed([str(i) for i in range(n)])
    k = len(headers["letters:"][1]) - 1 if "letters:" in headers else len(letters[1])

    def fail(where: int, i: int, token: int | None, message: str) -> LtsParseError:
        if where == 2:
            return _error_at(text, message, _transition_line(text, i), token or 0)
        return _error_at(text, message, headers[_DLTS_HEADERS[where]][0], i + 1)

    forks = _encode(states, letters, n, k, columns, fail)
    return headers, states[0], (states[1], letters[1], columns, forks)


def parse_lts(text: str) -> NormalizedDlts:
    """Parse and encode the `dlts` text format; diagnostics carry line/column positions,
    and forks raise NondeterminismError as in `normalize`."""
    _headers, _state_index, encoding = _parse(text, "dlts")
    return _encoded(*encoding)


def parse_dfa(text: str) -> Dfa:
    """Parse the `dfa` format (dlts plus `initial:`/`finals:`); forks raise after those."""
    headers, state_index, encoding = _parse(text, "dfa")
    lineno, tokens = headers.get("initial:", (None, ()))
    if tokens and len(tokens) != 2:
        raise LtsParseError("`initial:` takes exactly one state name", lineno)
    if not tokens and state_index:
        raise LtsParseError("missing `initial:` line")
    named: dict[str, list[int]] = {}  # the states of the `initial:` and `finals:` lines
    for word in ("initial:", "finals:"):
        lineno, tokens = headers.get(word, (None, ()))
        for i in range(1, len(tokens)):
            if tokens[i] not in state_index:
                raise _error_at(text, f"undeclared state {tokens[i]!r}", lineno, i)
        named[word] = list(map(state_index.__getitem__, tokens[1:]))
    return Dfa(dlts=_encoded(*encoding), initial=next(iter(named["initial:"]), None),
               finals=set(named["finals:"]))


def parse_partition(text: str, state_names: Sequence[str]) -> list[set[int]]:
    """Parse a partition file: one block per line, member names space-separated.

    The blocks must partition the full state set exactly.
    """
    index = {name: i for i, name in enumerate(state_names)}
    blocks: list[set[int]] = []
    assigned: dict[int, int] = {}
    for lineno, tokens in enumerate(chain.from_iterable(map(_split, _pieces(text))), start=1):
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
