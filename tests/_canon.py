"""Shared test oracles: set-based splitting, signatures, DFA canonical forms,
a plain reader of `dlts` texts, and a call's outcome as a comparable value.

Everything here recomputes results from definitions, independently of the
library's data structures, so tests compare two genuinely different routes.
"""

from __future__ import annotations

import inspect
import sys
import types
from itertools import combinations

import dlts_bisim.bisim
from dlts_bisim import (
    Dfa,
    LtsError,
    NormalizedDlts,
    RawLts,
    RefinablePartition,
    is_bisimulation,
    naive_fixpoint,
)

from _mutants import MUTANTS


def outcome(f, *args):
    """`f(*args)`, or the type, message, line, column and violations of its LtsError."""
    try:
        return f(*args)
    except LtsError as error:
        return (type(error), str(error), getattr(error, "line", None),
                getattr(error, "column", None), getattr(error, "violations", None))


def token_rows(text: str) -> list[list[str]]:
    """The tokens of each line of `text`, comments cut: the whole text split at once."""
    return [line.partition("#")[0].split() for line in text.splitlines()]


def read_dlts(text: str) -> tuple[RawLts, list[int]] | None:
    """The `RawLts` that a `dlts` text spells and the line of each of its
    transitions, counted from 1; None if its syntax is wrong.

    Names are kept as written; without `states:` the states are "0".."n-1", and
    without `letters:` the letters are those of the transitions in order of
    first use.  Names, repeats and forks are left for `normalize` to judge.
    """
    rows = [(lineno, row) for lineno, row in enumerate(token_rows(text), start=1) if row]
    head = rows[0][1] if rows else []
    if head[:1] != ["dlts"] or len(head) != 2 or not (head[1].isascii() and head[1].isdigit()):
        return None
    headers: dict[str, list[str]] = {}
    transitions = []
    lines = []
    for lineno, row in rows[1:]:
        if row[0].endswith(":"):
            if row[0] not in ("states:", "letters:") or row[0] in headers:
                return None
            headers[row[0]] = row[1:]
        elif len(row) == 3:
            transitions.append(tuple(row))
            lines.append(lineno)
        else:
            return None
    states = headers.get("states:", [str(i) for i in range(int(head[1]))])
    if len(states) != int(head[1]):
        return None
    letters = headers.get("letters:", list(dict.fromkeys(a for _s, a, _d in transitions)))
    return RawLts(states, letters, transitions), lines


def split_sets(blocks: list[set[int]], xs) -> list[set[int]]:
    """Set-based reference for the array split: C -> C & X, C - X."""
    x = set(xs)
    out: list[set[int]] = []
    for block in blocks:
        inside = block & x
        if inside and inside != block:
            out.append(inside)
            out.append(block - inside)
        else:
            out.append(set(block))
    return out


def split_tracking_ids(blocks: list[set[int]], flags: list[bool], bucket) -> list[set[int]]:
    """Set-based reference for one bucket of the array split, with block ids and flags.

    `blocks[b]` holds the states of block b and `flags[b]` its splitter-union
    flag; both are updated in place.  Blocks split in the order the bucket
    first meets them: the part inside gets the next id and a set flag, and
    an unflagged block gets flagged.  Returns the pre-split state sets of
    the unflagged blocks that split, in order.
    """
    x = set(bucket)
    id_of = {q: b for b, block in enumerate(blocks) for q in block}
    pushed: list[set[int]] = []
    for b in dict.fromkeys(id_of[q] for q in bucket):
        inside = blocks[b] & x
        if inside == blocks[b]:
            continue
        if not flags[b]:
            pushed.append(set(blocks[b]))
            flags[b] = True
        blocks[b] = blocks[b] - inside
        blocks.append(inside)
        flags.append(True)
    return pushed


def check_consistency(p: RefinablePartition) -> None:
    """Assert the structural invariants of a partition's parallel lists."""
    n = len(p.A)
    assert sorted(p.A) == list(range(n)), "A is not a permutation"
    assert all(p.A[p.pos[q]] == q for q in range(n)), "pos is not the inverse of A"
    assert len(p.right) == p.block_count, "block lists differ in length"
    cursor = 0
    for left, right in sorted(zip(p.left, p.right)):
        assert left == cursor and right > left, "blocks do not tile the array"
        cursor = right
    assert cursor == n, "blocks do not cover the array"
    assert p.settled == bytearray(p.right[b] - p.left[b] == 1 for b in p.block_of), \
        "settled flags disagree with one-state blocks"
    for b in range(p.block_count):
        for i in range(p.left[b], p.right[b]):
            assert p.block_of[p.A[i]] == b, "block_of disagrees with block ranges"


def letter_signature_blocks(T: NormalizedDlts, p_init: list[set[int]]) -> list[set[int]]:
    """Group states by (initial block, set of outgoing letters)."""
    letters_of: list[set[int]] = [set() for _ in range(T.n)]
    for src, a, _dst in T.triples():
        letters_of[src].add(a)
    groups: dict[tuple[int, frozenset[int]], set[int]] = {}
    for i, block in enumerate(p_init):
        for q in block:
            groups.setdefault((i, frozenset(letters_of[q])), set()).add(q)
    return list(groups.values())


def init_refine_by_every_letter(T: NormalizedDlts, p: RefinablePartition,
                                letters: list[int] | None = None) -> RefinablePartition:
    """Pre-refinement the long way: a copy of `p` split by each letter's
    sources in turn, in letter order, one `split` call per letter; only by
    `letters` when given.  Sources are bucketed in the order of the form
    that `T` holds, as `init_refine` buckets them."""
    q = p.copy()
    buckets: list[list[int]] = [[] for _ in range(T.k)]
    src, letter, _dst = T._stored()
    for a, s in zip(letter, src):
        buckets[a].append(s)
    for a in range(T.k) if letters is None else letters:
        dlts_bisim.bisim._split(q, buckets, [a], [True] * q.block_count, [], [])
    return q


def partition_arrays(p: RefinablePartition) -> tuple:
    """All six of a partition's flat arrays, for exact comparison."""
    return p.A, p.pos, p.block_of, p.settled, p.left, p.right


def refines(fine, coarse) -> bool:
    """Every block of `fine` lies inside a single block of `coarse`."""
    container: dict[int, int] = {}
    for i, block in enumerate(coarse):
        for q in block:
            container[q] = i
    return all(len({container[q] for q in block}) == 1 for block in fine)


def merge_is_unsound(T: NormalizedDlts, blocks: list[set[int]],
                     p_init: list[set[int]], i: int, j: int) -> bool:
    """A merge of two result blocks must either leave the initial partition
    or fail to survive re-closure (re-running the naive splitting)."""
    if not refines([blocks[i] | blocks[j]], p_init):
        return True
    merged = [b for idx, b in enumerate(blocks) if idx not in (i, j)]
    merged.append(blocks[i] | blocks[j])
    reclosed = naive_fixpoint(T, merged)
    return sorted(map(sorted, reclosed)) != sorted(map(sorted, merged))


def assert_coarsest(T: NormalizedDlts, blocks: list[set[int]], p_init: list[set[int]]) -> None:
    for i, j in combinations(range(len(blocks)), 2):
        assert merge_is_unsound(T, blocks, p_init, i, j), (i, j)


def _delta(dfa: Dfa) -> dict[tuple[int, str], int]:
    T = dfa.dlts
    return {(src, T.letter_names[a]): dst for src, a, dst in T.triples()}


def dfa_canonical_form(dfa: Dfa):
    """Relabel the reachable part by BFS discovery order (letters sorted by
    name); two automata are isomorphic on their reachable parts iff their
    forms are equal."""
    if dfa.initial is None:
        return (0, (), ())
    delta = _delta(dfa)
    letters = sorted(dfa.dlts.letter_names)
    relabel = {dfa.initial: 0}
    queue = [dfa.initial]
    table: list[tuple[tuple[str, int], ...]] = []
    while queue:
        next_queue = []
        for q in queue:
            row = []
            for a in letters:
                dst = delta.get((q, a))
                if dst is None:
                    continue
                if dst not in relabel:
                    relabel[dst] = len(relabel)
                    next_queue.append(dst)
                row.append((a, relabel[dst]))
            table.append(tuple(row))
        queue = next_queue
    finals = tuple(sorted(relabel[q] for q in dfa.finals if q in relabel))
    return (len(relabel), tuple(table), finals)


def dfa_language_equivalent(d1: Dfa, d2: Dfa) -> bool:
    """Decide L(d1) = L(d2) by synchronized search over state pairs.

    Letters are matched by name over the union of the two alphabets; a
    missing transition behaves as a move into a dead non-final sink (None),
    so automata whose used alphabets differ are still comparable.
    """
    t1, t2 = _delta(d1), _delta(d2)
    alphabet = sorted({a for _q, a in t1} | {a for _q, a in t2})

    start = (d1.initial, d2.initial)
    seen = {start}
    stack = [start]
    while stack:
        s1, s2 = stack.pop()
        if (s1 in d1.finals) != (s2 in d2.finals):
            return False
        for a in alphabet:
            n1 = t1.get((s1, a))
            n2 = t2.get((s2, a))
            if n1 is None and n2 is None:
                continue  # dead on both sides; nothing to distinguish
            pair = (n1, n2)
            if pair not in seen:
                seen.add(pair)
                stack.append(pair)
    return True


def table_filling_minimal_size(dfa: Dfa) -> int:
    """Minimal state count by classic pairwise marking.

    The automaton is completed with a dead sink, pairs disagreeing on
    finality are marked, and marks propagate backwards along letters until
    stable; the answer counts the equivalence classes among useful states.
    """
    T = dfa.dlts
    if dfa.initial is None:
        return 0
    n = T.n
    sink = n
    delta = _delta(dfa)
    letters = list(T.letter_names)

    def step(q: int, a: str) -> int:
        if q == sink:
            return sink
        return delta.get((q, a), sink)

    reachable = {dfa.initial}
    stack = [dfa.initial]
    while stack:
        q = stack.pop()
        for a in letters:
            dst = step(q, a)
            if dst != sink and dst not in reachable:
                reachable.add(dst)
                stack.append(dst)
    coreachable = set(dfa.finals)
    changed = True
    while changed:
        changed = False
        for src, _a, dst in T.triples():
            if dst in coreachable and src not in coreachable:
                coreachable.add(src)
                changed = True
    useful = reachable & coreachable
    if dfa.initial not in useful:
        return 0

    states = list(range(n + 1))
    finals = set(dfa.finals)
    marked: set[frozenset[int]] = set()
    for p, q in combinations(states, 2):
        if (p in finals) != (q in finals):
            marked.add(frozenset((p, q)))
    changed = True
    while changed:
        changed = False
        for p, q in combinations(states, 2):
            pair = frozenset((p, q))
            if pair in marked:
                continue
            for a in letters:
                np, nq = step(p, a), step(q, a)
                if np != nq and frozenset((np, nq)) in marked:
                    marked.add(pair)
                    changed = True
                    break

    classes: list[set[int]] = []
    for q in sorted(useful):
        for cls in classes:
            if frozenset((q, next(iter(cls)))) not in marked:
                cls.add(q)
                break
        else:
            classes.append({q})
    return len(classes)


def mutant_bisim(mutant) -> types.ModuleType:
    """`dlts_bisim.bisim` rebuilt from its source with a mutant applied: the
    `bisim` entry of `MUTANTS` that `mutant` names, or a `Mutant` of `bisim`.

    The rebuilt module shares every other module with the package, so its
    `dbisim` runs on the package's systems and partitions next to the real one.
    """
    if isinstance(mutant, str):
        mutant = MUTANTS[mutant]
    assert mutant.module == "bisim", "only bisim mutants are rebuilt"
    source = inspect.getsource(dlts_bisim.bisim)
    assert source.count(mutant.fragment) == 1, "the mutated fragment moved"
    module = types.ModuleType("dlts_bisim._bisim_mutant")
    module.__package__ = "dlts_bisim"
    sys.modules[module.__name__] = module  # dataclass decorators look the module up
    code = compile(source.replace(mutant.fragment, mutant.replacement), module.__name__, "exec")
    exec(code, module.__dict__)
    return module


def reference_loop(T: NormalizedDlts, p_view: list) -> tuple[list[int], int, list[list[int]]]:
    """The engine's refinement, run on state sets: per-transition scan counts,
    split calls and the canonical result of `dbisim(T, p_view)`.

    Blocks are the sets of `split_tracking_ids`, which also gives their ids,
    splitter-union flags and the pre-split sets that become pending ranges; a
    pending range is the set of states it covers, and the stack of them is
    popped last in, first out.  Only the array layout, which picks a range's end
    blocks and the order in which a side's states are scanned, is kept apart:
    the block ids in array order, and each block's states in array order, where
    a split swaps the states it hits, in the order it meets them, to the front
    of their block, and the part in front takes the fresh id.

    It pre-refines as `init_refine` does, by each letter's sources in the order
    of the form that `T` holds, skipping a letter with n sources, and stops
    there when the result is a bisimulation.  Each iteration then detaches the
    smaller end block of the top range (the leftmost on a tie), which is never
    larger than the rest of the range, scans the incoming transitions of its
    states in array order, buckets the sources outside one-state blocks by
    letter in order of first use, and splits by each bucket in turn.
    """
    blocks = [set(block) for block in p_view]
    lists = [sorted(block) for block in blocks]  # each block's states in array order
    layout = list(range(len(blocks)))  # block ids in array order
    flags = [True] * len(blocks)

    def split(bucket) -> list[set[int]]:
        id_of = {q: b for b, block in enumerate(blocks) for q in block}
        swapped: dict[int, int] = {}
        for x in dict.fromkeys(bucket):
            b = id_of[x]
            if len(lists[b]) > 1:
                front, i = swapped.get(b, 0), lists[b].index(x)
                lists[b][front], lists[b][i] = lists[b][i], lists[b][front]
                swapped[b] = front + 1
        before = len(blocks)
        pushed = split_tracking_ids(blocks, flags, bucket)
        for fresh in range(before, len(blocks)):
            b = id_of[next(iter(blocks[fresh]))]
            lists.append(lists[b][:swapped[b]])
            lists[b] = lists[b][swapped[b]:]
            assert (set(lists[fresh]), set(lists[b])) == (blocks[fresh], blocks[b])
            layout.insert(layout.index(b), fresh)
        return pushed

    if T.m != T.n * T.k:
        sources: list[list[int]] = [[] for _ in range(T.k)]
        src, letter, _dst = T._stored()
        for a, s in zip(letter, src):
            sources[a].append(s)
        for bucket in sources:
            if len(bucket) < T.n:
                split(bucket)

    counts = [0] * T.m
    split_calls = 0
    # A stable pre-refinement is the answer, and the loop does not run.
    ranges = [] if len(blocks) <= 1 or is_bisimulation(blocks, T) else [set(range(T.n))]
    while ranges:
        inside = [b for b in layout if blocks[b] <= ranges[-1]]
        first, last = inside[0], inside[-1]
        detached = first if len(blocks[first]) <= len(blocks[last]) else last
        if len(inside) == 2:
            ranges.pop()
            flags[first] = flags[last] = False
        else:
            ranges[-1] = ranges[-1] - blocks[detached]
            flags[detached] = False
        size_of = {q: len(block) for block in blocks for q in block}
        buckets: dict[int, list[int]] = {}  # by letter, in order of first use
        for q in lists[detached]:
            for t in range(T.in_offsets[q], T.in_offsets[q + 1]):
                counts[t] += 1
                x = T.in_src[t]
                if size_of[x] > 1:
                    buckets.setdefault(T.in_letter[t], []).append(x)
        split_calls += len(buckets)
        for bucket in buckets.values():
            ranges += split(bucket)
    return counts, split_calls, sorted(sorted(block) for block in blocks)
