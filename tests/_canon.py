"""Shared test oracles: set-based splitting, signatures, DFA canonical forms.

Everything here recomputes results from definitions, independently of the
library's data structures, so tests compare two genuinely different routes.
"""

from __future__ import annotations

import inspect
import sys
import types
from itertools import combinations

import dlts_bisim.bisim
from dlts_bisim import Dfa, NormalizedDlts, RefinablePartition, naive_fixpoint

SMALLER_SIDE_TEST = "if mid - lo <= hi - mid:"
LARGER_SIDE_TEST = "if mid - lo > hi - mid:"


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


def check_consistency(p: RefinablePartition) -> None:
    """Assert the structural invariants of a partition's parallel lists."""
    n = len(p.A)
    assert sorted(p.A) == list(range(n)), "A is not a permutation"
    assert all(p.A[p.pos[q]] == q for q in range(n)), "pos is not the inverse of A"
    assert len(p.right) == len(p.marked) == p.block_count, "block lists differ in length"
    cursor = 0
    for left, right in sorted(zip(p.left, p.right)):
        assert left == cursor and right > left, "blocks do not tile the array"
        cursor = right
    assert cursor == n, "blocks do not cover the array"
    assert not any(p.marked), "split cursor left dirty"
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


def dfa_canonical_form(dfa: Dfa):
    """Relabel the reachable part by BFS discovery order (letters sorted by
    name); two automata are isomorphic on their reachable parts iff their
    forms are equal."""
    T = dfa.dlts
    if dfa.initial is None:
        return (0, (), ())
    delta: dict[tuple[int, str], int] = {}
    for src, a, dst in T.triples():
        delta[(src, T.letter_names[a])] = dst
    letters = sorted(T.letter_names)
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


def _delta(dfa: Dfa) -> dict[tuple[int, str], int]:
    T = dfa.dlts
    return {(src, T.letter_names[a]): dst for src, a, dst in T.triples()}


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
    delta: dict[tuple[int, str], int] = {}
    for src, a, dst in T.triples():
        delta[(src, T.letter_names[a])] = dst
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


def larger_side_dbisim():
    """`dbisim` rebuilt from its source with the smaller-side test inverted.

    The mutant scans the larger side of every detached splitter.  Its result
    is still the coarsest bisimulation, but the per-transition scan bound no
    longer holds, which shows that the bound rests on the smaller-half rule.
    """
    source = inspect.getsource(dlts_bisim.bisim)
    assert source.count(SMALLER_SIDE_TEST) == 1, "the smaller-side test moved"
    mutant = types.ModuleType("dlts_bisim._larger_side_mutant")
    mutant.__package__ = "dlts_bisim"
    sys.modules[mutant.__name__] = mutant  # dataclass decorators look the module up
    code = compile(source.replace(SMALLER_SIDE_TEST, LARGER_SIDE_TEST), mutant.__name__, "exec")
    exec(code, mutant.__dict__)
    return mutant.dbisim
