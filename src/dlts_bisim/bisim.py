"""Coarsest bisimulation on a deterministic LTS by worklist refinement.

The entry point is `dbisim`: starting from an initial partition it returns
the coarsest partition that refines it and is a bisimulation, in
O(m log n) time and O(k + m + n) space.  The worklist holds splitter ranges
over the partition's state array, as two int stacks; each iteration
detaches the smaller end block of a range and scans the incoming transitions
of the *smaller* side, which is what caps the number of times any single
transition is scanned at floor(log2 n) + 1.  The sources found are bucketed
by letter, except those whose block is already a single state (the
partition's `settled` flags), which no split can move; the iteration then
splits by all the buckets it filled and pushes the ranges that become
pending.  One routine, `_split`, does the splitting: pre-refinement runs it
once by each letter's sources, and `dbisim` runs it once for the whole loop.
When the pre-refined partition is already stable, one pass over the
transitions shows it and the loop does not run.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from itertools import tee
from operator import eq

from .lts import NormalizedDlts
from .oracle import fixpoint_fault, result_fault
from .partition import PartitionError, RefinablePartition

DEBUG_ENV = "DLTS_BISIM_DEBUG"

_DEBUG_ASSERT_MAX_N = 512


@dataclass
class ScanStats:
    """Work counters for one refinement run.

    `transitions_scanned` counts every visit of an incoming transition during
    splitter-side scans, settled sources included.  `split_calls` counts the
    letter buckets that the loop splits by: one per letter that has a source
    outside a one-state block in an iteration's scan, so an iteration that
    fills no bucket splits by none.  Both stay 0 when the pre-refined
    partition is already stable, as the loop then does not run.
    `blocks_final` is the block count of the result.
    `per_transition_counts`, made only by `detailed`, tracks the scans per
    transition index: at most floor(log2 n) + 1 per entry, as a state's
    enclosing splitter side at least halves between visits.
    """

    transitions_scanned: int = 0
    split_calls: int = 0
    blocks_final: int = 0
    per_transition_counts: list[int] | None = None

    @classmethod
    def detailed(cls, m: int) -> "ScanStats":
        return cls(per_transition_counts=[0] * m)


def debug_enabled() -> bool:
    """Whether DLTS_BISIM_DEBUG=1 asks for the engine's result checks."""
    return os.environ.get(DEBUG_ENV, "") == "1"


def _scans_per_transition(n: int) -> int:
    # floor(log2 n) + 1, the most scans of one state or transition; n.bit_length() is exact.
    return max(n.bit_length(), 1)


def init_refine(T: NormalizedDlts, p_init: RefinablePartition) -> RefinablePartition:
    """Pre-refinement: separate states whose outgoing letter sets differ.

    Returns a refined copy; `p_init` is not modified.  Afterwards, two states
    share a block iff they shared one before and, for every letter, either
    both or neither has an outgoing transition on it.  This property is what
    allows the main loop's splitters to be letter-free.  Raises
    PartitionError if `p_init` is not over the n states of `T`.

    The copy is split by each letter's sources in letter order, skipping
    a letter with n sources: it splits nothing, so a complete DLTS
    (m = n * k) gets the plain copy.  The sources are bucketed in the order
    of the form `T` holds: input order until `T` has built its
    destination-grouped view, and view order after.  So on a partial system
    the layout may depend on whether an earlier run built the view, and the
    resulting partition does not.
    """
    if len(p_init.A) != T.n:
        raise PartitionError(f"the partition covers {len(p_init.A)} states but the LTS has {T.n}")
    p = p_init.copy()
    if T.m == T.n * T.k:
        return p
    sources = [[] for _ in range(T.k)]
    src, letter, _dst = T._stored()
    for a, s in zip(letter, src):
        sources[a].append(s)
    letters = [a for a, bucket in enumerate(sources) if len(bucket) < T.n]
    # Every block counts as inside a pending range, so no range is pushed.
    _split(p, sources, letters, [True] * p.block_count, [], [])
    return p


def _split(p: RefinablePartition, buckets: list[list[int]], touched: list[int],
           in_union: list[bool], los: list[int], his: list[int],
           T: NormalizedDlts | None = None, visits: list[int] | None = None) -> tuple[int, int, int]:
    """Split `p` by `buckets[a]` for each letter a of `touched` in turn,
    emptying those buckets; given the system `T`, go on refining until no
    splitter range is pending.  Returns the loop's transitions scanned,
    split calls and iterations (counted only with `visits`), all 0 without
    `T`.

    For each bucket, every block that meets it without lying inside it
    splits: the part inside moves to the left end of the block's subarray
    and gets the next fresh id, so fresh ids ascend in the order the bucket
    first meets their blocks; the part outside keeps the old id.  The
    block's range before the split, which the two parts tile exactly, is
    [left[fresh], right[old]).  A state repeated in a bucket moves once; a
    one-state block is skipped before any swap, as it cannot split.  Each
    one-state part a split creates gets its state's `settled` flag.  A
    state's position is read only when the state may move, and compared
    with the block's marked prefix only when that prefix is not empty,
    since a block's first hit cannot be a repeat.  Cost is O(total bucket
    length) element moves.

    `in_union` flags the blocks that lie inside a pending splitter range:
    disjoint ranges [los[i], his[i]) over `p.A`, each spanning at least two
    whole blocks, popped LIFO.  A split of an unflagged block pushes its
    pre-split range and flags the old id; the fresh id is always appended
    flagged.  A later bucket sees the flags and ranges that an earlier one
    left.

    With `T`, each iteration then detaches the smaller end block of the top
    range (the leftmost on a tie; either keeps the rest of the range
    contiguous), unflags it (and the other block, when the range held only
    two), and scans the incoming transitions of the smaller side into
    `buckets`, filling `touched` in order of first use, before it splits
    again.  Each scan of a state q bumps `visits[q]` when
    `visits` is given.
    """
    A, pos, block_of = p.A, p.pos, p.block_of
    left, right, settled = p.left, p.right, p.settled
    # Block id -> states already swapped to the block's left end by the
    # current bucket; 0 between buckets.  Ids stay below n, so it never grows.
    marked = [0] * len(A)
    hit: list[int] = []  # blocks hit by the current bucket, in order
    if T is not None:
        in_off, in_src, in_letter = T.in_offsets, T.in_src, T.in_letter
    scanned = split_calls = iterations = 0
    while True:
        for a in touched:
            bucket = buckets[a]
            for x in bucket:
                b = block_of[x]
                count = marked[b]
                boundary = left[b] + count
                if count:
                    i = pos[x]
                    if i < boundary:
                        continue  # already marked by an earlier occurrence of x
                else:
                    # A block's first hit cannot be a repeat.
                    if right[b] == boundary + 1:
                        continue  # a one-state block
                    hit.append(b)
                    i = pos[x]
                y = A[boundary]
                A[boundary] = x
                A[i] = y
                pos[x] = boundary
                pos[y] = i
                marked[b] = count + 1
            bucket.clear()
            for b in hit:
                lo = left[b]
                mid = lo + marked[b]
                marked[b] = 0
                hi = right[b]
                if mid == hi:
                    continue  # the block lies inside the bucket: not split
                fresh = len(left)
                left.append(lo)
                right.append(mid)
                if mid - lo == 1:
                    x = A[lo]
                    block_of[x] = fresh
                    settled[x] = 1
                else:
                    for i in range(lo, mid):
                        block_of[A[i]] = fresh
                left[b] = mid
                if hi - mid == 1:
                    settled[A[mid]] = 1
                if not in_union[b]:
                    # The pre-split range becomes one pending range: it now
                    # spans the two parts.
                    los.append(lo)
                    his.append(hi)
                    in_union[b] = True
                in_union.append(True)
            hit.clear()
        if T is None or not los:
            return scanned, split_calls, iterations
        touched.clear()

        lo, hi = los[-1], his[-1]
        b = block_of[A[lo]]
        mid = right[b]
        c = block_of[A[hi - 1]]
        cut = left[c]
        if mid == cut:
            # Exactly two blocks: the range is spent, both blocks leave the
            # splitter union (they may re-enter later, once split).
            los.pop()
            his.pop()
            in_union[c] = False
        elif hi - cut < mid - lo:
            his[-1] = mid = cut
            b = c
        else:
            los[-1] = mid
        in_union[b] = False

        if mid - lo <= hi - mid:
            side = A[lo:mid] if mid - lo > 1 else (A[lo],)
        else:
            side = A[mid:hi] if hi - mid > 1 else (A[mid],)
        if visits is not None:
            iterations += 1
            for q in side:
                visits[q] += 1
        # Each source lands in its letter's bucket at most once, because the
        # LTS is deterministic.  A source in a one-state block cannot split,
        # so it is counted as scanned but not bucketed.
        for q in side:
            start, stop = in_off[q], in_off[q + 1]
            scanned += stop - start
            for t in range(start, stop):
                x = in_src[t]
                if settled[x]:
                    continue
                a = in_letter[t]
                bucket = buckets[a]
                if not bucket:
                    touched.append(a)
                bucket.append(x)
        split_calls += len(touched)


def _is_stable(T: NormalizedDlts, block_of: list[int]) -> bool:
    """Whether each (block, letter) pair of `T` leads into one block only.

    When the states of each block share one set of outgoing letters, as in
    every refinement of `init_refine`'s result, this is stability: the
    partition is a bisimulation.  One pass over the transitions, in the
    order of the form `T` holds, stops at the first pair that leads into a
    second block; it never builds the view.  It keeps one dict per letter,
    with one entry per source block seen, keyed by the block's int id, so it
    builds no key.
    """
    src, letter, dst = T._stored()
    # Each transition's destination block, read twice in step.
    targets, expected = tee(map(block_of.__getitem__, dst))
    first_target: list[dict[int, int]] = [{} for _ in range(T.k)]
    tables = map(first_target.__getitem__, letter)
    sources = map(block_of.__getitem__, src)
    return all(map(eq, map(dict.setdefault, tables, sources, targets), expected))


def _check_result(T: NormalizedDlts, p_init: RefinablePartition, p: RefinablePartition,
                  visits: list[int] | None, iterations: int, fixpoint_max_n: int) -> None:
    """Certify the result `p` of a run from `p_init`.

    At any n the result must pass the oracle's `result_fault`, whose
    stability check shares no code with `_is_stable`.  When the loop ran,
    with `visits` scans of each state over `iterations` iterations, no state
    may have been scanned more than floor(log2 n) + 1 times, and the loop
    must have taken one iteration per block of the result but one: each
    iteration detaches one block from a range of at least two, and each
    split adds one block to a range.  Up to `fixpoint_max_n` states the
    result must also pass `fixpoint_fault`, about O(k n^3); above it a
    notice on stderr says that this check is skipped.
    """
    fault = result_fault(T, p_init.block_of, p.block_of)
    if fault is None and visits is not None:
        bound = _scans_per_transition(T.n)
        if max(visits) > bound:
            fault = f"a state was scanned more than {bound} times"
        elif iterations != p.block_count - 1:
            fault = f"the loop took {iterations} iterations for {p.block_count} blocks"
    if fault is None:
        if T.n <= fixpoint_max_n:
            fault = fixpoint_fault(T, p_init.block_of, p.block_of)
        else:
            print(f"{DEBUG_ENV}: coarsest-partition check skipped, n={T.n} > "
                  f"{fixpoint_max_n}; the other result checks ran", file=sys.stderr)
    if fault is not None:
        raise AssertionError(fault)


def dbisim(
    T: NormalizedDlts, p_init: RefinablePartition, stats: ScanStats | None = None
) -> RefinablePartition:
    """Coarsest bisimulation over `T` refining `p_init`, as a new partition.

    `p_init` is left untouched.  Counters accumulate into `stats` when given,
    per transition too if it comes from `ScanStats.detailed` (ValueError if
    not one per transition of `T`).  DLTS_BISIM_DEBUG=1 certifies the result
    and the loop's work with `_check_result`, which raises AssertionError on
    a fault and names on stderr the check it skips above n = 512.
    """
    return _refine(T, p_init, stats, _DEBUG_ASSERT_MAX_N if debug_enabled() else None)


def _refine(T: NormalizedDlts, p_init: RefinablePartition, stats: ScanStats | None,
            fixpoint_max_n: int | None) -> RefinablePartition:
    """`dbisim`'s run under a certification policy: none when `fixpoint_max_n`
    is None, else `_check_result` with that limit on the fixpoint check."""
    stats = ScanStats() if stats is None else stats
    counts = stats.per_transition_counts
    if counts is not None and len(counts) != T.m:
        raise ValueError(f"{len(counts)} per-transition counters for an LTS with {T.m} transitions")

    p = init_refine(T, p_init)
    certify = fixpoint_max_n is not None
    # Pre-refinement leaves each block one set of outgoing letters and only
    # separates states that cannot be bisimilar, so a stable pre-refined
    # partition is already the coarsest bisimulation refining p_init.
    if p.block_count <= 1 or _is_stable(T, p.block_of):
        if certify:
            _check_result(T, p_init, p, None, 0, fixpoint_max_n)
        stats.blocks_final = p.block_count
        return p

    # Counted and certified runs tally scans per state, and iterations;
    # counted runs expand the tallies per transition after the loop, since
    # every scan of q visits each incoming transition of q once.
    visits = [0] * T.n if counts is not None or certify else None
    # Every block starts inside the one pending range, the whole array.
    scanned, split_calls, iterations = _split(
        p, [[] for _ in range(T.k)], [], [True] * p.block_count, [0], [T.n], T, visits)

    if certify:
        _check_result(T, p_init, p, visits, iterations, fixpoint_max_n)
    if counts is not None:
        in_off = T.in_offsets
        for q, v in enumerate(visits):
            for t in range(in_off[q], in_off[q + 1]):
                counts[t] += v
    stats.transitions_scanned += scanned
    stats.split_calls += split_calls
    stats.blocks_final = p.block_count
    return p
