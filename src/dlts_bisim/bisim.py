"""Coarsest bisimulation on a deterministic LTS by worklist refinement.

The entry point is `dbisim`: starting from an initial partition it returns
the coarsest partition that refines it and is a bisimulation, in
O(m log n) time and O(k + m + n) space.  The worklist holds splitter ranges
over the partition's state array; each iteration detaches one block from a
range and scans the incoming transitions of the *smaller* side, which is
what caps the number of times any single transition is scanned at
floor(log2 n) + 1.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass

from .lts import NormalizedDlts
from .oracle import InvariantChecker
from .partition import RefinablePartition

DEBUG_ENV = "DLTS_BISIM_DEBUG"

# The brute-force invariant assertions are quadratic-ish; above this size they
# would dominate the run without telling us anything new.
_DEBUG_ASSERT_MAX_N = 512


@dataclass
class ScanStats:
    """Work counters for one refinement run.

    `transitions_scanned` counts every visit of an incoming transition during
    splitter-side scans.  `per_transition_counts`, when allocated, tracks the
    same per transition index; each entry stays <= floor(log2 n) + 1 because
    a state's enclosing splitter side at least halves between visits.
    """

    transitions_scanned: int = 0
    split_calls: int = 0
    blocks_final: int = 0
    per_transition_counts: list[int] | None = None

    @classmethod
    def detailed(cls, m: int) -> "ScanStats":
        return cls(per_transition_counts=[0] * m)


def init_refine(T: NormalizedDlts, p_init: RefinablePartition) -> RefinablePartition:
    """Pre-refinement: separate states whose outgoing letter sets differ.

    Returns a refined copy; `p_init` is not modified.  Afterwards, two states
    share a block iff they shared one before and, for every letter, either
    both or neither has an outgoing transition on it.  This property is what
    allows the main loop's splitters to be letter-free.
    """
    p = p_init.copy()
    sources: list[list[int]] = [[] for _ in range(T.k)]
    for a, src in zip(T.in_letter, T.in_src):
        sources[a].append(src)
    for xs in sources:
        p.split(xs)
    return p


def dbisim(
    T: NormalizedDlts, p_init: RefinablePartition, stats: ScanStats | None = None
) -> RefinablePartition:
    """Coarsest bisimulation over `T` refining `p_init`, as a new partition.

    `p_init` is left untouched.  Counters accumulate into `stats` when given.
    Setting the DLTS_BISIM_DEBUG environment variable to 1 enables the
    internal invariant assertions on inputs up to 512 states (larger ones get
    a one-line notice on stderr instead) and allocates per-transition
    counters on a given `stats`.
    """
    debug = os.environ.get(DEBUG_ENV, "") == "1"
    if debug and stats is not None and stats.per_transition_counts is None:
        stats.per_transition_counts = [0] * T.m

    p = init_refine(T, p_init)
    if p.block_count <= 1:
        if stats is not None:
            stats.blocks_final = p.block_count
        return p

    checker = None
    if debug and T.n <= _DEBUG_ASSERT_MAX_N:
        checker = InvariantChecker(T, p_init)
    elif debug:
        print(f"{DEBUG_ENV}: invariant checks skipped, n={T.n} > {_DEBUG_ASSERT_MAX_N}",
              file=sys.stderr)

    A, block_of, left, right = p.A, p.block_of, p.left, p.right
    in_off, in_src, in_letter = T.in_offsets, T.in_src, T.in_letter
    counts = stats.per_transition_counts if stats is not None else None
    # Counted runs tally scans per state and expand them per transition after
    # the loop: every scan of q visits each incoming transition of q once.
    visits = [0] * T.n if counts is not None else None
    # Pending splitters: disjoint [l, r] ranges over A, each spanning at least
    # two whole blocks; popped LIFO.  in_union[b] says whether block b lies
    # inside one of them; every block starts inside the full range.
    worklist = [[0, T.n]]
    in_union = [True] * p.block_count
    # Per-letter sources of the scanned side; only touched letters get reset.
    buckets: list[list[int]] = [[] for _ in range(T.k)]
    touched: list[int] = []
    scanned = 0
    split_calls = 0

    while worklist:
        if checker is not None:
            checker.check(p, worklist, in_union, buckets, touched)

        entry = worklist[-1]
        lo, hi = entry
        # Detach the leftmost block, which keeps the rest of the range contiguous.
        b = block_of[A[lo]]
        mid = right[b]
        nxt = block_of[A[mid]]
        if right[nxt] == hi:
            # Exactly two blocks: the entry is spent, both blocks leave the
            # splitter union (they may re-enter later, once split).
            worklist.pop()
            in_union[nxt] = False
        else:
            entry[0] = mid
        in_union[b] = False

        if mid - lo <= hi - mid:
            side = A[lo:mid]
        else:
            side = A[mid:hi]
        if visits is not None:
            for q in side:
                visits[q] += 1
        # Each source lands in its letter's bucket at most once, because the
        # LTS is deterministic.
        for q in side:
            start, stop = in_off[q], in_off[q + 1]
            scanned += stop - start
            for t in range(start, stop):
                a = in_letter[t]
                bucket = buckets[a]
                if not bucket:
                    touched.append(a)
                bucket.append(in_src[t])

        for a in touched:
            split_calls += 1
            for old, fresh in p.split(buckets[a]):
                # The fresh id is len(in_union): split hands ids out in order.
                if not in_union[old]:
                    # The pre-split range re-enters the worklist as one piece:
                    # it now spans (at least) the two parts.
                    worklist.append([left[fresh], right[old]])
                    in_union[old] = True
                in_union.append(True)
            buckets[a].clear()
        touched.clear()

    if checker is not None:
        checker.check(p, worklist, in_union, buckets, touched)
    if visits is not None:
        for q, v in enumerate(visits):
            for t in range(in_off[q], in_off[q + 1]):
                counts[t] += v
    if stats is not None:
        stats.transitions_scanned += scanned
        stats.split_calls += split_calls
        stats.blocks_final = p.block_count
    return p
