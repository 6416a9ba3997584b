"""Coarsest bisimulation on a deterministic LTS by worklist refinement.

The entry point is `dbisim`: starting from an initial partition it returns
the coarsest partition that refines it and is a bisimulation, in
O(m log n) time and O(k + m + n) space.  The worklist holds splitter ranges
over the partition's state array, as two int stacks; each iteration
detaches the smaller end block of a range and scans the incoming transitions
of the *smaller* side, which is what caps the number of times any single
transition is scanned at floor(log2 n) + 1.  The sources found are bucketed
by letter, except those whose block is already a single state (the
partition's `settled` flags), which no split can move; one `split` call per
iteration that fills a bucket splits by all the buckets and pushes the
ranges that become pending.  When the pre-refined partition is already
stable, one pass over the transitions shows it and the loop does not run.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from itertools import tee
from operator import eq

from .lts import NormalizedDlts
from .oracle import canonical_view, naive_fixpoint, stable_by_signatures
from .partition import PartitionError, RefinablePartition

DEBUG_ENV = "DLTS_BISIM_DEBUG"

# The set-based coarsest check runs `naive_fixpoint`, about O(k n^3); above
# this size it would dominate the run, so debug runs skip it there.
_DEBUG_ASSERT_MAX_N = 512


@dataclass
class ScanStats:
    """Work counters for one refinement run.

    `transitions_scanned` counts every visit of an incoming transition during
    splitter-side scans, settled sources included.  `split_calls` counts the
    letter buckets handed to `split`: one per letter that has a source
    outside a one-state block in an iteration's scan; all of an iteration's
    buckets go to one `split` call, and an iteration that fills none makes
    no call.  Both stay 0 when the pre-refined partition is already stable,
    as the loop then does not run.  `blocks_final` is the block count of the
    result.
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


def init_refine(T: NormalizedDlts, p_init: RefinablePartition) -> RefinablePartition:
    """Pre-refinement: separate states whose outgoing letter sets differ.

    Returns a refined copy; `p_init` is not modified.  Afterwards, two states
    share a block iff they shared one before and, for every letter, either
    both or neither has an outgoing transition on it.  This property is what
    allows the main loop's splitters to be letter-free.  Raises
    PartitionError if `p_init` is not over the n states of `T`.

    The copy is split by each letter's sources in letter order, skipping
    a letter with n sources: it splits nothing, so a complete DLTS
    (m = n * k) gets the plain copy.  The sources are bucketed in `T`'s
    storage order, so the layout does not depend on whether `T` has built
    its destination-grouped view.
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
    p.split(sources, letters, [True] * p.block_count, [], [])
    return p


def _is_stable(T: NormalizedDlts, block_of: list[int]) -> bool:
    """Whether each (block, letter) pair of `T` leads into one block only.

    When the states of each block share one set of outgoing letters, as in
    every refinement of `init_refine`'s result, this is stability: the
    partition is a bisimulation.  One pass over the transitions in storage
    order, which builds no grouped view, stops at the first pair that leads
    into a second block.  It keeps one dict per letter, with one entry per
    source block seen, keyed by the block's int id, so it builds no key.
    """
    src, letter, dst = T._stored()
    # Each transition's destination block, read twice in step.
    targets, expected = tee(map(block_of.__getitem__, dst))
    first_target: list[dict[int, int]] = [{} for _ in range(T.k)]
    tables = map(first_target.__getitem__, letter)
    sources = map(block_of.__getitem__, src)
    return all(map(eq, map(dict.setdefault, tables, sources, targets), expected))


def _check_result(T: NormalizedDlts, p_init: RefinablePartition, p: RefinablePartition,
                  visits: list[int] | None, iterations: int) -> None:
    """Debug runs: certify the result `p` of a run from `p_init`.

    At any n the result must be stable, by the oracle's certificate, which
    shares no code with `_is_stable`, and refine `p_init`.  When the loop
    ran, with `visits` scans of each state over `iterations` iterations, no
    state may have been scanned more than floor(log2 n) + 1 times, and the
    loop must have taken exactly one iteration per block of the result but
    one: each iteration detaches one block from a range of at least two, and
    each split adds one block to a range, so a lost or duplicated range
    breaks the count.  Up to n = 512 the result must also be the coarsest
    such partition, by `naive_fixpoint`; above that a one-line notice on
    stderr says that this check is skipped.
    """
    if not stable_by_signatures(T, p.block_of):
        raise AssertionError(
            "two states of a block of the result differ in their (letter, successor block) pairs")
    enclosing: dict[int, int] = {}
    if not all(map(eq, map(enclosing.setdefault, p.block_of, p_init.block_of), p_init.block_of)):
        raise AssertionError("a block of the result meets two blocks of the initial partition")
    if visits is not None:
        if max(visits) > T.n.bit_length():
            raise AssertionError(f"a state was scanned more than {T.n.bit_length()} times")
        if iterations != p.block_count - 1:
            raise AssertionError(
                f"the loop took {iterations} iterations for {p.block_count} blocks")
    if T.n > _DEBUG_ASSERT_MAX_N:
        print(f"{DEBUG_ENV}: coarsest-partition check skipped, n={T.n} > "
              f"{_DEBUG_ASSERT_MAX_N}; the other result checks ran", file=sys.stderr)
        return
    init_blocks = [set(p_init.block_members(b)) for b in range(p_init.block_count)]
    if p.to_canonical() != canonical_view(naive_fixpoint(T, init_blocks)):
        raise AssertionError(
            "the result is not the coarsest bisimulation refining the initial partition")


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
    stats = ScanStats() if stats is None else stats
    counts = stats.per_transition_counts
    if counts is not None and len(counts) != T.m:
        raise ValueError(f"{len(counts)} per-transition counters for an LTS with {T.m} transitions")

    p = init_refine(T, p_init)
    debug = debug_enabled()
    # Pre-refinement leaves each block one set of outgoing letters and only
    # separates states that cannot be bisimilar, so a stable pre-refined
    # partition is already the coarsest bisimulation refining p_init.
    if p.block_count <= 1 or _is_stable(T, p.block_of):
        if debug:
            _check_result(T, p_init, p, None, 0)
        stats.blocks_final = p.block_count
        return p

    A, block_of, left, right, settled = p.A, p.block_of, p.left, p.right, p.settled
    split = p.split
    in_off, in_src, in_letter = T.in_offsets, T.in_src, T.in_letter
    # Counted and debug runs tally scans per state, and iterations; counted
    # runs expand the tallies per transition after the loop, since every scan
    # of q visits each incoming transition of q once.
    visits = [0] * T.n if counts is not None or debug else None
    iterations = 0
    # Pending splitters: disjoint ranges [los[i], his[i]) over A, each
    # spanning at least two whole blocks; popped LIFO.  in_union[b] says
    # whether block b lies inside one of them; every block starts inside the
    # full range.
    los, his = [0], [T.n]
    in_union = [True] * p.block_count
    # Per-letter sources of the scanned side; only touched letters get reset.
    buckets: list[list[int]] = [[] for _ in range(T.k)]
    touched: list[int] = []
    scanned = 0
    split_calls = 0

    while los:
        lo, hi = los[-1], his[-1]
        # Detach the smaller end block, the leftmost on a tie: either keeps
        # the rest of the range contiguous.
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
            side = A[lo:mid]
        else:
            side = A[mid:hi]
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

        if touched:
            split_calls += len(touched)
            split(buckets, touched, in_union, los, his)
            touched.clear()

    if debug:
        _check_result(T, p_init, p, visits, iterations)
    if counts is not None:
        for q, v in enumerate(visits):
            for t in range(in_off[q], in_off[q + 1]):
                counts[t] += v
    stats.transitions_scanned += scanned
    stats.split_calls += split_calls
    stats.blocks_final = p.block_count
    return p
