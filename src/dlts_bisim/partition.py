"""Array-backed refinable partition of 0..n with an O(|X|) split primitive.

All states live in one permutation array; the states of a block occupy a
contiguous subarray, so a block is fully described by a [left, right) index
pair.  Splitting swaps hit states to the left end of their block and moves
the boundary, which keeps every previously recorded [left, right) range valid
as a set of states even while the blocks inside it split further.  One split
call takes several sets (one bucket per letter) and records each split in
the caller's pending-range stacks, so it allocates nothing per split.
"""

from __future__ import annotations

from typing import Iterable, Sequence


class PartitionError(ValueError):
    """The given blocks do not form a partition of the state range."""


class RefinablePartition:
    """Partition of the states 0..n-1 supporting only refinement.

    All state is kept in flat arrays, int lists except for `settled`:
        A: the state permutation; each block is a contiguous slice of it.
        pos: inverse permutation (state -> index in A).
        block_of: state -> id of its block.
        settled: a bytearray, state -> 1 exactly when the state's block has
            one state, so a caller can skip a state that no split can move.
        left, right: block id -> bounds of its slice A[left:right].
        marked: block id -> states already swapped to the block's left end
            during an ongoing split call; 0 whenever no split is in progress.

    Block ids are never reused, and an existing id keeps designating (a
    shrinking part of) the same states, which is what lets a pending range
    stay registered while the blocks inside it split.  Single-writer:
    callers must not mutate concurrently.
    """

    def __init__(self, order: list[int], position: list[int], block_of: list[int],
                 left: list[int], right: list[int], settled: bytearray):
        self.A = order
        self.pos = position
        self.block_of = block_of
        self.left = left
        self.right = right
        self.marked = [0] * len(left)
        self.settled = settled

    @classmethod
    def from_initial(cls, n: int, initial_blocks: Iterable[Iterable[int]]) -> "RefinablePartition":
        """Lay the given blocks out contiguously; they must partition 0..n-1.

        Block interiors are laid out in ascending state order so the result
        is deterministic regardless of the iteration order of the inputs.
        """
        order: list[int] = []
        block_of = [-1] * n
        settled = bytearray(n)
        left: list[int] = []
        right: list[int] = []
        for members in initial_blocks:
            members = sorted(members)
            if not members:
                raise PartitionError("empty block")
            left.append(len(order))
            for q in members:
                if not 0 <= q < n:
                    raise PartitionError(f"state index {q} out of range 0..{n - 1}")
                if block_of[q] == len(right):
                    raise PartitionError(f"state {q} is repeated within block {len(right)}")
                if block_of[q] != -1:
                    raise PartitionError(f"state {q} appears in two blocks")
                block_of[q] = len(right)
                order.append(q)
            right.append(len(order))
            if len(members) == 1:
                settled[members[0]] = 1
        if len(order) != n:
            missing = block_of.index(-1)
            raise PartitionError(f"state {missing} is not covered by any block")
        position = [0] * n
        for i, q in enumerate(order):
            position[q] = i
        return cls(order, position, block_of, left, right, settled)

    @property
    def block_count(self) -> int:
        return len(self.left)

    def copy(self) -> "RefinablePartition":
        return RefinablePartition(
            list(self.A), list(self.pos), list(self.block_of), list(self.left), list(self.right),
            bytearray(self.settled),
        )

    def split(self, buckets: Sequence[list[int]], letters: Iterable[int], in_union: list[bool],
              los: list[int], his: list[int]) -> None:
        """Split by `buckets[a]` for each letter a of `letters` in turn, emptying those buckets.

        For each bucket, every block that meets it without lying inside it
        splits: the part inside moves to the left end of the block's
        subarray and gets the next fresh id, so fresh ids ascend in the
        order the bucket first meets their blocks; the part outside keeps
        the old id.  The block's range before the split, which the two parts
        tile exactly, is [left[fresh], right[old]).

        `in_union` flags the blocks that lie inside a pending splitter range;
        the ranges are the int stacks `los`/`his`.  A split of an unflagged
        block pushes its pre-split range and flags the old id; the fresh id
        is always appended flagged.  A later bucket sees the flags and ranges
        that an earlier one left.  A state repeated in a bucket moves once;
        a singleton block is skipped before any swap, as it cannot split.
        Each one-state part a split creates gets its state's `settled` flag.
        A state's position is read only when the state may move, and
        compared with the block's marked prefix only when that prefix is
        not empty, since a block's first hit cannot be a repeat.
        Cost is O(total bucket length) element moves.
        """
        A, pos, block_of = self.A, self.pos, self.block_of
        left, right, marked, settled = self.left, self.right, self.marked, self.settled
        hit: list[int] = []  # blocks hit by the current bucket, in order
        for a in letters:
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
                        continue  # a singleton block
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
                marked.append(0)
                for i in range(lo, mid):
                    block_of[A[i]] = fresh
                left[b] = mid
                if mid - lo == 1:
                    settled[A[lo]] = 1
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

    def to_canonical(self) -> list[list[int]]:
        """Blocks as sorted index lists, ordered by their minimum state.

        Equal partitions produce identical output, whatever refinement steps
        led to them.  One walk over the states in ascending order meets each
        block first at its minimum state and fills it in ascending order.
        """
        blocks: dict[int, list[int]] = {}
        for q, b in enumerate(self.block_of):
            blocks.setdefault(b, []).append(q)
        return list(blocks.values())
