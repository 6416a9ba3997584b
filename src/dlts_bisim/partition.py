"""Array-backed refinable partition of 0..n with an O(|X|) split primitive.

All states live in one permutation array; the states of a block occupy a
contiguous subarray, so a block is fully described by a [left, right) index
pair.  Splitting swaps hit states to the left end of their block and moves
the boundary, which keeps every previously recorded [left, right) range valid
as a set of states even while the blocks inside it split further.
"""

from __future__ import annotations

from typing import Iterable


class PartitionError(ValueError):
    """The given blocks do not form a partition of the state range."""


class RefinablePartition:
    """Partition of the states 0..n-1 supporting only refinement.

    All state is kept in parallel int lists:
        A: the state permutation; each block is a contiguous slice of it.
        pos: inverse permutation (state -> index in A).
        block_of: state -> id of its block.
        left, right: block id -> bounds of its slice A[left:right].
        marked: block id -> states already swapped to the block's left end
            during an ongoing split call; 0 whenever no split is in progress.

    Block ids are never reused, and an existing id keeps designating (a
    shrinking part of) the same states, which is what lets split callers
    skip re-registration.  Single-writer: callers must not mutate
    concurrently.
    """

    def __init__(self, order: list[int], position: list[int], block_of: list[int],
                 left: list[int], right: list[int]):
        self.A = order
        self.pos = position
        self.block_of = block_of
        self.left = left
        self.right = right
        self.marked = [0] * len(left)

    @classmethod
    def from_initial(cls, n: int, initial_blocks: Iterable[Iterable[int]]) -> "RefinablePartition":
        """Lay the given blocks out contiguously; they must partition 0..n-1.

        Block interiors are laid out in ascending state order so the result
        is deterministic regardless of the iteration order of the inputs.
        """
        order: list[int] = []
        block_of = [-1] * n
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
        if len(order) != n:
            missing = block_of.index(-1)
            raise PartitionError(f"state {missing} is not covered by any block")
        position = [0] * n
        for i, q in enumerate(order):
            position[q] = i
        return cls(order, position, block_of, left, right)

    @property
    def block_count(self) -> int:
        return len(self.left)

    def copy(self) -> "RefinablePartition":
        return RefinablePartition(
            list(self.A), list(self.pos), list(self.block_of), list(self.left), list(self.right)
        )

    def split(self, xs: Iterable[int]) -> list[tuple[int, int]]:
        """Split every block that meets `xs` without being contained in it.

        Returns one (old, fresh) id pair per split block, fresh ids in
        ascending order.  The part inside `xs` ends up on the left of the
        block's subarray and gets the fresh id; the part outside keeps the
        old id.  The block's range before the split, which the two parts tile
        exactly, is [left[fresh], right[old]).  Duplicates in `xs` are
        harmless; cost is O(|xs|) element moves.
        """
        A, pos, block_of = self.A, self.pos, self.block_of
        left, right, marked = self.left, self.right, self.marked
        touched: list[int] = []
        for x in xs:
            b = block_of[x]
            i = pos[x]
            boundary = left[b] + marked[b]
            if i < boundary:
                continue  # already marked by an earlier occurrence in xs
            if boundary == left[b]:
                touched.append(b)
            y = A[boundary]
            A[boundary] = x
            A[i] = y
            pos[x] = boundary
            pos[y] = i
            marked[b] += 1

        pairs: list[tuple[int, int]] = []
        for b in touched:
            mid = left[b] + marked[b]
            marked[b] = 0
            if mid == right[b]:
                continue  # block lies entirely inside xs: not split
            fresh = len(left)
            left.append(left[b])
            right.append(mid)
            marked.append(0)
            for i in range(left[b], mid):
                block_of[A[i]] = fresh
            left[b] = mid
            pairs.append((b, fresh))
        return pairs

    def block_members(self, b: int) -> list[int]:
        """The block's states in array order, O(size)."""
        return self.A[self.left[b] : self.right[b]]

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
