"""Array-backed refinable partition of 0..n-1.

All states live in one permutation array; the states of a block occupy a
contiguous subarray, so a block is fully described by a [left, right) index
pair.  A split (in `bisim`) swaps hit states to the left end of their block
and moves the boundary, which keeps every previously recorded [left, right)
range valid as a set of states even while the blocks inside it split
further.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable


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
        for b, members in enumerate(initial_blocks):
            members = sorted(members)
            if not members:
                raise PartitionError("empty block")
            # Checked in ascending order: a state out of range is reported
            # where a walk over the block would meet it.
            if members[0] < 0:
                raise PartitionError(f"state index {members[0]} out of range 0..{n - 1}")
            end = bisect_left(members, n)
            for q in members if end == len(members) else members[:end]:
                if block_of[q] != -1:
                    if block_of[q] == b:
                        raise PartitionError(f"state {q} is repeated within block {b}")
                    raise PartitionError(f"state {q} appears in two blocks")
                block_of[q] = b
            if end < len(members):
                raise PartitionError(f"state index {members[end]} out of range 0..{n - 1}")
            left.append(len(order))
            order += members
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
