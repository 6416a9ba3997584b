"""Independent correctness machinery for the refinement engine.

Everything here works on plain sets and dicts, straight from the defining
conditions, and deliberately shares no code with `partition` or `bisim`:
these functions are the ground truth the fast path is tested against.
`InvariantChecker` reads the engine's loop state in debug runs and holds it
to the same definitions.  The module imports only `lts` at runtime; the
random instances live in `gen`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Collection, Iterable, Mapping, Sequence

from .lts import NormalizedDlts

if TYPE_CHECKING:
    from .partition import RefinablePartition

# A partition as a plain list of state-index sets: no performance structure.
PartitionView = list[set[int]]


def _partition_view(blocks: Iterable[set[int]], n: int) -> PartitionView:
    blocks = [set(b) for b in blocks]
    seen: set[int] = set()
    for block in blocks:
        if not block:
            raise ValueError("empty block")
        if block & seen:
            raise ValueError("overlapping blocks")
        seen |= block
    if seen != set(range(n)):
        raise ValueError("blocks do not cover the state range")
    return blocks


def canonical_view(blocks: Iterable[Iterable[int]]) -> list[list[int]]:
    """Same canonical form as RefinablePartition.to_canonical."""
    return sorted(sorted(b) for b in blocks)


def _pre_maps(T: NormalizedDlts) -> list[dict[int, list[int]]]:
    """Per letter: destination -> list of sources, built directly from the triples."""
    pre: list[dict[int, list[int]]] = [{} for _ in range(T.k)]
    for src, a, dst in T.triples():
        pre[a].setdefault(dst, []).append(src)
    return pre


def _pre_of(pre_map: dict[int, list[int]], block: Iterable[int]) -> set[int]:
    out: set[int] = set()
    for q in block:
        srcs = pre_map.get(q)
        if srcs:
            out.update(srcs)
    return out


def _preimages_are_unions(
    pre: list[dict[int, list[int]]],
    regions: Iterable[Collection[int]],
    blocks: Sequence[Iterable[int]],
    block_of: Mapping[int, int] | Sequence[int],
) -> bool:
    """Whether each region's preimage under each letter is a union of whole blocks.

    `pre` comes from `_pre_maps`; block b holds the states `blocks[b]`, and
    `block_of[q]` is the block of state q.
    """
    for region in regions:
        for pre_map in pre:
            pre_r = _pre_of(pre_map, region)
            for b in {block_of[q] for q in pre_r}:
                if not pre_r.issuperset(blocks[b]):
                    return False
    return True


def is_bisimulation(blocks: PartitionView, T: NormalizedDlts) -> bool:
    """Check the block characterization: every block's preimage, under every
    letter, must be a union of whole blocks."""
    blocks = _partition_view(blocks, T.n)
    block_of = {q: i for i, block in enumerate(blocks) for q in block}
    return _preimages_are_unions(_pre_maps(T), blocks, blocks, block_of)


def stable_by_signatures(T: NormalizedDlts, block_of: Sequence[int]) -> bool:
    """Whether the partition with block ids `block_of` is a bisimulation of `T`.

    Each state's key is its block and the sorted (letter, successor block)
    pairs of its outgoing transitions; the partition is stable exactly when
    every block holds one key.  That also requires the states of a block to
    share one set of outgoing letters.  Linear in m and n up to the sort of
    each state's at most k pairs, so it certifies results at any n.
    """
    pairs: list[list[tuple[int, int]]] = [[] for _ in range(T.n)]
    for src, a, dst in T.triples():
        pairs[src].append((a, block_of[dst]))
    key_of_block: dict[int, tuple[tuple[int, int], ...]] = {}
    for q, out in enumerate(pairs):
        key = tuple(sorted(out))
        if key_of_block.setdefault(block_of[q], key) != key:
            return False
    return True


def _split_all(blocks: PartitionView, x: set[int]) -> tuple[PartitionView, bool]:
    out: PartitionView = []
    changed = False
    for block in blocks:
        inside = block & x
        if inside and inside != block:
            out.append(inside)
            out.append(block - inside)
            changed = True
        else:
            out.append(block)
    return out, changed


def naive_fixpoint(T: NormalizedDlts, p_init: Iterable[set[int]]) -> PartitionView:
    """Coarsest bisimulation inside the initial partition, by exhaustion.

    Sweep over a snapshot of the blocks, splitting everything by each block's
    per-letter preimage, until a full sweep changes nothing.  Splitting by the
    preimage of a stale (already refined) block is still sound: such a block
    is a union of current blocks, hence closed under every bisimulation the
    current partition still contains.  Roughly O(k * n^3); fine as an oracle.
    """
    blocks = _partition_view(p_init, T.n)
    pre = _pre_maps(T)
    while True:
        changed = False
        snapshot = [set(b) for b in blocks]
        for block in snapshot:
            for a in range(T.k):
                x = _pre_of(pre[a], block)
                if x:
                    blocks, step = _split_all(blocks, x)
                    changed = changed or step
        if not changed:
            return blocks


class InvariantChecker:
    """Brute-force assertions over `dbisim`'s loop state, for debug runs on small inputs.

    Checks, at every loop head and once on the result (also when no loop runs):
      * the letter buckets are empty;
      * the worklist's (left, right) ranges are disjoint and each is a
        union of >= 2 whole blocks, and the per-block flags mirror
        membership in their union;
      * the current partition is still refined by the coarsest bisimulation
        inside the initial partition (hence contains every bisimulation
        inside it);
      * every worklist range, and every block outside the worklist union, has
        a preimage under each letter that is a union of whole blocks.
    """

    def __init__(self, T: NormalizedDlts, p_init: RefinablePartition):
        self.pre = _pre_maps(T)
        init_blocks = [set(p_init.block_members(b)) for b in range(p_init.block_count)]
        self.coarsest = naive_fixpoint(T, init_blocks)

    def check(self, p: RefinablePartition, worklist: Sequence[tuple[int, int]],
              in_union: list[bool], buckets: list[list[int]], touched: list[int]) -> None:
        assert not touched and not any(buckets), "letter buckets dirty"
        self._check_worklist_shape(p, worklist, in_union)
        self._check_contains_all_bisimulations(p)
        self._check_stability(p, worklist, in_union)

    def _check_worklist_shape(self, p: RefinablePartition, worklist: Sequence[tuple[int, int]],
                              in_union: list[bool]) -> None:
        covered = [False] * len(p.A)
        previous_right = None
        for left, right in sorted(worklist):
            assert previous_right is None or left >= previous_right, "worklist ranges overlap"
            previous_right = right
            cursor = left
            spanned = 0
            while cursor < right:
                b = p.block_of[p.A[cursor]]
                assert p.left[b] == cursor, "worklist range cuts through a block"
                cursor = p.right[b]
                spanned += 1
            assert cursor == right, "worklist range cuts through a block"
            assert spanned >= 2, "worklist range spans fewer than two blocks"
            for i in range(left, right):
                covered[i] = True
        assert len(in_union) == p.block_count, "one flag per block"
        for b in range(p.block_count):
            assert in_union[b] == covered[p.left[b]], f"flag of block {b} out of sync"

    def _check_contains_all_bisimulations(self, p: RefinablePartition) -> None:
        # The coarsest bisimulation inside the initial partition contains
        # every other one, so containment of its blocks is containment of all.
        for block in self.coarsest:
            ids = {p.block_of[q] for q in block}
            assert len(ids) == 1, "partition separated two bisimilar states"

    def _check_stability(self, p: RefinablePartition, worklist: Sequence[tuple[int, int]],
                         in_union: list[bool]) -> None:
        blocks = [p.block_members(b) for b in range(p.block_count)]
        regions = [p.A[l:r] for l, r in worklist]
        regions.extend(blocks[b] for b in range(p.block_count) if not in_union[b])
        assert _preimages_are_unions(self.pre, regions, blocks, p.block_of), (
            "a letter preimage of a pending splitter cuts a block"
        )
