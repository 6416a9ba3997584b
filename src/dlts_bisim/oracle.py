"""Independent correctness machinery for the refinement engine.

Everything here works on plain sets and dicts, straight from the defining
conditions, and deliberately shares no code with `partition` or `bisim`:
these functions are the ground truth the fast path is tested against, and
debug runs of the engine and `check` certify each result with the same two
routines, `result_fault` and `fixpoint_fault`.  The module imports only
`lts`; the random instances live in `gen`.
"""

from __future__ import annotations

from operator import eq
from typing import Iterable, Sequence

from .lts import NormalizedDlts

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


def is_bisimulation(blocks: PartitionView, T: NormalizedDlts) -> bool:
    """Check the block characterization: every block's preimage, under every
    letter, must be a union of whole blocks."""
    blocks = _partition_view(blocks, T.n)
    block_of = {q: i for i, block in enumerate(blocks) for q in block}
    for pre_map in _pre_maps(T):
        for block in blocks:
            pre_b = _pre_of(pre_map, block)
            for b in {block_of[q] for q in pre_b}:
                if not pre_b.issuperset(blocks[b]):
                    return False
    return True


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


def result_fault(T: NormalizedDlts, init_block_of: Sequence[int],
                 block_of: Sequence[int]) -> str | None:
    """The first fault of a result `block_of` (block ids per state) of a run
    from `init_block_of`, or None: it must be stable, by `stable_by_signatures`,
    and refine the initial partition, so it also refines the pre-refinement.
    Linear up to the sort of each state's pairs, so it runs at any n."""
    if not stable_by_signatures(T, block_of):
        return ("two states of a block of the result differ in their"
                " (letter, successor block) pairs")
    enclosing: dict[int, int] = {}
    if not all(map(eq, map(enclosing.setdefault, block_of, init_block_of), init_block_of)):
        return "a block of the result meets two blocks of the initial partition"
    return None


def fixpoint_fault(T: NormalizedDlts, init_block_of: Sequence[int],
                   block_of: Sequence[int]) -> str | None:
    """The fault of a result `block_of` that differs from `naive_fixpoint`'s
    from `init_block_of`, or None; about O(k n^3), as the fixpoint is."""
    if canonical_view(_members(block_of)) != canonical_view(
            naive_fixpoint(T, _members(init_block_of))):
        return "the result is not the coarsest bisimulation refining the initial partition"
    return None


def _members(block_of: Sequence[int]) -> PartitionView:
    members: dict[int, set[int]] = {}
    for q, b in enumerate(block_of):
        members.setdefault(b, set()).add(q)
    return list(members.values())


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
