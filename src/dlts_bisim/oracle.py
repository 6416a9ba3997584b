"""Independent correctness machinery for the refinement engine.

Everything here works on plain sets and dicts, straight from the defining
conditions, and deliberately shares no code with `partition` or `bisim`:
these functions are the ground truth the fast path is tested against.
`InvariantChecker` reads the engine's loop state in debug runs and holds it
to the same definitions.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

from .lts import Dfa, NormalizedDlts, RawLts, normalize

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


def is_bisimulation(blocks: PartitionView, T: NormalizedDlts) -> bool:
    """Check the block characterization: every block's preimage, under every
    letter, must be a union of whole blocks."""
    blocks = _partition_view(blocks, T.n)
    block_of = {}
    for i, block in enumerate(blocks):
        for q in block:
            block_of[q] = i
    pre = _pre_maps(T)
    for a in range(T.k):
        for block in blocks:
            pre_b = _pre_of(pre[a], block)
            hit = {block_of[q] for q in pre_b}
            closure = set()
            for i in hit:
                closure |= blocks[i]
            if not closure <= pre_b:
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

    Checks, at every loop head and once after the loop:
      * the letter buckets are empty;
      * worklist entries are disjoint and each is a union of >= 2 whole
        blocks, and the per-block flags mirror membership in their union;
      * the current partition is still refined by the coarsest bisimulation
        inside the initial partition (hence contains every bisimulation
        inside it);
      * every worklist range, and every block outside the worklist union, has
        a preimage under each letter that is a union of whole blocks.
    """

    def __init__(self, T: NormalizedDlts, p_init: RefinablePartition):
        self.T = T
        init_blocks = [set(p_init.block_members(b)) for b in range(p_init.block_count)]
        self.coarsest = naive_fixpoint(T, init_blocks)

    def check(self, p: RefinablePartition, worklist: list[list[int]], in_union: list[bool],
              buckets: list[list[int]], touched: list[int]) -> None:
        assert not touched and not any(buckets), "letter buckets dirty"
        self._check_worklist_shape(p, worklist, in_union)
        self._check_contains_all_bisimulations(p)
        self._check_stability(p, worklist, in_union)

    def _check_worklist_shape(self, p: RefinablePartition, worklist: list[list[int]],
                              in_union: list[bool]) -> None:
        covered = [False] * len(p.A)
        previous_right = None
        for left, right in sorted(tuple(e) for e in worklist):
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

    def _check_stability(self, p: RefinablePartition, worklist: list[list[int]],
                         in_union: list[bool]) -> None:
        T = self.T
        regions = [p.A[l:r] for l, r in worklist]
        regions.extend(p.block_members(b) for b in range(p.block_count) if not in_union[b])
        for region in regions:
            # Per letter: the sources of the transitions into the region.
            pre: list[set[int]] = [set() for _ in range(T.k)]
            for q in region:
                for t in range(T.in_offsets[q], T.in_offsets[q + 1]):
                    pre[T.in_letter[t]].add(T.in_src[t])
            for pre_a in pre:
                for b in {p.block_of[q] for q in pre_a}:
                    assert set(p.block_members(b)) <= pre_a, (
                        "a letter preimage of a pending splitter cuts a block"
                    )


@dataclass
class GenConfig:
    """Shape of a random deterministic instance; identical seeds give
    identical instances."""

    n: int
    k: int
    density: float
    seed: int
    max_blocks: int = 4

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not 0.0 <= self.density <= 1.0:
            raise ValueError("density must be in [0, 1]")
        if self.max_blocks < 1:
            raise ValueError("max_blocks must be >= 1")


def _letter_name(a: int) -> str:
    if a < len(string.ascii_lowercase):
        return string.ascii_lowercase[a]
    return f"l{a}"


def _gen_raw(cfg: GenConfig, rng: random.Random) -> RawLts:
    states = [f"q{i}" for i in range(cfg.n)]
    letters = [_letter_name(a) for a in range(cfg.k)]
    transitions = []
    for q in range(cfg.n):
        for a in range(cfg.k):
            # One Bernoulli draw per (state, letter) keeps the result
            # deterministic by construction, no rejection needed.
            if rng.random() < cfg.density:
                dst = rng.randrange(cfg.n)
                transitions.append((states[q], letters[a], states[dst]))
    return RawLts(states=states, letters=letters, transitions=transitions)


def _gen_partition(n: int, max_blocks: int, rng: random.Random) -> PartitionView:
    want = rng.randint(1, min(max_blocks, n))
    assignment = [rng.randrange(want) for _ in range(n)]
    groups: dict[int, set[int]] = {}
    for q, g in enumerate(assignment):
        groups.setdefault(g, set()).add(q)
    return [groups[g] for g in sorted(groups)]


def gen_random_dlts(cfg: GenConfig) -> tuple[NormalizedDlts, PartitionView]:
    """A seeded random deterministic LTS plus a random initial partition."""
    rng = random.Random(cfg.seed)
    T = normalize(_gen_raw(cfg, rng))
    return T, _gen_partition(cfg.n, cfg.max_blocks, rng)


def gen_random_dfa(cfg: GenConfig, final_density: float = 0.5) -> Dfa:
    """A seeded random deterministic automaton (possibly partial)."""
    rng = random.Random(cfg.seed)
    T = normalize(_gen_raw(cfg, rng))
    initial = rng.randrange(cfg.n)
    finals = {q for q in range(cfg.n) if rng.random() < final_density}
    return Dfa(dlts=T, initial=initial, finals=finals)


def instance_stream(
    count: int,
    n_max: int,
    k_max: int,
    density: float | None,
    seed: int,
) -> Iterator[tuple[GenConfig, NormalizedDlts, PartitionView]]:
    """Reproducible stream of random instances below the given size bounds.

    With `density=None` each instance draws from {0.2, 0.5, 0.9}.  The
    per-instance GenConfig is yielded so a failure can be reproduced from its
    own seed alone.
    """
    master = random.Random(seed)
    for _ in range(count):
        cfg = GenConfig(
            n=master.randint(1, n_max),
            k=master.randint(1, k_max),
            density=density if density is not None else master.choice([0.2, 0.5, 0.9]),
            seed=master.randrange(2**63),
            max_blocks=master.randint(1, 4),
        )
        T, p_init = gen_random_dlts(cfg)
        yield cfg, T, p_init


def _delta(dfa: Dfa) -> tuple[dict[tuple[int, str], int], set[int], int | None]:
    dlts = dfa.dlts
    table: dict[tuple[int, str], int] = {}
    for src, a, dst in dlts.triples():
        table[(src, dlts.letter_names[a])] = dst
    return table, set(dfa.finals), dfa.initial


def dfa_language_equivalent(d1: Dfa, d2: Dfa) -> bool:
    """Decide L(d1) = L(d2) by synchronized search over state pairs.

    Letters are matched by name over the union of the two alphabets; a
    missing transition behaves as a move into a dead non-final sink (None),
    so automata whose used alphabets differ are still comparable.
    """
    t1, finals1, init1 = _delta(d1)
    t2, finals2, init2 = _delta(d2)
    alphabet = sorted({a for _q, a in t1} | {a for _q, a in t2})

    start = (init1, init2)
    seen = {start}
    stack = [start]
    while stack:
        s1, s2 = stack.pop()
        f1 = s1 in finals1 if s1 is not None else False
        f2 = s2 in finals2 if s2 is not None else False
        if f1 != f2:
            return False
        for a in alphabet:
            n1 = t1.get((s1, a)) if s1 is not None else None
            n2 = t2.get((s2, a)) if s2 is not None else None
            if n1 is None and n2 is None:
                continue  # dead on both sides; nothing to distinguish
            pair = (n1, n2)
            if pair not in seen:
                seen.add(pair)
                stack.append(pair)
    return True
