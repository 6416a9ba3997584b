"""The refinement engine against the set-based reference."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dlts_bisim.bisim
from dlts_bisim import (
    GenConfig,
    NormalizedDlts,
    PartitionError,
    RawLts,
    RefinablePartition,
    ScanStats,
    canonical_view,
    dbisim,
    format_dlts,
    format_partition,
    gen_random_dlts,
    init_refine,
    is_bisimulation,
    naive_fixpoint,
    normalize,
    parse_lts,
)

from _canon import (
    check_consistency,
    init_refine_by_every_letter,
    larger_side_dbisim,
    letter_signature_blocks,
    partition_arrays,
    refines,
)


def _dlts(n, transitions, letters=("a", "b")):
    states = [f"q{i}" for i in range(n)]
    named = [(states[s], a, states[d]) for s, a, d in transitions]
    return normalize(RawLts(states, list(letters), named))


def _full(n):
    return RefinablePartition.from_initial(n, [set(range(n))] if n else [])


def _chain(n):
    return _dlts(n, [(i, "a", i + 1) for i in range(n - 1)], letters=("a",))


def scan_bound(n):
    return max(n.bit_length(), 1)  # floor(log2 n) + 1


# --- init_refine ----------------------------------------------------------


def test_init_refine_vacuous_when_signatures_match():
    T = _dlts(2, [(0, "a", 1), (1, "a", 0)])
    p = init_refine(T, _full(2))
    assert p.to_canonical() == [[0, 1]]


def test_init_refine_separates_missing_letter():
    T = _dlts(2, [(0, "a", 1)])
    p = init_refine(T, _full(2))
    assert p.to_canonical() == [[0], [1]]


def test_init_refine_groups_by_signature():
    # signatures: q0 {a}, q1 {a, b}, q2 {a}; grouping oracle says {q0, q2} | {q1}
    T = _dlts(3, [(0, "a", 0), (1, "a", 0), (1, "b", 2), (2, "a", 1)])
    want = sorted(sorted(b) for b in letter_signature_blocks(T, [{0, 1, 2}]))
    assert want == [[0, 2], [1]]
    p = init_refine(T, _full(3))
    assert p.to_canonical() == [[0, 2], [1]]


def test_init_refine_does_not_touch_input():
    T = _dlts(2, [(0, "a", 1)])
    p0 = _full(2)
    init_refine(T, p0)
    assert p0.to_canonical() == [[0, 1]]


def test_init_refine_leaves_the_layout_to_the_partial_letters():
    # a labels a transition out of every state, its sources stored in the
    # order q2 q0 q1: splitting by a would split nothing but move q2 first.
    T = _dlts(3, [(2, "a", 0), (0, "a", 1), (1, "a", 2), (0, "b", 0)])
    p = init_refine(T, _full(3))
    assert (p.A, p.to_canonical()) == ([0, 1, 2], [[0], [1, 2]])
    assert partition_arrays(p) == partition_arrays(init_refine_by_every_letter(T, _full(3), [1]))


@st.composite
def complete_dlts_and_blocks(draw):
    """A complete DLTS (every state has every letter), its transitions in a
    shuffled order, and a block number for each state."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, 4))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=n * k, max_size=n * k))
    cells = draw(st.permutations(range(n * k)))
    states = [f"q{i}" for i in range(n)]
    letters = [f"a{j}" for j in range(k)]
    transitions = [(states[c // k], letters[c % k], states[dst[c]]) for c in cells]
    T = normalize(RawLts(states, letters, transitions))
    blocks = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return T, blocks


@given(complete_dlts_and_blocks())
@settings(max_examples=60, deadline=None)
def test_init_refine_on_complete_dlts_equals_every_letter_split(case):
    T, blocks = case
    assert T.m == T.n * T.k
    groups: dict[int, set[int]] = {}
    for q, b in enumerate(blocks):
        groups.setdefault(b, set()).add(q)
    p = RefinablePartition.from_initial(T.n, groups.values())
    # From a laid-out initial partition, and from a refined one whose block
    # ids are out of position order: no letter can split, so the result is
    # a copy with the start's arrays, and the blocks of the split by all.
    for start in (p, dbisim(T, p)):
        got = init_refine(T, start)
        assert got.A is not start.A
        assert partition_arrays(got) == partition_arrays(start)
        assert got.to_canonical() == init_refine_by_every_letter(T, start).to_canonical()


@st.composite
def partial_dlts_with_full_letters(draw):
    """A partial DLTS where some but not all letters label a transition out
    of every state, its transitions in a shuffled order, the full letters,
    and a block number for each state."""
    n = draw(st.integers(2, 12))
    k = draw(st.integers(2, 4))
    full = draw(st.sets(st.integers(0, k - 1), min_size=1, max_size=k - 1))
    # Each other letter labels a transition out of one state and misses another.
    missing = {a: draw(st.integers(0, n - 1)) for a in range(k) if a not in full}
    present = {a: (q + draw(st.integers(1, n - 1))) % n for a, q in missing.items()}
    cells = [c for c in range(n * k) if c % k in full or c // k == present[c % k] or (
        c // k != missing[c % k] and draw(st.booleans()))]
    cells = draw(st.permutations(cells))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=len(cells), max_size=len(cells)))
    states = [f"q{i}" for i in range(n)]
    letters = [f"a{j}" for j in range(k)]
    transitions = [(states[c // k], letters[c % k], states[d]) for c, d in zip(cells, dst)]
    T = normalize(RawLts(states, letters, transitions))
    assert T.letter_names == letters
    blocks = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return T, sorted(full), blocks


@given(partial_dlts_with_full_letters())
@settings(max_examples=60, deadline=None)
def test_init_refine_skips_the_letters_out_of_every_state(case):
    T, full, blocks = case
    assert T.m < T.n * T.k
    others = [a for a in range(T.k) if a not in full]
    groups: dict[int, set[int]] = {}
    for q, b in enumerate(blocks):
        groups.setdefault(b, set()).add(q)
    p = RefinablePartition.from_initial(T.n, groups.values())
    for start in (p, dbisim(T, p)):
        got = init_refine(T, start)
        assert partition_arrays(got) == partition_arrays(
            init_refine_by_every_letter(T, start, others))
        assert got.to_canonical() == init_refine_by_every_letter(T, start).to_canonical()


# --- dbisim on the pinned examples ---------------------------------------


def test_dbisim_two_state_cycle_single_block(monkeypatch):
    monkeypatch.setenv("DLTS_BISIM_DEBUG", "1")
    T = _dlts(2, [(0, "a", 1), (1, "a", 0)], letters=("a",))
    want = canonical_view(naive_fixpoint(T, [{0, 1}]))
    assert want == [[0, 1]]
    assert dbisim(T, _full(2)).to_canonical() == [[0, 1]]


def test_dbisim_singletons_unchanged(monkeypatch):
    monkeypatch.setenv("DLTS_BISIM_DEBUG", "1")
    T = _dlts(3, [(0, "a", 1), (1, "a", 2)], letters=("a",))
    p = RefinablePartition.from_initial(3, [{0}, {1}, {2}])
    assert dbisim(T, p).to_canonical() == [[0], [1], [2]]


def test_dbisim_shared_sink_stays_one_block(monkeypatch):
    monkeypatch.setenv("DLTS_BISIM_DEBUG", "1")
    T = _dlts(3, [(0, "a", 2), (1, "a", 2), (2, "a", 2)], letters=("a",))
    want = canonical_view(naive_fixpoint(T, [{0, 1, 2}]))
    assert want == [[0, 1, 2]]
    assert dbisim(T, _full(3)).to_canonical() == [[0, 1, 2]]


def test_dbisim_letter_signature_split(monkeypatch):
    monkeypatch.setenv("DLTS_BISIM_DEBUG", "1")
    T = _dlts(4, [(0, "a", 1), (1, "a", 2), (2, "a", 0), (3, "b", 3)])
    want = canonical_view(naive_fixpoint(T, [{0, 1, 2, 3}]))
    assert want == [[0, 1, 2], [3]]
    assert dbisim(T, _full(4)).to_canonical() == [[0, 1, 2], [3]]


def test_dbisim_moves_a_repeated_source_once():
    # A hand-built nondeterministic encoding: q0 has two a-transitions into
    # the scanned side {q1, q2}, so q0 lands in the a-bucket twice.  That
    # side's preimage {q0} must split q0 alone off {q0, q3, q4}.
    T = NormalizedDlts(n=5, k=1, m=2, in_src=[0, 0], in_letter=[0, 0],
                       in_offsets=[0, 0, 1, 2, 2, 2],
                       state_names=[f"q{i}" for i in range(5)], letter_names=["a"])
    p = dbisim(T, RefinablePartition.from_initial(5, [{0, 3, 4}, {1, 2}]))
    check_consistency(p)
    assert p.to_canonical() == [[0], [1, 2], [3, 4]]


def test_dbisim_leaves_input_partition_alone():
    T = _dlts(4, [(0, "a", 1), (1, "a", 2), (2, "a", 0), (3, "b", 3)])
    p0 = _full(4)
    dbisim(T, p0)
    assert p0.to_canonical() == [[0, 1, 2, 3]]
    check_consistency(p0)


def test_dbisim_fills_stats():
    T = _dlts(4, [(0, "a", 1), (1, "a", 2), (2, "a", 0), (3, "b", 3)])
    stats = ScanStats.detailed(T.m)
    dbisim(T, _full(4), stats)
    assert stats.blocks_final == 2
    assert stats.transitions_scanned == sum(stats.per_transition_counts)


def test_per_transition_counts_are_pinned(monkeypatch):
    # The whole outcome, not only the bound: exact counts (each scan of a
    # state counts once for every transition into it, never for the
    # transitions out of it), split calls, final blocks and the final layout.
    T = _chain(16)
    halves = [set(range(8)), set(range(8, 16))]
    T_random, p_random = gen_random_dlts(GenConfig(n=24, k=3, density=0.6, seed=3))
    # Complete (m = n * k): pre-refinement returns a plain copy.
    T_complete, _ = gen_random_dlts(GenConfig(n=24, k=2, density=1.0, seed=4))
    order = random.Random(4).sample(range(24), 24)
    random_halves = [set(order[:12]), set(order[12:])]
    cases = [
        (T, [set(range(16))], [1] * 15, 14, 16,
         [14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 15],
         [1, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 0]),
        (T, halves, [1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 0, 1], 12, 16,
         [7, 6, 5, 4, 3, 2, 1, 0, 14, 12, 11, 10, 9, 8, 13, 15],
         [0, 15, 14, 13, 12, 11, 10, 5, 4, 9, 8, 7, 6, 2, 3, 1]),
        (T_random, p_random,
         [1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 1, 2, 2, 2, 1, 1, 1, 1, 1,
          1, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 1], 13, 21,
         [10, 19, 0, 4, 2, 20, 21, 5, 23, 18, 1, 11, 13, 22, 17, 14, 15, 8, 16, 7, 3, 9, 6, 12],
         [13, 5, 4, 17, 18, 16, 0, 6, 11, 3, 8, 9, 0, 9, 1, 10, 19, 20, 15, 12, 7, 2, 20, 14]),
        (T_complete, random_halves,
         [2, 2, 2, 1, 1, 2, 1, 1, 2, 2, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1, 2, 2, 2, 2,
          1, 1, 1, 2, 2, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 1, 0, 0, 2, 2, 2, 1], 16, 23,
         [0, 4, 9, 17, 12, 7, 18, 3, 8, 2, 6, 15, 5, 10, 1, 20, 19, 14, 22, 21, 23, 11, 16, 13],
         [15, 20, 6, 19, 16, 21, 11, 14, 19, 4, 18, 10, 9, 1, 3, 0, 8, 2, 22, 12, 7, 17, 13, 5]),
    ]
    for debug in ("0", "1"):
        monkeypatch.setenv("DLTS_BISIM_DEBUG", debug)
        for T_case, p_view, want, split_calls, blocks, A, block_of in cases:
            stats = ScanStats.detailed(T_case.m)
            p = dbisim(T_case, RefinablePartition.from_initial(T_case.n, p_view), stats)
            assert stats.per_transition_counts == want
            assert stats.transitions_scanned == sum(want)
            assert (stats.split_calls, stats.blocks_final) == (split_calls, blocks)
            assert (p.A, p.block_of) == (A, block_of)


def test_dbisim_detaches_the_smaller_end_block(monkeypatch):
    # Blocks laid out [q0 q1 q2 | q3 q4 | q5] under one letter: q0 q1 q2 q3
    # -> q0, q4 -> q5 and q5 -> q5, so {q3 q4} must split and the loop runs.
    # The first range's rightmost block {q5} is smaller than its leftmost
    # one, so the first iteration scans only q5's two in-transitions, which
    # split {q3 q4}; the rest of the range scans {q3} and then {q4}, which
    # nothing enters.  Detaching {q0 q1 q2} first would scan q0's four
    # in-transitions instead.
    T = _dlts(6, [(0, "a", 0), (1, "a", 0), (2, "a", 0), (3, "a", 0), (4, "a", 5), (5, "a", 5)],
              letters=("a",))
    blocks = [{0, 1, 2}, {3, 4}, {5}]
    for debug in ("0", "1"):
        monkeypatch.setenv("DLTS_BISIM_DEBUG", debug)
        stats = ScanStats.detailed(T.m)
        p = dbisim(T, RefinablePartition.from_initial(6, blocks), stats)
        assert p.to_canonical() == [[0, 1, 2], [3], [4], [5]]
        assert stats.per_transition_counts == [0, 0, 0, 0, 1, 1]
        assert stats.split_calls == 1


def test_loop_buckets_no_settled_source(monkeypatch):
    # A source in a one-state block cannot split, so the loop leaves it out
    # of the buckets, and an iteration whose sources are all settled makes
    # no split call.  Each iteration unflags the block it detaches before it
    # calls `split`, so a call whose flags are all set is the
    # pre-refinement's.  Debug runs hold the loop to exactly one iteration
    # per block of the result but one.
    calls = []
    original = RefinablePartition.split

    def recording_split(self, buckets, letters, in_union, los, his):
        letters = list(letters)
        if not all(in_union):
            calls.append([list(buckets[a]) for a in letters])
            assert not any(self.settled[x] for a in letters for x in buckets[a])
        return original(self, buckets, letters, in_union, los, his)

    monkeypatch.setenv("DLTS_BISIM_DEBUG", "1")
    monkeypatch.setattr(RefinablePartition, "split", recording_split)
    T_complete, _ = gen_random_dlts(GenConfig(n=48, k=2, density=1.0, seed=7))
    order = random.Random(7).sample(range(48), 48)
    for T_case, p_view in [(_chain(16), [set(range(16))]),
                           (T_complete, [set(order[:24]), set(order[24:])])]:
        calls.clear()
        stats = ScanStats()
        result = dbisim(T_case, RefinablePartition.from_initial(T_case.n, p_view), stats)
        check_consistency(result)
        assert result.to_canonical() == canonical_view(naive_fixpoint(T_case, p_view))
        iterations = result.block_count - 1
        assert all(any(buckets) for buckets in calls)
        assert sum(map(len, calls)) == stats.split_calls
        assert 0 < len(calls) < iterations


# --- randomized equivalence with the reference ----------------------------


def test_dbisim_matches_reference_on_seeded_corpus():
    rng = random.Random(2024)
    for _ in range(250):
        cfg = GenConfig(
            n=rng.randint(1, 40),
            k=rng.randint(1, 4),
            density=rng.choice([0.2, 0.5, 0.9]),
            seed=rng.randrange(2**63),
            max_blocks=rng.randint(1, 4),
        )
        T, p_view = gen_random_dlts(cfg)
        stats = ScanStats.detailed(T.m)
        result = dbisim(T, RefinablePartition.from_initial(T.n, p_view), stats)
        got = result.to_canonical()
        assert got == canonical_view(naive_fixpoint(T, p_view)), cfg
        check_consistency(result)
        assert max(stats.per_transition_counts, default=0) <= scan_bound(T.n), cfg
        # containment chain: result refines the pre-refinement refines the input
        pre = init_refine(T, RefinablePartition.from_initial(T.n, p_view)).to_canonical()
        assert refines(got, [set(b) for b in pre]), cfg
        assert refines(pre, p_view), cfg
        # running again from the result is a fixed point, block for block
        again = dbisim(T, RefinablePartition.from_initial(T.n, [set(b) for b in got]))
        assert again.to_canonical() == got, cfg


@given(
    n=st.integers(1, 24),
    k=st.integers(1, 3),
    density=st.sampled_from([0.15, 0.4, 0.8]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_dbisim_matches_reference_property(n, k, density, seed):
    cfg = GenConfig(n=n, k=k, density=density, seed=seed)
    T, p_view = gen_random_dlts(cfg)
    result = dbisim(T, RefinablePartition.from_initial(T.n, p_view))
    assert result.to_canonical() == canonical_view(naive_fixpoint(T, p_view))
    assert is_bisimulation([set(b) for b in result.to_canonical()], T)


# --- stop after pre-refinement when it is already stable -----------------


def _blocks(block_of):
    groups: dict[int, set[int]] = {}
    for q, b in enumerate(block_of):
        groups.setdefault(b, set()).add(q)
    return list(groups.values())


def test_stability_pass_agrees_with_is_bisimulation_on_seeded_corpus():
    # The pass judges partitions whose blocks each have one set of outgoing
    # letters: dbisim's result, the pre-refined partition, and the result
    # with two blocks merged that share a letter set and an initial block.
    # A merge is coarser than the coarsest bisimulation refining the initial
    # partition, so it is never one; a pre-refinement that the loop splits
    # has a (block, letter) pair that leads into two blocks.
    is_stable = dlts_bisim.bisim._is_stable
    rng = random.Random(2028)
    verdicts: dict[tuple[str, bool], int] = {}
    for _ in range(200):
        cfg = GenConfig(n=rng.randint(1, 30), k=rng.randint(1, 4),
                        density=rng.choice([0.2, 0.5, 0.9]), seed=rng.randrange(2**63),
                        max_blocks=rng.randint(1, 4))
        T, p_view = gen_random_dlts(cfg)
        p_init = RefinablePartition.from_initial(T.n, p_view)
        result = dbisim(T, p_init)
        letter_sets = [set() for _ in range(T.n)]
        for a, src in zip(T.in_letter, T.in_src):
            letter_sets[src].add(a)
        candidates = [("result", result.block_of), ("pre-refined", init_refine(T, p_init).block_of)]
        blocks = _blocks(result.block_of)
        for b, c in zip(blocks, blocks[1:]):
            x, y = min(b), min(c)
            if letter_sets[x] == letter_sets[y] and p_init.block_of[x] == p_init.block_of[y]:
                merged = [result.block_of[x] if q in c else result.block_of[q] for q in range(T.n)]
                candidates.append(("merged", merged))
        for kind, block_of in candidates:
            verdict = is_stable(T, block_of)
            assert verdict == is_bisimulation(_blocks(block_of), T), (cfg, kind)
            verdicts[kind, verdict] = verdicts.get((kind, verdict), 0) + 1
    assert not verdicts.get(("result", False)) and not verdicts.get(("merged", True))
    assert verdicts["pre-refined", True] and verdicts["pre-refined", False]
    assert verdicts["merged", False]


def _replicated_text(r, seed):
    """A `dlts` text of a base DLTS (0 -a-> 1, 0 -b-> 0, 1 -a-> 0) copied into r
    replicas under shuffled state ids, one line per transition in shuffled
    order.  Its pre-refinement, by outgoing letter set, is already stable."""
    rng = random.Random(seed)
    ids = rng.sample(range(2 * r), 2 * r)
    sigma = {a: rng.sample(range(r), r) for a in "ab"}
    base = [(0, "a", 1), (0, "b", 0), (1, "a", 0)]
    lines = [f"{ids[i * r + j]} {a} {ids[d * r + sigma[a][j]]}" for i, a, d in base for j in range(r)]
    rng.shuffle(lines)
    return f"dlts {2 * r}\n" + "\n".join(lines) + "\n"


def test_a_stable_text_path_never_groups_by_destination(monkeypatch):
    # Only the loop reads incoming transitions; pre-refinement and the
    # stability pass read the storage order, so the `bisim <file>` path
    # builds no destination-grouped view when the loop does not run.
    monkeypatch.setenv("DLTS_BISIM_DEBUG", "0")
    builds = []
    grouped = dlts_bisim.lts._grouped

    def spy(src, letter, dst, n):
        builds.append(n)
        return grouped(src, letter, dst, n)

    monkeypatch.setattr(dlts_bisim.lts, "_grouped", spy)
    text = _replicated_text(8, seed=30)
    T = parse_lts(text)
    stats = ScanStats()
    result = dbisim(T, RefinablePartition.from_initial(T.n, [range(T.n)]), stats)
    written = format_partition(result.to_canonical(), T.state_names)
    assert builds == []
    assert (stats.transitions_scanned, stats.blocks_final, len(written.splitlines())) == (0, 2, 2)
    # The view is built on first read, once, and it is not the input order.
    assert T.in_src and T.in_letter and T.in_offsets and T.triples()
    assert builds == [16]
    assert format_dlts(T).splitlines()[3:] != text.splitlines()[1:]


def test_runs_do_not_depend_on_whether_the_view_was_built(monkeypatch):
    # Pre-refinement buckets in storage order, so a second run on a system
    # whose first run built its view, and a run on a system whose view was
    # forced first, give the first run's layouts and counters.
    monkeypatch.setenv("DLTS_BISIM_DEBUG", "0")

    def run(T, p_view):
        stats = ScanStats.detailed(T.m)
        p = dbisim(T, RefinablePartition.from_initial(T.n, p_view), stats)
        return partition_arrays(p), stats

    configs = [GenConfig(n=24, k=3, density=0.6, seed=3)]
    configs += [GenConfig(n=40, k=3, density=0.5, seed=seed) for seed in range(5)]
    for cfg in configs:
        T, p_view = gen_random_dlts(cfg)
        first = run(T, p_view)
        assert first[1].transitions_scanned > 0, cfg  # the loop ran and built the view
        assert run(T, p_view) == first, cfg
        forced, _ = gen_random_dlts(cfg)
        assert forced.in_offsets
        assert run(forced, p_view) == first, cfg


@st.composite
def replicated_products(draw):
    """The text-collapse construction at tiny sizes, from the full partition.

    A random partial base DLTS is copied into r replicas: base state i of
    replica j steps on letter a to base state delta(i, a) of replica
    sigma_a(j), for a permutation sigma_a per letter, under shuffled state
    ids.  The product collapses to the base's classes.
    """
    base_n, k, r = draw(st.integers(1, 6)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    cells = draw(st.lists(st.booleans(), min_size=base_n * k, max_size=base_n * k))
    dst = draw(st.lists(st.integers(0, base_n - 1), min_size=base_n * k, max_size=base_n * k))
    sigma = [draw(st.permutations(range(r))) for _ in range(k)]
    ids = draw(st.permutations(range(base_n * r)))
    transitions = [(ids[i * r + j], f"a{a}", ids[dst[i * k + a] * r + sigma[a][j]])
                   for i in range(base_n) for a in range(k) if cells[i * k + a] for j in range(r)]
    return _dlts(base_n * r, transitions, [f"a{a}" for a in range(k)]), [set(range(base_n * r))]


@st.composite
def random_instances(draw):
    cfg = GenConfig(n=draw(st.integers(1, 20)), k=draw(st.integers(1, 3)),
                    density=draw(st.sampled_from([0.2, 0.5, 0.9])),
                    seed=draw(st.integers(0, 2**32 - 1)), max_blocks=draw(st.integers(1, 3)))
    return gen_random_dlts(cfg)


@given(st.one_of(replicated_products(), random_instances()))
@settings(max_examples=150, deadline=None)
def test_loop_runs_exactly_when_the_prerefinement_is_not_a_bisimulation(case):
    T, p_view = case
    p_init = RefinablePartition.from_initial(T.n, p_view)
    stats = ScanStats()
    result = dbisim(T, p_init, stats)
    assert result.to_canonical() == canonical_view(naive_fixpoint(T, p_view))
    pre = init_refine(T, p_init).to_canonical()
    assert (stats.transitions_scanned == 0) == is_bisimulation([set(b) for b in pre], T)


def test_debug_mode_follows_environment(monkeypatch, capsys):
    # The switch turns on the checks (and the notice that skips the
    # coarsest-partition one) and nothing else: a plain ScanStats gets no
    # per-transition counters.
    for debug, notices in (("0", 0), ("1", 1)):
        monkeypatch.setenv("DLTS_BISIM_DEBUG", debug)
        stats = ScanStats()
        dbisim(_chain(513), _full(513), stats)
        assert capsys.readouterr().err.count("coarsest-partition check skipped") == notices
        assert stats.per_transition_counts is None
        assert stats.transitions_scanned > 0


def test_debug_mode_reports_skipped_checks(monkeypatch, capsys):
    monkeypatch.setenv("DLTS_BISIM_DEBUG", "1")
    dbisim(_chain(8), _full(8))
    assert capsys.readouterr().err == ""  # small enough: checked, nothing to say
    notice = ("DLTS_BISIM_DEBUG: coarsest-partition check skipped, n={} > 512; "
              "the other result checks ran\n")
    dbisim(_chain(513), _full(513))
    assert capsys.readouterr().err == notice.format(513)
    # Stable after pre-refinement: no iteration runs, and the result still
    # goes unchecked for coarsest-ness.
    cycle = _dlts(600, [(i, "a", (i + 1) % 600) for i in range(600)], letters=("a",))
    parity = [set(range(0, 600, 2)), set(range(1, 600, 2))]
    stats = ScanStats()
    assert dbisim(cycle, RefinablePartition.from_initial(600, parity), stats).block_count == 2
    assert stats.transitions_scanned == 0
    assert capsys.readouterr().err == notice.format(600)


def test_debug_mode_checks_the_result_above_the_assertion_limit(monkeypatch):
    # Past n = 512 the coarsest-partition check is skipped, yet debug runs
    # still reject a result that is not stable (the loop's splits do
    # nothing) or that does not refine the initial partition (pre-refinement
    # starts from one block); plain runs return both.
    original_split = RefinablePartition.split
    original_init_refine = dlts_bisim.bisim.init_refine

    def split_only_the_first_block(self, buckets, letters, in_union, los, his):
        if self.block_count == 1:  # init_refine's call
            return original_split(self, buckets, letters, in_union, los, his)
        for a in letters:
            buckets[a].clear()

    cycle = _dlts(600, [(i, "a", (i + 1) % 600) for i in range(600)], letters=("a",))
    odd_one_out = RefinablePartition.from_initial(600, [{0}, set(range(1, 600))])
    cases = [
        (RefinablePartition, "split", split_only_the_first_block, _chain(513), _full(513),
         "differ in their \\(letter, successor block\\) pairs"),
        (dlts_bisim.bisim, "init_refine", lambda T, p: original_init_refine(T, _full(T.n)),
         cycle, odd_one_out, "meets two blocks of the initial partition"),
    ]
    for owner, name, patch, T, p_init, message in cases:
        with monkeypatch.context() as m:
            m.setattr(owner, name, patch)
            m.setenv("DLTS_BISIM_DEBUG", "0")
            dbisim(T, p_init)
            m.setenv("DLTS_BISIM_DEBUG", "1")
            with pytest.raises(AssertionError, match=message):
                dbisim(T, p_init)


def test_debug_runs_count_one_iteration_per_block_but_one(monkeypatch):
    # A split that pushes a block's range but leaves the block unflagged lets
    # a later split of that block push an overlapping range.  The result is
    # still right, as every range is a union of blocks, but the loop takes
    # more iterations than the blocks it creates, which debug runs reject.
    original = RefinablePartition.split

    def split_leaving_union_flags(self, buckets, letters, in_union, los, his):
        for a in list(letters):
            unflagged = [b for b, flag in enumerate(in_union) if not flag]
            original(self, buckets, [a], in_union, los, his)
            for b in unflagged:
                in_union[b] = False

    T, p_view = gen_random_dlts(GenConfig(n=8, k=2, density=0.8, seed=1, max_blocks=2))
    want = canonical_view(naive_fixpoint(T, p_view))
    honest = ScanStats()
    assert dbisim(T, RefinablePartition.from_initial(T.n, p_view), honest).to_canonical() == want
    monkeypatch.setattr(RefinablePartition, "split", split_leaving_union_flags)
    monkeypatch.setenv("DLTS_BISIM_DEBUG", "0")
    stats = ScanStats()
    assert dbisim(T, RefinablePartition.from_initial(T.n, p_view), stats).to_canonical() == want
    assert stats.transitions_scanned != honest.transitions_scanned
    monkeypatch.setenv("DLTS_BISIM_DEBUG", "1")
    with pytest.raises(AssertionError, match="iterations for"):
        dbisim(T, RefinablePartition.from_initial(T.n, p_view))


def test_debug_runs_above_the_assertion_limit_reject_an_accept_all_stability_pass(monkeypatch):
    # The result check certifies stability with the oracle's signatures,
    # independently of the pass that ends a run early: a pass that accepts
    # every partition returns an unstable pre-refinement, which debug runs
    # reject above n = 512 too.
    T, _ = gen_random_dlts(GenConfig(n=600, k=2, density=0.9, seed=1, max_blocks=1))
    monkeypatch.setenv("DLTS_BISIM_DEBUG", "1")
    result = dbisim(T, _full(T.n))
    assert is_bisimulation(_blocks(result.block_of), T)
    monkeypatch.setattr(dlts_bisim.bisim, "_is_stable", lambda T, block_of: True)
    monkeypatch.setenv("DLTS_BISIM_DEBUG", "0")
    assert not is_bisimulation(_blocks(dbisim(T, _full(T.n)).block_of), T)
    monkeypatch.setenv("DLTS_BISIM_DEBUG", "1")
    with pytest.raises(AssertionError, match="differ in their"):
        dbisim(T, _full(T.n))


# --- the smaller-half rule is what gives the log bound ---------------------


def test_scan_larger_mutant_breaks_bound_but_not_result():
    n = 64
    T = _chain(n)
    stats = ScanStats.detailed(T.m)
    mutant = larger_side_dbisim()(T, _full(n), stats)
    assert max(stats.per_transition_counts) > scan_bound(n)
    assert mutant.to_canonical() == canonical_view(naive_fixpoint(T, [set(range(n))]))

    honest = ScanStats.detailed(T.m)
    result = dbisim(T, _full(n), honest)
    assert max(honest.per_transition_counts) <= scan_bound(n)
    assert result.to_canonical() == mutant.to_canonical()


def test_empty_and_tiny_systems():
    T = _dlts(0, [], letters=())
    assert dbisim(T, _full(0)).to_canonical() == []
    T1 = _dlts(1, [], letters=())
    assert dbisim(T1, _full(1)).to_canonical() == [[0]]


@pytest.mark.parametrize("n", [2, 4])
def test_dbisim_rejects_a_partition_over_another_state_count(n):
    T = _chain(3)  # a -x-> b -x-> c: three singletons over the right count
    assert dbisim(T, _full(3)).to_canonical() == [[0], [1], [2]]
    with pytest.raises(PartitionError, match=f"covers {n} states but the LTS has 3"):
        init_refine(T, _full(n))
    stats = ScanStats()
    with pytest.raises(PartitionError, match=f"covers {n} states but the LTS has 3"):
        dbisim(T, _full(n), stats)
    assert stats == ScanStats()


@pytest.mark.parametrize("m", [1, 5])
def test_dbisim_rejects_counters_for_another_transition_count(m):
    T = _chain(3)
    stats = ScanStats.detailed(m)
    with pytest.raises(ValueError, match=f"{m} per-transition counters for an LTS with 2 "):
        dbisim(T, RefinablePartition.from_initial(3, [{0, 2}, {1}]), stats)
    assert stats == ScanStats.detailed(m)  # rejected before any work
