"""The refinable partition, and the engine's split routine run without a system."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlts_bisim import PartitionError, RefinablePartition
from dlts_bisim.bisim import _split

from _canon import check_consistency, refines, split_sets, split_tracking_ids


def canonical_sets(blocks):
    return sorted(sorted(b) for b in blocks)


class WriteCountingList(list):
    """A list that counts item assignments, to bound the moves a split makes."""

    writes = 0

    def __setitem__(self, index, value):
        self.writes += 1
        super().__setitem__(index, value)


def counting(p):
    p.A = WriteCountingList(p.A)
    return p.A


def block_members(p, b):
    """Block b's states in array order: its range of the state array."""
    return p.A[p.left[b] : p.right[b]]


def test_from_initial_single_block():
    p = RefinablePartition.from_initial(3, [{0, 1, 2}])
    assert p.block_count == 1
    assert p.left[0] == 0 and p.right[0] == 3


def test_from_initial_singletons():
    p = RefinablePartition.from_initial(3, [{0}, {1}, {2}])
    assert p.block_count == 3
    assert p.to_canonical() == [[0], [1], [2]]


def test_from_initial_rejects_bad_partitions():
    with pytest.raises(PartitionError, match="two blocks"):
        RefinablePartition.from_initial(3, [{0, 1}, {1, 2}])
    with pytest.raises(PartitionError, match="state 0 is repeated within block 0"):
        RefinablePartition.from_initial(2, [[0, 0, 1]])
    with pytest.raises(PartitionError, match="state 1 is repeated within block 1"):
        RefinablePartition.from_initial(3, [[0], [2, 1, 1]])
    with pytest.raises(PartitionError, match="not covered"):
        RefinablePartition.from_initial(3, [{0, 1}])
    with pytest.raises(PartitionError, match="empty block"):
        RefinablePartition.from_initial(1, [{0}, set()])
    with pytest.raises(PartitionError, match="out of range"):
        RefinablePartition.from_initial(2, [{0, 5}, {1}])
    # Each block is checked in ascending order: a repeat or a state of an
    # earlier block below a state out of range is reported first.
    with pytest.raises(PartitionError, match="state 0 is repeated within block 0"):
        RefinablePartition.from_initial(2, [[5, 0, 0]])
    with pytest.raises(PartitionError, match="state 0 appears in two blocks"):
        RefinablePartition.from_initial(2, [{0}, {0, 9}])
    with pytest.raises(PartitionError, match="state index -1 out of range 0..1"):
        RefinablePartition.from_initial(2, [{0}, {-1, 0}])


def split(p, *buckets, in_union=None):
    """One split call by `buckets`, letters in order, every block outside the
    splitter union unless `in_union` says otherwise; returns the pushed ranges."""
    if in_union is None:
        in_union = [False] * p.block_count
    lists = [list(bucket) for bucket in buckets]
    los, his = [], []
    assert _split(p, lists, list(range(len(lists))), in_union, los, his) == (0, 0, 0)
    assert not any(lists), "buckets not emptied"
    assert len(in_union) == p.block_count
    return list(zip(los, his))


def test_split_empty_is_noop():
    p = RefinablePartition.from_initial(3, [{0, 1, 2}])
    assert split(p, []) == []
    assert p.block_count == 1
    assert p.to_canonical() == [[0, 1, 2]]


def test_split_singleton_out_of_full_block():
    p = RefinablePartition.from_initial(3, [{0, 1, 2}])
    in_union = [False]
    assert split(p, [0], in_union=in_union) == [(0, 3)]  # the pre-split block covered everything
    assert p.to_canonical() == [[0], [1, 2]]
    assert in_union == [True, True]
    assert block_members(p, 1) == [0]  # the fresh id holds the part inside the bucket
    assert sorted(block_members(p, 0)) == [1, 2]


def test_split_skips_contained_blocks():
    # Expected values fixed by the set-based reference split.
    assert canonical_sets(split_sets([{0, 1}, {2, 3}], [0, 1, 2])) == [[0, 1], [2], [3]]
    p = RefinablePartition.from_initial(4, [{0, 1}, {2, 3}])
    in_union = [False, False]
    assert split(p, [0, 1, 2], in_union=in_union) == [(2, 4)]
    assert p.to_canonical() == [[0, 1], [2], [3]]
    assert in_union == [False, True, True]  # the contained block stays outside
    assert block_members(p, 2) == [2]


def test_split_tolerates_duplicates():
    p = RefinablePartition.from_initial(4, [{0, 1, 2, 3}])
    A = counting(p)
    assert split(p, [1, 1, 2, 1]) == [(0, 4)]
    assert p.to_canonical() == [[0, 3], [1, 2]]
    assert A.writes <= 2 * 2  # one swap (two writes) per distinct hit state
    check_consistency(p)


def test_split_skips_singleton_blocks_without_moves():
    p = RefinablePartition.from_initial(3, [{0}, {1, 2}])
    A = counting(p)
    assert split(p, [0, 0, 2]) == [(1, 3)]
    assert p.to_canonical() == [[0], [1], [2]]
    assert A.writes == 2  # the swap that moves state 2; block {0} is never touched
    check_consistency(p)


def test_split_conserves_members():
    p = RefinablePartition.from_initial(5, [{0, 1, 2, 3, 4}])
    split(p, [1, 3])
    joined = sorted(block_members(p, 1) + block_members(p, 0))
    assert joined == [0, 1, 2, 3, 4]


def test_split_twice_by_same_set_is_stable():
    p = RefinablePartition.from_initial(6, [{0, 1, 2}, {3, 4, 5}])
    xs = [0, 3, 4]
    assert split(p, xs) != []
    assert split(p, xs) == []
    assert p.block_count == 4


def test_split_of_a_flagged_block_pushes_nothing():
    p = RefinablePartition.from_initial(4, [{0, 1}, {2, 3}])
    in_union = [True, False]
    assert split(p, [0, 2], in_union=in_union) == [(2, 4)]
    assert in_union == [True, True, True, True]
    assert [block_members(p, b) for b in (2, 3)] == [[0], [2]]  # fresh ids in bucket order


def test_split_later_bucket_sees_earlier_splits():
    p = RefinablePartition.from_initial(4, [{0, 1, 2, 3}])
    in_union = [False]
    # The first bucket splits {0, 1} off as block 1 and pushes the whole
    # range; the second splits block 1 again and block 0, pushing nothing.
    assert split(p, [0, 1], [1, 2], in_union=in_union) == [(0, 4)]
    assert [block_members(p, b) for b in range(4)] == [[3], [0], [1], [2]]
    assert in_union == [True] * 4
    check_consistency(p)


def test_block_members_in_array_order():
    p = RefinablePartition.from_initial(3, [{1}, {0, 2}])
    assert block_members(p, 0) == [1]
    assert set(block_members(p, 1)) == {0, 2}


def test_to_canonical():
    p = RefinablePartition.from_initial(3, [{2, 0}, {1}])
    assert p.to_canonical() == [[0, 2], [1]]
    q = RefinablePartition.from_initial(4, [{0, 1, 2, 3}])
    assert q.to_canonical() == [[0, 1, 2, 3]]


def test_copy_is_independent():
    p = RefinablePartition.from_initial(5, [{0, 1, 2, 3}, {4}])
    q = p.copy()
    split(q, [0, 1], [2])
    assert p.to_canonical() == [[0, 1, 2, 3], [4]]
    assert q.to_canonical() == [[0, 1], [2], [3], [4]]
    # Both one-state parts of the second split get flagged, the two-state
    # part does not, and the original keeps its own flags.
    assert p.settled == bytearray([0, 0, 0, 0, 1])
    assert q.settled == bytearray([0, 0, 1, 1, 1])
    check_consistency(p)
    check_consistency(q)


@st.composite
def partitions_and_split_calls(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    assignment = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    groups: dict[int, set[int]] = {}
    for q, g in enumerate(assignment):
        groups.setdefault(g, set()).add(q)
    blocks = [groups[g] for g in sorted(groups)]
    calls = []
    for _ in range(draw(st.integers(0, 5))):
        buckets = draw(st.lists(
            st.lists(st.integers(0, n - 1), min_size=0, max_size=n + 4), min_size=1, max_size=3
        ))
        order = draw(st.permutations(range(len(buckets))))
        letters = order[: draw(st.integers(0, len(order)))]
        flags = draw(st.lists(st.booleans(), min_size=n, max_size=n))  # n >= block count
        calls.append((buckets, letters, flags))
    return n, blocks, calls


@given(partitions_and_split_calls())
@settings(max_examples=120, deadline=None)
def test_split_matches_set_reference(case):
    n, blocks, calls = case
    p = RefinablePartition.from_initial(n, [set(b) for b in blocks])
    A = counting(p)
    reference = [set(b) for b in blocks]  # block id -> states
    for buckets, letters, flags in calls:
        before = [set(b) for b in reference]
        writes_before = A.writes
        in_union = flags[: p.block_count]
        want_flags = list(in_union)
        lists = [list(bucket) for bucket in buckets]
        los, his = [], []
        _split(p, lists, letters, in_union, los, his)
        pushed, sets = [], [set(b) for b in before]
        for a in letters:
            pushed += split_tracking_ids(reference, want_flags, buckets[a])
            sets = split_sets(sets, buckets[a])

        check_consistency(p)
        assert p.to_canonical() == canonical_sets(sets)
        # ids: old ids keep the part outside, fresh ids ascend in the order met
        assert [set(block_members(p, b)) for b in range(p.block_count)] == reference
        assert in_union == want_flags
        # each pushed range [left[fresh], right[old]) covers exactly the pre-split block
        assert [set(p.A[lo:hi]) for lo, hi in zip(los, his)] == pushed
        assert [lists[a] for a in letters] == [[] for _ in letters]
        assert [lists[a] for a in range(len(buckets)) if a not in letters] == [
            buckets[a] for a in range(len(buckets)) if a not in letters
        ]
        assert A.writes - writes_before <= 2 * sum(len(set(buckets[a])) for a in letters)
        # refinement monotonicity: every new block sits inside one old block
        assert refines(p.to_canonical(), before)
