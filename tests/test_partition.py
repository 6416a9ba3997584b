"""The refinable partition and its split primitive."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlts_bisim import PartitionError, RefinablePartition

from _canon import check_consistency, refines, split_sets


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


def test_split_empty_is_noop():
    p = RefinablePartition.from_initial(3, [{0, 1, 2}])
    assert p.split([]) == []
    assert p.to_canonical() == [[0, 1, 2]]


def test_split_singleton_out_of_full_block():
    p = RefinablePartition.from_initial(3, [{0, 1, 2}])
    pairs = p.split([0])
    assert p.to_canonical() == [[0], [1, 2]]
    assert pairs == [(0, 1)]
    old, fresh = pairs[0]
    assert (p.left[fresh], p.right[old]) == (0, 3)  # the pre-split block covered everything
    assert sorted(p.block_members(fresh)) == [0]
    assert sorted(p.block_members(old)) == [1, 2]


def test_split_skips_contained_blocks():
    # Expected values fixed by the set-based reference split.
    assert canonical_sets(split_sets([{0, 1}, {2, 3}], [0, 1, 2])) == [[0, 1], [2], [3]]
    p = RefinablePartition.from_initial(4, [{0, 1}, {2, 3}])
    pairs = p.split([0, 1, 2])
    assert p.to_canonical() == [[0, 1], [2], [3]]
    assert len(pairs) == 1
    old, fresh = pairs[0]
    assert (p.left[fresh], p.right[old]) == (2, 4)


def test_split_tolerates_duplicates():
    p = RefinablePartition.from_initial(4, [{0, 1, 2, 3}])
    A = counting(p)
    pairs = p.split([1, 1, 2, 1])
    assert p.to_canonical() == [[0, 3], [1, 2]]
    assert len(pairs) == 1
    assert A.writes <= 2 * 2  # one swap (two writes) per distinct hit state


def test_split_conserves_members():
    p = RefinablePartition.from_initial(5, [{0, 1, 2, 3, 4}])
    ((old, fresh),) = p.split([1, 3])
    joined = sorted(p.block_members(fresh) + p.block_members(old))
    assert joined == [0, 1, 2, 3, 4]


def test_split_twice_by_same_set_is_stable():
    p = RefinablePartition.from_initial(6, [{0, 1, 2}, {3, 4, 5}])
    xs = [0, 3, 4]
    assert p.split(xs) != []
    assert p.split(xs) == []


def test_block_members_in_array_order():
    p = RefinablePartition.from_initial(3, [{1}, {0, 2}])
    assert p.block_members(0) == [1]
    assert set(p.block_members(1)) == {0, 2}


def test_to_canonical():
    p = RefinablePartition.from_initial(3, [{2, 0}, {1}])
    assert p.to_canonical() == [[0, 2], [1]]
    q = RefinablePartition.from_initial(4, [{0, 1, 2, 3}])
    assert q.to_canonical() == [[0, 1, 2, 3]]


def test_copy_is_independent():
    p = RefinablePartition.from_initial(4, [{0, 1, 2, 3}])
    q = p.copy()
    q.split([0, 1])
    assert p.to_canonical() == [[0, 1, 2, 3]]
    assert q.to_canonical() == [[0, 1], [2, 3]]


@st.composite
def partitions_and_split_sequences(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    assignment = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    groups: dict[int, set[int]] = {}
    for q, g in enumerate(assignment):
        groups.setdefault(g, set()).add(q)
    blocks = [groups[g] for g in sorted(groups)]
    splits = draw(
        st.lists(
            st.lists(st.integers(0, n - 1), min_size=0, max_size=n + 4),
            min_size=0,
            max_size=5,
        )
    )
    return n, blocks, splits


@given(partitions_and_split_sequences())
@settings(max_examples=120, deadline=None)
def test_split_matches_set_reference(case):
    n, blocks, splits = case
    p = RefinablePartition.from_initial(n, [set(b) for b in blocks])
    A = counting(p)
    reference = [set(b) for b in blocks]
    for xs in splits:
        before = canonical_sets(reference)
        writes_before = A.writes
        pairs = p.split(xs)
        reference = split_sets(reference, xs)

        check_consistency(p)
        assert p.to_canonical() == canonical_sets(reference)
        assert len(pairs) == len(reference) - len(before)
        assert A.writes - writes_before <= 2 * len(set(xs))
        # refinement monotonicity: every new block sits inside one old block
        assert refines(p.to_canonical(), [set(b) for b in before])
        # the pre-split range [left[fresh], right[old]) covers exactly both parts
        for old, fresh in pairs:
            parts = sorted(p.block_members(fresh) + p.block_members(old))
            assert sorted(p.A[p.left[fresh] : p.right[old]]) == parts
