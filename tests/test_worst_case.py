"""The scan bound's tightness on worst-case families (see `dlts_bisim.gen`)."""

import math

import pytest

from dlts_bisim import RefinablePartition, ScanStats, dbisim
from dlts_bisim.gen import cyclic_automaton, de_bruijn_word, fibonacci_word


def _refine(word):
    """Refine the cycle over `word`; check the bound and the discrete result."""
    T, blocks = cyclic_automaton(word)
    stats = ScanStats.detailed(T.m)
    p = dbisim(T, RefinablePartition.from_initial(T.n, blocks), stats)
    assert max(stats.per_transition_counts) <= T.n.bit_length()  # floor(log2 n) + 1
    assert p.block_count == T.n  # the word is primitive, so no two states merge
    return T.n, stats


def test_family_words():
    assert [fibonacci_word(n) for n in (1, 2, 3, 5, 8)] == ["a", "ab", "aba", "abaab", "abaababa"]
    with pytest.raises(ValueError):
        fibonacci_word(4)
    assert [de_bruijn_word(k) for k in (1, 2, 3)] == ["ab", "aabb", "aaababbb"]
    word = de_bruijn_word(10)
    cyclic = word + word[:9]
    assert len({cyclic[i : i + 10] for i in range(len(word))}) == len(word) == 2**10


@pytest.mark.parametrize("n", [1597, 10946])
def test_fibonacci_words_keep_scans_near_n_log_n(n):
    n, stats = _refine(fibonacci_word(n))
    # measured 0.404 and 0.403: the counter sees the n log n lower bound
    assert stats.transitions_scanned / (n * math.log2(n)) >= 0.38


@pytest.mark.parametrize("order", [10, 12, 14])
def test_de_bruijn_words_reach_floor_log2_n_scans(order):
    n, stats = _refine(de_bruijn_word(order))
    assert max(stats.per_transition_counts) == math.floor(math.log2(n)) == order
