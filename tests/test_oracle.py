"""The set-based reference machinery itself."""

import random

import pytest

from dlts_bisim import (
    Dfa,
    GenConfig,
    RawLts,
    canonical_view,
    dfa_language_equivalent,
    gen_random_dfa,
    gen_random_dlts,
    is_bisimulation,
    naive_fixpoint,
    normalize,
)

from _canon import assert_coarsest, letter_signature_blocks, refines


def _cycle2():
    return normalize(RawLts(["q0", "q1"], ["a"], [("q0", "a", "q1"), ("q1", "a", "q0")]))


def test_is_bisimulation_singletons():
    T = _cycle2()
    assert is_bisimulation([{0}, {1}], T)


def test_is_bisimulation_cycle_single_block():
    assert is_bisimulation([{0, 1}], _cycle2())


def test_is_bisimulation_rejects_missing_move():
    T = normalize(RawLts(["q0", "q1", "q2"], ["a"], [("q0", "a", "q2"), ("q2", "a", "q2")]))
    assert not is_bisimulation([{0, 1}, {2}], T)


def test_naive_fixpoint_singletons_unchanged():
    T = _cycle2()
    assert canonical_view(naive_fixpoint(T, [{0}, {1}])) == [[0], [1]]


def test_naive_fixpoint_cycle_stays_one_block():
    assert canonical_view(naive_fixpoint(_cycle2(), [{0, 1}])) == [[0, 1]]


def test_naive_fixpoint_output_is_bisimulation_and_coarsest():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 12)
        cfg = GenConfig(n=n, k=rng.randint(1, 3), density=rng.choice([0.3, 0.7]),
                        seed=rng.randrange(2**32))
        T, p_init = gen_random_dlts(cfg)
        result = naive_fixpoint(T, p_init)
        assert is_bisimulation(result, T)
        assert refines(result, p_init)
        assert_coarsest(T, result, p_init)


def test_naive_fixpoint_refines_letter_signatures():
    rng = random.Random(17)
    for _ in range(25):
        cfg = GenConfig(n=rng.randint(1, 15), k=rng.randint(1, 3), density=0.5,
                        seed=rng.randrange(2**32))
        T, p_init = gen_random_dlts(cfg)
        result = naive_fixpoint(T, p_init)
        assert refines(result, letter_signature_blocks(T, p_init))


def test_gen_density_extremes():
    T0, _ = gen_random_dlts(GenConfig(n=6, k=3, density=0.0, seed=1))
    assert T0.m == 0 and T0.k == 0
    T1, _ = gen_random_dlts(GenConfig(n=6, k=3, density=1.0, seed=1))
    assert T1.m == 6 * 3


def test_gen_same_seed_same_instance():
    a = gen_random_dlts(GenConfig(n=20, k=3, density=0.4, seed=321))
    b = gen_random_dlts(GenConfig(n=20, k=3, density=0.4, seed=321))
    assert a[0] == b[0]
    assert a[1] == b[1]


def test_gen_partition_is_valid_and_bounded():
    for seed in range(20):
        cfg = GenConfig(n=9, k=2, density=0.5, seed=seed, max_blocks=3)
        _t, blocks = gen_random_dlts(cfg)
        assert 1 <= len(blocks) <= 3
        assert sorted(q for b in blocks for q in b) == list(range(9))


def test_gen_config_validation():
    with pytest.raises(ValueError):
        GenConfig(n=0, k=1, density=0.5, seed=0)
    with pytest.raises(ValueError):
        GenConfig(n=1, k=0, density=0.5, seed=0)
    with pytest.raises(ValueError):
        GenConfig(n=1, k=1, density=1.5, seed=0)


def _dfa(text_states, initial, finals, transitions, letters):
    T = normalize(RawLts(text_states, letters, transitions))
    return Dfa(dlts=T, initial=initial, finals=set(finals))


def test_language_equivalence_reflexive():
    d = gen_random_dfa(GenConfig(n=10, k=2, density=0.7, seed=9))
    assert dfa_language_equivalent(d, d)


def test_language_equivalence_empty_vs_epsilon():
    d_empty = _dfa(["x"], 0, [], [], [])
    d_eps = _dfa(["x"], 0, [0], [], [])
    assert not dfa_language_equivalent(d_empty, d_eps)
    assert dfa_language_equivalent(d_empty, d_empty)


def test_language_equivalence_handles_missing_letters():
    # One automaton never uses 'b'; the other moves on 'b' into a dead state.
    d1 = _dfa(["s", "f"], 0, [1], [("s", "a", "f")], ["a"])
    d2 = _dfa(["s", "f", "d"], 0, [1], [("s", "a", "f"), ("s", "b", "d")], ["a", "b"])
    assert dfa_language_equivalent(d1, d2)
    d3 = _dfa(["s", "f"], 0, [1], [("s", "a", "f"), ("f", "b", "f")], ["a", "b"])
    assert not dfa_language_equivalent(d1, d3)


def test_language_equivalence_none_initial():
    empty = Dfa(dlts=normalize(RawLts([], [], [])), initial=None, finals=set())
    dead = _dfa(["x"], 0, [], [("x", "a", "x")], ["a"])
    eps = _dfa(["x"], 0, [0], [], [])
    assert dfa_language_equivalent(empty, dead)
    assert not dfa_language_equivalent(empty, eps)


def test_language_equivalence_symmetric_spot_checks():
    rng = random.Random(23)
    for _ in range(15):
        d1 = gen_random_dfa(GenConfig(n=rng.randint(1, 8), k=2, density=0.6,
                                      seed=rng.randrange(2**32)))
        d2 = gen_random_dfa(GenConfig(n=rng.randint(1, 8), k=2, density=0.6,
                                      seed=rng.randrange(2**32)))
        assert dfa_language_equivalent(d1, d2) == dfa_language_equivalent(d2, d1)
