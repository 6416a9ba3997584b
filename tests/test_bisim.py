"""The refinement engine against the set-based reference."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from dlts_bisim import (
    GenConfig,
    RawLts,
    RefinablePartition,
    ScanStats,
    canonical_view,
    dbisim,
    gen_random_dlts,
    init_refine,
    is_bisimulation,
    naive_fixpoint,
    normalize,
)

from _canon import check_consistency, larger_side_dbisim, letter_signature_blocks, refines


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
    # Exact counts, not only the bound: each scan of a state counts once
    # for every transition into it, never for the transitions out of it.
    T = _chain(16)
    halves = [set(range(8)), set(range(8, 16))]
    T_random, p_random = gen_random_dlts(GenConfig(n=24, k=3, density=0.6, seed=3))
    cases = [
        (T, [set(range(16))], [1] * 15),
        (T, halves, [2, 2, 2, 2, 2, 2, 2, 0, 1, 1, 1, 1, 1, 1, 1]),
        (T_random, p_random,
         [3, 3, 1, 1, 2, 2, 2, 1, 2, 2, 2, 2, 0, 1, 1, 1, 1, 1, 1, 0, 1,
          1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1]),
    ]
    for debug in ("0", "1"):
        monkeypatch.setenv("DLTS_BISIM_DEBUG", debug)
        for T_case, p_view, want in cases:
            stats = ScanStats.detailed(T_case.m) if debug == "0" else ScanStats()
            dbisim(T_case, RefinablePartition.from_initial(T_case.n, p_view), stats)
            assert stats.per_transition_counts == want
            assert stats.transitions_scanned == sum(want)


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


def test_debug_assertions_hold_on_small_instances(monkeypatch):
    monkeypatch.setenv("DLTS_BISIM_DEBUG", "1")
    rng = random.Random(31)
    for _ in range(100):
        cfg = GenConfig(n=rng.randint(1, 12), k=rng.randint(1, 3),
                        density=rng.choice([0.2, 0.5, 0.9]),
                        seed=rng.randrange(2**63), max_blocks=rng.randint(1, 3))
        T, p_view = gen_random_dlts(cfg)
        dbisim(T, RefinablePartition.from_initial(T.n, p_view))


def test_debug_mode_follows_environment(monkeypatch):
    T = _dlts(4, [(0, "a", 1), (1, "a", 2), (2, "a", 0), (3, "b", 3)])
    monkeypatch.setenv("DLTS_BISIM_DEBUG", "1")
    stats = ScanStats()
    dbisim(T, _full(4), stats)
    assert stats.per_transition_counts is not None  # allocated by debug mode


def test_debug_mode_reports_skipped_checks(monkeypatch, capsys):
    monkeypatch.setenv("DLTS_BISIM_DEBUG", "1")
    dbisim(_chain(8), _full(8))
    assert capsys.readouterr().err == ""  # small enough: checked, nothing to say
    dbisim(_chain(513), _full(513))
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "skipped" in err and "513" in err


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
