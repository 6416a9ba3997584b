"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import random
import time
import tracemalloc

from dlts_bisim import (
    Dfa,
    GenConfig,
    RawLts,
    RefinablePartition,
    ScanStats,
    canonical_view,
    dbisim,
    gen_random_dfa,
    gen_random_dlts,
    init_refine,
    instance_stream,
    is_bisimulation,
    minimize_dfa,
    naive_fixpoint,
    normalize,
)
from dlts_bisim.gen import _gen_raw

from _canon import (
    assert_coarsest,
    dfa_canonical_form,
    dfa_language_equivalent,
    letter_signature_blocks,
    refines,
    table_filling_minimal_size,
)

LADDER = (2**10, 2**12, 2**14)


def _ladder_instance(n, seed=42):
    """Complete two-letter instance with a random half/half initial split."""
    T, _trivial = gen_random_dlts(GenConfig(n=n, k=2, density=1.0, seed=seed + n, max_blocks=1))
    rng = random.Random(seed + n + 1)
    half = {q for q in range(n) if rng.random() < 0.5}
    blocks = [b for b in (half, set(range(n)) - half) if b]
    return T, blocks


def test_criterion_1_oracle_equivalence_on_1000_instances():
    started = time.perf_counter()
    count = 0
    for cfg, T, p_view in instance_stream(1000, 50, 4, None, seed=20240601):
        result = dbisim(T, RefinablePartition.from_initial(T.n, p_view))
        assert result.to_canonical() == canonical_view(naive_fixpoint(T, p_view)), cfg
        count += 1
    elapsed = time.perf_counter() - started
    assert count == 1000
    assert elapsed < 60.0
    print(f"ACCEPTANCE 1 PASS: {count}/1000 instances matched the set-based"
          f" reference exactly ({elapsed:.1f}s)")


def test_criterion_2_bisimulation_and_coarseness_certificate():
    count = 0
    for cfg, T, p_view in instance_stream(200, 20, 4, None, seed=20240602):
        result = dbisim(T, RefinablePartition.from_initial(T.n, p_view))
        blocks = [set(b) for b in result.to_canonical()]
        assert is_bisimulation(blocks, T), cfg
        assert_coarsest(T, blocks, p_view)
        count += 1
    print(f"ACCEPTANCE 2 PASS: {count}/200 results are bisimulations and"
          " every pairwise block merge fails re-closure")


def test_criterion_3_scan_counter_bound_and_scaling():
    worst_ratio_small = 0.0
    for cfg, T, p_view in instance_stream(1000, 50, 4, None, seed=20240601):
        stats = ScanStats.detailed(T.m)
        dbisim(T, RefinablePartition.from_initial(T.n, p_view), stats)
        bound = max(T.n.bit_length(), 1)  # floor(log2 n) + 1
        assert max(stats.per_transition_counts, default=0) <= bound, cfg
        assert stats.transitions_scanned <= T.m * bound, cfg
        if T.m and T.n > 1:
            worst_ratio_small = max(
                worst_ratio_small, stats.transitions_scanned / (T.m * bound)
            )

    ratios = []
    for n in LADDER:
        T, blocks = _ladder_instance(n)
        stats = ScanStats.detailed(T.m)
        dbisim(T, RefinablePartition.from_initial(T.n, blocks), stats)
        bound = max(T.n.bit_length(), 1)
        assert max(stats.per_transition_counts) <= bound
        ratios.append(stats.transitions_scanned / (T.m * math.log2(T.n)))
    assert all(r <= 1.0 for r in ratios)
    print("ACCEPTANCE 3 PASS: per-transition scans <= floor(log2 n)+1 on all"
          f" 1000 instances; ladder scanned/(m*log2 n) = "
          + ", ".join(f"{r:.3f}" for r in ratios))


def test_criterion_4_debug_invariants_never_fire(monkeypatch):
    monkeypatch.setenv("DLTS_BISIM_DEBUG", "1")
    count = 0
    for cfg, T, p_view in instance_stream(500, 12, 3, None, seed=20240604):
        dbisim(T, RefinablePartition.from_initial(T.n, p_view))  # asserts internally
        count += 1
    print(f"ACCEPTANCE 4 PASS: debug invariant assertions held on {count}/500"
          " small instances")


HAND_BUILT_6 = Dfa(
    dlts=normalize(RawLts(
        states=["s0", "s1", "s2", "s3", "s4", "s5"],
        letters=["a", "b"],
        transitions=[
            ("s0", "a", "s1"), ("s0", "b", "s2"),
            ("s1", "a", "s3"), ("s1", "b", "s4"),
            ("s2", "a", "s3"), ("s2", "b", "s4"),  # s1 and s2 are twins
            ("s3", "a", "s5"), ("s3", "b", "s0"),
            ("s4", "a", "s0"), ("s4", "b", "s5"),
            ("s5", "a", "s5"), ("s5", "b", "s5"),
        ],
    )),
    initial=0,
    finals={5},
)


def _random_dfa(cfg, final_density):
    """`gen_random_dfa(cfg)` with each state final with probability `final_density`:
    the same draws, compared with another threshold."""
    dfa = gen_random_dfa(cfg)
    rng = random.Random(cfg.seed)
    _gen_raw(cfg, rng)
    initial = rng.randrange(cfg.n)
    assert initial == dfa.initial, cfg
    return Dfa(dlts=dfa.dlts, initial=initial,
               finals={q for q in range(cfg.n) if rng.random() < final_density})


def test_criterion_5_dfa_minimization():
    # the hand-built expectation comes from the pairwise-marking oracle
    assert table_filling_minimal_size(HAND_BUILT_6) == 5
    minimal, report = minimize_dfa(HAND_BUILT_6)
    assert minimal.n == 5
    assert dfa_language_equivalent(minimal, HAND_BUILT_6)

    rng = random.Random(20240605)
    count = 0
    for _ in range(300):
        cfg = GenConfig(n=rng.randint(1, 40), k=rng.randint(1, 3),
                        density=rng.choice([0.3, 0.6, 0.9]),
                        seed=rng.randrange(2**63))
        dfa = _random_dfa(cfg, rng.choice([0.2, 0.5]))
        minimal, report = minimize_dfa(dfa)
        assert dfa_language_equivalent(dfa, minimal), cfg
        assert minimal.n == report.final_blocks, cfg
        again, _second = minimize_dfa(minimal)
        assert dfa_canonical_form(again) == dfa_canonical_form(minimal), cfg
        count += 1
    print(f"ACCEPTANCE 5 PASS: {count}/300 minimizations are language-equivalent"
          " isomorphic fixed points; hand-built 6-state case -> 5 states")


def test_criterion_6_pre_refinement_containment_and_signatures():
    count = 0
    for cfg, T, p_view in instance_stream(300, 30, 4, None, seed=20240606):
        p_init = RefinablePartition.from_initial(T.n, p_view)
        pre = init_refine(T, p_init).to_canonical()
        final = dbisim(T, p_init).to_canonical()
        assert refines(pre, p_view), cfg
        assert refines(final, [set(b) for b in pre]), cfg
        want = canonical_view(letter_signature_blocks(T, p_view))
        assert pre == want, cfg  # grouped states share exact letter signatures
        count += 1
    print(f"ACCEPTANCE 6 PASS: pre-refinement sits between the initial partition"
          f" and the result on {count}/300 instances, grouping exact signatures")


def test_criterion_7_auxiliary_space_scales_linearly():
    peaks = []
    for n in LADDER:
        T, blocks = _ladder_instance(n, seed=7)
        p_init = RefinablePartition.from_initial(T.n, blocks)
        tracemalloc.start()
        dbisim(T, p_init)
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        peaks.append(peak)
    # each rung multiplies n+m+k by 4; linear auxiliary memory stays near 4x
    for smaller, larger in zip(peaks, peaks[1:]):
        assert larger <= 5.5 * smaller, peaks
    per_state = [p / n for p, n in zip(peaks, LADDER)]
    print("ACCEPTANCE 7 PASS: auxiliary peak bytes across the ladder = "
          + ", ".join(str(p) for p in peaks)
          + f" (per state: {', '.join(f'{b:.0f}' for b in per_state)})")
