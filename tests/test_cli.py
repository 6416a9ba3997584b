"""Command-line behaviour: formats, exit codes, reports, minimization."""

import ast
import csv
import gc
import hashlib
import importlib.util
import io
import json
import os
import platform
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dlts_bisim
from dlts_bisim import (
    GenConfig,
    LtsError,
    RawLts,
    RefinablePartition,
    ScanStats,
    dbisim,
    gen_random_dfa,
    gen_random_dlts,
    minimize_dfa,
    naive_fixpoint,
    normalize,
    parse_dfa,
    parse_lts,
)
from dlts_bisim.cli import _read, bench_rows, main
from dlts_bisim.gen import cyclic_automaton, de_bruijn_word, fibonacci_word
from dlts_bisim.oracle import stable_by_signatures

from _canon import (
    dfa_canonical_form,
    dfa_language_equivalent,
    mutant_bisim,
    table_filling_minimal_size,
)

CYCLE = "dlts 2\nstates: q0 q1\nq0 a q1\nq1 a q0\n"

EVEN_ODD = "dfa 2\nstates: e o\ninitial: e\nfinals: e\ne a o\no a e\n"

MERGEABLE = """dfa 4
states: s0 s1 s2 sf
initial: s0
finals: sf
s0 a s1
s0 b s2
s1 a sf
s2 a sf
sf a sf
"""

UNREACHABLE = """dfa 3
states: s0 sf ghost
initial: s0
finals: sf
s0 a sf
sf a sf
ghost a sf
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bisim_two_state_cycle(tmp_path, capsys):
    path = tmp_path / "cycle.dlts"
    path.write_text(CYCLE)
    code, out, _err = run(capsys, "bisim", str(path))
    assert code == 0
    assert out == "q0 q1\n"


def test_bisim_reports_work_only_in_debug_mode(tmp_path, capsys, monkeypatch):
    path = tmp_path / "cycle.dlts"
    path.write_text(CYCLE)
    assert run(capsys, "bisim", str(path)) == (0, "q0 q1\n", "")
    monkeypatch.setenv("DLTS_BISIM_DEBUG", "1")
    code, out, err = run(capsys, "bisim", str(path))
    assert (code, out) == (0, "q0 q1\n")
    assert err == "blocks: 1  transitions scanned: 0  bound: 4\n"


def test_bisim_with_partition_file(tmp_path, capsys):
    path = tmp_path / "cycle.dlts"
    path.write_text(CYCLE)
    part = tmp_path / "init.part"
    part.write_text("q0\nq1\n")
    code, out, _err = run(capsys, "bisim", str(path), "--partition", str(part))
    assert code == 0
    assert out == "q0\nq1\n"


def test_bisim_with_a_partition_file_longer_than_one_piece(tmp_path, capsys):
    """Blocks {q_i, q_{i+h}} of a cycle of 2h states are stable; the partition file
    lists them last to first, one per line, over several pieces."""
    h = 12000
    path = tmp_path / "cycle.dlts"
    moves = "".join(f"{q} a {(q + 1) % (2 * h)}\n" for q in range(2 * h))
    path.write_text(f"dlts {2 * h}\n{moves}")
    part = tmp_path / "pairs.part"
    part.write_text("# pairs\n" + "".join(f"{i + h} {i}  # {i}\n" for i in reversed(range(h))))
    assert part.stat().st_size > 2 * dlts_bisim.lts._PIECE
    code, out, _err = run(capsys, "bisim", str(path), "--partition", str(part))
    assert code == 0
    assert out == "".join(f"{i} {i + h}\n" for i in range(h))


def test_bisim_empty_transition_section(tmp_path, capsys):
    path = tmp_path / "empty.dlts"
    path.write_text("dlts 3\nstates: a b c\n")
    code, out, _err = run(capsys, "bisim", str(path))
    assert code == 0
    assert out == "a b c\n"


def test_parse_failure_exits_1(tmp_path, capsys):
    path = tmp_path / "broken.dlts"
    path.write_text("dlts 2\nstates: a b\na weird\n")
    code, _out, err = run(capsys, "bisim", str(path))
    assert code == 1
    assert "error:" in err


def test_missing_file_exits_1(capsys):
    code, _out, err = run(capsys, "bisim", "/nonexistent/file.dlts")
    assert code == 1
    assert "cannot read" in err


def test_undecodable_file_exits_1_naming_the_file(tmp_path, capsys):
    path = tmp_path / "latin.dlts"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "bisim", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode"), err
    with pytest.raises(LtsError, match="cannot read"):
        _read(str(path))


def test_nondeterministic_input_exits_2(tmp_path, capsys):
    path = tmp_path / "nondet.dlts"
    path.write_text("dlts 3\nstates: a b c\na x b\na x c\n")
    code, _out, err = run(capsys, "bisim", str(path))
    assert code == 2
    assert "nondeterministic" in err


def test_invalid_partition_exits_1(tmp_path, capsys):
    path = tmp_path / "cycle.dlts"
    path.write_text(CYCLE)
    part = tmp_path / "bad.part"
    part.write_text("q0\n")
    code, _out, err = run(capsys, "bisim", str(path), "--partition", str(part))
    assert code == 1
    assert "not covered" in err


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as info:
        main(["bisim"])  # missing file argument
    assert info.value.code == 1


def test_minimize_already_minimal(tmp_path, capsys):
    path = tmp_path / "evenodd.dfa"
    path.write_text(EVEN_ODD)
    code, out, err = run(capsys, "minimize-dfa", str(path))
    assert code == 0
    minimal = parse_dfa(out)
    assert minimal.n == 2
    assert dfa_canonical_form(minimal) == dfa_canonical_form(parse_dfa(EVEN_ODD))
    assert "final blocks: 2" in err


def test_minimize_merges_equivalent_states(tmp_path, capsys):
    # table-filling fixes the expected size: s1 and s2 collapse, 4 -> 3
    assert table_filling_minimal_size(parse_dfa(MERGEABLE)) == 3
    path = tmp_path / "mergeable.dfa"
    path.write_text(MERGEABLE)
    code, out, _err = run(capsys, "minimize-dfa", str(path))
    assert code == 0
    minimal = parse_dfa(out)
    assert minimal.n == 3
    assert dfa_language_equivalent(minimal, parse_dfa(MERGEABLE))


def test_minimize_drops_unreachable_state(tmp_path, capsys):
    path = tmp_path / "unreach.dfa"
    path.write_text(UNREACHABLE)
    code, out, err = run(capsys, "minimize-dfa", str(path))
    assert code == 0
    assert "ghost" not in out
    assert "useless states removed: 1" in err


def test_minimize_counts_scans_per_input_transition():
    # ghost's transition comes first in storage order, into sf, and is
    # removed; {s0 s1} must split, and the loop scans sf's two other
    # in-transitions once each, then {s1}'s one.
    dfa = parse_dfa("dfa 4\nstates: sf s0 s1 ghost\ninitial: s0\nfinals: sf\n"
                    "ghost a sf\ns0 a s1\ns1 a sf\nsf a sf\n")
    stats = ScanStats.detailed(dfa.dlts.m)
    _minimal, report = minimize_dfa(dfa, stats)
    assert (report.useless_removed, report.final_blocks, report.split_calls) == (1, 3, 1)
    assert stats.per_transition_counts == [0, 1, 1, 1]
    assert stats.transitions_scanned == 3
    with pytest.raises(ValueError, match="2 per-transition counters for a DFA with 4 transitions"):
        minimize_dfa(dfa, ScanStats.detailed(2))


def test_minimize_under_debug_keeps_plain_stats_plain(monkeypatch):
    # Two useless states leave a trimmed automaton of 3 transitions out of
    # 6: counters for it must not land on the caller's ScanStats, or the
    # second call rejects them as the wrong length for the input.
    dfa = parse_dfa("dfa 5\ninitial: 0\nfinals: 2\n"
                    "0 a 1\n1 a 2\n2 a 2\n3 a 0\n1 b 4\n4 a 4\n")
    monkeypatch.setenv("DLTS_BISIM_DEBUG", "1")
    stats = ScanStats()
    minimize_dfa(dfa, stats)
    scanned = stats.transitions_scanned
    minimize_dfa(dfa, stats)
    assert stats.per_transition_counts is None
    assert stats.transitions_scanned == 2 * scanned > 0


def test_debug_switch_changes_no_result(monkeypatch):
    dfa = gen_random_dfa(GenConfig(n=60, k=3, density=0.6, seed=5))
    seen = []
    for debug in ("0", "1"):
        monkeypatch.setenv("DLTS_BISIM_DEBUG", debug)
        rows = [{c: v for c, v in row.items() if c != "seconds"}
                for row in bench_rows([16, 64], seed=0)]
        stats = ScanStats.detailed(dfa.dlts.m)
        minimal, _report = minimize_dfa(dfa, stats)
        seen.append((rows, stats, minimal))
    assert seen[0] == seen[1]


@pytest.mark.parametrize("n, k, density, seed, out_sha256, m, useless, blocks, scanned, splits", [
    (30, 2, 0.5, 8, "baa3c8e0a3651af6fb727ee893b51cd2b1e57d3b22ec3ea6096aa0110f8ef9c0",
     35, 23, 6, 6, 2),
    (60, 3, 0.4, 3, "cc383f0d81cf57df85bc1350a35aa49d0b771cad683a618cfaffb2eb48fff5df",
     77, 29, 28, 44, 15),
    (200, 4, 0.3, 0, "0440f570a2a6475bbd1aa4899d935599cce74b118af31dfab5c47b81d225164c",
     252, 123, 69, 116, 44),
])
def test_minimize_output_is_pinned(tmp_path, capsys, n, k, density, seed, out_sha256, m, useless,
                                   blocks, scanned, splits):
    # Byte for byte: the automaton text, transition order included, and every
    # report line with the wall-time value masked.
    assert useless > 0 and blocks < n - useless  # both trimming and merging happen
    code, text, _ = run(capsys, "gen", "--dfa", "--n", str(n), "--k", str(k),
                        "--density", str(density), "--seed", str(seed))
    path = tmp_path / "gen.dfa"
    path.write_text(text)
    code, out, err = run(capsys, "minimize-dfa", str(path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == out_sha256
    assert re.sub(r"wall time: .*", "wall time: <masked>", err) == (
        f"input: n={n} k={k} m={m}\n"
        f"useless states removed: {useless}\n"
        f"final blocks: {blocks}\n"
        f"transitions scanned: {scanned} (split calls: {splits})\n"
        "wall time: <masked>\n")


def _minimize_contract_holds(dfa):
    """`minimize_dfa(dfa)` against its contract, every expectation derived from the spec.

    The useful states are found by set search, and their classes by `naive_fixpoint` on
    a trim built here.  Result state i names the class with the i-th lowest least member
    after that member; its transitions are those of that member that stay among useful
    states, in (destination, source, letter) order; `initial` and `finals` map through
    the classes; scans land only on kept transitions and add up to the report.
    """
    T = dfa.dlts
    moves = [(s, T.letter_names[a], d) for s, a, d in T.triples()]
    useful = set()
    if dfa.initial is not None:
        reachable, coreachable = {dfa.initial}, set(dfa.finals)
        while more := {d for s, _a, d in moves if s in reachable} - reachable:
            reachable |= more
        while more := {s for s, _a, d in moves if d in coreachable} - coreachable:
            coreachable |= more
        useful = reachable & coreachable
    kept = sorted(useful)
    trim = normalize(RawLts([str(q) for q in kept], T.letter_names,
                            [(str(s), a, str(d)) for s, a, d in moves if {s, d} <= useful]))
    blocks = [b for b in ({kept.index(q) for q in dfa.finals if q in useful},
                          {kept.index(q) for q in useful - set(dfa.finals)}) if b]
    classes = sorted(sorted(kept[i] for i in c) for c in naive_fixpoint(trim, blocks))
    class_of = {q: i for i, members in enumerate(classes) for q in members}

    stats = ScanStats.detailed(T.m)
    minimal, report = minimize_dfa(dfa, stats)
    R = minimal.dlts
    assert R.state_names == [T.state_names[members[0]] for members in classes]
    assert minimal.initial == (class_of[dfa.initial] if useful else None)
    assert minimal.finals == {class_of[q] for q in dfa.finals if q in useful}
    order = [(d, s, a) for s, a, d in R.triples()]
    assert order == sorted(order)
    assert [name for name in T.letter_names if name in R.letter_names] == R.letter_names
    want = {(i, a, class_of[d]) for i, members in enumerate(classes)
            for s, a, d in moves if s == members[0] and d in useful}
    assert {(s, R.letter_names[a], d) for s, a, d in R.triples()} == want
    assert len(R.triples()) == len(want)
    assert R.in_offsets == [sum(d < i for _s, _a, d in want) for i in range(len(classes) + 1)]
    removed = [i for i, (s, _a, d) in enumerate(moves) if not {s, d} <= useful]
    assert [stats.per_transition_counts[i] for i in removed] == [0] * len(removed)
    assert sum(stats.per_transition_counts) == stats.transitions_scanned
    assert (report.useless_removed, report.final_blocks) == (T.n - len(useful), len(classes))
    assert report.transitions_scanned == stats.transitions_scanned


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.builds(GenConfig, n=st.integers(1, 12), k=st.integers(1, 3),
                 density=st.sampled_from([0.2, 0.5, 0.8, 1.0]), seed=st.integers(0, 10**6)))
def test_minimize_names_orders_and_maps_as_specified(cfg):
    _minimize_contract_holds(gen_random_dfa(cfg))


@pytest.mark.parametrize("text", [
    "dfa 0\n",
    "dfa 2\ninitial: 0\n0 a 1\n1 a 0\n",  # no final state: empty language
    "dfa 3\ninitial: 0\nfinals: 2\n0 a 0\n1 a 2\n",  # the initial state is useless
    "dfa 1\ninitial: 0\nfinals: 0\n",  # one state, no transition
    "dfa 1\ninitial: 0\nfinals: 0\n0 a 0\n",
    "dfa 3\ninitial: 2\nfinals: 0 1 2\n2 a 1\n1 a 0\n0 b 2\n1 b 1\n",  # all states final
    "dfa 4\nletters: x y z\ninitial: 3\nfinals: 1\n3 y 1\n3 z 0\n1 y 1\n2 y 1\n",  # unused x, z
    "dfa 5\ninitial: 4\nfinals: 0 1\n4 a 3\n3 a 1\n4 b 2\n2 a 0\n1 a 1\n0 a 0\n",  # merges
])
def test_minimize_contract_on_corner_cases(text):
    _minimize_contract_holds(parse_dfa(text))


def _traced(f, *args):
    """`f(*args)`, what its result keeps allocated, and the peak of the call."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = f(*args)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept - before, peak - before


def test_minimize_peak_memory_stays_near_its_input():
    """At its peak `minimize_dfa` holds the trimmed system, the partition, one block number
    per state and the quotient's columns, so it peaks below 1.5 times the memory of its
    input (1.1 times here).  One that also keeps its trimming temporaries through the
    refinement and a list per block peaks near twice the input here."""
    dfa, size, _peak = _traced(gen_random_dfa, GenConfig(n=1000, k=4, density=0.6, seed=1))
    (_minimal, report), _kept, peak = _traced(minimize_dfa, dfa)
    assert (report.useless_removed, report.final_blocks) == (117, 871)  # both steps do work
    assert peak <= 1.5 * size, (peak, size)


def test_a_built_view_replaces_the_input_order_columns():
    """A system from `normalize`, which the `bisim <file>` path refines, keeps its
    input-order columns, 3m ints, until its loop builds the destination-grouped view,
    and then the view alone: 2m + n + 1 ints.  So the build shrinks it, by about
    4 bytes per transition on this complete system with k = 8.  One that also kept
    its input-order destination column would grow by about 4, and one that kept all
    three input-order columns by about 21."""
    def built_view_growth():
        T, _blocks = gen_random_dlts(GenConfig(n=4096, k=8, density=1.0, seed=1))
        size = tracemalloc.get_traced_memory()[0]
        assert T.in_offsets
        return T, tracemalloc.get_traced_memory()[0] - size

    (T, growth), _kept, _peak = _traced(built_view_growth)
    assert T.m == T.n * T.k == 4096 * 8
    assert growth < 0, (growth, T.m)


def test_minimize_empty_language(tmp_path, capsys):
    path = tmp_path / "empty.dfa"
    path.write_text("dfa 2\nstates: s t\ninitial: s\ns a t\nt a s\n")  # no finals
    code, out, _err = run(capsys, "minimize-dfa", str(path))
    assert code == 0
    assert out == "dfa 0\n"
    # and the canonical empty automaton parses back and stays fixed
    path2 = tmp_path / "empty2.dfa"
    path2.write_text(out)
    code, out2, _err = run(capsys, "minimize-dfa", str(path2))
    assert code == 0
    assert out2 == "dfa 0\n"


def test_minimize_is_idempotent(tmp_path, capsys):
    d = gen_random_dfa(GenConfig(n=18, k=2, density=0.7, seed=77))
    once, report = minimize_dfa(d)
    assert report.final_blocks == once.n
    twice, _report = minimize_dfa(once)
    assert dfa_canonical_form(once) == dfa_canonical_form(twice)
    # minimal means: splitting by finals/non-finals refines to singletons
    T = once.dlts
    if once.n:
        blocks = [b for b in (set(once.finals), set(range(once.n)) - set(once.finals)) if b]
        assert len(naive_fixpoint(T, blocks)) == once.n


def test_gen_output_parses_and_is_deterministic(capsys):
    code, out1, _ = run(capsys, "gen", "--n", "9", "--k", "2", "--density", "0.6", "--seed", "4")
    assert code == 0
    code, out2, _ = run(capsys, "gen", "--n", "9", "--k", "2", "--density", "0.6", "--seed", "4")
    assert out1 == out2
    assert parse_lts(out1).state_names[0] == "q0"

    code, dfa_out, _ = run(capsys, "gen", "--n", "9", "--dfa", "--seed", "4")
    assert code == 0
    parse_dfa(dfa_out)

    # letters after `z` are named by index: the 27th is `l26`
    code, out, _ = run(capsys, "gen", "--n", "3", "--k", "27", "--density", "1", "--seed", "4")
    assert code == 0
    assert parse_lts(out).letter_names[26] == "l26"


def test_check_count_zero_trivially_passes(capsys):
    code, _out, err = run(capsys, "check", "--count", "0")
    assert code == 0
    assert "checked 0 instances: ok" in err


def test_check_small_run_passes(capsys):
    code, _out, err = run(capsys, "check", "--count", "40", "--seed", "11")
    assert code == 0
    assert "checked 40 instances: ok" in err


@pytest.mark.parametrize("flag, message", [("--n", "n must be >= 1"), ("--k", "k must be >= 1")])
def test_check_rejects_empty_size_range(capsys, flag, message):
    assert run(capsys, "check", "--count", "5", flag, "0") == (1, "", f"error: {message}\n")


def test_check_rejects_a_bad_density_before_drawing(capsys):
    assert run(capsys, "check", "--count", "0", "--density", "2") == (
        1, "", "error: density must be in [0, 1]\n")


def test_check_rejects_a_negative_count(capsys):
    assert run(capsys, "check", "--count", "-1") == (1, "", "error: count must be >= 0\n")


def _discrete(T, _blocks):
    return [{q} for q in range(T.n)]


_from_initial = RefinablePartition.from_initial  # as they are before any patch
_init_refine = dlts_bisim.bisim.init_refine
_SMALL = ("--count", "20", "--n", "6", "--seed", "0")
_STABILITY = "two states of a block of the result differ in their (letter, successor block) pairs"


def _from_one_block(T, _p_init):
    return _init_refine(T, _from_initial(T.n, [range(T.n)]))


@pytest.mark.parametrize("debug", ["0", "1"])
@pytest.mark.parametrize("fakes, argv, message", [
    pytest.param({"oracle.stable_by_signatures": lambda _T, _block_of: False}, _SMALL,
                 _STABILITY, id="stability"),
    # the engine's pre-refinement and the fixpoint both start from one block,
    # so they agree, and the run's certificate sees the fault
    pytest.param({"bisim.init_refine": _from_one_block,
                  "oracle.naive_fixpoint": lambda T, _p: naive_fixpoint(T, [set(range(T.n))])},
                 _SMALL, "a block of the result meets two blocks of the initial partition",
                 id="refinement"),
    pytest.param({"oracle.naive_fixpoint": _discrete}, _SMALL,
                 "the result is not the coarsest bisimulation refining the initial partition",
                 id="fixpoint"),
    pytest.param({"cli._refine": mutant_bisim("larger-side")._refine},
                 ("--count", "10", "--n", "50", "--k", "4", "--density", "0.9", "--seed", "0"),
                 "a state was scanned more than", id="bound"),
])
def test_check_reports_each_mismatch(capsys, monkeypatch, fakes, argv, message, debug):
    # `check` certifies its own run, so the switch changes nothing.
    for name, fake in fakes.items():
        monkeypatch.setattr(f"dlts_bisim.{name}", fake)
    monkeypatch.setenv("DLTS_BISIM_DEBUG", debug)
    code, out, err = run(capsys, "check", *argv)
    assert (code, out) == (3, "")
    assert re.fullmatch(rf"mismatch on instance seed=\d+ n=\d+ .*: {re.escape(message)}.*\n", err)


def test_check_reports_a_debug_fault_as_a_mismatch(capsys, monkeypatch):
    # An engine that takes every pre-refinement for stable fails the run's
    # certificate, which `check` reports with the seed like any mismatch,
    # whatever the debug switch says.
    monkeypatch.setattr("dlts_bisim.bisim._is_stable", lambda _T, _block_of: True)
    for debug in ("0", "1"):
        monkeypatch.setenv("DLTS_BISIM_DEBUG", debug)
        code, out, err = run(capsys, "check", "--count", "50", "--n", "20", "--seed", "3")
        assert (code, out) == (3, "")
        assert re.fullmatch(rf"mismatch on instance seed=\d+ n=\d+ .*: {re.escape(_STABILITY)}\n", err)


@pytest.mark.parametrize("limit", [512, 10])
def test_check_runs_the_fixpoint_once_per_instance(capsys, monkeypatch, limit):
    # `check` certifies each instance in one run, with the fixpoint at every
    # n, whatever the debug switch and its limit say, and notes no skipped check.
    calls = []
    stability_calls = []

    def counted(T, p_init):
        calls.append(T.n)
        return naive_fixpoint(T, p_init)

    def counted_stability(T, block_of):
        stability_calls.append(T.n)
        return stable_by_signatures(T, block_of)

    monkeypatch.setattr("dlts_bisim.oracle.naive_fixpoint", counted)
    monkeypatch.setattr("dlts_bisim.oracle.stable_by_signatures", counted_stability)
    monkeypatch.setattr("dlts_bisim.bisim._DEBUG_ASSERT_MAX_N", limit)
    for debug in ("0", "1"):
        monkeypatch.setenv("DLTS_BISIM_DEBUG", debug)
        calls.clear()
        stability_calls.clear()
        code, _out, err = run(capsys, "check", "--count", "30", "--n", "20", "--seed", "7")
        assert (code, err) == (0, "checked 30 instances: ok\n"), debug
        assert (len(calls), len(stability_calls)) == (30, 30), debug
    assert limit == 512 or min(calls) <= limit < max(calls)  # instances on both sides


def test_bench_single_size_csv(capsys):
    code, out, _err = run(capsys, "bench", "--sizes", "64", "--seed", "3", "--csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    row = rows[0]
    assert int(row["n"]) == 64
    assert int(row["transitions_scanned"]) <= int(row["scan_bound"])


def test_bench_table_output(capsys):
    code, out, _err = run(capsys, "bench", "--sizes", "32,64", "--seed", "3")
    assert code == 0
    assert "transitions_scanned" in out
    assert len(out.strip().splitlines()) == 3


def test_bench_work_counts_are_pinned(capsys):
    """The engine's work on a fixed ladder: a change to the encoding or the
    loop that scans a transition more or less often shows up here."""
    columns = ("n", "m", "transitions_scanned", "scan_bound")

    def ladder(*options):
        code, out, _err = run(capsys, "bench", *options, "--seed", "0", "--csv")
        assert code == 0
        return [tuple(int(row[c]) for c in columns) for row in csv.DictReader(io.StringIO(out))]

    # Complete instances (the default k=2, density 1.0): the pre-refinement
    # is a plain copy.
    assert ladder("--sizes", "1024,4096,16384") == [
        (1024, 2048, 4072, 22528),
        (4096, 8192, 16467, 106496),
        (16384, 32768, 69441, 491520),
    ]
    # Partial instances: one pre-refinement bucket per letter.  The loop
    # buckets no source in a one-state block, so a letter whose first source
    # in an iteration is settled joins that iteration's touched-letter order
    # later; that order moves the scans.
    assert ladder("--sizes", "1024,4096", "--k", "3", "--density", "0.5") == [
        (1024, 1578, 2122, 17358),
        (4096, 6181, 9156, 80353),
    ]


def test_bench_json_writes_the_fixed_schema(capsys, monkeypatch, tmp_path):
    # The family words are shortened here; `bench --json` refines the long
    # ones named in `_FAMILY_WORDS`.
    monkeypatch.setattr(dlts_bisim.cli, "_FAMILY_WORDS",
                        [("fibonacci", fibonacci_word, 89), ("de-bruijn", de_bruijn_word, 6)])
    path = tmp_path / "BENCH_x.json"
    code, out, _err = run(capsys, "bench", "--sizes", "64", "--seed", "3", "--csv", "--json", str(path))
    assert code == 0
    report = json.loads(path.read_text(encoding="utf-8"))
    assert report["python"] == platform.python_version()
    keys = ["family", "n", "m", "k", "density", "seed", "transitions_scanned", "scan_bound",
            "seconds", "us_per_scan"]
    assert [list(row) for row in report["rows"]] == [keys] * 3
    shape = [(row["family"], row["n"], row["m"], row["k"], row["density"], row["seed"])
             for row in report["rows"]]
    assert shape == [("random", 64, 128, 2, 1.0, 3), ("fibonacci", 89, 89, 1, 1.0, None),
                     ("de-bruijn", 64, 64, 1, 1.0, None)]
    printed = next(csv.DictReader(io.StringIO(out)))
    assert int(printed["transitions_scanned"]) == report["rows"][0]["transitions_scanned"]
    for row, word in zip(report["rows"][1:], (fibonacci_word(89), de_bruijn_word(6))):
        T, blocks = cyclic_automaton(word)
        stats = ScanStats()
        dbisim(T, RefinablePartition.from_initial(T.n, blocks), stats)
        assert row["transitions_scanned"] == stats.transitions_scanned > 0
        assert row["scan_bound"] == T.m * T.n.bit_length()
        assert row["us_per_scan"] == round(row["seconds"] * 1e6 / row["transitions_scanned"], 4)
    code, out, err = run(capsys, "bench", "--sizes", "8", "--json", str(tmp_path / "no" / "x.json"))
    assert (code, err.startswith(f"error: cannot write {tmp_path / 'no' / 'x.json'}")) == (1, True)


@pytest.mark.parametrize("sizes", ["1,x", "", "64,", "0", "-4", "+8", "1.5", "٣"])
def test_bench_rejects_bad_sizes(capsys, sizes):
    code, out, err = run(capsys, "bench", "--sizes", sizes)
    assert code == 1
    assert out == ""
    assert err == f"error: --sizes must be comma-separated positive integers, got {sizes!r}\n"


def test_bench_rows_respect_scan_bound():
    for row in bench_rows([128, 256], seed=1, k=2, density=1.0):
        assert row["transitions_scanned"] <= row["scan_bound"]


def test_bench_doubling_m_grows_scans_moderately():
    # doubling the alphabet doubles m exactly on complete instances
    for seed in (0, 7, 42, 123):
        base = bench_rows([512], seed=seed, k=2, density=1.0)[0]
        double = bench_rows([512], seed=seed, k=4, density=1.0)[0]
        assert double["m"] == 2 * base["m"]
        assert double["transitions_scanned"] <= 2.2 * base["transitions_scanned"]


def test_random_minimization_preserves_language():
    for seed in range(25):
        d = gen_random_dfa(GenConfig(n=14, k=2, density=0.6, seed=seed))
        minimal, report = minimize_dfa(d)
        assert dfa_language_equivalent(d, minimal), seed
        assert minimal.n == table_filling_minimal_size(d), seed
        assert report.final_blocks == minimal.n <= d.n


def test_python_dash_m_runs_cli():
    src = str(Path(dlts_bisim.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-m", "dlts_bisim", "gen", "--n", "5", "--seed", "1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert parse_lts(done.stdout).n == 5


ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_readme_library_snippet_runs(capsys):
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    snippet = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    exec(compile(snippet, "README.md", "exec"), {})
    assert capsys.readouterr().out == "[[0, 1]]\n"


def test_public_api_is_documented():
    readme = README.read_text(encoding="utf-8")
    undocumented = [name for name in dlts_bisim.__all__ if not re.search(rf"\b{name}\b", readme)]
    assert undocumented == []
    assert all(hasattr(dlts_bisim, name) for name in dlts_bisim.__all__)
    # a public classmethod is a way in too: each is documented, or private
    classes = [c for c in map(vars(dlts_bisim).get, dlts_bisim.__all__) if isinstance(c, type)]
    ways_in = [f"{c.__name__}.{name}" for c in classes for name, member in vars(c).items()
               if isinstance(member, classmethod) and not name.startswith("_")]
    assert {"RefinablePartition.from_initial", "ScanStats.detailed"} <= set(ways_in)
    assert [way for way in ways_in if not re.search(rf"\b{way.split('.')[1]}\b", readme)] == []


def test_the_claims_ledger_names_existing_tests():
    ledger = README.read_text(encoding="utf-8").split("\n## The paper's claims\n", 1)[1]
    rows = [line[2:-2].split(" | ") for line in ledger.split("\n## ", 1)[0].splitlines()
            if line.startswith("| ") and not line.startswith("| claim |")]
    claims = ["`O(m log n)` time", "`O(k + m + n)` space", "no completion needed (`m <= kn`)",
              '"much simpler than the two others"']
    assert [claim for claim, _shown, _missing in rows] == claims
    for claim, shown, missing in rows:
        named = re.findall(r"`(tests/\w+\.py)(?:::(\w+))?`", shown)
        assert named or missing.startswith("not shown yet"), claim
        assert missing == "—" or re.search(r"\bitem \d+\b", missing), claim
        for path, function in named:
            tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
            tests = {node.name for node in tree.body
                     if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")}
            assert function in tests if function else tests, (claim, path, function)


def test_every_traced_target_resolves():
    # The benchmark's tracer wraps package attributes by name and only
    # reports one it cannot find, so a trimmed import would drop a span.
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    with tracing.Patched(lambda _span, original: original) as patched:
        assert patched.missing == []
        assert len(patched.saved) == len(tracing.TARGETS)
