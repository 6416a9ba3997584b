"""Command-line behaviour: formats, exit codes, reports, minimization."""

import csv
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dlts_bisim
from dlts_bisim import (
    GenConfig,
    bench_rows,
    gen_random_dfa,
    minimize_dfa,
    naive_fixpoint,
    parse_dfa,
    parse_lts,
)
from dlts_bisim.cli import main

from _canon import (
    dfa_canonical_form,
    dfa_language_equivalent,
    larger_side_dbisim,
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
    assert parse_lts(out1).states[0] == "q0"

    code, dfa_out, _ = run(capsys, "gen", "--n", "9", "--dfa", "--seed", "4")
    assert code == 0
    parse_dfa(dfa_out)


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


def test_check_mutant_fails_counter_bound(capsys, monkeypatch):
    monkeypatch.setattr("dlts_bisim.cli.dbisim", larger_side_dbisim())
    code, _out, err = run(
        capsys,
        "check", "--count", "10", "--n", "50", "--k", "4",
        "--density", "0.9", "--seed", "0",
    )
    assert code == 3
    assert "scanned" in err and "seed=" in err  # reproducer seed printed


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
    code, out, _err = run(capsys, "bench", "--sizes", "1024,4096,16384", "--seed", "0", "--csv")
    assert code == 0
    columns = ("n", "m", "transitions_scanned", "scan_bound")
    rows = [tuple(int(row[c]) for c in columns) for row in csv.DictReader(io.StringIO(out))]
    assert rows == [
        (1024, 2048, 4094, 22528),
        (4096, 8192, 16781, 106496),
        (16384, 32768, 69098, 491520),
    ]


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
    assert len(parse_lts(done.stdout).states) == 5


def test_public_api_is_documented():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    undocumented = [name for name in dlts_bisim.__all__ if not re.search(rf"\b{name}\b", readme)]
    assert undocumented == []
    assert all(hasattr(dlts_bisim, name) for name in dlts_bisim.__all__)
