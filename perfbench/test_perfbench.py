"""Tests of the benchmark itself: generators, answer checker, workload construction, output.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checker  # noqa: E402
import generators as gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from dlts_bisim import RawLts, canonical_view, naive_fixpoint, normalize  # noqa: E402

SMALL = {
    "refine-random": lambda rng: gen.refine_random(rng, n=256),
    "text-collapse": lambda rng: gen.text_collapse(rng, base_n=8, k=4, replicas=16),
    "minimize-dfa": lambda rng: gen.minimize_input(rng, n=256, final_density=0.05),
}


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_generators_reproduce_instances_from_the_seed(workload):
    make = SMALL[workload]
    first = make(gen.instance_rng(workload, 7, 0))
    assert make(gen.instance_rng(workload, 7, 0)) == first
    assert make(gen.instance_rng(workload, 8, 0)) != first
    assert make(gen.instance_rng(workload, 7, 1)) != first


def test_workload_shapes_are_exact():
    lts, blocks = gen.refine_random(gen.instance_rng("refine-random", 1, 0))
    assert (lts.n, lts.m) == (32768, 65536)
    assert sorted(len(b) for b in blocks) == [16384, 16384]
    collapse = gen.text_collapse(gen.instance_rng("text-collapse", 1, 0))
    assert (collapse.lts.n, collapse.lts.m) == (16384, round(0.3 * 64 * 16) * 256)
    aut = gen.minimize_input(gen.instance_rng("minimize-dfa", 1, 0))
    assert (aut.lts.n, aut.lts.m, len(aut.finals)) == (16384, round(0.6 * 16384 * 4), 328)


def _random_partition(rng: random.Random, n: int) -> list[list[int]]:
    parts = rng.randint(1, min(3, n))
    groups: dict[int, list[int]] = {}
    for q in range(n):
        groups.setdefault(rng.randrange(parts), []).append(q)
    return list(groups.values())


def _normalized(lts: gen.Lts):
    names = [str(q) for q in range(lts.n)]
    return normalize(RawLts(names, list(lts.letters), [(names[q], a, names[d]) for q, a, d in lts.triples()]))


def test_checker_matches_the_set_based_oracle():
    for seed in range(300):
        rng = random.Random(seed)
        lts = gen.random_lts(rng, rng.randint(1, 14), rng.randint(1, 3), rng.choice([0.3, 0.6, 1.0]))
        blocks = _random_partition(rng, lts.n)
        want = canonical_view(naive_fixpoint(_normalized(lts), [set(b) for b in blocks]))
        assert checker.coarsest_bisimulation(lts, blocks) == want, seed


def test_checker_rejects_over_merged_and_over_split_partitions():
    collapse = gen.text_collapse(random.Random(5), base_n=6, k=3, replicas=4)
    lts, start = collapse.lts, [list(range(collapse.lts.n))]
    right = checker.coarsest_bisimulation(lts, start)
    assert len(right) >= 2 and len(right[0]) >= 2
    assert checker.check_partition(lts, start, right) is None
    merged = sorted([sorted(right[0] + right[1])] + right[2:])
    assert "merges" in checker.check_partition(lts, start, merged)
    split = sorted([right[0][:1], right[0][1:]] + right[1:])
    assert "blocks where" in checker.check_partition(lts, start, split)


def test_checker_rejects_a_non_minimal_or_wrong_automaton():
    aut = gen.minimize_input(random.Random(2), n=200, final_density=0.05)
    minimal = checker.minimal_automaton(aut)
    assert 0 < minimal.lts.n < aut.lts.n
    assert checker.same_language(minimal, aut)
    form = checker.canonical_form(minimal)
    text = gen.dfa_text(minimal)
    assert checker.canonical_form(checker.parse_dfa_text(text)) == form
    # Over-split: the unminimized input has other state counts and form.
    assert checker.canonical_form(aut) != form
    # Wrong language: one accepting state dropped.
    wrong = gen.Automaton(minimal.lts, minimal.initial, minimal.finals[1:])
    assert not checker.same_language(wrong, aut)
    assert checker.canonical_form(wrong) != form


@pytest.mark.parametrize("seed", range(5))
def test_text_collapse_answer_is_known_by_construction(seed):
    collapse = gen.text_collapse(random.Random(seed), base_n=10, k=3, density=0.4, replicas=12)
    assert checker.coarsest_bisimulation(collapse.lts, [list(range(collapse.lts.n))]) == (
        run.collapse_answer(collapse)
    )


def test_text_collapse_full_shape_collapses_to_the_base():
    collapse = gen.text_collapse(gen.instance_rng("text-collapse", 1, 0))
    answer = checker.coarsest_bisimulation(collapse.lts, [list(range(collapse.lts.n))])
    assert answer == run.collapse_answer(collapse)
    assert len(answer) == 64


def test_patching_reports_a_moved_target_and_restores_the_rest(monkeypatch):
    import dlts_bisim

    original = dlts_bisim.dbisim
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + [("dlts_bisim", "gone", "x.gone")])
    recorder = tracing.SpanRecorder(dlts_bisim.ScanStats)
    with tracing.Patched(recorder.wrapper) as patched:
        assert dlts_bisim.dbisim is not original
    assert patched.missing == ["dlts_bisim.gone"]
    assert dlts_bisim.dbisim is original


def _benchmark_config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["refine-random", "text-collapse", "minimize-dfa"])
def test_command_prints_every_listed_metric(workload, trace):
    config = _benchmark_config()
    assert workload in {w["name"] for w in config["workloads"]}
    done = subprocess.run(
        [*config["command"], "--workload", workload, "--seed", "3", "--seconds", "0.1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = config["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }


def test_command_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = subprocess.run(
        [*_benchmark_config()["command"], "--workload", "refine-random", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
