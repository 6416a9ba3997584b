"""Mutants that the suite must kill, and a runner that replays them.

Each entry of `MUTANTS` names a module of `dlts_bisim`, an exact fragment of its
source, the text that replaces the fragment, and the tests that must fail once it
is replaced (pytest node ids, relative to the repository root): its kill list.
Tier-1 tests check only that every fragment occurs exactly once, that every kill
list names tests that exist, and that it names at least one example-based test:
Hypothesis draws a property's examples from its source text, so a property that
kills a mutant may stop killing it after any edit.  A change that moves a fragment
or renames a test must update the table.

    python tests/_mutants.py [name ...]

copies `src/`, `tests/` and `pyproject.toml` into a temporary directory, runs the
named tests on the unmutated copy, then applies each mutant in turn and runs its
tests again.  A test run that outlasts `TIMEOUT_S` is stopped and counts as a kill
(a mutant can make a loop endless).  It lists every test that a mutant survives
and exits 1 if there is one.  It needs only the standard library and pytest.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 60  # the slowest tier-1 test takes about 3 s
_PROPERTIES = "tests/test_lts_properties.py::"
_SMALL_PIECES = [_PROPERTIES + "test_plain_reading_property_holds_in_small_pieces",
                 _PROPERTIES + "test_dfa_encoding_property_holds_in_small_pieces",
                 "tests/test_lts.py::test_late_lines_read_alike_in_small_pieces"]
_PLAIN_GUARD = "tests/test_lts.py::test_a_piece_that_is_not_plain_is_walked_line_by_line"
_HEADER_LINES = "tests/test_lts.py::test_only_the_header_piece_of_a_written_text_is_walked_line_by_line"
_MINIMIZE_CONTRACT = ["tests/test_cli.py::test_minimize_names_orders_and_maps_as_specified",
                      "tests/test_cli.py::test_minimize_contract_on_corner_cases"]
_SPLIT_REFERENCE = "tests/test_partition.py::test_split_matches_set_reference"
_FLAGGED_SPLIT = "tests/test_partition.py::test_split_of_a_flagged_block_pushes_nothing"
_REFERENCE_CORPUS = "tests/test_bisim.py::test_dbisim_matches_reference_on_seeded_corpus"
_DEBUG_CHECKS = "tests/test_acceptance.py::test_criterion_4_debug_invariants_never_fire"
_STABILITY_PASS = "tests/test_bisim.py::test_stability_pass_agrees_with_is_bisimulation_on_seeded_corpus"
_STABILITY_PROPERTY = (
    "tests/test_bisim.py::test_loop_runs_exactly_when_the_prerefinement_is_not_a_bisimulation")
_FORMS = "tests/test_lts.py::test_from_columns_groups_by_destination_stably"
_BUILT_VIEW_SHRINKS = "tests/test_cli.py::test_a_built_view_replaces_the_input_order_columns"
_RUN_FOLLOWS_FORM = "tests/test_bisim.py::test_a_run_follows_the_form_that_its_system_holds"
_DEBUG_ABOVE_LIMIT = ("tests/test_bisim.py::"
                      "test_debug_runs_above_the_assertion_limit_reject_an_accept_all_stability_pass")
_DEBUG_LIMIT = "tests/test_bisim.py::test_debug_mode_checks_the_result_above_the_assertion_limit"
_REFERENCE_LOOP = "tests/test_bisim.py::test_reference_loop_does_the_engines_work"


class Mutant(NamedTuple):
    module: str
    fragment: str
    replacement: str
    tests: list[str]


MUTANTS = {
    # A `states:` or `letters:` line after some transitions keeps their old ids.
    "reindexed-keeps-old-ids": Mutant(
        "lts", "column[:] = map(new_id.__getitem__, column)", "column[:] = column",
        _SMALL_PIECES),
    # A late header drops the used names it lacks instead of appending them as undeclared.
    "reindexed-drops-undeclared": Mutant(
        "lts", "if None in new_id:", "if False:", _SMALL_PIECES),
    # A second `letters:` line replaces the first.
    "second-letters-line-wins": Mutant(
        "lts", "if word in headers:", 'if word in headers and word != "letters:":',
        ["tests/test_lts.py::test_repeated_header_line_raises_at_the_repeat"]),
    # The determinism check keeps a hash set even where a cell bitmap is smaller.
    "repeats-always-hashed": Mutant(
        "lts", "if cells <= 8 * len(src):", "if False:",
        ["tests/test_lts.py::test_parse_peak_memory_stays_near_its_result",
         "tests/test_lts.py::test_determinism_check_on_both_sides_of_the_bitmap"]),
    # A transition error's line is looked up one piece too late when the transition
    # is the first of the next piece.
    "transition-line-off-by-one": Mutant(
        "lts", "if i < lines - len(odd):", "if i <= lines - len(odd):",
        _SMALL_PIECES),
    # A piece that holds a `#` can be read as plain, so a comment glued to a token joins its name.
    "plain-piece-keeps-comment": Mutant(
        "lts", 'if "#" in piece:\n        return None', 'if False:\n        return None',
        [_PLAIN_GUARD]),
    # A piece is read as plain whenever its token count is a multiple of three.
    "plain-piece-shape-by-count": Mutant(
        "lts", '"\\n".join(map(" ".join, zip(*columns))) + "\\n" == piece',
        "len(tokens) % 3 == 0", [_PLAIN_GUARD]),
    # Only the `<kind> <n-states>` line is cut off the first piece, so the header lines
    # after it are walked as part of the rest of that piece.
    "head-cut-after-kind-line": Mutant(
        "lts", 'if first and started and not first[0].endswith(":"):', "if first and started:",
        [_HEADER_LINES]),
    # The backward walk starts from every reachable state, so states that reach no final stay.
    "trim-keeps-dead-states": Mutant(
        "cli", "found = [q for q in dfa.finals if reachable[q]]",
        "found = [q for q in range(T.n) if reachable[q]]", _MINIMIZE_CONTRACT),
    # Each block is named after, and moves like, its highest state instead of its lowest.
    "blocks-named-by-last-member": Mutant(
        "cli", "deque(map(lowest.setdefault, p.block_of, count()), 0)",
        "deque(map(lowest.__setitem__, p.block_of, count()), 0)", _MINIMIZE_CONTRACT),
    # Each quotient transition is counted into the offsets of the block before its
    # destination's, so every block takes the count of the next one.
    "quotient-offsets-wrong-block": Mutant(
        "cli", "offsets[key // (nb * k) + 1]", "offsets[key // (nb * k)]",
        _MINIMIZE_CONTRACT + ["tests/test_cli.py::test_minimize_output_is_pinned"]),
    # The quotient's sort key puts the source block before the destination block.
    "quotient-key-source-first": Mutant(
        "cli", "(block_no[d] * nb + block_no[s]) * k + a", "(block_no[s] * nb + block_no[d]) * k + a",
        _MINIMIZE_CONTRACT + ["tests/test_cli.py::test_minimize_output_is_pinned"]),
    # The constructor keeps the letters that label no transition.
    "constructor-keeps-unused-letters": Mutant(
        "lts", "if len(used) < len(letter_names):", "if False:",
        ["tests/test_lts.py::test_the_constructor_keeps_only_used_letters",
         "tests/test_lts.py::test_normalize_drops_unused_letters"]),
    # `dbisim` scans the larger side of each split.
    "larger-side": Mutant(
        "bisim", "if mid - lo <= hi - mid:", "if mid - lo > hi - mid:",
        ["tests/test_acceptance.py::test_criterion_3_scan_counter_bound_and_scaling",
         "tests/test_bisim.py::test_dbisim_matches_reference_on_seeded_corpus",
         "tests/test_worst_case.py::test_fibonacci_words_keep_scans_near_n_log_n"]),
    # `dbisim` always detaches a range's leftmost block.
    "leftmost-only": Mutant(
        "bisim", "hi - cut < mid - lo", "False",
        ["tests/test_bisim.py::test_dbisim_detaches_the_smaller_end_block",
         "tests/test_bisim.py::test_per_transition_counts_are_pinned",
         "tests/test_cli.py::test_bench_work_counts_are_pinned"]),
    # The pre-refinement also splits by a letter out of every state, which only
    # reorders blocks.
    "full-letter-pass-kept": Mutant(
        "bisim", "len(bucket) < T.n", "len(bucket) <= T.n",
        ["tests/test_bisim.py::test_init_refine_skips_the_letters_out_of_every_state",
         "tests/test_bisim.py::test_init_refine_leaves_the_layout_to_the_partial_letters"]),
    # The stability pass after pre-refinement accepts every partition, so the loop never runs.
    "stability-accepts-all": Mutant(
        "bisim", "return all(map(eq, map(dict.setdefault, tables, sources, targets), expected))",
        "return True",
        [_STABILITY_PASS, _STABILITY_PROPERTY, _REFERENCE_CORPUS, _DEBUG_CHECKS, _DEBUG_ABOVE_LIMIT]),
    # The stability pass keys each transition by its source's block alone.
    "stability-key-drops-letter": Mutant(
        "bisim", "tables = map(first_target.__getitem__, letter)",
        "tables = first_target[:1] * len(letter)", [_STABILITY_PASS, _STABILITY_PROPERTY]),
    # The stability pass compares each (block, letter) pair's first target with the
    # source's block instead of the destination's.
    "stability-compares-source-block": Mutant(
        "bisim", "targets), expected))", "targets), map(block_of.__getitem__, src)))",
        [_STABILITY_PASS, _STABILITY_PROPERTY]),
    # Pre-refinement buckets the sources in the view's destination order, which it builds.
    "init-refine-reads-view": Mutant(
        "bisim", "src, letter, _dst = T._stored()", "src, letter = T.in_src, T.in_letter",
        ["tests/test_bisim.py::test_a_stable_text_path_never_groups_by_destination"]),
    # The view is built on every read and never stored, so the system stays in input order.
    "view-built-not-stored": Mutant(
        "lts", "self._transitions = (src, letter, offsets, None)", "pass",
        [_FORMS, _BUILT_VIEW_SHRINKS, _RUN_FOLLOWS_FORM,
         "tests/test_bisim.py::test_a_stable_text_path_never_groups_by_destination"]),
    # The view is stored next to the input-order destination column, which `_stored`
    # then pairs with the view's sources and letters.
    "view-keeps-input-destinations": Mutant(
        "lts", "self._transitions = (src, letter, offsets, None)",
        "self._transitions = (src, letter, offsets, dst)",
        [_FORMS, _BUILT_VIEW_SHRINKS, _STABILITY_PASS]),
    # A grouped system's sources and letters are paired with the destinations one
    # transition late.
    "grouped-destinations-one-late": Mutant(
        "lts", "_expanded(offsets) if dst is None else dst",
        "chain((0,), _expanded(offsets)) if dst is None else dst",
        [_FORMS, _STABILITY_PASS]),
    # An input-order system is grouped as soon as it is built, so a run whose
    # loop does not start sorts all the same.
    "from-columns-groups-at-once": Mutant(
        "lts", "T._transitions = (*T._transitions[:3], dst)",
        "T._transitions = (*_grouped(*T._transitions[:2], dst, len(state_names)), None)",
        [_FORMS, "tests/test_bisim.py::test_a_stable_text_path_never_groups_by_destination"]),
    # `check` runs the engine with no certificate, so it accepts every result.
    "check-run-uncertified": Mutant(
        "cli", "RefinablePartition.from_initial(T.n, p_view), None, T.n)",
        "RefinablePartition.from_initial(T.n, p_view), None, None)",
        ["tests/test_cli.py::test_check_reports_each_mismatch[stability-0]",
         "tests/test_cli.py::test_check_reports_each_mismatch[bound-1]",
         "tests/test_cli.py::test_check_reports_a_debug_fault_as_a_mismatch",
         "tests/test_cli.py::test_check_runs_the_fixpoint_once_per_instance[512]"]),
    # A certified run compares with the fixpoint only up to the debug limit, so
    # `check` skips it above that limit, as a debug run does.
    "check-fixpoint-up-to-debug-limit": Mutant(
        "bisim", "if T.n <= fixpoint_max_n:", "if T.n <= min(fixpoint_max_n, _DEBUG_ASSERT_MAX_N):",
        ["tests/test_cli.py::test_check_runs_the_fixpoint_once_per_instance[10]"]),
    # The split moves a state that a bucket repeats once per occurrence.
    "split-moves-repeats": Mutant(
        "bisim", "if i < boundary:", "if False:",
        [_SPLIT_REFERENCE, "tests/test_partition.py::test_split_tolerates_duplicates",
         "tests/test_bisim.py::test_dbisim_moves_a_repeated_source_once"]),
    # The split flags a block that splits but pushes no pending range for it.
    "split-pushes-no-range": Mutant(
        "bisim", "los.append(lo)\n                    his.append(hi)", "pass",
        [_SPLIT_REFERENCE, _FLAGGED_SPLIT, _REFERENCE_CORPUS, _DEBUG_CHECKS, _DEBUG_LIMIT]),
    # The split pushes a block's range but leaves its `in_union` flag unset.
    "split-leaves-union-flag": Mutant(
        "bisim", "in_union[b] = True", "pass",
        [_SPLIT_REFERENCE, _FLAGGED_SPLIT, _DEBUG_CHECKS,
         "tests/test_acceptance.py::test_criterion_3_scan_counter_bound_and_scaling",
         "tests/test_bisim.py::test_debug_runs_count_one_iteration_per_block_but_one"]),
    # The split leaves each bucket it splits by filled.
    "split-keeps-buckets": Mutant(
        "bisim", "bucket.clear()", "pass",
        [_SPLIT_REFERENCE, _REFERENCE_CORPUS, _DEBUG_CHECKS]),
    # The split sets the `settled` flag of an old part of two states.
    "split-settles-two-states": Mutant(
        "bisim", "if hi - mid == 1:", "if hi - mid <= 2:",
        [_SPLIT_REFERENCE, _REFERENCE_CORPUS, _DEBUG_CHECKS]),
    # A one-state fresh part gets its block id but not its `settled` flag.
    "split-leaves-fresh-state-unsettled": Mutant(
        "bisim", "settled[x] = 1", "pass",
        [_SPLIT_REFERENCE, "tests/test_partition.py::test_copy_is_independent", _REFERENCE_LOOP]),
    # A one-state right side of a detached range is read one slot to the left,
    # at the end of the left side.
    "one-state-side-read-left": Mutant(
        "bisim", "(A[mid],)", "(A[mid - 1],)",
        [_REFERENCE_CORPUS, _DEBUG_CHECKS, _REFERENCE_LOOP,
         "tests/test_bisim.py::test_per_transition_counts_are_pinned"]),
    # The loop buckets sources in one-state blocks, which split nothing.
    "loop-buckets-settled-sources": Mutant(
        "bisim", "if settled[x]:", "if False:",
        ["tests/test_bisim.py::test_loop_buckets_no_settled_source", _REFERENCE_LOOP,
         "tests/test_bisim.py::test_per_transition_counts_are_pinned"]),
    # The shared result check accepts a result that merges two initial blocks.
    "refinement-accepts-merges": Mutant(
        "oracle", "map(enclosing.setdefault, block_of, init_block_of), init_block_of)",
        "map(enclosing.setdefault, block_of, init_block_of), map(enclosing.get, block_of))",
        ["tests/test_cli.py::test_check_reports_each_mismatch[refinement-0]",
         "tests/test_bisim.py::test_debug_mode_checks_the_result_above_the_assertion_limit"]),
    # Repeats and forks are judged from the last transition line to the first.
    "transitions-judged-last-to-first": Mutant(
        "lts", "for i, key, d in zip(count(), keys(), dst):",
        "for i, key, d in reversed(list(zip(count(), keys(), dst))):",
        ["tests/test_lts.py::test_parse_duplicate_transition_rejected",
         _PROPERTIES + "test_normalize_raises_the_first_error_in_input_order",
         _PROPERTIES + "test_parsers_give_what_normalize_gives_for_the_plain_reading"]),
}


def source_path(root: Path, module: str) -> Path:
    return root / "src" / "dlts_bisim" / f"{module}.py"


def _outcome(copy: Path, test: str) -> str:
    """`passed`, `failed` or `timeout` for `test` in `copy`; any other pytest exit is raised."""
    try:
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", test],
            cwd=copy, capture_output=True, text=True, timeout=TIMEOUT_S,
            env={**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"})
    except subprocess.TimeoutExpired:
        return "timeout"
    if run.returncode not in (0, 1):
        raise RuntimeError(f"pytest exited {run.returncode} on {test}:\n{run.stdout}{run.stderr}")
    return "failed" if run.returncode else "passed"


def main(names: list[str]) -> int:
    mutants = {name: MUTANTS[name] for name in names or MUTANTS}
    survived = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        tests = sorted({test for mutant in mutants.values() for test in mutant.tests})
        broken = [test for test in tests if _outcome(copy, test) != "passed"]
        if broken:
            print("fails without a mutant:", *broken, sep="\n  ")
            return 1
        for name, mutant in mutants.items():
            path = source_path(copy, mutant.module)
            original = path.read_text()
            assert original.count(mutant.fragment) == 1, f"{name}: the fragment moved"
            path.write_text(original.replace(mutant.fragment, mutant.replacement))
            outcomes = {test: _outcome(copy, test) for test in mutant.tests}
            path.write_text(original)
            passed = [test for test, outcome in outcomes.items() if outcome == "passed"]
            survived += bool(passed)
            if passed:
                verdict = "SURVIVED " + ", ".join(passed)
            else:
                verdict = "killed (timeout)" if "timeout" in outcomes.values() else "killed"
            print(f"{name} ({mutant.module}): {verdict} [{len(mutant.tests)} tests]", flush=True)
    print(f"{len(mutants)} mutants, {len(mutants) - survived} killed, {survived} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
