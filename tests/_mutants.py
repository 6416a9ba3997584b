"""Mutants that the suite must kill, and a runner that replays them.

Each entry of `MUTANTS` names a module of `dlts_bisim`, an exact fragment of its
source, the text that replaces the fragment, and the tests that must fail once it
is replaced (pytest node ids, relative to the repository root).  A tier-1 test
checks only that every fragment occurs exactly once, so a change that moves one
must update the table.

    python tests/_mutants.py [name ...]

copies `src/`, `tests/` and `pyproject.toml` into a temporary directory, runs the
named tests on the unmutated copy, then applies each mutant in turn and runs its
tests again.  It lists every test that a mutant survives and exits 1 if there is
one.  It needs only the standard library and pytest.
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
_PROPERTIES = "tests/test_lts_properties.py::"
_SMALL_PIECES = [_PROPERTIES + "test_plain_reading_property_holds_in_small_pieces",
                 _PROPERTIES + "test_dfa_encoding_property_holds_in_small_pieces"]
_PLAIN_GUARD = "tests/test_lts.py::test_a_piece_that_is_not_plain_is_walked_line_by_line"


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
        "lts", "if i < len(rows) - len(odd):", "if i <= len(rows) - len(odd):",
        _SMALL_PIECES),
    # A piece that holds a `#` can be read as plain, so a comment glued to a token joins its name.
    "plain-piece-keeps-comment": Mutant(
        "lts", 'if "#" in piece:\n        return None', 'if False:\n        return None',
        [_PLAIN_GUARD]),
    # A piece is read as plain whenever its token count is a multiple of three.
    "plain-piece-shape-by-count": Mutant(
        "lts", '"\\n".join(map(" ".join, zip(*columns))) + "\\n" == piece',
        "len(tokens) % 3 == 0", [_PLAIN_GUARD]),
    # `dbisim` scans the larger side of each split (also `_canon.larger_side_dbisim`).
    "larger-side": Mutant(
        "bisim", "if mid - lo <= hi - mid:", "if mid - lo > hi - mid:",
        ["tests/test_acceptance.py::test_criterion_3_scan_counter_bound_and_scaling",
         "tests/test_bisim.py::test_dbisim_matches_reference_on_seeded_corpus",
         "tests/test_worst_case.py::test_fibonacci_words_keep_scans_near_n_log_n"]),
}


def source_path(root: Path, module: str) -> Path:
    return root / "src" / "dlts_bisim" / f"{module}.py"


def _failed(copy: Path, test: str) -> bool:
    """Whether `test` fails in `copy`; an error other than a failing test is reported."""
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", test],
        cwd=copy, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"})
    if run.returncode not in (0, 1):
        raise RuntimeError(f"pytest exited {run.returncode} on {test}:\n{run.stdout}{run.stderr}")
    return run.returncode == 1


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
        broken = [test for test in tests if _failed(copy, test)]
        if broken:
            print("fails without a mutant:", *broken, sep="\n  ")
            return 1
        for name, mutant in mutants.items():
            path = source_path(copy, mutant.module)
            original = path.read_text()
            assert original.count(mutant.fragment) == 1, f"{name}: the fragment moved"
            path.write_text(original.replace(mutant.fragment, mutant.replacement))
            passed = [test for test in mutant.tests if not _failed(copy, test)]
            path.write_text(original)
            survived += bool(passed)
            verdict = "SURVIVED " + ", ".join(passed) if passed else "killed"
            print(f"{name} ({mutant.module}): {verdict} [{len(mutant.tests)} tests]", flush=True)
    print(f"{len(mutants)} mutants, {len(mutants) - survived} killed, {survived} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
