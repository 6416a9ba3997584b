"""The mutation table in `_mutants.py` stays in step with the source it mutates."""

import pytest

from _mutants import MUTANTS, ROOT, source_path


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_fragment_occurs_exactly_once(name):
    mutant = MUTANTS[name]
    assert source_path(ROOT, mutant.module).read_text().count(mutant.fragment) == 1, name
