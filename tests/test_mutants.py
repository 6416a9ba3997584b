"""The mutation table in `_mutants.py` stays in step with the source it mutates and
the tests it names."""

import ast
from functools import cache

import pytest

from _mutants import MUTANTS, ROOT, source_path


@cache
def _test_functions(path):
    """The names of the functions defined at the top level of a test file."""
    tree = ast.parse((ROOT / path).read_text())
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_fragment_occurs_exactly_once(name):
    mutant = MUTANTS[name]
    assert source_path(ROOT, mutant.module).read_text().count(mutant.fragment) == 1, name


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_kill_list_names_existing_tests(name):
    for test in MUTANTS[name].tests:
        path, _, function = test.partition("::")
        assert function.partition("[")[0] in _test_functions(path), test
