"""The mutation table in `_mutants.py` stays in step with the source it mutates and
the tests it names."""

import ast
import importlib
from functools import cache
from pathlib import Path

import pytest
from hypothesis import is_hypothesis_test

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


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_kill_list_names_an_example_based_test(name):
    def is_property(test):
        path, _, function = test.partition("::")
        module = importlib.import_module(Path(path).stem)
        return is_hypothesis_test(getattr(module, function.partition("[")[0]))

    assert not all(map(is_property, MUTANTS[name].tests)), name
