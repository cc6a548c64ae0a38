"""The mutation list (``mutants.py``) stays applicable: every mutant's old
text occurs exactly once in its file, and every test it names exists."""

import ast

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_each_mutant_applies_exactly_once(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_each_mutant_names_tests_that_exist(mutant):
    assert mutant.tests
    for test in mutant.tests:
        path, _, function = test.partition("::")
        tree = ast.parse((ROOT / path).read_text())
        assert function in {node.name for node in tree.body
                            if isinstance(node, ast.FunctionDef)}, test
