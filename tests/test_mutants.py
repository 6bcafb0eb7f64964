"""The mutation gate's list stays aimed at code that exists.

`tests/mutants.py` runs the mutants; this checks, cheaply, that a refactor
which moves a mutant's code has to update the mutant instead of retiring
it silently.
"""

import ast
from pathlib import Path

from mutants import MUTANTS, ROOT, SRC


def test_each_mutant_old_text_occurs_exactly_once_in_src():
    for name, file, old, new, _ in MUTANTS:
        assert old != new, name
        assert (SRC / file).read_text().count(old) == 1, name


def test_each_killing_test_exists():
    for name, _, _, _, tests in MUTANTS:
        assert tests, name
        for test_id in tests:
            # A parametrized test is named with its case's id in brackets.
            path, function = test_id.split("[")[0].split("::")
            tree = ast.parse((ROOT / path).read_text())
            assert function in {node.name for node in tree.body
                                if isinstance(node, ast.FunctionDef)}, \
                (name, test_id)
