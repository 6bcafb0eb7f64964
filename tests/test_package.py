"""The package's public names, and what it imports."""

import ast
import sys
from pathlib import Path

import cloudsched

SRC = Path(cloudsched.__file__).resolve().parent


def test_all_names_resolve_once_each_and_star_import_works():
    names = cloudsched.__all__
    assert len(set(names)) == len(names)
    namespace = {}
    exec("from cloudsched import *", namespace)  # raises on a stale name
    assert [name for name in names if name not in namespace] == []


def test_the_package_imports_only_the_standard_library():
    # numpy and orjson may be installed, but the package depends on
    # nothing outside the standard library.
    imported = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update((path.name, alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add((path.name, node.module))
    assert imported
    assert sorted((file, name) for file, name in imported
                  if name.split(".")[0] not in sys.stdlib_module_names) == []
