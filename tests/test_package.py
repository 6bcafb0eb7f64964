"""The package's public names, and what it imports."""

import ast
import dataclasses
import enum
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


def test_only_the_caching_types_are_dataclasses():
    # Scenario and SimulationResult cache in an instance dict; every other
    # value type is a named tuple whose fields are in the order
    # save_scenario writes them.
    types = {name: getattr(cloudsched, name) for name in cloudsched.__all__}
    types = {name: t for name, t in types.items() if isinstance(t, type)
             and not issubclass(t, (Exception, enum.Enum))}
    assert sorted(name for name, t in types.items()
                  if dataclasses.is_dataclass(t)) == ["Scenario",
                                                      "SimulationResult"]
    fields = {name: t._fields for name, t in types.items()
              if not dataclasses.is_dataclass(t) and issubclass(t, tuple)}
    assert fields == {
        "Cloudlet": ("id", "length", "arrival_index"),
        "CloudletRecord": ("cloudlet_id", "vm_id", "datacenter_id",
                           "cpu_time", "start_time", "finish_time"),
        "Datacenter": ("id", "hosts"),
        "GeneratorSpec": ("n_tasks", "length_range", "seed"),
        "Host": ("id", "datacenter_id", "total_mips", "ram_mb", "storage_mb"),
        "Vm": ("id", "mips", "ram_mb"),
        "VmUsage": ("vm_id", "busy_time"),
    }
    assert len(types) == 2 + len(fields)
