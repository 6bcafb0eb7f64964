"""The package's public names."""

import cloudsched


def test_all_names_resolve_once_each_and_star_import_works():
    names = cloudsched.__all__
    assert len(set(names)) == len(names)
    namespace = {}
    exec("from cloudsched import *", namespace)  # raises on a stale name
    assert [name for name in names if name not in namespace] == []
