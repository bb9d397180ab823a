"""The package's export list."""

import plap


def test_every_exported_name_resolves_and_star_import_succeeds():
    assert [name for name in plap.__all__ if not hasattr(plap, name)] == []
    namespace = {}
    exec("from plap import *", namespace)
    assert set(plap.__all__) <= set(namespace)
