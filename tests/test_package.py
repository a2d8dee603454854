"""The package namespace: every exported name resolves, once."""

import hermspec


def test_every_export_resolves_without_duplicates():
    names = hermspec.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(hermspec, name)]
    assert missing == []
