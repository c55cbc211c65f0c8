"""The package's public names: everything in ``partperm.__all__`` resolves.

A name left in ``__all__`` after its object was deleted breaks
``from partperm import *`` with an AttributeError.
"""

import partperm


def test_every_exported_name_resolves():
    missing = [name for name in partperm.__all__ if not hasattr(partperm, name)]
    assert missing == []


def test_star_import_runs():
    namespace = {}
    exec("from partperm import *", namespace)
    assert set(partperm.__all__) <= set(namespace)
