"""The package's public names."""
from collections import Counter

import qroute


def test_every_public_name_resolves_once_and_star_import_works():
    assert [name for name in qroute.__all__ if not hasattr(qroute, name)] == []
    assert [name for name, n in Counter(qroute.__all__).items() if n > 1] == []
    namespace: dict = {}
    exec("from qroute import *", namespace)
    assert namespace.keys() >= set(qroute.__all__)
