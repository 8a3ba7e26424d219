"""The package's export list."""

import presage


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from presage import *", namespace)  # a stale name raises AttributeError here
    assert [name for name in presage.__all__ if name not in namespace] == []
    assert len(set(presage.__all__)) == len(presage.__all__)
