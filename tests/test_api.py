"""The public export list names exactly what the package provides."""

import sturmgas

#: exact-angle wrappers removed in favour of the methods sign(), floor(), frac()
REMOVED = ("qi_compare", "qi_floor", "qi_frac")


def test_every_export_resolves():
    for name in sturmgas.__all__:
        assert hasattr(sturmgas, name), name
    assert len(set(sturmgas.__all__)) == len(sturmgas.__all__)


def test_removed_names_not_exported():
    for name in REMOVED:
        assert name not in sturmgas.__all__
        assert not hasattr(sturmgas, name)
