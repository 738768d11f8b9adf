"""The package's public names: every exported name resolves, and the names
of deleted types stay gone."""

import phasescope


def test_every_exported_name_resolves():
    namespace: dict = {}
    exec("from phasescope import *", namespace)
    assert all(name in namespace for name in phasescope.__all__)


def test_exports_are_sorted_and_unique():
    assert phasescope.__all__ == sorted(set(phasescope.__all__))


def test_deleted_types_are_not_exported():
    for name in ("BlockProfile", "ProfileSource", "MarkerTable", "NoAlignmentError"):
        assert name not in phasescope.__all__
        assert not hasattr(phasescope, name)
