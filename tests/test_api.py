"""The public names of the package."""

import vwave


def test_every_exported_name_resolves():
    for name in vwave.__all__:
        assert getattr(vwave, name) is not None, name


def test_removed_names_not_exported():
    for name in ("Constants", "constants", "classify_locus"):
        assert name not in vwave.__all__
        assert not hasattr(vwave, name)
