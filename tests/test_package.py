"""The public namespace of the package."""

import ellslice


def test_every_export_resolves():
    missing = [name for name in ellslice.__all__ if not hasattr(ellslice, name)]
    assert missing == []
    assert len(set(ellslice.__all__)) == len(ellslice.__all__)
