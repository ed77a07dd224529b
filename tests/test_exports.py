"""The package's public surface."""

import indexdensity


def test_every_export_resolves():
    missing = [name for name in indexdensity.__all__ if not hasattr(indexdensity, name)]
    assert missing == []
    assert len(set(indexdensity.__all__)) == len(indexdensity.__all__)
