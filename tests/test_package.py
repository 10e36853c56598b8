"""The package's public surface: what `qss.__all__` promises resolves."""

import qss


def test_every_export_resolves_once():
    assert len(qss.__all__) == len(set(qss.__all__))
    missing = [name for name in qss.__all__ if not hasattr(qss, name)]
    assert missing == []
