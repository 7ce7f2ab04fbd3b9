from __future__ import annotations

import cascadekit


def test_every_exported_name_resolves():
    missing = [name for name in cascadekit.__all__ if not hasattr(cascadekit, name)]
    assert missing == []
    assert len(set(cascadekit.__all__)) == len(cascadekit.__all__)
