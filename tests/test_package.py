import hubofs


def test_every_exported_name_resolves():
    missing = [name for name in hubofs.__all__ if not hasattr(hubofs, name)]
    assert missing == []
    assert len(set(hubofs.__all__)) == len(hubofs.__all__)
