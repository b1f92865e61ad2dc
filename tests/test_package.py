import dephasim


def test_every_public_name_resolves():
    assert [name for name in dephasim.__all__ if not hasattr(dephasim, name)] == []
