import pencilfiber


def test_every_public_name_resolves():
    missing = [name for name in pencilfiber.__all__ if not hasattr(pencilfiber, name)]
    assert missing == []
    assert len(set(pencilfiber.__all__)) == len(pencilfiber.__all__)
