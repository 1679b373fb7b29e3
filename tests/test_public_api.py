import broadcastnet


def test_public_surface_is_pinned():
    names = broadcastnet.__all__
    assert len(names) == len(set(names)) == 42
    for name in names:
        assert getattr(broadcastnet, name) is not None, name
