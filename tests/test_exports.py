import fotensor


def test_export_surface():
    # A stale __all__ entry breaks `from fotensor import *`.
    assert len(set(fotensor.__all__)) == len(fotensor.__all__)
    namespace = {}
    exec("from fotensor import *", namespace)
    assert set(fotensor.__all__) <= set(namespace)
