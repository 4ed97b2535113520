import treextremal


def test_all_names_resolve_once():
    # A stale string in __all__ would otherwise fail only under import *.
    names = treextremal.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(treextremal, name) is not None
    namespace = {}
    exec("from treextremal import *", namespace)
    assert set(names) <= set(namespace)
