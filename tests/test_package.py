import wkintersect


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is gone must fail here,
    # not at a caller's `from wkintersect import *`
    assert [name for name in wkintersect.__all__ if not hasattr(wkintersect, name)] == []
    assert len(set(wkintersect.__all__)) == len(wkintersect.__all__)
