import preoperad


def test_every_public_name_resolves_and_star_import_binds_them_all():
    # a name left in __all__ after its function was deleted fails only here
    # and at star-import
    names = preoperad.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(preoperad, name)]
    assert missing == []
    scope = {}
    exec("from preoperad import *", scope)
    assert scope.keys() - {"__builtins__"} == set(names)
