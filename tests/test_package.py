"""The package namespace exports exactly what it imports."""

import inspect

import bmreg


def test_all_names_resolve_and_cover_imports():
    for name in bmreg.__all__:
        assert hasattr(bmreg, name), name
    imported = {
        name
        for name, obj in vars(bmreg).items()
        if not name.startswith("_") and (inspect.isclass(obj) or inspect.isfunction(obj))
    }
    assert imported == set(bmreg.__all__)
