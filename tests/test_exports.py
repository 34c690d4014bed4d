"""Every name in a module's ``__all__`` resolves, and a star import of it works."""

import importlib

import pytest

MODULES = [
    "pluckereqs",
    "pluckereqs.documents",
    "pluckereqs.equations",
    "pluckereqs.multiindex",
    "pluckereqs.pvectors",
    "pluckereqs.render",
    "pluckereqs.structure",
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_star_import_works(name):
    module = importlib.import_module(name)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert not missing, missing
    exec(f"from {name} import *", {})
