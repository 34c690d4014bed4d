"""Every name in a module's ``__all__`` resolves, and a star import of it works."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

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
    # A submodule's names are its group of the package's table, the same
    # objects; the package exports ``documents`` as a module, not its names.
    if name not in ("pluckereqs", "pluckereqs.documents"):
        package = importlib.import_module("pluckereqs")
        for export in module.__all__:
            assert export in package.__all__, export
            assert getattr(package, export) is getattr(module, export), export
    exec(f"from {name} import *", {})


def _run_fresh(script: str) -> None:
    src = str(Path(__file__).parent.parent / "src")
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stderr


RENDER_IS_THE_FUNCTION = """
import sys
import pluckereqs
assert pluckereqs.render is sys.modules["pluckereqs.render"].render
from pluckereqs import render
assert render is sys.modules["pluckereqs.render"].render
"""


# Loading a submodule binds it onto the package by name; the package's
# ``render`` stays the function whichever import comes first.
def test_render_is_the_function_after_importing_its_module():
    _run_fresh("import pluckereqs.render\n" + RENDER_IS_THE_FUNCTION)


def test_render_is_the_function_after_a_cli_export(tmp_path):
    from pluckereqs import gen_plucker_like, render
    from pluckereqs.multiindex import GrassmannParams

    system = tmp_path / "system.json"
    system.write_text(render(gen_plucker_like(GrassmannParams(5, 2)), "json"))
    argv = ["export", "--in", str(system), "--out", os.devnull]
    _run_fresh(f"from pluckereqs import cli\nassert cli.main({argv!r}) == 0\n" + RENDER_IS_THE_FUNCTION)


def test_submodule_names_resolve_to_modules():
    _run_fresh("""
import sys
import types
import pluckereqs
for name in ("pvectors", "multiindex", "equations", "documents"):
    assert isinstance(getattr(pluckereqs, name), types.ModuleType), name
assert "pluckereqs.render" not in sys.modules
""")


def test_resolved_name_is_stored_in_the_namespace():
    _run_fresh("""
import pluckereqs
assert "wedge" not in vars(pluckereqs) and "census" not in vars(pluckereqs)
wedge = pluckereqs.wedge
assert vars(pluckereqs)["wedge"] is wedge
census = pluckereqs.census
assert vars(pluckereqs)["census"] is census
assert {"wedge", "census", "render"} <= set(dir(pluckereqs))
""")
