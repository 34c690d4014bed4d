"""Exact generation, evaluation and verification of the quadratic
coefficient identities cutting out the Grassmannian embedding.

Every exported name is loaded on first use (PEP 562), so a program imports
only the submodules it uses: one that only generates never loads the
p-vector code or the structural checks.
"""

import sys
from importlib import import_module
from types import ModuleType

# The output formats of ``render``; defined here so that the command line
# parser can offer them without loading the renderer.
FORMATS = ("text", "latex", "json", "csv")

# Each exported name, by the submodule that defines it: the one list of
# public names, which each submodule reads as its ``__all__``.
_EXPORTS = {
    "equations": (
        "EquationSystem", "Label", "QuadraticEquation", "QuadTerm", "canonicalize",
        "check_width", "collect_terms", "collect_weighted", "dedupe", "gen_generalized",
        "gen_plucker", "gen_plucker_like", "linear_combination", "make_term",
        "raw_equation", "size_ratio",
    ),
    "multiindex": (
        "GrassmannParams", "MultiIndex", "as_multiindex", "difference",
        "grassmann_codimension", "intersection", "inversion_pairs", "multinomial",
        "ordered_union", "subsets_of_size", "symmetric_difference",
    ),
    "pvectors": (
        "FIELDS", "GaussianRational", "PVector", "Residual", "evaluate", "is_simple", "pvector",
        "pvector_from_dict", "pvector_from_json", "pvector_to_dict", "pvector_to_json",
        "random_pvector", "random_simple", "residual", "scaled", "wedge",
    ),
    "render": (
        "FORMATS", "equation_latex", "equation_text", "render", "system_from_dict",
        "system_from_json", "system_to_dict",
    ),
    "structure": (
        "CensusReport", "PairFamily", "ProbeReport", "QClassCensus", "VerifyReport", "census",
        "check_decomposition", "check_pair_combine", "one_index_decomposition", "pair_combine",
        "pair_families", "stratum_probe", "strip", "verify_structure",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
# Submodules the namespace also exports by name.
_SUBMODULES = ("documents", "equations", "multiindex", "pvectors")


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")  # the import binds it here
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups find it without calling __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | {*__all__})


class _Package(ModuleType):
    # Loading a submodule binds it onto its package by name, which would
    # make ``pluckereqs.render`` the module once anything imported
    # ``pluckereqs.render``.  The package's ``render`` is the function.
    def __setattr__(self, name, value):
        if name == "render" and isinstance(value, ModuleType):
            value = value.render
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

# A star import takes every name, and so loads every submodule.
__all__ = [*_SOURCE, *_SUBMODULES]


__version__ = "0.1.0"
