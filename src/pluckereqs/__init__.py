"""Exact generation, evaluation and verification of the quadratic
coefficient identities cutting out the Grassmannian embedding."""

from .equations import (
    EquationSystem,
    Label,
    QuadraticEquation,
    QuadTerm,
    canonicalize,
    collect_terms,
    dedupe,
    gen_generalized,
    gen_plucker,
    gen_plucker_like,
    linear_combination,
    make_term,
    raw_equation,
    size_ratio,
)
from .multiindex import (
    GrassmannParams,
    MultiIndex,
    as_multiindex,
    difference,
    grassmann_codimension,
    intersection,
    inversion_pairs,
    multinomial,
    ordered_union,
    subsets_of_size,
    symmetric_difference,
)
from .pvectors import (
    GaussianRational,
    PVector,
    Residual,
    evaluate,
    is_simple,
    pvector,
    pvector_from_dict,
    pvector_from_json,
    pvector_to_dict,
    pvector_to_json,
    random_pvector,
    random_simple,
    residual,
    scaled,
    wedge,
)
from .render import (
    equation_latex,
    equation_text,
    render,
    system_from_dict,
    system_from_json,
    system_to_dict,
)
# The structural checks are loaded on first use (PEP 562), so a program
# that only generates, renders or decides never imports them.
_STRUCTURE_NAMES = frozenset({
    "CensusReport",
    "PairFamily",
    "ProbeReport",
    "QClass",
    "VerifyReport",
    "stratum_probe",
    "census",
    "check_pair_combine",
    "check_decomposition",
    "classify",
    "pair_combine",
    "pair_families",
    "one_index_decomposition",
    "verify_structure",
})


def __getattr__(name: str):
    if name in _STRUCTURE_NAMES:
        from . import structure

        return getattr(structure, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(globals().keys() | _STRUCTURE_NAMES)


# A star import still takes every name, the structural ones included.
__all__ = [name for name in globals() if not name.startswith("_")] + sorted(_STRUCTURE_NAMES)


__version__ = "0.1.0"
