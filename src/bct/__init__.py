"""Exact computations with Brauer-Chen algebras of complex reflection groups.

The package builds finite complex reflection groups (the monomial family
from parameters, fixed matrix groups from packaged data), decides
transversality of reflecting hyperplanes, classifies orbits of transverse
collections by admissibility, and from the classification computes the
dimension of the associated diagram algebra over an exact coefficient
field.  Explicit induced modules verify the defining relations, and a
freeness report routes each group to the argument certifying (or
refuting) that the algebra is a free module of the predicted rank.

All arithmetic is exact: cyclotomic integers, rationals, and Laurent
polynomials with integer coefficients in the loop and class parameters.
Nothing is floating point.

Importing the package loads none of its modules: each public name below
is imported from its module on first use (PEP 562), so a command that
needs only the group definitions never loads the compute layers.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "admissibility": (
        "classify",
        "classify_orbits",
        "collection",
        "dim_brauer",
        "dim_g22n_formula",
        "dim_gmpn_formula",
    ),
    "brauer_modules": (
        "InducedModule",
        "RelationReport",
        "StabRep",
        "delta_scalar",
        "induce",
        "mu_scalar",
        "quotient_regular_rep",
        "scalar_ring_size",
        "semisimplicity_census",
        "trivial_rep",
        "verify_defining_relations",
    ),
    "definitions": ("DEFAULT_CAP",),
    "errors": (
        "BctError",
        "InternalInconsistency",
        "InvalidParameters",
        "NotAdmissible",
        "NotAdmissiblePair",
        "NotDistinct",
        "TooLarge",
    ),
    "exact_arith": (
        "CycNumber",
        "LaurentScalar",
    ),
    "freeness": (
        "FreenessReport",
        "TauVector",
        "acceptable_hyperplanes",
        "acceptable_pairs",
        "bar_condition",
        "check_F",
        "freeness_verdict",
        "g26_geometry_suite",
        "rel_supports",
        "rel_tau",
    ),
    "reflection_groups": (
        "Group",
        "Hyperplane",
        "build_imprimitive",
        "build_matrix_group",
        "group_from_json",
        "orbit",
        "packaged_group",
        "stabilizer",
    ),
    "transversality": (
        "TransvTable",
        "collection_orbits",
        "enumerate_collections",
        "is_transverse",
        "transv_table",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
