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
"""

from .admissibility import (
    GENERIC,
    AdmissibilityRecord,
    FieldConfig,
    check_A1,
    check_A2,
    classify,
    classify_orbits,
    d_and_p,
    dim_brauer,
    dim_g22n_formula,
    dim_gmpn_formula,
    k_subgroup,
    mu_sixth,
    rel_bar,
    rel_set,
)
from .brauer_modules import (
    InducedModule,
    RelationReport,
    StabRep,
    delta_scalar,
    induce,
    mu_scalar,
    quotient_regular_rep,
    scalar_ring_size,
    semisimplicity_census,
    trivial_rep,
    verify_defining_relations,
)
from .errors import (
    BctError,
    InternalInconsistency,
    InvalidParameters,
    NotAdmissible,
    NotAdmissiblePair,
    NotDistinct,
    TooLarge,
)
from .exact_arith import (
    CycNumber,
    LaurentScalar,
    smith_normal_form,
    z_span_member,
)
from .freeness import (
    FreenessReport,
    TauVector,
    acceptable_hyperplanes,
    acceptable_pairs,
    bar_condition,
    check_F,
    freeness_verdict,
    g26_geometry_suite,
    rel_supports,
    rel_tau,
)
from .reflection_groups import (
    DEFAULT_CAP,
    Group,
    Hyperplane,
    build_imprimitive,
    build_matrix_group,
    group_from_json,
    group_to_json,
    hyperplanes,
    load_group_file,
    orbit,
    packaged_group,
    stabilizer,
)
from .transversality import (
    TransvTable,
    collection_orbits,
    enumerate_collections,
    is_transverse,
    small_orbit,
    transv_table,
)

__version__ = "0.1.0"
