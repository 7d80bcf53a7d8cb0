"""logfol: exact invariants of logarithmic foliations on projective space.

The package constructs the polynomial q-form of a logarithmic foliation
from a divisor arrangement with rational residues, computes the singular,
Kupka and persistent-singularity ideals with an exact Groebner engine over
the rationals, and verifies the expected structure of the singular locus
(codimensions, the combinatorial arrangement identity, disjointness of the
Kupka and residual parts) instance by instance.
"""

from .foliation import (
    FoliationSpec,
    SpecValidationError,
    ValidatedSpec,
    ValidationFailure,
    build_form,
    validate_spec,
)
from .forms import (
    PForm,
    contract,
    exterior_derivative,
    frobenius_check,
    plucker_check,
    radial_contraction,
    wedge,
)
from .groebner import (
    Ideal,
    ideal_equal,
    ideal_intersection,
    ideal_quotient,
    ideal_saturation,
    ideal_sum,
    krull_dimension,
    module_annihilator,
    normal_form,
    projective_dimension,
    radical_membership,
)
from .poly import (
    Poly,
    PolyParseError,
    parse_poly,
    poly_to_str,
)
from .schemes import (
    CheckResult,
    SchemeIdeals,
    kupka_ideal,
    persistent_cap,
    persistent_sum,
    residual_ideal,
    singular_ideal,
    verify_decomposition,
    verify_identities,
    verify_lemma,
)

__version__ = "0.1.0"
