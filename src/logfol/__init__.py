"""logfol: exact invariants of logarithmic foliations on projective space.

The package constructs the polynomial q-form of a logarithmic foliation
from a divisor arrangement with rational residues, computes the singular,
Kupka and persistent-singularity ideals with an exact Groebner engine over
the rationals, and verifies the expected structure of the singular locus
(codimensions, the combinatorial arrangement identity, disjointness of the
Kupka and residual parts) instance by instance.
"""

from . import foliation, forms, groebner, poly, schemes

__version__ = "0.1.0"
