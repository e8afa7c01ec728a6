"""Cyclic convolutional codes through skew polynomials over F[x]/(x^n - 1).

The pipeline: build a finite field (`make_field`), a quotient-ring context
(`RingContext`), pick an automorphism, work in the twisted polynomial ring
(`SkewPoly`), extract generator matrices and codes (`ConvCode`), then
analyze distances and bounds (`free_distance`, `griesmer_bound`).
"""

from .errors import SkewCyclicError
from .fields import (
    FieldElement,
    FieldSpec,
    Poly,
    factor_xn_minus_1,
    make_field,
    poly_gcd,
)
from .ring import RingContext, RingElement
from .automorphisms import (
    Automorphism,
    automorphism_count,
    enumerate_automorphisms,
    enumerate_automorphisms_bruteforce,
    find_automorphism_for_permutation,
    identity_automorphism,
    permutation_from_cycles,
)
from .skew import (
    SkewPoly,
    decompose_into_elementary,
    elementary_unit,
    elementary_unit_inverse,
    is_elementary_unit,
    simple_unit,
    skew_from_vector,
    unit_product,
    vector_from_skew,
)
from .convolutional import (
    ConvCode,
    PolyMatrix,
    generator_matrix,
    membership,
    strong_equivalence,
)
from .builder import (
    MinimalCodeRecipe,
    build_minimal_code,
    build_unit_for_profile,
    default_scalars,
    degree_profile_feasible,
    direct_complement,
    idempotent_generator,
    orthogonal_sum,
)
from .distance import (
    DistanceReport,
    free_distance,
    free_distance_bruteforce,
    griesmer_bound,
    singleton_bound,
    weight,
)

__version__ = "0.1.0"
