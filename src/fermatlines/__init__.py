"""Exact character sums, Fermat-surface line intersections, and explicit
points on y^2 + x*y - t^d*y = x^3 over F_{q^2}(t), with d = q + 1.

Everything is integer/table arithmetic: no floating point, no tolerances.
Character sums land in the cyclotomic ring Z[zeta_d] and are compared
exactly; Neron-Severi inner products are exact rationals computed by two
independent routes; a full-rank generation certificate records, for every
character orbit, a witness c whose exact sum S_c differs from 2q.
"""

from .charsum import (
    ExponentTuple,
    SumRecord,
    admissible_values,
    is_admissible,
    iter_all_nonzero_tuples,
    mod3_test,
    orbit,
    quadratic_identity_check,
    sum_S,
    sum_over_c,
    survey_N,
)
from .efield import (
    CurvePoint,
    construct_point,
    curve_add,
    curve_neg,
    line_components,
    mu_d_translate,
    point_from_components,
)
from .fermat import (
    IntersectionSet,
    Line,
    TorusElt,
    build_intersections,
    charsum_numerator,
    direct_numerator,
    geometric_intersection_oracle,
    inner_product_direct,
    inner_product_via_charsum,
    line_for_thm1,
    lines_for_c,
    w_tuples,
)
from .poly import Poly, RatFunc
from .cyc import (
    CycElt,
    accumulate,
    cyclotomic_poly,
    equals_integer,
    galois_apply,
    is_real,
    mod_ideal_class,
)
from .gf import (
    ContradictionError,
    FieldCtx,
    FqElem,
    NonRationalError,
    chi_exp,
    find_ab_pairs,
    frobenius,
    in_mu_d,
    make_field,
    prime_power,
    primitive_root_of_unity,
)
from .certify import (
    FULL_RANK_CERTIFIED,
    NOT_CERTIFIED,
    Certificate,
    CoverageEntry,
    certify,
    certify_general,
    expected_rank,
    galois_orbits,
)

__version__ = "0.1.0"
