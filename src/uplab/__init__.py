"""uplab: every finite, checkable object around cyclic codes and their
finite-field Fourier transforms, at desk scale.

Submodules: gf (fields), polyring (polynomials and x^n - 1), cyclic (codes,
distance, the min(d + dim) invariant), mstransform (evaluation transforms and
the weight-product inequality), ramsey (progression-free extremal searches),
asymptotics (closed-form evaluators), cli (the command-line surface).
"""

__version__ = "0.1.0"

from .gf import (DomainError, FFElem, FieldCtx, InternalError, PrimePower,
                 factorize, field_ctx, is_prime, is_primitive, mult_order,
                 nth_root_of_unity, ord_mod, splitting_ctx)
from .polyring import (CosetPartition, FPoly, canonical_m1, cyclotomic_cosets,
                       factor_xn_minus_1, is_irreducible, poly_gcd,
                       poly_to_word, word_to_poly, xn_minus_1)
from .cyclic import (DEFAULT_BUDGET, CyclicCode, DistanceResult, MuRecord,
                     bch_bound, enumerate_codes, ht_bound, min_distance, mu,
                     strong_up_witness)
from .mstransform import (MSVector, ms_forward, ms_inverse, naive_up_check,
                          naive_up_scan, transform_weight)
from .ramsey import (RamseyResult, ap_scan_bound, contains_ap,
                     prop_ram_grid_lower, prop_ram_lower, szemeredi_grid,
                     szemeredi_r)
from .asymptotics import (ball_volume_upper, construction_demo, entropy,
                          eventual_trend, f_alpha, f_alpha_sweep, f_delta,
                          lambda_n_bound, plotkin_lambda_cap, weak_up_scan)

__all__ = [
    "DomainError", "InternalError", "PrimePower", "FieldCtx", "FFElem",
    "field_ctx", "splitting_ctx", "nth_root_of_unity", "mult_order",
    "ord_mod", "is_primitive", "is_prime", "factorize",
    "FPoly", "CosetPartition", "cyclotomic_cosets", "factor_xn_minus_1", "canonical_m1",
    "is_irreducible", "poly_gcd", "word_to_poly", "poly_to_word", "xn_minus_1",
    "CyclicCode", "DistanceResult", "MuRecord", "enumerate_codes",
    "bch_bound", "ht_bound", "min_distance", "mu", "strong_up_witness",
    "DEFAULT_BUDGET",
    "MSVector", "ms_forward", "ms_inverse", "naive_up_check", "naive_up_scan",
    "transform_weight",
    "RamseyResult", "contains_ap", "szemeredi_r", "szemeredi_grid",
    "ap_scan_bound", "prop_ram_lower", "prop_ram_grid_lower",
    "entropy", "f_delta", "plotkin_lambda_cap", "weak_up_scan",
    "ball_volume_upper", "lambda_n_bound", "f_alpha", "f_alpha_sweep",
    "eventual_trend", "construction_demo",
    "__version__",
]
