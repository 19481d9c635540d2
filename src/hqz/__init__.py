"""Harmonic quasiregular mapping toolkit.

Constructs planar harmonic maps f = g + conj(h) with controlled
dilatation and affine families on the unit ball, evaluates the circle and
sphere functionals (the mean of |f|, entropy, the Zygmund log-plus mean,
Poisson extension, radial square function), checks the Green-representation
identities, and verifies the sharp and non-sharp Zygmund-type bounds with
explicit margins.
"""

from .ball import (AffineBallMap, RatioRow, X_of, Y_of, axial_mean,
                   ball_green_calibration, ball_green_identity_n3,
                   laplacian_abs_affine, phi_of_m, ratio_limit_scan)
from .errors import (ConfigError, DomainError, HqzError, HypothesisViolation,
                     NoConvergence)
from .functionals import (calderon_norms, calderon_ratio_estimate,
                          calderon_square, circle_mean_p, hardy_norm_estimate,
                          poisson_extend_circle, poisson_kernel)
from .gamma import C_n
from .laplacian import (LaplacianAuditResult, audit_laplacians,
                        disk_green_identity, laplacian_abs_f, laplacian_ulogu,
                        laplacian_ratio_sup, phi_scan_argmax)
from .planar import (DilatationReport, PlanarHarmonicMap, dilatation_sup,
                     dilatation_upper, jacobian, make_qr_map, map_from_json,
                     map_to_json, random_qr_map, random_qr_maps, strip_example)
from .quadrature import QuadratureSpec
from .series import DEGREE_CAP, ComplexSeries, random_series
from .theorems import (FuzzSummary, TheoremReport, fuzz_search, verify_T1,
                       verify_T2, verify_T3_affine)

__all__ = [
    "AffineBallMap", "C_n", "ComplexSeries", "ConfigError", "DEGREE_CAP",
    "DilatationReport", "DomainError", "FuzzSummary", "HqzError",
    "HypothesisViolation", "LaplacianAuditResult", "NoConvergence",
    "PlanarHarmonicMap", "QuadratureSpec", "RatioRow", "TheoremReport",
    "X_of", "Y_of", "audit_laplacians", "axial_mean",
    "ball_green_calibration", "ball_green_identity_n3", "calderon_norms",
    "calderon_ratio_estimate", "calderon_square", "circle_mean_p",
    "dilatation_sup", "dilatation_upper", "disk_green_identity",
    "fuzz_search", "hardy_norm_estimate", "jacobian", "laplacian_abs_affine",
    "laplacian_abs_f", "laplacian_ulogu", "laplacian_ratio_sup",
    "make_qr_map", "map_from_json", "map_to_json", "phi_of_m",
    "phi_scan_argmax", "poisson_extend_circle", "poisson_kernel",
    "random_qr_map", "random_qr_maps", "random_series", "ratio_limit_scan", "strip_example",
    "verify_T1", "verify_T2", "verify_T3_affine",
]
