"""Computational geometry of unit spheres in finite-dimensional normed spaces.

Norm gauges on R^2 and R^3, the metric structure of their unit spheres
(distance-2 arcs, stars, flat points, bisectors), coordinate charts and
linearity tests for sphere maps, the modulus of convexity, a chord-based
curvature of curves measured with a norm, and a numeric isometry search
between spheres.
"""

from ._version import __version__
from .config import DEFAULT_TOLS, Tolerances
from .norms import (EuclideanNorm, HexagonalNorm, LensNorm, Norm, PNorm,
                    PolygonNorm, RadialGaugeNorm, RevolutionNorm, SpherePoint,
                    builtin_norm, diamond_norm, hexagonal_norm, norm_from_json,
                    radial_point, sphere_point, square_norm, validate_norm)
from .sphere import (ArcSet, BisectorPair, SphereSegment, arc_hausdorff,
                     arcset, bisector_points, diametral_set,
                     is_flat, is_isosceles_orthogonal, maximal_segments,
                     self_circumference, sphere_distance, star)
from .charts import (ConeDistanceCheck, CoordinateChart, InjectivityResult,
                     LinearityReport, SphereMapSample, antipodality_defect,
                     arc_distinguishes, base_leftmost_crossing,
                     cone_distance_check, cone_reconstruct_abscissa,
                     four_distance_injectivity, linearity_defect, make_chart,
                     sample_sphere_map, top_face_half_width)
from .convexity import (ModulusCurve, is_strictly_convex, modulus_curve,
                        modulus_of_convexity)
from .curvature import (DEFAULT_DELTAS, ClosedCurve, CurvatureEstimate,
                        TwoPointConditionError, circle_curve, corner_ratio,
                        ellipse_curve, normed_curvature, sphere_curve)
from .isometry import (Alignment, ChordFingerprint, IsometryGroupSummary,
                       align, alignment_map_sample, fingerprint,
                       isometric_lift, isometry_group, lift_affine_defect,
                       lift_distance_defect, lift_target_norm)
from .verify import ClaimResult, VerificationReport, run_reference_checks

__all__ = [name for name in dir() if not name.startswith("_")]
