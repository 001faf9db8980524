"""Toolkit for bodies given as intersections of equal-radius balls.

Provides closed-form gauges with derivatives, certificates for
the equivalent characterizations of strong convexity, metric projections
(exact nearest points by active-set enumeration, and a 2-Lipschitz
boundary projection on a domain read off the body), a
convexity-preserving smoothing pipeline producing inscribed C^2 bodies,
and boundary-measure bookkeeping for the symmetric difference the
pipeline controls.
"""

from .bodies import (
    Ball,
    BallBody,
    HalfspaceBody,
    body_from_json,
    body_to_json,
    contains,
    diameter,
    normal_lift,
    outward_normal,
    support_value,
)
from .certify import (
    CertificateReport,
    PatchParams,
    ball_family_check,
    ball_support_check,
    cap_graph_height,
    cap_graph_hessian,
    cap_graph_hessian_check,
    certify_body,
    enclosing_radius,
    gauge_sq_hessian_check,
    halfspace_reconstruction_gap,
    level_set_radius,
    subgradient_certificate,
)
from .errors import (
    BracketFailure,
    ConvexSmoothError,
    DegenerateBall,
    DegenerateEpsilon,
    DomainViolation,
    GridMismatch,
    InsufficientData,
    InvalidBody,
    NonConvergence,
    NotBallBody,
    OutsideDomain,
    RayMiss,
    ShrinkDelta,
)
from .gauge import (
    GaugeEval,
    ball_gauge,
    ball_gauge_derivatives,
    body_gauge_values,
    gauge_lipschitz_bound,
    member_gauge_derivatives,
    member_gauges,
)
from .measure import (
    BoundaryMesh,
    boundary_mesh,
    direction_grid,
    hausdorff_measure,
    off_text,
    polyline_json,
    radial_function,
    symmetric_difference_breakdown,
    symmetric_difference_measure,
)
from .project import (
    boundary_projection,
    boundary_surjectivity_probe,
    project_ball,
    project_body,
)
from .smooth import (
    BlendedGauge,
    SmoothedBody,
    blended_gauge_sq,
    blended_values,
    extract_smoothed_body,
)

__version__ = "0.1.0"
