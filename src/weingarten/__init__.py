"""Rotationally symmetric Weingarten surfaces.

Construction from curvature relations, the fractional-linear action on
curvature space, semi-quadratic classification, and variational
verification, all at desk scale with declared tolerances.
"""

from .geometry import (
    GaussAngle,
    ProfileCurve3D,
    RoCProfile,
    SupportProfile,
    cm_residual,
    curvatures_from_support,
    embed_profile,
    integrated_cm_check,
    support_from_r1,
)
from .integrate import StepControl, hopf_closed_form, integrate_cm
from .relations import (
    CubicRoC,
    ExplicitF,
    LinearHopf,
    PureKLinear,
    SemiQuadratic,
    WeingartenRelation,
    eval_F,
    eval_F_prime,
    fixed_points,
    parse_relation,
    render_relation,
)
from .umbilic import (
    UmbilicAnalysis,
    slope_restriction_profile,
    slope_theorem_check,
    umbilic_slope_estimate,
    vanishing_rate_estimate,
)
from .mobius import (
    Calibration,
    Homothety,
    MoebiusElement,
    ParallelTranslation,
    Reciprocal,
    ads_invariants,
    apply_curvature,
    apply_factors,
    apply_roc,
    compose_factors,
    decompose,
    induced_surface,
    reciprocal_transform_closed,
    reparameterize,
    transform_relation,
    verify_transform_properties,
)
from .semiquadratic import (
    SemiQuadraticInvariants,
    canal_classify,
    classification_report,
    invariants,
    normalize,
    reduce_to_pure_linear,
    transitivity_solve,
    umbilic_curvatures,
    umbilic_slope_formula,
)
from .variational import (
    CubicL1Spec,
    GeneralSpec,
    HopfL1Spec,
    L0Spec,
    Multiplier,
    VariationalState,
    euler_lagrange_residual,
    first_integral_I,
    first_integral_Q,
    general_lagrangian,
    helmholtz_residual,
    jlm_ratio_check,
    lagrangian_eval,
    phi0,
    second_variation,
    sine_perturbation_basis,
)
from .meshing import export_obj, mesh_stats, revolve_profile
from .profile_io import ProfileBundle, read_profile_csv, write_profile_csv

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
