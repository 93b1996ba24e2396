"""Spectral geometry of rotationally symmetric ends.

Numerical toolkit for warped-product metrics g = dr^2 + f^2(r) g_{S^{n-1}}:
curvature and comparison machinery, separation into half-line Schrodinger
channels, detection of eigenvalues embedded in the essential spectrum via
slowly decaying oscillatory tails, a glued ball+bridge+tail construction
carrying an explicit embedded eigenfunction, the surface growth functional
with its decay-hypothesis dichotomy, and quadrature-verified radial integral
identities.

Importing warpspec loads numpy alone.  Each scipy submodule is imported by
the function that uses it, the first time it runs:

- scipy.special: disk_eigenfunction (gamma, jv) alone;
- scipy.optimize: disk_eigenfunction (brentq for the Bessel zero) and
  build_construction (lsq_linear for the connector);
- scipy.interpolate: profile_from_shape when no triple is given, and the
  glued construction (the bridge's B-splines, its log f and the tail's psi).

The absence side needs numpy alone: the growth functional, the identity
suite, the curvature fields and the reference end, whose log f reads a
numpy sine integral.  So do the Gauss-Legendre rules (numpy's leggauss)
and the half-line solver on closed-form channels (synthetic_channel,
decaying_solution, reversibility_check, scan_channels).  scipy.integrate is
used nowhere.
"""

from .channel_reduction import (
    ChannelPotential,
    channel_potential,
    decade_window,
    inverse_liouville,
    predicted_k_eff,
    predicted_phase_constant,
    require_oscillatory,
    resonance_coupling_threshold,
    resonance_energy,
    sphere_multiplicity,
)
from .cli import (
    RunConfig,
    config_from_json,
    config_to_json,
    emit_plot_data,
    main,
    profile_from_json,
    profile_to_json,
)
from .embedded_construction import (
    Connector,
    DiskEigenfunction,
    GluedConstruction,
    build_construction,
    disk_eigenfunction,
    junction_candidates,
    reference_profile,
    scale_construction,
    verify_construction,
)
from .errors import (
    ComparisonFailureError,
    ConfigError,
    ConnectorFailureError,
    CouplingTooWeakError,
    DetectorRefusalError,
    HypothesisViolatedError,
    InsufficientDataError,
    InvalidProfileError,
    NoDecayingSolutionError,
    NonOscillatoryError,
    OutsideRegimeError,
    ResolutionError,
    SingularOriginError,
    TwoRunMismatchError,
    WarpspecError,
)
from .growth_and_identities import (
    GrowthSeries,
    GrowthThresholds,
    GrowthVerdict,
    IdentityCheck,
    IdentityData,
    RadialSolution,
    SmoothFn,
    check_growth_dichotomy,
    check_parts_identities,
    conjugation_energy_constant,
    conjugation_energy_margin,
    eigenfunction_growth_series,
    final_decade_report,
    gauge_potential,
    gaussian_fn,
    growth_series,
    growth_thresholds,
    poly_fn,
    power_decay_profile,
    radial_solution_from_w,
    sine_fn,
    slow_log_decay_profile,
    solve_radial,
    standard_identity_data,
    verify_growth_theorem,
)
from .halfline_solver import (
    ChannelScanReport,
    DecayFit,
    EigenDetection,
    ShootingResult,
    decaying_solution,
    detect_embedded_eigenvalue,
    energy_grid,
    fired_detections,
    fit_power_decay,
    frobenius_init,
    reversibility_check,
    scan_channels,
    synthetic_channel,
)
from .warp_geometry import (
    ComparisonReport,
    CurvatureField,
    RiccatiBound,
    ShapeFns,
    WarpProfile,
    bochner_residual,
    curvature_of_profile,
    cusp_profile,
    euclidean_profile,
    fd_derivative,
    hessian_comparison_check,
    hyperbolic_profile,
    profile_from_shape,
    radial_curvature,
    solve_riccati_bound,
    sphere_area,
    uniform_grid,
)

__version__ = "0.1.0"
