"""Numerics for two-dimensional almost-Riemannian structures.

Metric calculus and curve length for Grushin-type frames, geodesic flow
and fronts, gauge-flattened mode spectra with self-adjointness
classification, regularized heat and Schrodinger evolution across the
singular line, and the Martinet mode decomposition.
"""

__version__ = "0.1.0"

from .errors import (
    ArslabError,
    BadGrid,
    ConvergenceFailure,
    FitIllConditioned,
    Inconclusive,
    NotAdmissible,
    OutOfRange,
    SingularPoint,
    SolverDiverged,
    StepSizeTooLarge,
    UnsupportedFrame,
)
from .frames import (
    FrameSpec,
    MetricData,
    Point,
    ScalarField,
    curve_length,
    divergence,
    frame_from_config,
    frame_vectors,
    gaussian_bump,
    gradient,
    laplace_beltrami_coeffs,
    metric_at,
    polynomial_field,
    scalar_zero,
)
from .geodesics import (
    CotangentState,
    Front,
    Trajectory,
    crossing_report,
    front,
    geodesic_flow,
    grushin_geodesic_origin,
    grushin_geodesic_riemannian,
    hamiltonian,
)
from .spectral import (
    GaugePotential,
    ModeOperator,
    SelfAdjointnessReport,
    SpectrumLine,
    assemble_mode_operator,
    classify_self_adjoint,
    deficiency_index_numeric,
    eigen_solve,
    gauge_transform,
    inverse_square_coefficient,
    richardson_extrapolate,
    spectrum_2d,
)
from .evolution import (
    EvolutionState,
    Generator,
    TransmissionReport,
    WeightedGrid,
    assemble_generator,
    eps_sweep,
    gaussian_bump_state,
    run_heat,
    run_schrodinger,
    step_heat,
    step_schrodinger,
    transmission_study,
    transmission_verdict,
    transmitted_fraction,
)
from .martinet import (
    MartinetCoeffs,
    MartinetModeResult,
    martinet_laplacian_coeffs,
    martinet_mode_solve,
    mode_potential,
    popp_density,
)
