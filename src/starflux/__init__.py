"""Transport on star-shaped networks.

Core objects: a StarNetwork of incoming/outgoing arcs, a symmetric
coupling matrix for the junction exchange, the transmission weights that
survive the vanishing-viscosity limit, viscous and inviscid solvers, and
constructions for well-prepared initial data and coupling design.
"""

from .errors import (
    AssumptionViolated,
    ConfigError,
    DimensionMismatch,
    EmptySide,
    InfeasibleTheta,
    InvalidGamma,
    LinearSolveFailure,
    NoConvergence,
    NonPositiveParameter,
    NumericalError,
    SingularMatrix,
    StarfluxError,
    UnstableConfig,
    ValidationError,
    WidthOverflow,
)
from .network import (
    AlphaMatrix,
    Arc,
    AssumptionReport,
    CouplingMatrix,
    Orientation,
    StarNetwork,
    alpha_from_k,
    build_network,
    validate_assumptions,
)
from .transmission import (
    MCertificate,
    QMatrix,
    TransmissionSystem,
    assemble_q,
    certify_m_matrix,
    check_irreducible,
    compute_gamma,
    connected_components,
    hyperbolic_node_traces,
)
from .design import (
    ProportionalTarget,
    TwoOutTarget,
    design_proportional,
    design_two_outgoing,
    proportional_gamma_matrix,
    roundtrip_error,
    two_out_gamma_matrix,
)
from .grids import (
    DiscreteState,
    Grid,
    discrete_l1_norm,
    make_grid,
    new_state,
    sample_on_grid,
)
from .hyperbolic import (
    ArcProfile,
    HyperbolicSolution,
    PiecewiseConstantField,
    TraceSignal,
    check_flux_conservation,
    incoming_trace,
    l1_distance,
    solve_exact,
)
from .dataprep import (
    DEFAULT_THETA,
    CompatibleData,
    PiecewisePoly,
    PolynomialPiece,
    build_compatible,
    fit_boundary_quadratic,
    fit_node_polynomial,
    l1_distance_to_profile,
    smooth_bv,
)
from .parabolic import (
    ContractionReport,
    ParabolicTrajectory,
    ResidualReport,
    ResolventProblem,
    ResolventSolution,
    SolverConfig,
    StepOperator,
    assemble_step_operator,
    compatibility_residual,
    default_dt,
    discrete_l1_contraction_probe,
    flux_residual,
    l1_error_against_state,
    march_to_steady,
    project_node_values,
    resolvent_forcing_field,
    solve_parabolic,
    solve_resolvent,
    step,
)
from .configio import (
    ExperimentConfig,
    load_design_target,
    load_experiment,
    load_initial_data,
    load_network,
)
from .harness import (
    ApproxRow,
    ConvergenceReport,
    ConvergenceRow,
    ExperimentSpec,
    load_experiment_spec,
    node_trace_error,
    run_approx,
    run_convergence,
    run_parabolic_simulation,
    sample_hyperbolic,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
