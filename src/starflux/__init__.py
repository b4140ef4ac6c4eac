"""Transport on star-shaped networks.

Core objects: a StarNetwork of incoming/outgoing arcs, a symmetric
coupling matrix for the junction exchange, the transmission weights that
survive the vanishing-viscosity limit, viscous and inviscid solvers, and
constructions for well-prepared initial data and coupling design.

This namespace holds the API that README.md and the demos use, plus the
error classes. Everything else is reached through its module, for
example starflux.parabolic.scheme.step.
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
    CouplingMatrix,
    alpha_from_k,
    build_network,
    validate_assumptions,
)
from .transmission import assemble_q, certify_m_matrix, compute_gamma
from .design import (
    ProportionalTarget,
    TwoOutTarget,
    design_proportional,
    design_two_outgoing,
    proportional_gamma_matrix,
    roundtrip_error,
    two_out_gamma_matrix,
)
from .grids import DiscreteState, Grid, discrete_l1_norm, make_grid, new_state
from .hyperbolic import (
    ArcProfile,
    PiecewiseConstantField,
    check_flux_conservation,
    l1_distance,
    solve_exact,
)
from .dataprep import build_compatible
from .parabolic import (
    ResolventProblem,
    SolverConfig,
    march_to_steady,
    resolvent_forcing_field,
    solve_parabolic,
    solve_resolvent,
)
from .harness import ExperimentSpec, run_convergence

__version__ = "0.1.0"
