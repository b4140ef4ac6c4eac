"""Viscous solvers: implicit marching and the closed-form resolvent."""

from .evolve import (
    COMPATIBILITY_WARN_TOL,
    ParabolicTrajectory,
    march_to_steady,
    solve_parabolic,
)
from .resolvent import (
    ResidualReport,
    ResolventProblem,
    ResolventSolution,
    l1_error_against_state,
    resolvent_forcing_field,
    solve_resolvent,
)
from .scheme import (
    SolverConfig,
    StepOperator,
    assemble_step_operator,
    compatibility_residual,
    default_dt,
    flux_residual,
    project_node_values,
    step,
)

__all__ = [name for name in dir() if not name.startswith("_")]
