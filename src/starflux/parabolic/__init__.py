"""Viscous solvers: implicit marching and the closed-form resolvent."""

from .evolve import (
    ParabolicTrajectory,
    SolverConfig,
    march_to_steady,
    solve_parabolic,
)
from .resolvent import (
    ResolventProblem,
    resolvent_forcing_field,
    solve_resolvent,
)
