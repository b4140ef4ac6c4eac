"""Time marching: viscous evolution and steady-state resolution.

solve_parabolic integrates the viscous problem to a horizon with
per-step diagnostics; march_to_steady drives a reaction-augmented
problem to its fixed point, which solves the steady resolvent equation
independently of the step size used to get there.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import NoConvergence, NonPositiveParameter
from ..grids import DiscreteState, Grid, discrete_l1_norm, make_grid, new_state, sample_on_grid
from ..hyperbolic import PiecewiseConstantField
from ..network import CouplingMatrix, StarNetwork
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

#: sampled initial data may violate the discrete node conditions by this
#: much before a warning is issued
COMPATIBILITY_WARN_TOL = 1e-8


@dataclass(frozen=True)
class ParabolicTrajectory:
    """March output: recorded states and per-step diagnostics.

    diagnostics rows are (t, l1_norm, min_value, flux_residual), one for
    the initial state and one after every step. states holds snapshots
    at the recording stride plus the final state. node_history row k
    gives each arc's junction-end value at diagnostics time k, so the
    junction trace survives even when intermediate states are dropped.
    """

    states: tuple[DiscreteState, ...]
    diagnostics: np.ndarray
    node_history: np.ndarray
    grid: Grid
    cfg: SolverConfig
    operator: StepOperator

    @property
    def final(self) -> DiscreteState:
        return self.states[-1]


def _initial_state(
    u0_eps: "DiscreteState | PiecewiseConstantField | Sequence",
    grid: Grid,
    net: StarNetwork,
    B: np.ndarray,
) -> DiscreteState:
    if isinstance(u0_eps, DiscreteState):
        state = u0_eps
    elif isinstance(u0_eps, PiecewiseConstantField):
        state = sample_on_grid(u0_eps.arcs, grid)
    else:
        state = sample_on_grid(list(u0_eps), grid)
    # inflow Dirichlet values override whatever the data carries there
    arrays = [v.copy() for v in state.values]
    for i in net.incoming_ids:
        arrays[i][0] = B[i]
    return new_state(grid, arrays, state.t)


def solve_parabolic(
    net: StarNetwork,
    K: CouplingMatrix,
    u0_eps: "DiscreteState | PiecewiseConstantField | Sequence",
    B: Sequence[float],
    cfg: SolverConfig,
    grid: Grid | None = None,
    record_every: int = 0,
) -> ParabolicTrajectory:
    """March the viscous problem from u0_eps to time T.

    The initial data may be a discrete state or anything samplable per
    arc. Its defect against the discrete node conditions is measured and
    warned about beyond COMPATIBILITY_WARN_TOL; the junction values are
    then projected so the algebraic node rows hold from step zero.
    record_every=k keeps every k-th state (0 keeps only the first and
    last).
    """
    if grid is None:
        grid = make_grid(net, epsilon=cfg.epsilon, rule_constant=cfg.h_rule)
    bvals = np.asarray(B, dtype=float)
    if bvals.shape != (net.m,):
        raise NonPositiveParameter(f"need {net.m} boundary values")

    # snap the step so the march lands exactly on the horizon
    dt0 = cfg.dt if cfg.dt is not None else default_dt(net, grid)
    n_steps = max(1, int(np.ceil(cfg.T / dt0 - 1e-12)))
    dt = cfg.T / n_steps
    op = assemble_step_operator(
        net, K, SolverConfig(cfg.epsilon, cfg.T, dt, cfg.h_rule), grid
    )
    state = _initial_state(u0_eps, grid, net, bvals)

    defect = compatibility_residual(state, op)
    if defect > COMPATIBILITY_WARN_TOL:
        warnings.warn(
            f"initial data violates the discrete node conditions by "
            f"{defect:.3e}",
            UserWarning,
        )
    state = project_node_values(state, op)

    node = op.stencil.node
    diag_rows = [
        (state.t, discrete_l1_norm(state, grid), state.min_value(), flux_residual(state, op))
    ]
    node_rows = [np.concatenate(state.values)[node]]
    recorded = [state]
    for n in range(1, n_steps + 1):
        state = step(state, op)
        diag_rows.append(
            (
                state.t,
                discrete_l1_norm(state, grid),
                state.min_value(),
                flux_residual(state, op),
            )
        )
        node_rows.append(np.concatenate(state.values)[node])
        if record_every and n % record_every == 0 and n < n_steps:
            recorded.append(state)
    recorded.append(state)

    return ParabolicTrajectory(
        states=tuple(recorded),
        diagnostics=np.asarray(diag_rows),
        node_history=np.asarray(node_rows),
        grid=grid,
        cfg=cfg,
        operator=op,
    )


def march_to_steady(
    net: StarNetwork,
    K: CouplingMatrix,
    grid: Grid,
    epsilon: float,
    theta: float,
    f: PiecewiseConstantField,
    boundary: Sequence[float],
    dt: float | None = None,
    tol: float = 1e-10,
    max_steps: int = 10000,
) -> DiscreteState:
    """Fixed point of the reaction-augmented march.

    The steady state satisfies u - theta*(eps*u'' - speed*u') = f in the
    discrete sense, with Dirichlet values ``boundary`` at the outer ends
    and the viscous node coupling at the junction. The step size only
    controls how fast the iteration contracts, not the answer; marching
    stops once the step-to-step change per unit time drops below tol.
    """
    if theta <= 0.0:
        raise NonPositiveParameter("theta must be positive")
    bvals = np.asarray(boundary, dtype=float)
    if bvals.shape != (net.m,):
        raise NonPositiveParameter(f"need {net.m} boundary values")
    dt = 10.0 * theta if dt is None else dt

    cfg = SolverConfig(epsilon=epsilon, T=dt, dt=dt)
    op = assemble_step_operator(
        net, K, cfg, grid, reaction=1.0 / theta, forcing=f, forcing_scale=1.0 / theta
    )

    arrays = []
    for i, arc in enumerate(net.arcs):
        vals = np.zeros(grid.cells[i] + 1)
        vals[0 if arc.incoming else -1] = bvals[i]
        arrays.append(vals)
    state = new_state(grid, arrays, 0.0)
    state = project_node_values(state, op)

    for _ in range(max_steps):
        nxt = step(state, op)
        gap = discrete_l1_norm(
            DiscreteState(
                tuple(a - b for a, b in zip(nxt.values, state.values)), nxt.t
            ),
            grid,
        )
        state = nxt
        if gap / dt <= tol:
            return state
    raise NoConvergence(
        f"steady march did not settle within {max_steps} steps"
    )


@dataclass(frozen=True)
class ContractionReport:
    """L1 norms along a trajectory and the worst step-to-step growth."""

    norms: np.ndarray
    max_growth: float
    nonexpansive_within: float

    def is_nonexpansive(self, slack: float = 1e-10) -> bool:
        return self.max_growth <= slack


def discrete_l1_contraction_probe(trajectory: ParabolicTrajectory) -> ContractionReport:
    """Check the L1 norm never grows along the recorded diagnostics.

    Uses the per-step diagnostic norms; max_growth is the largest
    increase between consecutive steps (negative when strictly
    decreasing throughout).
    """
    norms = trajectory.diagnostics[:, 1]
    diffs = np.diff(norms)
    max_growth = float(np.max(diffs, initial=-np.inf))
    return ContractionReport(
        norms=norms,
        max_growth=max_growth,
        nonexpansive_within=max(0.0, max_growth),
    )
