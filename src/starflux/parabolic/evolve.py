"""Time marching: viscous evolution and steady-state resolution.

solve_parabolic integrates the viscous problem to a horizon with
per-step diagnostics; march_to_steady solves the steady resolvent
equation, which is one implicit step of length theta.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import DimensionMismatch, finite_above, finite_values
from ..grids import (
    DEFAULT_H_RULE,
    DiscreteState,
    Grid,
    adopt_state,
    discrete_l1_norm,
    make_grid,
    sample_on_grid,
)
from ..hyperbolic import PiecewiseConstantField
from ..network import CouplingMatrix, StarNetwork
from .scheme import (
    StepOperator,
    assemble_step_operator,
    compatibility_residual,
    flux_residual,
    project_node_values,
    step,
)

#: sampled initial data may violate the discrete node conditions by this
#: much before a warning is issued
COMPATIBILITY_WARN_TOL = 1e-8


@dataclass(frozen=True)
class SolverConfig:
    """Viscosity, step size, horizon, and the grid rule h = epsilon/h_rule.

    solve_parabolic snaps dt to the horizon; without one it starts from
    the transport-scale step.
    """

    epsilon: float
    T: float
    dt: float | None = None
    h_rule: float = DEFAULT_H_RULE

    def __post_init__(self) -> None:
        finite_above(self.epsilon, "epsilon")
        finite_above(self.T, "T")
        if self.dt is not None:
            finite_above(self.dt, "dt")
        finite_above(self.h_rule, "h_rule", 4.0, inclusive=True)


@dataclass(frozen=True)
class ParabolicTrajectory:
    """March output: the marched endpoints and per-step diagnostics.

    initial is the state the march started from: the data after the
    inflow values were imposed and the junction values projected, so
    it records that repair. final is the state at the horizon.
    diagnostics rows are (t, l1_norm, min_value, flux_residual), one for
    the initial state and one after every step. node_history row k
    gives each arc's junction-end value at diagnostics time k, so the
    junction trace survives although intermediate states are dropped.
    """

    initial: DiscreteState
    final: DiscreteState
    diagnostics: np.ndarray
    node_history: np.ndarray
    grid: Grid
    operator: StepOperator


def _initial_state(
    u0_eps: "DiscreteState | PiecewiseConstantField | Sequence",
    op: StepOperator,
    net: StarNetwork,
    B: np.ndarray,
) -> DiscreteState:
    grid = op.grid
    if isinstance(u0_eps, DiscreteState):
        state = u0_eps
    elif isinstance(u0_eps, PiecewiseConstantField):
        state = sample_on_grid(u0_eps.arcs, grid)
        # sampling checked the count; a short profile would have been
        # extended by its last piece
        u0_eps.check_lengths(net, "initial profiles")
    else:
        state = sample_on_grid(list(u0_eps), grid)
    if state.bounds != grid.offsets:
        raise DimensionMismatch("initial state does not match the grid")
    # inflow Dirichlet values override whatever the data carries there
    inflow = list(net.incoming_ids)
    flat = state.flat.copy()
    flat[op.outer[inflow]] = B[inflow]
    return adopt_state(grid, flat, state.t)


def solve_parabolic(
    net: StarNetwork,
    K: CouplingMatrix,
    u0_eps: "DiscreteState | PiecewiseConstantField | Sequence",
    B: Sequence[float],
    cfg: SolverConfig,
) -> ParabolicTrajectory:
    """March the viscous problem from u0_eps to time T.

    The grid follows cfg's rule h = epsilon/h_rule. The initial data may
    be a state on that grid or anything samplable per arc. Its defect
    against the discrete node conditions is measured and warned about
    beyond COMPATIBILITY_WARN_TOL; the junction values are then
    projected so the algebraic node rows hold from step zero.
    """
    grid = make_grid(net, epsilon=cfg.epsilon, rule_constant=cfg.h_rule)
    bvals = finite_values(B, net.m)

    # transport-scale step (smallest spacing over twice the top speed)
    # unless cfg sets one, snapped so the march lands on the horizon
    dt0 = cfg.dt
    if dt0 is None:
        dt0 = min(grid.spacings) / (2.0 * float(np.max(net.speeds())))
    n_steps = max(1, int(np.ceil(cfg.T / dt0 - 1e-12)))
    op = assemble_step_operator(net, K, grid, cfg.epsilon, cfg.T / n_steps)
    state = _initial_state(u0_eps, op, net, bvals)

    defect = compatibility_residual(state, op)
    if defect > COMPATIBILITY_WARN_TOL:
        warnings.warn(
            f"initial data violates the discrete node conditions by "
            f"{defect:.3e}",
            UserWarning,
        )
    state = initial = project_node_values(state, op)

    node = op.stencil.node
    diag_rows = [
        (state.t, discrete_l1_norm(state, grid), state.min_value(), flux_residual(state, op))
    ]
    node_rows = [state.flat[node]]
    for _ in range(n_steps):
        state = step(state, op)
        diag_rows.append(
            (
                state.t,
                discrete_l1_norm(state, grid),
                state.min_value(),
                flux_residual(state, op),
            )
        )
        node_rows.append(state.flat[node])

    return ParabolicTrajectory(
        initial=initial,
        final=state,
        diagnostics=np.asarray(diag_rows),
        node_history=np.asarray(node_rows),
        grid=grid,
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
) -> DiscreteState:
    """Discrete steady resolvent state, at time theta.

    The steady state satisfies u - theta*(eps*u'' - speed*u') = f in the
    discrete sense, with Dirichlet values ``boundary`` at the outer ends
    and the viscous node coupling at the junction. That is one implicit
    step of length theta started from f sampled on the grid: its
    interior rows read (u - f)/theta = eps*u'' - speed*u', its outer
    rows keep ``boundary``, and its node rows ignore the start state.
    """
    theta = finite_above(theta, "theta")
    bvals = finite_values(boundary, net.m)
    finite_above(epsilon, "epsilon")
    op = assemble_step_operator(net, K, grid, epsilon, theta)
    flat = sample_on_grid(f.arcs, grid).flat.copy()
    f.check_lengths(net, "forcing profiles")
    flat[op.outer] = bvals
    return step(adopt_state(grid, flat, 0.0), op)
