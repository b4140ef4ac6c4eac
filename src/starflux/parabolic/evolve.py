"""Time marching: viscous evolution and steady-state resolution.

solve_parabolic integrates the viscous problem to a horizon with
per-step diagnostics; march_to_steady solves the steady resolvent
equation, which is one implicit step of length theta. States carry no
time: a march's times are its diagnostics' first column, and the last
row's is the horizon up to the rounding of adding dt once a step.

solve_parabolic calls step, discrete_l1_norm, flux_residual and
assemble_step_operator through this module's names, each time it runs
them: perfbench's probe and tracer wrap them here (and read
StepOperator.matrix), so bypassing one changes what they time.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import DimensionMismatch, LinearSolveFailure, finite_above, finite_values
from ..grids import (
    DEFAULT_H_RULE,
    MIN_H_RULE,
    DiscreteState,
    Grid,
    adopt_state,
    average_on_grid,
    discrete_l1_norm,
    make_grid,
    march_l1_and_min,
    sample_on_grid,
    to_grid_order,
    to_march_order,
)
from ..hyperbolic import PiecewiseConstantField, check_profile_lengths
from ..network import CouplingMatrix, StarNetwork
from .resolvent import ResolventProblem
from .scheme import StepOperator, assemble_step_operator, flux_residual, step

#: sampled initial data may violate the discrete node conditions by this
#: much before a warning is issued
COMPATIBILITY_WARN_TOL = 1e-8

#: what both marches raise when a step leaves inf or NaN behind
NON_FINITE_STEP = "implicit solve produced non-finite values"

#: largest march solve_parabolic starts, in grid points times steps. The
#: finest junction_sweep level marches 8.2e7 in about a second on 2
#: cores; this allows some 120 times that, a couple of minutes, and
#: refuses the 4e12 of a grid clipped to MAX_CELLS cells per arc
MAX_MARCH_WORK = 10**10


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
        finite_above(self.h_rule, "h_rule", MIN_H_RULE, inclusive=True)


@dataclass(frozen=True)
class ParabolicTrajectory:
    """March output: the marched endpoints and per-step diagnostics.

    initial is the state the march started from: the data after the
    inflow values were imposed and the junction values projected, so
    it records that repair. final is the state at the horizon, time
    diagnostics[-1, 0]. Both carry the march's grid, h = epsilon/h_rule
    (final.grid). diagnostics rows are (t, l1_norm, min_value,
    flux_residual), one for the initial state and one after every step.
    node_history row k gives each arc's junction-end value at diagnostics
    time k, so the junction trace survives although intermediate states
    are dropped. node_defect is the largest node-row defect of the data
    before the projection, the number the warning beyond
    COMPATIBILITY_WARN_TOL reports.
    """

    initial: DiscreteState
    final: DiscreteState
    diagnostics: np.ndarray
    node_history: np.ndarray
    operator: StepOperator
    node_defect: float


def solve_parabolic(
    net: StarNetwork,
    K: CouplingMatrix,
    u0_eps: "PiecewiseConstantField | Sequence",
    B: Sequence[float],
    cfg: SolverConfig,
) -> ParabolicTrajectory:
    """March the viscous problem from u0_eps to time T.

    The grid follows cfg's rule h = epsilon/h_rule. The initial data, a
    PiecewiseConstantField or one profile per arc, is sampled at the grid
    points. A march of more than MAX_MARCH_WORK grid points times steps
    raises DimensionMismatch before anything is assembled. Its defect
    against the discrete node conditions is measured and warned about
    beyond COMPATIBILITY_WARN_TOL; the junction values are then
    projected so the algebraic node rows hold from step zero.

    A step that leaves a non-finite value raises LinearSolveFailure,
    found through the diagnostics about to be recorded: a NaN or -inf
    makes the minimum non-finite and a +inf the L1 norm. An L1 norm that
    overflows on finite values counts as well, and raises the same error
    without numpy's overflow warning. So does finite data too large to
    start from: a projection or start L1 norm that overflows raises
    LinearSolveFailure, with no warning either.
    """
    grid = make_grid(net, epsilon=cfg.epsilon, rule_constant=cfg.h_rule)
    bvals = finite_values(B, net.m)

    # transport-scale step (smallest spacing over twice the top speed)
    # unless cfg sets one, snapped so the march lands on the horizon
    dt0 = cfg.dt
    if dt0 is None:
        dt0 = min(grid.spacings) / (2.0 * float(np.max(net.speeds())))
    # checked as a float: a subnormal dt makes the count inf
    steps = float(np.ceil(cfg.T / dt0 - 1e-12))
    if grid.offsets[-1] * steps > MAX_MARCH_WORK:
        raise DimensionMismatch(
            f"the march would take {grid.offsets[-1]} grid points times {steps:.3g} "
            f"steps, more than MAX_MARCH_WORK = {MAX_MARCH_WORK:.0e}"
        )
    n_steps = max(1, int(steps))
    op = assemble_step_operator(net, K, grid, cfg.epsilon, cfg.T / n_steps)
    stencil = op.lu.stencil

    # the march runs on one vector in the step's march order, gathered
    # here once; inflow Dirichlet values override whatever the data
    # carries there
    profiles = u0_eps.arcs if isinstance(u0_eps, PiecewiseConstantField) else list(u0_eps)
    check_profile_lengths(profiles, net, "initial profiles")
    x, t = to_march_order(sample_on_grid(profiles, grid).flat), 0.0
    inflow = list(net.incoming_ids)
    x[op.lu.outer[inflow]] = bvals[inflow]
    node, inner = stencil.node, stencil.inner
    # one errstate for the start and the whole loop: a sum or product that
    # overflows on finite values reads inf or NaN, quietly, and fails the
    # projection's check or a row's check below
    with np.errstate(over="ignore", invalid="ignore"):
        defect = float(np.max(np.abs(stencil.defect(x))))
        if defect > COMPATIBILITY_WARN_TOL:
            warnings.warn(
                f"initial data violates the discrete node conditions by "
                f"{defect:.3e}",
                UserWarning,
            )
        stencil.project(x)
        initial = adopt_state(grid, to_grid_order(x))

        # the first row reads the grid-order start state, every later one the vector
        l1, lowest = discrete_l1_norm(initial), initial.min_value()
        if not l1 < math.inf:
            raise LinearSolveFailure("start state has a non-finite L1 norm")
        diag_rows = [(t, l1, lowest, flux_residual(x, op))]
        node_rows = [x[node]]
        for _ in range(n_steps):
            step(x, op)
            t += op.dt
            l1, lowest = march_l1_and_min(x, grid)
            # the minimum is NaN or -inf and the L1 norm +inf or NaN on any such value
            if not (lowest > -math.inf and l1 < math.inf):
                raise LinearSolveFailure(NON_FINITE_STEP)
            u = x[node]
            diag_rows.append((t, l1, lowest, stencil.residual(u, x[inner])))
            node_rows.append(u)

    return ParabolicTrajectory(
        initial=initial,
        final=adopt_state(grid, to_grid_order(x)),
        diagnostics=np.asarray(diag_rows),
        node_history=np.asarray(node_rows),
        operator=op,
        node_defect=defect,
    )


def march_to_steady(
    net: StarNetwork,
    K: CouplingMatrix,
    grid: Grid,
    epsilon: float,
    prob: ResolventProblem,
) -> DiscreteState:
    """Discrete steady state of the problem solve_resolvent solves in
    closed form.

    The steady state satisfies u - theta*(eps*u'' - speed*u') = f in the
    discrete sense, with Dirichlet values prob.boundary at the outer ends
    and the viscous node coupling at the junction. That is one implicit
    step of length theta started from f's average over each grid
    point's cell [x - h/2, x + h/2], cut at the arc's ends: its interior
    rows read (u - f)/theta = eps*u'' - speed*u', its outer rows keep
    the boundary values, and its node rows ignore the start state.
    Averaging, not sampling, keeps a forcing break inside a cell from
    adding an O(h) error that depends on where in the cell it falls.
    A non-finite result raises LinearSolveFailure.
    """
    finite_above(epsilon, "epsilon")
    prob.check(net)
    op = assemble_step_operator(net, K, grid, epsilon, prob.theta)
    x = to_march_order(average_on_grid(prob.f.arcs, grid).flat)
    x[op.lu.outer] = prob.boundary
    step(x, op)
    if not np.isfinite(x).all():
        raise LinearSolveFailure(NON_FINITE_STEP)
    return adopt_state(grid, to_grid_order(x))
