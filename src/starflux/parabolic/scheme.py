"""Implicit viscous step operator with algebraic node coupling.

One backward-Euler step solves a sparse linear system whose rows are:
upwind transport plus central diffusion at interior points, identities
at the outer Dirichlet points (so boundary values persist from the
current state), and the viscous transmission conditions at the junction.

The node condition is defined once, in JunctionStencil. Let beta_i be +1
on incoming and -1 on outgoing arcs, u_node_i the junction value of arc
i and u_inner_i its neighbour one spacing h_i into the arc. Row i reads

    alpha[i] @ u_node = beta_i * F_i,
    F_i = speed_i * u_node_i - eps * beta_i * (u_node_i - u_inner_i) / h_i,

so F_i is the viscous flux speed*u - eps*u_x at the node, written with a
one-sided difference. The node rows carry no time derivative; they are
algebraic constraints enforced at every level. The columns of alpha sum
to zero, so the junction flux balance sum_i beta_i * F_i = 0 holds to
solver precision after each step.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from ..errors import (
    AssumptionViolated,
    LinearSolveFailure,
    NonPositiveParameter,
    UnstableConfig,
)
from ..grids import DiscreteState, Grid, new_state
from ..hyperbolic import PiecewiseConstantField
from ..network import CouplingMatrix, StarNetwork, alpha_from_k, validate_assumptions


@dataclass(frozen=True)
class SolverConfig:
    """Viscosity, step sizes, horizon, and the grid rule h = epsilon/h_rule."""

    epsilon: float
    T: float
    dt: float | None = None
    h_rule: float = 8.0

    def __post_init__(self) -> None:
        if self.epsilon <= 0.0:
            raise NonPositiveParameter("epsilon must be positive")
        if self.T <= 0.0:
            raise NonPositiveParameter("horizon T must be positive")
        if self.dt is not None and self.dt <= 0.0:
            raise NonPositiveParameter("dt must be positive")
        if self.h_rule < 4.0:
            raise NonPositiveParameter("h_rule must be at least 4")


def default_dt(net: StarNetwork, grid: Grid) -> float:
    """Transport-scale step: smallest spacing over twice the top speed."""
    return min(grid.spacings) / (2.0 * float(np.max(net.speeds())))


@dataclass(frozen=True)
class JunctionStencil:
    """The discrete node condition, one row per arc in arc-id order.

    node and inner are flat indices into the concatenated state: the
    junction point of each arc and its neighbour. beta is +1 on incoming
    and -1 on outgoing arcs, eh is epsilon/h. block collects the node
    rows' coefficients of the junction values, so the rows read
    block @ u_node = eh * u_inner.
    """

    node: np.ndarray
    inner: np.ndarray
    beta: np.ndarray
    speed: np.ndarray
    h: np.ndarray
    epsilon: float
    eh: np.ndarray
    block: np.ndarray

    @classmethod
    def build(
        cls,
        net: StarNetwork,
        alpha: np.ndarray,
        grid: Grid,
        offsets: tuple[int, ...],
        epsilon: float,
    ) -> "JunctionStencil":
        incoming = np.array([arc.incoming for arc in net.arcs])
        cells = np.asarray(grid.cells)
        node = np.asarray(offsets) + np.where(incoming, cells, 0)
        inner = node + np.where(incoming, -1, 1)
        beta = np.where(incoming, 1.0, -1.0)
        speed = net.speeds()
        h = np.asarray(grid.spacings)
        eh = epsilon / h
        # alpha[i] @ u_node - beta_i * F_i with the u_node_i terms gathered
        block = np.array(alpha, dtype=float)
        np.fill_diagonal(block, (np.diag(alpha) - beta * speed) + eh)
        block.flags.writeable = False
        return cls(node, inner, beta, speed, h, epsilon, eh, block)

    def matrix_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, values) of the node rows of the step matrix."""
        coupled = self.block != 0.0
        np.fill_diagonal(coupled, True)
        i, j = np.nonzero(coupled)
        rows = np.concatenate([self.node[i], self.node])
        cols = np.concatenate([self.node[j], self.inner])
        vals = np.concatenate([self.block[i, j], -self.eh])
        return rows, cols, vals

    def flux(self, flat: np.ndarray) -> np.ndarray:
        """F_i, the viscous flux at the node along each arc."""
        u = flat[self.node]
        du = (u - flat[self.inner]) / self.h
        return self.speed * u - self.epsilon * self.beta * du

    def residual(self, flat: np.ndarray) -> float:
        """sum_i beta_i * F_i, summed one arc after another.

        np.sum would add eight or more terms pairwise and so round
        differently from the sequential sum the diagnostics record.
        """
        total = 0.0
        for term in (self.beta * self.flux(flat)).tolist():
            total += term
        return total

    def project(self, flat: np.ndarray) -> np.ndarray:
        """Junction values solving the node rows with flat's inner values."""
        return np.linalg.solve(self.block, self.eh * flat[self.inner])


@dataclass(frozen=True)
class StepOperator:
    """Factorized implicit step, reusable across steps.

    rhs_scale maps the current state to the right-hand side: 1/dt at
    interior rows, 1 at Dirichlet rows (values persist), 0 at node rows.
    forcing is added on top each step. stencil is the junction condition
    the node rows are built from.
    """

    matrix: scipy.sparse.csc_matrix
    lu: scipy.sparse.linalg.SuperLU
    grid: Grid
    dt: float
    rhs_scale: np.ndarray
    forcing: np.ndarray
    offsets: tuple[int, ...]
    stencil: JunctionStencil
    unstable: bool

    @property
    def size(self) -> int:
        return self.rhs_scale.size


def _flatten(state: DiscreteState) -> np.ndarray:
    return np.concatenate(state.values)


def _split(flat: np.ndarray, grid: Grid, offsets: tuple[int, ...], t: float) -> DiscreteState:
    arrays = [
        flat[offsets[i] : offsets[i] + grid.cells[i] + 1]
        for i in range(grid.arc_count)
    ]
    return new_state(grid, arrays, t)


def assemble_step_operator(
    net: StarNetwork,
    K: CouplingMatrix,
    cfg: SolverConfig,
    grid: Grid,
    reaction: float = 0.0,
    forcing: PiecewiseConstantField | None = None,
    forcing_scale: float = 1.0,
) -> StepOperator:
    """Build and factorize the implicit step matrix.

    ``reaction`` adds a zeroth-order term to the interior rows and
    ``forcing`` a time-independent source (scaled by forcing_scale),
    which is how steady problems are marched. Warns UnstableConfig when
    any spacing exceeds epsilon/2, the point where the boundary layer
    is no longer resolved.
    """
    report = validate_assumptions(net, K)
    if not report.holds_sign_symmetry or not report.holds_incoming_linked:
        raise AssumptionViolated("; ".join(report.messages) or "assumptions fail")
    alpha = alpha_from_k(K).alpha
    eps = cfg.epsilon
    dt = cfg.dt if cfg.dt is not None else default_dt(net, grid)

    unstable = any(h > eps / 2.0 for h in grid.spacings)
    if unstable:
        warnings.warn(
            f"coarsest spacing {max(grid.spacings):.3e} exceeds epsilon/2 = "
            f"{eps / 2.0:.3e}; the viscous layer is unresolved",
            UnstableConfig,
        )

    offsets = []
    total = 0
    for i in range(net.m):
        offsets.append(total)
        total += grid.cells[i] + 1
    offsets_t = tuple(offsets)
    stencil = JunctionStencil.build(net, alpha, grid, offsets_t, eps)

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    rhs_scale = np.zeros(total)
    forcing_vec = np.zeros(total)

    def put(r: int, c: int, v: float) -> None:
        rows.append(r)
        cols.append(c)
        vals.append(v)

    for i, arc in enumerate(net.arcs):
        n = grid.cells[i]
        h = grid.spacings[i]
        lam = arc.speed
        base = offsets_t[i]
        adv = lam / h
        dif = eps / (h * h)

        for k in range(1, n):
            r = base + k
            put(r, r, 1.0 / dt + reaction + adv + 2.0 * dif)
            put(r, r - 1, -(adv + dif))
            put(r, r + 1, -dif)
            rhs_scale[r] = 1.0 / dt
            if forcing is not None:
                x_k = k * h
                forcing_vec[r] = forcing_scale * float(
                    forcing.arcs[i].evaluate(x_k)
                )

        outer = base + (0 if arc.incoming else n)
        put(outer, outer, 1.0)
        rhs_scale[outer] = 1.0

    # transmission rows: algebraic, no time derivative (rhs_scale 0)
    node_rows, node_cols, node_vals = stencil.matrix_entries()
    matrix = scipy.sparse.csc_matrix(
        (
            np.concatenate([vals, node_vals]),
            (np.concatenate([rows, node_rows]), np.concatenate([cols, node_cols])),
        ),
        shape=(total, total),
    )
    try:
        lu = scipy.sparse.linalg.splu(matrix)
    except RuntimeError as exc:
        raise LinearSolveFailure(f"step matrix factorization failed: {exc}") from exc

    return StepOperator(
        matrix=matrix,
        lu=lu,
        grid=grid,
        dt=dt,
        rhs_scale=rhs_scale,
        forcing=forcing_vec,
        offsets=offsets_t,
        stencil=stencil,
        unstable=unstable,
    )


def step(state: DiscreteState, op: StepOperator) -> DiscreteState:
    """Advance one implicit step; raises LinearSolveFailure on blowup."""
    flat = _flatten(state)
    if flat.size != op.size:
        raise LinearSolveFailure(
            f"state has {flat.size} values, operator expects {op.size}"
        )
    rhs = op.rhs_scale * flat + op.forcing
    out = op.lu.solve(rhs)
    if not np.all(np.isfinite(out)):
        raise LinearSolveFailure("implicit solve produced non-finite values")
    return _split(out, op.grid, op.offsets, state.t + op.dt)


def flux_residual(state: DiscreteState, op: StepOperator) -> float:
    """Junction flux imbalance sum_i beta_i * F_i of the node stencil.

    Incoming fluxes minus outgoing ones; zero for any state satisfying
    the node rows.
    """
    return op.stencil.residual(_flatten(state))


def compatibility_residual(state: DiscreteState, op: StepOperator) -> float:
    """Largest defect of the discrete node conditions for this state."""
    resid = op.matrix[op.stencil.node, :] @ _flatten(state)
    return float(np.max(np.abs(resid)))


def project_node_values(state: DiscreteState, op: StepOperator) -> DiscreteState:
    """Overwrite the m junction values so the node rows hold exactly.

    Solves the m x m node block with the neighboring interior values
    frozen; this is the consistent initialization of the algebraic
    constraints and leaves every other value untouched.
    """
    flat = _flatten(state)
    try:
        flat[op.stencil.node] = op.stencil.project(flat)
    except np.linalg.LinAlgError as exc:
        raise LinearSolveFailure(f"node projection failed: {exc}") from exc
    return _split(flat, op.grid, op.offsets, state.t)
