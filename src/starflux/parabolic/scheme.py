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

Only the m node rows couple the arcs, so a step is solved as a bordered
tridiagonal system (ArcJunctionLU): one LAPACK tridiagonal solve over
every arc's interior with the junction values held at zero, an m x m
Schur system for the junction values, and each arc's precomputed
response to its junction value added back.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.linalg.lapack import dgttrf, dgttrs

from ..errors import AssumptionViolated, LinearSolveFailure, UnstableConfig
from ..grids import DiscreteState, Grid, adopt_state
from ..network import CouplingMatrix, StarNetwork, alpha_from_k, validate_assumptions


@dataclass(frozen=True)
class JunctionStencil:
    """The discrete node condition, one row per arc in arc-id order.

    node and inner are indices into a state's flat vector: the
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
        epsilon: float,
    ) -> "JunctionStencil":
        incoming = np.array([arc.incoming for arc in net.arcs])
        node = np.asarray(grid.offsets[:-1]) + np.where(incoming, grid.cells, 0)
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


#: an arc's response to a unit junction value is dropped where it has
#: decayed below this: far below the rounding of the junction value it
#: scales, and adding it back writes no subnormal tails
RESPONSE_CUTOFF = np.finfo(float).eps ** 2


@dataclass(frozen=True)
class ArcJunctionLU:
    """Bordered-tridiagonal factorization of a step matrix.

    Cutting the node and outer rows and columns out of the three bands
    leaves one tridiagonal block per arc interior; dl, d, du, du2, ipiv
    are their dgttrf factors, with unit rows at the cut points. The
    outer values are known, so they move to the right-hand side of
    their neighbour rows (outer_row, outer_coef). response[k] is arc
    window_arc[k]'s value at point window[k] when its junction value
    is 1 and everything else is 0. Eliminating the interiors leaves the
    m x m Schur complement of the stencil's node rows,
    block - diag(eh * response at inner), kept as its inverse.
    """

    dl: np.ndarray
    d: np.ndarray
    du: np.ndarray
    du2: np.ndarray
    ipiv: np.ndarray
    outer: np.ndarray
    outer_row: np.ndarray
    outer_coef: np.ndarray
    stencil: JunctionStencil
    schur_inv: np.ndarray
    window: np.ndarray
    window_arc: np.ndarray
    response: np.ndarray

    @classmethod
    def factor(
        cls,
        matrix: scipy.sparse.csc_matrix,
        stencil: JunctionStencil,
        outer: np.ndarray,
    ) -> "ArcJunctionLU":
        node, inner = stencil.node, stencil.inner
        # the outer end sits at the far end of the arc from the node
        outer_row = outer + (node - inner)
        outer_coef = np.asarray(matrix[outer_row, outer]).ravel()
        inner_coef = np.asarray(matrix[inner, node]).ravel()

        d = matrix.diagonal(0)
        du = matrix.diagonal(1)
        dl = matrix.diagonal(-1)
        cut = np.concatenate([node, outer])
        d[cut] = 1.0
        last = d.size - 1
        # du[k] = A[k, k+1], dl[k] = A[k+1, k]: clear the cut rows and columns
        du[cut[cut < last]] = 0.0
        dl[cut[cut < last]] = 0.0
        du[cut[cut > 0] - 1] = 0.0
        dl[cut[cut > 0] - 1] = 0.0
        dl, d, du, du2, ipiv, info = dgttrf(dl, d, du)
        if info != 0:
            raise LinearSolveFailure(f"arc factorization failed: dgttrf info {info}")

        m = node.size
        arcs = np.arange(m)
        pull = np.zeros((d.size, m), order="F")
        pull[inner, arcs] = -inner_coef
        pull, _ = dgttrs(dl, d, du, du2, ipiv, pull, overwrite_b=True)
        window, window_arc = np.nonzero(np.abs(pull) >= RESPONSE_CUTOFF)
        response = pull[window, window_arc]

        try:
            schur_inv = np.linalg.inv(stencil.block - np.diag(stencil.eh * pull[inner, arcs]))
        except np.linalg.LinAlgError as exc:
            raise LinearSolveFailure(f"junction Schur complement is singular: {exc}") from exc
        return cls(
            dl, d, du, du2, ipiv, outer, outer_row, outer_coef, stencil,
            schur_inv, window, window_arc, response,
        )

    @property
    def nnz(self) -> int:
        """Stored factor entries: the bands, the responses and the Schur inverse."""
        parts = (self.dl, self.d, self.du, self.du2, self.response, self.schur_inv)
        return int(sum(p.size for p in parts))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solution of the step matrix against rhs, as a new vector."""
        x = np.array(rhs, dtype=float)
        x[self.outer_row] -= self.outer_coef * x[self.outer]
        x, _ = dgttrs(self.dl, self.d, self.du, self.du2, self.ipiv, x, overwrite_b=True)
        # the cut node rows left x[node] = rhs[node]
        node = self.stencil.node
        u = self.schur_inv @ (x[node] + self.stencil.eh * x[self.stencil.inner])
        x[node] = u
        x[self.window] += self.response * u[self.window_arc]
        return x


@dataclass(frozen=True)
class StepOperator:
    """Factorized implicit step, reusable across steps.

    rhs_scale maps the current state to the right-hand side: 1/dt at
    interior rows, 1 at Dirichlet rows (values persist), 0 at node rows.
    outer indexes each arc's outer end, a Dirichlet row. stencil is the
    junction condition the node rows are built from. lu solves matrix
    arc by arc plus an m x m junction system; the outer values pass
    through it bitwise.
    """

    matrix: scipy.sparse.csc_matrix
    lu: ArcJunctionLU
    grid: Grid
    dt: float
    rhs_scale: np.ndarray
    outer: np.ndarray
    stencil: JunctionStencil

    @property
    def size(self) -> int:
        return self.rhs_scale.size


def assemble_step_operator(
    net: StarNetwork,
    K: CouplingMatrix,
    grid: Grid,
    epsilon: float,
    dt: float,
) -> StepOperator:
    """Build and factorize the implicit step matrix.

    epsilon and dt are taken as given: callers check them. Warns
    UnstableConfig when any spacing exceeds epsilon/2, the point where
    the boundary layer is no longer resolved.
    """
    report = validate_assumptions(net, K)
    if not report.holds_sign_symmetry or not report.holds_incoming_linked:
        raise AssumptionViolated("; ".join(report.messages) or "assumptions fail")
    alpha = alpha_from_k(K)

    if any(h > epsilon / 2.0 for h in grid.spacings):
        warnings.warn(
            f"coarsest spacing {max(grid.spacings):.3e} exceeds epsilon/2 = "
            f"{epsilon / 2.0:.3e}; the viscous layer is unresolved",
            UnstableConfig,
        )

    offsets = grid.offsets
    total = offsets[-1]
    stencil = JunctionStencil.build(net, alpha, grid, epsilon)

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    rhs_scale = np.zeros(total)

    for i, arc in enumerate(net.arcs):
        n = grid.cells[i]
        h = grid.spacings[i]
        adv = arc.speed / h
        dif = epsilon / (h * h)

        k = np.arange(1, n)
        r = offsets[i] + k
        rows += [r, r, r]
        cols += [r, r - 1, r + 1]
        vals += [
            np.full(n - 1, 1.0 / dt + adv + 2.0 * dif),
            np.full(n - 1, -(adv + dif)),
            np.full(n - 1, -dif),
        ]
        rhs_scale[r] = 1.0 / dt

    # outer ends: identity rows, so the Dirichlet values persist
    incoming = [arc.incoming for arc in net.arcs]
    outer = np.asarray(offsets[:-1]) + np.where(incoming, 0, grid.cells)
    rows.append(outer)
    cols.append(outer)
    vals.append(np.ones(net.m))
    rhs_scale[outer] = 1.0

    # transmission rows: algebraic, no time derivative (rhs_scale 0)
    node_rows, node_cols, node_vals = stencil.matrix_entries()
    matrix = scipy.sparse.csc_matrix(
        (
            np.concatenate(vals + [node_vals]),
            (np.concatenate(rows + [node_rows]), np.concatenate(cols + [node_cols])),
        ),
        shape=(total, total),
    )
    return StepOperator(
        matrix=matrix,
        lu=ArcJunctionLU.factor(matrix, stencil, outer),
        grid=grid,
        dt=dt,
        rhs_scale=rhs_scale,
        outer=outer,
        stencil=stencil,
    )


def step(state: DiscreteState, op: StepOperator) -> DiscreteState:
    """Advance one implicit step; raises LinearSolveFailure on blowup."""
    if state.flat.size != op.size:
        raise LinearSolveFailure(
            f"state has {state.flat.size} values, operator expects {op.size}"
        )
    out = op.lu.solve(op.rhs_scale * state.flat)
    if not np.isfinite(out).all():
        raise LinearSolveFailure("implicit solve produced non-finite values")
    return adopt_state(op.grid, out, state.t + op.dt)


def flux_residual(state: DiscreteState, op: StepOperator) -> float:
    """Junction flux imbalance sum_i beta_i * F_i of the node stencil.

    Incoming fluxes minus outgoing ones; zero for any state satisfying
    the node rows.
    """
    return op.stencil.residual(state.flat)


def compatibility_residual(state: DiscreteState, op: StepOperator) -> float:
    """Largest defect of the discrete node conditions for this state."""
    resid = op.matrix[op.stencil.node, :] @ state.flat
    return float(np.max(np.abs(resid)))


def project_node_values(state: DiscreteState, op: StepOperator) -> DiscreteState:
    """Overwrite the m junction values so the node rows hold exactly.

    Solves the m x m node block with the neighboring interior values
    frozen; this is the consistent initialization of the algebraic
    constraints and leaves every other value untouched.
    """
    flat = state.flat.copy()
    try:
        flat[op.stencil.node] = op.stencil.project(flat)
    except np.linalg.LinAlgError as exc:
        raise LinearSolveFailure(f"node projection failed: {exc}") from exc
    if not np.isfinite(flat[op.stencil.node]).all():
        raise LinearSolveFailure("node projection produced non-finite values")
    return adopt_state(op.grid, flat, state.t)
