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
tridiagonal system (ArcJunctionLU): one tridiagonal solve over every
arc's interior with the junction values held at zero, an m x m Schur
system for the junction values, and each arc's precomputed response to
its junction value added back. The tridiagonal solve eliminates every
other point first (OddEvenLU), so LAPACK's serial dgttrs runs over half
the points and the other half are filled in by vector operations.

step works on a vector in march order (to_march_order): every
even-indexed point of the grid order first, then every odd-indexed
one. Both halves of the reduction are then contiguous, and a step
overwrites its vector with no copy and no strided view. advance wraps
it for a DiscreteState, which stays in grid order.
"""

from __future__ import annotations

import dataclasses
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


def to_march_order(flat: np.ndarray) -> np.ndarray:
    """flat's even-indexed rows, then its odd-indexed ones, as a new array."""
    return np.concatenate([flat[0::2], flat[1::2]])


def to_grid_order(x: np.ndarray) -> np.ndarray:
    """The inverse of to_march_order, as a new array."""
    flat = np.empty_like(x)
    n_even = (x.shape[0] + 1) // 2
    flat[0::2] = x[:n_even]
    flat[1::2] = x[n_even:]
    return flat


def march_index(k: np.ndarray, size: int) -> np.ndarray:
    """Positions in march order of grid-order indices k into size rows."""
    return k // 2 + (k % 2) * ((size + 1) // 2)


@dataclass(frozen=True)
class OddEvenLU:
    """A tridiagonal system with its odd-indexed unknowns eliminated.

    Row k reads a_k x[k-1] + b_k x[k] + c_k x[k+1] = f[k]. An odd row
    gives x[k] = (f[k] - a_k x[k-1] - c_k x[k+1]) / b_k, and putting
    that into the even rows leaves a tridiagonal system over the even
    unknowns, with right-hand side f[j] + fold_lo f[j-1] + fold_up f[j+1],
    fold_lo = -a_j / b_{j-1} and fold_up = -c_j / b_{j+1}. That system is
    a Schur complement, so it is strictly diagonally dominant by rows
    and by columns when the full one is, and dgttrf then factors it
    without pivoting; reduced holds its (dl, d, du, du2, ipiv). odd_lo,
    odd_diag and odd_up are a, b and c on the odd rows. Any number of
    rows works: the last even or odd row just has no right neighbour.
    solve takes its vector in march order, the even rows first, so that
    dgttrs overwrites the even half in place.
    """

    fold_lo: np.ndarray
    fold_up: np.ndarray
    odd_lo: np.ndarray
    odd_diag: np.ndarray
    odd_up: np.ndarray
    reduced: tuple

    @classmethod
    def factor(cls, dl: np.ndarray, d: np.ndarray, du: np.ndarray) -> "OddEvenLU":
        """Factor the bands dl[k] = A[k+1, k], d[k] = A[k, k], du[k] = A[k, k+1].

        A zero pivot raises LinearSolveFailure naming its 1-based row.
        """
        n_even = (d.size + 1) // 2
        n_odd = d.size // 2
        # copies, so that the full-length bands are not kept alive
        odd_diag = d[1::2].copy()
        zero = np.flatnonzero(odd_diag == 0.0)
        if zero.size:
            raise LinearSolveFailure(
                f"arc factorization failed: zero pivot in row {2 * zero[0] + 2}"
            )
        odd_lo, odd_up = dl[0::2].copy(), du[1::2].copy()
        fold_lo = -dl[1::2] / odd_diag[: n_even - 1]
        fold_up = -du[0::2] / odd_diag
        diag = d[0::2].copy()
        diag[1:] += fold_lo * odd_up
        diag[:n_odd] += fold_up * odd_lo
        lower = fold_lo * odd_lo[: n_even - 1]
        upper = fold_up[: n_even - 1] * odd_up
        *reduced, info = dgttrf(lower, diag, upper)
        if info != 0:
            raise LinearSolveFailure(
                f"arc factorization failed: zero pivot in row {2 * info - 1}"
            )
        return cls(fold_lo, fold_up, odd_lo, odd_diag, odd_up, tuple(reduced))

    @property
    def nnz(self) -> int:
        """Stored entries: the elimination coefficients and the reduced bands."""
        parts = (self.fold_lo, self.fold_up, self.odd_lo, self.odd_diag, self.odd_up)
        return int(sum(p.size for p in parts + self.reduced[:4]))

    def solve(self, x: np.ndarray) -> None:
        """Overwrite x, of shape (n,) or (n, k) in march order, with the
        solution against it."""
        # the coefficients run down axis 0, alike for every column of x
        col = (-1,) + (1,) * (x.ndim - 1)
        n_even = self.reduced[1].size
        even, odd = x[:n_even], x[n_even:]
        n_odd = odd.shape[0]
        even[1:] += self.fold_lo.reshape(col) * odd[: n_even - 1]
        even[:n_odd] += self.fold_up.reshape(col) * odd
        g, _ = dgttrs(*self.reduced, even, overwrite_b=True)
        if g is not even:
            # f2py solved a copy: even is not contiguous in Fortran order
            even[...] = g
        odd -= self.odd_lo.reshape(col) * g[:n_odd]
        odd[: n_even - 1] -= self.odd_up.reshape(col) * g[1:]
        odd /= self.odd_diag.reshape(col)


@dataclass(frozen=True)
class ArcJunctionLU:
    """Bordered-tridiagonal factorization of a step matrix, in march order.

    Cutting the node and outer rows and columns out of the three bands
    leaves one tridiagonal block per arc interior, with unit rows at the
    cut points; arcs is its odd-even reduction, so each solve runs
    dgttrs over half the points. Every index held here is a position in
    march order (to_march_order): the reduction's even rows first, then
    its odd ones, so solve works on contiguous halves. The outer values
    are known, so they move to the right-hand side of their neighbour
    rows (outer_row, outer_coef). stencil is the step's JunctionStencil
    with its node and inner indices in march order. response[k] is arc
    window_arc[k]'s value at point window[k] when its junction value is
    1 and everything else is 0. Eliminating the interiors leaves the
    m x m Schur complement of the stencil's node rows,
    block - diag(eh * response at inner), kept as its inverse.
    """

    arcs: OddEvenLU
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
        """Factor matrix, given with its stencil and outer ends in grid order."""
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
        arcs = OddEvenLU.factor(dl, d, du)
        del dl, d, du  # the factors hold all that is needed from here

        size = matrix.shape[0]
        march = dataclasses.replace(
            stencil, node=march_index(node, size), inner=march_index(inner, size)
        )
        m = node.size
        ids = np.arange(m)
        pull = np.zeros((size, m), order="F")
        pull[march.inner, ids] = -inner_coef
        arcs.solve(pull)
        window, window_arc = np.nonzero(np.abs(pull) >= RESPONSE_CUTOFF)
        response = pull[window, window_arc]

        try:
            schur_inv = np.linalg.inv(stencil.block - np.diag(stencil.eh * pull[march.inner, ids]))
        except np.linalg.LinAlgError as exc:
            raise LinearSolveFailure(f"junction Schur complement is singular: {exc}") from exc
        return cls(
            arcs, march_index(outer, size), march_index(outer_row, size), outer_coef,
            march, schur_inv, window, window_arc, response,
        )

    @property
    def nnz(self) -> int:
        """Stored factor entries: the arc factors, the responses and the Schur inverse."""
        return self.arcs.nnz + self.response.size + self.schur_inv.size

    def solve(self, x: np.ndarray) -> None:
        """Overwrite x, in march order, with the step matrix's solution against it."""
        x[self.outer_row] -= self.outer_coef * x[self.outer]
        self.arcs.solve(x)
        # the cut node rows left x[node] = rhs[node]
        stencil = self.stencil
        node = stencil.node
        u = self.schur_inv @ (x[node] + stencil.eh * x[stencil.inner])
        x[node] = u
        x[self.window] += self.response * u[self.window_arc]


@dataclass(frozen=True)
class StepOperator:
    """Factorized implicit step, reusable across steps.

    rhs_scale maps the current state to the right-hand side: 1/dt at
    interior rows, 1 at Dirichlet rows (values persist), 0 at node rows.
    It is in march order, as are lu's indices; outer (each arc's outer
    end, a Dirichlet row) and stencil (the junction condition the node
    rows are built from) index the grid order of a DiscreteState. lu
    solves matrix arc by arc plus an m x m junction system; the outer
    values pass through it bitwise.
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
        rhs_scale=to_march_order(rhs_scale),
        outer=outer,
        stencil=stencil,
    )


def step(x: np.ndarray, op: StepOperator) -> None:
    """Advance x, a state's values in march order, one implicit step in place.

    Raises LinearSolveFailure on a wrong size or a non-finite result.
    """
    if x.shape != (op.size,):
        raise LinearSolveFailure(f"state has {x.size} values, operator expects {op.size}")
    # a non-finite value would meet the cut rows' zero couplings as
    # 0 * inf; the one scan below reports whatever it left behind
    with np.errstate(over="ignore", invalid="ignore"):
        x *= op.rhs_scale
        op.lu.solve(x)
    if not np.isfinite(x).all():
        raise LinearSolveFailure("implicit solve produced non-finite values")


def advance(state: DiscreteState, op: StepOperator) -> DiscreteState:
    """state one step later: step on its values gathered into march order."""
    x = to_march_order(state.flat)
    step(x, op)
    return adopt_state(op.grid, to_grid_order(x), state.t + op.dt)


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
