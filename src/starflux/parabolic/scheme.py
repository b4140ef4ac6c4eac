"""Implicit viscous step operator with algebraic node coupling.

One backward-Euler step solves a linear system whose rows are: upwind
transport plus central diffusion at interior points, identities at the
outer Dirichlet points (so boundary values persist from the current
state), and the viscous transmission conditions at the junction. The
interior rows' per-arc bands and the stencil below define the step.

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
other point first (OddEvenLU), and again on the points left while more
than REDUCE_ROWS remain, so LAPACK's serial dgttrs runs over a half or
a quarter of the points and vector operations fill in the others.

Every index the step holds, the stencil's included, is a position in
march order (to_march_order): every even-indexed point of the grid
order first, then every odd-indexed one. Both halves of the first
reduction are then contiguous, and step overwrites its vector in
place; a deeper reduction gathers its even half into a buffer of its
own and scatters it back. A DiscreteState stays in grid order, so
callers gather it into march order once and scatter the result back
once. Only ArcJunctionLU.factor, which lays the arcs end to end, and
the StepOperator.matrix view read the grid order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.linalg.lapack import dgttrf, dgttrs

from ..errors import AssumptionViolated, LinearSolveFailure, UnstableConfig
from ..grids import Grid
from ..network import CouplingMatrix, StarNetwork, alpha_from_k, validate_assumptions


@dataclass(frozen=True)
class JunctionStencil:
    """The discrete node condition, one row per arc in arc-id order.

    node and inner are positions in a state's march-order vector
    (to_march_order): the junction point of each arc and its neighbour.
    beta is +1 on incoming and -1 on outgoing arcs, eh is epsilon/h.
    block collects the node rows' coefficients of the junction values,
    so the rows read block @ u_node = eh * u_inner.
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
        size = grid.offsets[-1]
        return cls(
            march_index(node, size), march_index(inner, size), beta, speed, h, epsilon, eh, block
        )

    def defect(self, x: np.ndarray) -> np.ndarray:
        """The node rows' residuals, block @ u_node - eh * u_inner."""
        return self.block @ x[self.node] - self.eh * x[self.inner]

    def flux(self, x: np.ndarray) -> np.ndarray:
        """F_i, the viscous flux at the node along each arc."""
        u = x[self.node]
        du = (u - x[self.inner]) / self.h
        return self.speed * u - self.epsilon * self.beta * du

    def residual(self, x: np.ndarray) -> float:
        """sum_i beta_i * F_i, summed one arc after another.

        np.sum would add eight or more terms pairwise and so round
        differently from the sequential sum the diagnostics record.
        """
        total = 0.0
        for term in (self.beta * self.flux(x)).tolist():
            total += term
        return total

    def project(self, x: np.ndarray) -> None:
        """Overwrite x's junction values so the node rows hold exactly.

        Solves the m x m block with x's inner values frozen: the
        consistent initialization of the algebraic constraints, which
        leaves every other value untouched.
        """
        try:
            x[self.node] = np.linalg.solve(self.block, self.eh * x[self.inner])
        except np.linalg.LinAlgError as exc:
            raise LinearSolveFailure(f"node projection failed: {exc}") from exc
        if not np.isfinite(x[self.node]).all():
            raise LinearSolveFailure("node projection produced non-finite values")


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


#: OddEvenLU reduces its even half again while that half has more than
#: this many rows. On one core, a second level took a step on 12,804
#: points (6,402 even rows) from a median of 244 to 232 us, and one on
#: 6,404 points from 152 to 164 us; so systems up to about 8,000 points
#: keep one level
REDUCE_ROWS = 4096


@dataclass(frozen=True)
class OddEvenLU:
    """A tridiagonal system with its odd-indexed unknowns eliminated,
    level after level.

    Row k reads a_k x[k-1] + b_k x[k] + c_k x[k+1] = f[k]. An odd row
    gives x[k] = (f[k] - a_k x[k-1] - c_k x[k+1]) / b_k, and putting
    that into the even rows leaves a tridiagonal system over the even
    unknowns, with right-hand side f[j] + fold_lo f[j-1] + fold_up f[j+1],
    fold_lo = -a_j / b_{j-1} and fold_up = -c_j / b_{j+1}. That system is
    a Schur complement, so it is strictly diagonally dominant by rows
    and by columns when the full one is. odd_lo, odd_diag and odd_up are
    a, b and c on the odd rows. Any number of rows works: the last even
    or odd row just has no right neighbour.

    While the even half has more than REDUCE_ROWS rows, or 2 rows,
    reduced is that system's own OddEvenLU; otherwise it holds dgttrf's
    (dl, d, du, du2, ipiv) of it, factored without pivoting by the
    dominance above, or (d,) for 1 row, since scipy's dgttrf wrapper
    takes no fewer than 3.
    solve takes its vector in march order, the even rows first, so that
    the even half is contiguous. A deeper level gathers it into its own
    march order in a buffer and scatters the solution back; the bottom
    dgttrs overwrites its even half in place.
    """

    fold_lo: np.ndarray
    fold_up: np.ndarray
    odd_lo: np.ndarray
    odd_diag: np.ndarray
    odd_up: np.ndarray
    reduced: "tuple | OddEvenLU"

    @classmethod
    def factor(
        cls, dl: np.ndarray, d: np.ndarray, du: np.ndarray, *, stride: int = 1
    ) -> "OddEvenLU":
        """Factor the bands dl[k] = A[k+1, k], d[k] = A[k, k], du[k] = A[k, k+1].

        A zero pivot raises LinearSolveFailure naming its 1-based row of
        the full system, whose every stride-th row this system holds.
        """
        n_even = (d.size + 1) // 2
        n_odd = d.size // 2
        # copies, so that the full-length bands are not kept alive
        odd_diag = d[1::2].copy()
        zero = np.flatnonzero(odd_diag == 0.0)
        if zero.size:
            raise LinearSolveFailure(
                f"arc factorization failed: zero pivot in row {(2 * zero[0] + 1) * stride + 1}"
            )
        odd_lo, odd_up = dl[0::2].copy(), du[1::2].copy()
        fold_lo = -dl[1::2] / odd_diag[: n_even - 1]
        fold_up = -du[0::2] / odd_diag
        diag = d[0::2].copy()
        diag[1:] += fold_lo * odd_up
        diag[:n_odd] += fold_up * odd_lo
        lower = fold_lo * odd_lo[: n_even - 1]
        upper = fold_up[: n_even - 1] * odd_up
        if n_even > REDUCE_ROWS or n_even == 2:
            reduced = cls.factor(lower, diag, upper, stride=2 * stride)
        else:
            if n_even > 1:
                *reduced, info = dgttrf(lower, diag, upper)
            else:
                # scipy's dgttrf wrapper takes no fewer than 3 rows; 2 are
                # reduced once more above, and 1 row is its own pivot
                reduced, info = [diag], int(diag[0] == 0.0)
            if info != 0:
                raise LinearSolveFailure(
                    f"arc factorization failed: zero pivot in row {2 * (info - 1) * stride + 1}"
                )
            reduced = tuple(reduced)
        return cls(fold_lo, fold_up, odd_lo, odd_diag, odd_up, reduced)

    @property
    def nnz(self) -> int:
        """Stored entries: every level's elimination coefficients and the
        bottom level's reduced bands."""
        parts = (self.fold_lo, self.fold_up, self.odd_lo, self.odd_diag, self.odd_up)
        own = sum(p.size for p in parts)
        if isinstance(self.reduced, OddEvenLU):
            return int(own + self.reduced.nnz)
        return int(own + sum(p.size for p in self.reduced[:4]))

    def solve(self, x: np.ndarray) -> None:
        """Overwrite x, of shape (n,) or (n, k) in march order, with the
        solution against it."""
        # the coefficients run down axis 0, alike for every column of x
        col = (-1,) + (1,) * (x.ndim - 1)
        n_even = self.fold_lo.size + 1
        even, odd = x[:n_even], x[n_even:]
        n_odd = odd.shape[0]
        even[1:] += self.fold_lo.reshape(col) * odd[: n_even - 1]
        even[:n_odd] += self.fold_up.reshape(col) * odd
        if isinstance(self.reduced, OddEvenLU):
            # the even half in its own march order, and back
            half = (n_even + 1) // 2
            g = np.empty_like(even)
            g[:half], g[half:] = even[0::2], even[1::2]
            self.reduced.solve(g)
            even[0::2], even[1::2] = g[:half], g[half:]
            g = even
        elif len(self.reduced) == 1:
            even /= self.reduced[0]
            g = even
        else:
            g, _ = dgttrs(*self.reduced, even, overwrite_b=True)
            if g is not even:
                # f2py solved a copy: even is not contiguous in Fortran order
                even[...] = g
        odd -= self.odd_lo.reshape(col) * g[:n_odd]
        odd[: n_even - 1] -= self.odd_up.reshape(col) * g[1:]
        odd /= self.odd_diag.reshape(col)


def interior_arcs(node: np.ndarray, outer: np.ndarray) -> np.ndarray:
    """The arc of each point in grid order (arcs lie end to end), -1 at the
    ends; node and outer are the arcs' end points in grid order."""
    first = np.minimum(node, outer)
    arc = np.repeat(np.arange(outer.size), np.maximum(node, outer) - first + 1)
    arc[np.concatenate([node, outer])] = -1
    return arc


@dataclass(frozen=True)
class ArcJunctionLU:
    """Bordered-tridiagonal factorization of a step, in march order.

    Each arc's interior rows, from the step's per-arc bands, with unit
    rows at the node and outer ends (the cut points) form one
    tridiagonal system; arcs is its odd-even reduction, so each solve runs
    dgttrs over half the points, or fewer on the largest systems. Every
    index held here is a position in march order (to_march_order): the
    reduction's even rows first, then its odd ones, so solve works on
    contiguous halves. outer holds each arc's outer end. The outer values
    are known, so they move to the right-hand side of their neighbour
    rows (outer_row, outer_coef). stencil is the step's JunctionStencil.
    response[k] is arc window_arc[k]'s value at point window[k] when its
    junction value is 1 and everything else is 0. Eliminating the
    interiors leaves the m x m Schur complement of the stencil's node
    rows, block - diag(eh * response at inner), kept as its inverse.
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
        bands: tuple[np.ndarray, np.ndarray, np.ndarray],
        stencil: JunctionStencil,
        outer: np.ndarray,
        size: int,
    ) -> "ArcJunctionLU":
        """Factor the step of bands and stencil over size points; outer
        holds each arc's outer end in march order."""
        lower, diag, upper = bands
        incoming = stencil.beta > 0.0
        outer_coef = np.where(incoming, lower, upper)
        inner_coef = np.where(incoming, upper, lower)

        # the cut tridiagonal, in grid order: the grid index of each march position
        grid_index = to_march_order(np.arange(size))
        grid_outer = grid_index[outer]
        arc = interior_arcs(grid_index[stencil.node], grid_outer)
        # dl[k] = A[k+1, k], du[k] = A[k, k+1] couple two points of one interior
        coupled = (arc[:-1] >= 0) & (arc[1:] >= 0)
        arcs = OddEvenLU.factor(
            np.where(coupled, lower[arc[1:]], 0.0),
            np.where(arc >= 0, diag[arc], 1.0),
            np.where(coupled, upper[arc[:-1]], 0.0),
        )
        # an incoming arc runs from its outer end to the node, an outgoing one back
        outer_row = march_index(grid_outer + np.where(incoming, 1, -1), size)

        ids = np.arange(outer.size)
        pull = np.zeros((size, outer.size), order="F")
        pull[stencil.inner, ids] = -inner_coef
        arcs.solve(pull)
        window, window_arc = np.nonzero(np.abs(pull) >= RESPONSE_CUTOFF)
        response = pull[window, window_arc]

        schur = stencil.block - np.diag(stencil.eh * pull[stencil.inner, ids])
        try:
            schur_inv = np.linalg.inv(schur)
        except np.linalg.LinAlgError as exc:
            raise LinearSolveFailure(f"junction Schur complement is singular: {exc}") from exc
        return cls(
            arcs, outer, outer_row, outer_coef, stencil, schur_inv, window, window_arc, response
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

    bands, each arc's interior coefficients (lower, diag, upper), and
    lu.stencil, the junction condition of the node rows, define the
    step; matrix is a sparse view of it, assembled when read. rhs_scale
    maps the current state to the right-hand side: 1/dt at interior
    rows, 1 at Dirichlet rows (values persist), 0 at node rows. It is in
    march order, as are all of lu's indices. lu solves the step arc by
    arc plus an m x m junction system; the outer values (at lu.outer)
    pass through it bitwise.
    """

    bands: tuple[np.ndarray, np.ndarray, np.ndarray]
    lu: ArcJunctionLU
    grid: Grid
    dt: float
    rhs_scale: np.ndarray

    @property
    def size(self) -> int:
        return self.rhs_scale.size

    @property
    def matrix(self) -> scipy.sparse.csc_matrix:
        """The step matrix in grid order, assembled anew on each read."""
        s, grid_index = self.lu.stencil, to_march_order(np.arange(self.size))
        node, inner, outer = grid_index[s.node], grid_index[s.inner], grid_index[self.lu.outer]
        arc = interior_arcs(node, outer)
        r = np.flatnonzero(arc >= 0)
        # node rows: the block's nonzeros and its whole diagonal, then -eh
        i, j = np.nonzero((s.block != 0.0) | np.eye(node.size, dtype=bool))
        rows = [r, r, r, outer, node[i], node]
        cols = [r - 1, r, r + 1, outer, node[j], inner]
        vals = [b[arc[r]] for b in self.bands] + [np.ones(outer.size), s.block[i, j], -s.eh]
        return scipy.sparse.csc_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.size, self.size),
        )


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

    stencil = JunctionStencil.build(net, alpha, grid, epsilon)
    # interior rows: upwind transport plus central diffusion, per arc
    adv = stencil.speed / stencil.h
    dif = epsilon / (stencil.h * stencil.h)
    bands = (-(adv + dif), 1.0 / dt + adv + 2.0 * dif, -dif)

    # outer ends: identity rows, so the Dirichlet values persist;
    # transmission rows: algebraic, no time derivative (rhs_scale 0)
    size = grid.offsets[-1]
    outer = np.asarray(grid.offsets[:-1]) + np.where(stencil.beta > 0.0, 0, grid.cells)
    lu = ArcJunctionLU.factor(bands, stencil, march_index(outer, size), size)
    rhs_scale = np.full(size, 1.0 / dt)
    rhs_scale[lu.outer] = 1.0
    rhs_scale[stencil.node] = 0.0
    return StepOperator(bands=bands, lu=lu, grid=grid, dt=dt, rhs_scale=rhs_scale)


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


def flux_residual(x: np.ndarray, op: StepOperator) -> float:
    """Junction flux imbalance sum_i beta_i * F_i of the node stencil, for
    x in march order.

    Incoming fluxes minus outgoing ones; zero for any state satisfying
    the node rows.
    """
    return op.lu.stencil.residual(x)
