"""Implicit viscous step operator with algebraic node coupling.

One backward-Euler step solves a linear system: a cell balance at each
interior point, an identity at each outer Dirichlet point (so boundary
values persist), and the viscous transmission condition at the junction.

Every row reads one flux rule. x runs along the flow on every arc, and
the flux speed*u - eps*u_x through the interface between points k and
k+1 is, by upwind transport plus central diffusion,

    F_{k+1/2} = p * u_k - q * u_{k+1},   p = speed + eps/h,   q = eps/h.

An interior row reads (u_k - u_old_k)/dt + (F_{k+1/2} - F_{k-1/2})/h = 0,
so each arc's bands are (-p/h, 1/dt + (p + q)/h, -q/h). With beta_i +1
on incoming and -1 on outgoing arcs, node row i reads alpha[i] @ u_node
= beta_i * G_i. G_i is the flux through arc i's node-side interface,
between its junction value u_node_i and its neighbour u_inner_i, plus,
on an incoming arc, the junction source speed_i * (u_node_i -
u_inner_i): that node row reads speed*u_node where the interface reads
speed*u_inner (ROADMAP item 1 deletes the term). So beta_i * G_i =
node_coef_i * u_node_i + inner_coef_i * u_inner_i, and the rows read
block @ u_node = inner_coef * u_inner, block = alpha - diag(node_coef)
(JunctionStencil). They carry no time derivative: algebraic
constraints, enforced at every level. The columns of alpha sum to zero,
so the junction flux balance sum_i beta_i * G_i = 0 holds to solver
precision after each step.

Only the m node rows couple the arcs, so a step is solved as a bordered
tridiagonal system (ArcJunctionLU): one tridiagonal solve over every
arc's interior with the junction values held at zero, an m x m Schur
system for the junction values, and each arc's precomputed response to
its junction value added back. The tridiagonal solve eliminates every
other point first (OddEvenLU), and again on the points left while more
than REDUCE_ROWS remain, so the serial part, two unit-bidiagonal sweeps
(BLAS dtbsv) of the last reduced system's dgttrf factors, runs over a
half or a quarter of the points and vector operations fill in the
others. Nothing in a step divides: each row is divided by exactly one
pivot on its way through the solve, so its reciprocal, the row scale
sigma, is folded into the right-hand side once, together with the
step's rhs_scale (ArcJunctionLU.state_scale), and every stored
coefficient is pre-scaled to match at factor time.

Every index the step holds, the stencil's included, is a position in
march order (to_march_order): every even-indexed point of the grid
order first, then every odd-indexed one. Both halves of the first
reduction are then contiguous, and step overwrites its vector in
place; a deeper reduction gathers its even half into a buffer of its
own and scatters it back. A DiscreteState stays in grid order, so
callers gather it into march order once and scatter the result back
once. Only ArcJunctionLU.factor, which lays the arcs end to end, and
the StepOperator.matrix view read the grid order.

The tests define the step a second time, independently, from their own
copy of the flux rule: a dense grid-order matrix built arc by arc
(ReferenceStep in tests/conftest.py), which one test pins to the
StepOperator.matrix view. Nothing else in the package reads that view;
it stays only while perfbench's tracer counts its nonzeros.

step does not scan its result: the callers check each state once,
where they read it (evolve.solve_parabolic through the minimum and L1
norm it records, evolve.march_to_steady on its one result).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.linalg.blas import dtbsv
from scipy.linalg.lapack import dgttrf

from ..errors import DimensionMismatch, LinearSolveFailure, UnstableConfig
from ..grids import MIN_CELLS, Grid, march_index, to_march_order
from ..network import CouplingMatrix, StarNetwork, alpha_from_k, validate_assumptions


@dataclass(frozen=True)
class JunctionStencil:
    """The discrete node condition, one row per arc in arc-id order.

    node and inner are positions in a state's march-order vector
    (to_march_order): the junction point of each arc and its neighbour.
    incoming flags the incoming arcs. node_coef and inner_coef are the
    coefficients of u_node and u_inner in beta_i * G_i, the flux each
    arc hands the junction (module docstring), and block = alpha -
    diag(node_coef), so the rows read block @ u_node = inner_coef * u_inner.
    """

    node: np.ndarray
    inner: np.ndarray
    incoming: np.ndarray
    node_coef: np.ndarray
    inner_coef: np.ndarray
    block: np.ndarray

    def defect(self, x: np.ndarray) -> np.ndarray:
        """The node rows' residuals, block @ u_node - inner_coef * u_inner."""
        return self.block @ x[self.node] - self.inner_coef * x[self.inner]

    def residual(self, u_node: np.ndarray, u_inner: np.ndarray) -> float:
        """sum_i beta_i * G_i for the junction values u_node and their
        neighbours u_inner, summed one arc after another.

        The terms are taken in Python floats: the same IEEE operations,
        in the same order, as elementwise numpy, without an array per
        operation. np.sum would add eight or more terms pairwise and so
        round differently from the sequential sum the diagnostics record.
        """
        total = 0.0
        for a, u, b, v in zip(
            self.node_coef.tolist(), u_node.tolist(), self.inner_coef.tolist(), u_inner.tolist()
        ):
            total += a * u + b * v
        return total

    def project(self, x: np.ndarray) -> None:
        """Overwrite x's junction values so the node rows hold exactly.

        Solves the m x m block with x's inner values frozen: the
        consistent initialization of the algebraic constraints, which
        leaves every other value untouched.
        """
        try:
            x[self.node] = np.linalg.solve(self.block, self.inner_coef * x[self.inner])
        except np.linalg.LinAlgError as exc:
            raise LinearSolveFailure(f"node projection failed: {exc}") from exc
        if not np.isfinite(x[self.node]).all():
            raise LinearSolveFailure("node projection produced non-finite values")


#: an arc's response to a unit junction value is dropped where it has
#: decayed below this: far below the rounding of the junction value it
#: scales, and adding it back writes no subnormal tails
RESPONSE_CUTOFF = np.finfo(float).eps ** 2


#: OddEvenLU reduces its even half again while that half has more than
#: this many rows. With the pivots folded into the factors, in three
#: single-threaded runs of 25 interleaved repetitions of 300 steps on 2
#: cores, a second level moved the median step on 12,804 points (6,402
#: even rows, 93-100 us) by -1.4%, 0.0% and -0.8%, and slowed one on
#: 6,404 points by 5-10%; so systems up to about 8,000 points keep one
#: level, and the largest keep a second, no slower
REDUCE_ROWS = 4096


def bidiagonal_factors(
    dl: np.ndarray, d: np.ndarray, du: np.ndarray, *, stride: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """dgttrf's factors of the bands dl, d, du (as in OddEvenLU.factor)
    of at least 3 rows, with the pivots D folded into the lower one,
    as (lower, pivots, upper): A = D @ (inv(D) @ L @ D) @ V, with L unit
    lower and V unit upper bidiagonal.

    lower and upper are BLAS band storage for dtbsv, k = 1, of two unit
    bidiagonals: lower[1, :-1] is inv(D) @ L @ D's subdiagonal, dgttrf's
    multipliers times pivots[:-1] / pivots[1:], that is dl / pivots[1:],
    and upper[0, 1:] is V's superdiagonal, du / pivots[:-1]; their unit
    diagonals are not stored. So with each row of the right-hand side
    divided by its pivot beforehand (OddEvenLU.scale), the two sweeps
    solve A with no division between them.
    The factors are right only without row exchanges, so an exchange
    raises LinearSolveFailure, as a zero pivot does, naming its 1-based
    row of the full system, whose every stride-th row this system holds.
    """
    _, pivots, _, _, ipiv, info = dgttrf(dl, d, du)
    if info != 0:
        raise LinearSolveFailure(
            f"arc factorization failed: zero pivot in row {(info - 1) * stride + 1}"
        )
    exchange = np.flatnonzero(ipiv != np.arange(1, d.size + 1))
    if exchange.size:
        raise LinearSolveFailure(
            f"arc factorization failed: row exchange at row {exchange[0] * stride + 1}"
        )
    lower = np.zeros((2, d.size), order="F")
    upper = np.zeros((2, d.size), order="F")
    lower[1, :-1] = dl / pivots[1:]
    upper[0, 1:] = du / pivots[:-1]
    return lower, pivots, upper


@dataclass(frozen=True)
class OddEvenLU:
    """A tridiagonal system with its odd-indexed unknowns eliminated,
    level after level, and every pivot folded into a row scale.

    Row k reads a_k x[k-1] + b_k x[k] + c_k x[k+1] = f[k]. An odd row
    gives x[k] = (f[k] - a_k x[k-1] - c_k x[k+1]) / b_k, and putting
    that into the even rows leaves a tridiagonal system over the even
    unknowns, with right-hand side f[j] - a_j f[j-1] / b_{j-1} - c_j
    f[j+1] / b_{j+1}. That system is a Schur complement, so it is
    strictly diagonally dominant by rows and by columns when the full
    one is. While the even half has more than REDUCE_ROWS rows, reduced
    is that system's own OddEvenLU; otherwise it holds that system's
    bidiagonal_factors (lower, upper), which need no pivoting by the
    dominance above. It takes 5 rows or more, which leave the bottom
    system the 3 rows scipy's dgttrf wrapper takes at least (a step has
    10 or more: MIN_CELLS + 1 points on each of at least two arcs); the
    last even or odd row just has no right neighbour.

    Every row is divided by exactly one pivot on its way through: an odd
    row by its b_k, a row that reaches the bottom by its dgttrf pivot.
    scale holds those reciprocals, sigma, in march order, and solve reads
    a right-hand side already multiplied by it, so it divides nothing:
    fold_lo = -a_j sigma_j and fold_up = -c_j sigma_j add the scaled odd
    rows into the scaled even row j; odd_lo = a / b and odd_up = c / b
    on the odd rows fill in their unknowns; the bottom's lower factor has
    its pivots folded in. On a step's cut tridiagonal, an M-matrix, every
    pivot and so every sigma is positive, and each of these keeps the
    sign of the band entry it is made from.

    solve takes its vector in march order, the even rows first, so that
    the even half is contiguous. A deeper level gathers it into its own
    march order in a buffer and scatters the solution back; at the bottom
    the two dtbsv sweeps overwrite the even half in place.
    """

    fold_lo: np.ndarray
    fold_up: np.ndarray
    odd_lo: np.ndarray
    odd_up: np.ndarray
    scale: np.ndarray
    reduced: "tuple[np.ndarray, np.ndarray] | OddEvenLU"

    @classmethod
    def factor(
        cls, dl: np.ndarray, d: np.ndarray, du: np.ndarray, *, stride: int = 1
    ) -> "OddEvenLU":
        """Factor the bands dl[k] = A[k+1, k], d[k] = A[k, k], du[k] = A[k, k+1].

        A zero pivot, or a row exchange in the bottom system, raises
        LinearSolveFailure naming its 1-based row of the full system,
        whose every stride-th row this system holds.
        """
        n_even = (d.size + 1) // 2
        n_odd = d.size // 2
        odd_diag = d[1::2]
        zero = np.flatnonzero(odd_diag == 0.0)
        if zero.size:
            raise LinearSolveFailure(
                f"arc factorization failed: zero pivot in row {(2 * zero[0] + 1) * stride + 1}"
            )
        a_even, c_even = dl[1::2], du[0::2]
        a_odd, c_odd = dl[0::2], du[1::2]
        # the even rows' system, from the unscaled elimination coefficients
        elim_lo = -a_even / odd_diag[: n_even - 1]
        elim_up = -c_even / odd_diag
        diag = d[0::2].copy()
        diag[1:] += elim_lo * c_odd
        diag[:n_odd] += elim_up * a_odd
        lower = elim_lo * a_odd[: n_even - 1]
        upper = elim_up[: n_even - 1] * c_odd
        # sigma written in place: a peak RSS of the finest junction_sweep
        # level read about 0.2 MB higher with concatenated temporaries
        scale = np.empty(d.size)
        even_scale = scale[:n_even]
        if n_even > REDUCE_ROWS:
            reduced = cls.factor(lower, diag, upper, stride=2 * stride)
            # the even half's sigma, from the reduced system's march order
            half = (n_even + 1) // 2
            even_scale[0::2], even_scale[1::2] = reduced.scale[:half], reduced.scale[half:]
        else:
            bottom_lower, pivots, bottom_upper = bidiagonal_factors(
                lower, diag, upper, stride=2 * stride
            )
            reduced = (bottom_lower, bottom_upper)
            np.divide(1.0, pivots, out=even_scale)
        np.divide(1.0, odd_diag, out=scale[n_even:])
        return cls(
            -a_even * even_scale[1:],
            -c_even * even_scale[:n_odd],
            a_odd / odd_diag,
            c_odd / odd_diag[: n_even - 1],
            scale,
            reduced,
        )

    @property
    def nnz(self) -> int:
        """Stored entries: every level's four coefficient vectors and row
        scale, and the bottom level's two unit bidiagonals, n - 1 entries
        each."""
        parts = (self.fold_lo, self.fold_up, self.odd_lo, self.odd_up, self.scale)
        own = sum(p.size for p in parts)
        if isinstance(self.reduced, OddEvenLU):
            return int(own + self.reduced.nnz)
        return int(own + 2 * (self.reduced[0].shape[1] - 1))

    def solve(self, x: np.ndarray) -> None:
        """Overwrite x, a right-hand side in march order multiplied by
        scale, with the solution against the unscaled one."""
        n_even = self.fold_lo.size + 1
        even, odd = x[:n_even], x[n_even:]
        n_odd = odd.size
        even[1:] += self.fold_lo * odd[: n_even - 1]
        even[:n_odd] += self.fold_up * odd
        if isinstance(self.reduced, OddEvenLU):
            # the even half in its own march order, and back
            half = (n_even + 1) // 2
            g = np.empty_like(even)
            g[:half], g[half:] = even[0::2], even[1::2]
            self.reduced.solve(g)
            even[0::2], even[1::2] = g[:half], g[half:]
            g = even
        else:
            lower, upper = self.reduced
            g = dtbsv(1, lower, even, lower=1, diag=1, overwrite_x=1)
            g = dtbsv(1, upper, g, diag=1, overwrite_x=1)
            if g is not even:
                # f2py solved a copy: x is a strided view
                even[...] = g
        odd -= self.odd_lo * g[:n_odd]
        odd[: n_even - 1] -= self.odd_up * g[1:]


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
    its two serial bidiagonal sweeps over half the points, or fewer on
    the largest systems. Every index held here is a position in march
    order (to_march_order): the reduction's even rows first, then its
    odd ones, so solve works on contiguous halves. outer holds each
    arc's outer end. The outer values are known, so they move to the
    right-hand side of their neighbour rows (outer_row, outer_coef).
    stencil is the step's JunctionStencil.

    solve reads its right-hand side multiplied row by row by arcs.scale,
    sigma, the reciprocal pivot each row is divided by, so that nothing
    in it divides; outer_coef is the outer coupling times sigma at
    outer_row. A cut row's pivot is exactly 1, so the outer and node
    values pass through unscaled. state_scale is the step's rhs_scale
    times sigma: a step multiplies the state by it once, and solves.

    response[k] is arc window_arc[k]'s value at point window[k] when its
    junction value is 1 and everything else is 0. Eliminating the
    interiors leaves the m x m Schur complement of the stencil's node
    rows, block - diag(inner_coef * response at inner), kept as its inverse.
    """

    arcs: OddEvenLU
    state_scale: np.ndarray
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
        rhs_scale: np.ndarray,
    ) -> "ArcJunctionLU":
        """Factor the step of bands and stencil, whose right-hand side is
        rhs_scale times the state; outer holds each arc's outer end in
        march order."""
        lower, diag, upper = bands
        incoming = stencil.incoming
        size = rhs_scale.size

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
        sigma = arcs.scale
        # an incoming arc runs from its outer end to the node, an outgoing one back
        outer_row = march_index(grid_outer + np.where(incoming, 1, -1), size)
        outer_coef = np.where(incoming, lower, upper) * sigma[outer_row]
        # an incoming arc's inner point reads the node as its right neighbour
        node_band = np.where(incoming, upper, lower)

        ids = np.arange(outer.size)
        pull = np.zeros((size, outer.size), order="F")
        pull[stencil.inner, ids] = -node_band * sigma[stencil.inner]
        # one contiguous column at a time: the dtbsv sweeps solve each
        # column on its own, so this is bit for bit a block solve
        for column in pull.T:
            arcs.solve(column)
        window, window_arc = np.nonzero(np.abs(pull) >= RESPONSE_CUTOFF)
        response = pull[window, window_arc]

        schur = stencil.block - np.diag(stencil.inner_coef * pull[stencil.inner, ids])
        try:
            schur_inv = np.linalg.inv(schur)
        except np.linalg.LinAlgError as exc:
            raise LinearSolveFailure(f"junction Schur complement is singular: {exc}") from exc
        return cls(
            arcs, rhs_scale * sigma, outer, outer_row, outer_coef, stencil, schur_inv,
            window, window_arc, response,
        )

    @property
    def nnz(self) -> int:
        """Stored factor entries: the arc factors, the state scale, the
        responses and the Schur inverse."""
        return (
            self.arcs.nnz + self.state_scale.size + self.response.size + self.schur_inv.size
        )

    def solve(self, x: np.ndarray) -> None:
        """Overwrite x, in march order, with the step matrix's solution
        against a right-hand side whose rows x holds multiplied by
        arcs.scale."""
        x[self.outer_row] -= self.outer_coef * x[self.outer]
        self.arcs.solve(x)
        # the cut node rows left x[node] = rhs[node]
        stencil = self.stencil
        node = stencil.node
        u = self.schur_inv @ (x[node] + stencil.inner_coef * x[stencil.inner])
        x[node] = u
        x[self.window] += self.response * u[self.window_arc]


@dataclass(frozen=True)
class StepOperator:
    """Factorized implicit step, reusable across steps.

    bands, each arc's interior coefficients (lower, diag, upper), and
    lu.stencil, the junction condition of the node rows, define the
    step; matrix is a sparse view of it, assembled when read, kept only
    for perfbench's tracer, which counts its nonzeros (the tests build
    their own reference step and pin this view to it). rhs_scale
    maps the current state to the right-hand side: 1/dt at interior
    rows, 1 at Dirichlet rows (values persist), 0 at node rows. It is in
    march order, as are all of lu's indices. It defines the step, but a
    step multiplies by lu.state_scale, rhs_scale times the row scale
    sigma of lu's pre-scaled factors. lu solves the step arc by arc plus
    an m x m junction system; the outer values (at lu.outer) pass
    through it bitwise.
    """

    bands: tuple[np.ndarray, np.ndarray, np.ndarray]
    lu: ArcJunctionLU
    dt: float
    rhs_scale: np.ndarray

    @property
    def size(self) -> int:
        return self.rhs_scale.size

    @property
    def schur_inv_min(self) -> float:
        """The smallest entry of lu.schur_inv, the junction Schur
        complement's inverse: nonnegative exactly when positive holds."""
        return float(self.lu.schur_inv.min())

    @property
    def positive(self) -> bool:
        """Whether the step matrix's inverse is entrywise nonnegative, so
        that a step maps a nonnegative state and boundary values to a
        nonnegative state.

        The step matrix is a Z-matrix: the interior bands' off-diagonals
        are -p/h and -q/h, the block's are -K, and a node row reads its
        inner neighbour as -inner_coef <= 0. Its inverse is then nonnegative
        exactly when it is a nonsingular M-matrix. The cut tridiagonal is
        one, being strictly diagonally dominant, so that holds exactly
        when the Schur complement left after eliminating it, also a
        Z-matrix, is one too: when schur_inv >= 0 entrywise (Berman and
        Plemmons, Nonnegative Matrices in the Mathematical Sciences, 1994,
        ch. 6).
        """
        return self.schur_inv_min >= 0.0

    @property
    def matrix(self) -> scipy.sparse.csc_matrix:
        """The step matrix in grid order, assembled anew on each read."""
        s, grid_index = self.lu.stencil, to_march_order(np.arange(self.size))
        node, inner, outer = grid_index[s.node], grid_index[s.inner], grid_index[self.lu.outer]
        arc = interior_arcs(node, outer)
        r = np.flatnonzero(arc >= 0)
        # node rows: the block's nonzeros and its whole diagonal, then -inner_coef
        i, j = np.nonzero((s.block != 0.0) | np.eye(node.size, dtype=bool))
        rows = [r, r, r, outer, node[i], node]
        cols = [r - 1, r, r + 1, outer, node[j], inner]
        ends = [np.ones(outer.size), s.block[i, j], -s.inner_coef]
        vals = [b[arc[r]] for b in self.bands] + ends
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

    Raises what validate_assumptions raises on (net, K), and
    DimensionMismatch when grid has another number of arcs than net, an
    arc with fewer than MIN_CELLS cells or an arc whose span (cells
    times spacing) is not the arc's length to rounding (relative
    1e-12). epsilon and dt are taken as given:
    callers check them. Warns UnstableConfig when any spacing exceeds
    epsilon/2, the point where the boundary layer is no longer resolved,
    and when the step does not preserve positivity (StepOperator.positive).
    """
    validate_assumptions(net, K)
    if grid.arc_count != net.m:
        raise DimensionMismatch(f"grid has {grid.arc_count} arcs but the network has {net.m}")
    for arc, n, h in zip(net.arcs, grid.cells, grid.spacings):
        if n < MIN_CELLS:
            raise DimensionMismatch(
                f"arc {arc.id}: {n} cells, fewer than MIN_CELLS = {MIN_CELLS}"
            )
        if abs(n * h - arc.length) > 1e-12 * arc.length:
            raise DimensionMismatch(
                f"arc {arc.id}: the grid spans {n * h:g} but the arc is {arc.length:g} long"
            )
    alpha = alpha_from_k(K)

    if any(h > epsilon / 2.0 for h in grid.spacings):
        warnings.warn(
            f"coarsest spacing {max(grid.spacings):.3e} exceeds epsilon/2 = "
            f"{epsilon / 2.0:.3e}; the viscous layer is unresolved",
            UnstableConfig,
        )

    # each arc's ends in grid order: an incoming arc ends at the junction
    incoming = np.array([arc.incoming for arc in net.arcs])
    first = np.asarray(grid.offsets[:-1])
    last = first + np.asarray(grid.cells)
    node = np.where(incoming, last, first)
    inner = node + np.where(incoming, -1, 1)
    outer = np.where(incoming, first, last)

    # the flux rule F_{k+1/2} = p * u_k - q * u_{k+1} and the cell balances
    speed, h = net.speeds(), np.asarray(grid.spacings)
    q = epsilon / h
    p = speed + q
    bands = (-p / h, 1.0 / dt + (p + q) / h, -q / h)
    # beta_i * G_i: the node-side interface's flux, p * u_inner - q * u_node
    # out of an incoming arc and p * u_node - q * u_inner into an outgoing
    # one, plus the junction source speed * (u_node - u_inner) on incoming
    # arcs, the term ROADMAP item 1 deletes
    junction_source = np.where(incoming, speed, 0.0)
    node_coef = np.where(incoming, -q, -p) + junction_source
    inner_coef = np.where(incoming, p, q) - junction_source
    block = alpha - np.diag(node_coef)
    block.flags.writeable = False

    # outer ends: identity rows, so the Dirichlet values persist;
    # transmission rows: algebraic, no time derivative (rhs_scale 0)
    size = grid.offsets[-1]
    node, inner, outer = (march_index(k, size) for k in (node, inner, outer))
    stencil = JunctionStencil(node, inner, incoming, node_coef, inner_coef, block)
    rhs_scale = np.full(size, 1.0 / dt)
    rhs_scale[outer] = 1.0
    rhs_scale[node] = 0.0
    lu = ArcJunctionLU.factor(bands, stencil, outer, rhs_scale)
    op = StepOperator(bands=bands, lu=lu, dt=dt, rhs_scale=rhs_scale)
    if not op.positive:
        warnings.warn(
            f"the junction Schur complement's inverse has an entry {op.schur_inv_min:.3e} "
            "< 0; a step may turn nonnegative data negative",
            UnstableConfig,
        )
    return op


def step(x: np.ndarray, op: StepOperator) -> None:
    """Advance x, a state's values in march order, one implicit step in place.

    Raises LinearSolveFailure on a wrong size only: an overflow leaves
    inf or NaN in x quietly, for the caller to find where it reads the
    state (see the module docstring).
    """
    if x.shape != (op.size,):
        raise LinearSolveFailure(f"state has {x.size} values, operator expects {op.size}")
    # a non-finite value would meet the cut rows' zero couplings as 0 * inf
    with np.errstate(over="ignore", invalid="ignore"):
        x *= op.lu.state_scale
        op.lu.solve(x)


def flux_residual(x: np.ndarray, op: StepOperator) -> float:
    """Junction flux imbalance sum_i beta_i * G_i of the node stencil, for
    x in march order.

    Incoming fluxes minus outgoing ones; zero for any state satisfying
    the node rows.
    """
    s = op.lu.stencil
    return s.residual(x[s.node], x[s.inner])
