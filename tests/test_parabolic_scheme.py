"""Implicit step operator: frozen stencil, positivity, node constraints."""

from __future__ import annotations

import contextlib
import dataclasses
import warnings

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dgttrs

from conftest import cross_ones_coupling, random_coupling, random_network, simple_star
from starflux import (
    ArcProfile,
    CouplingMatrix,
    DimensionMismatch,
    LinearSolveFailure,
    PiecewiseConstantField,
    ResolventProblem,
    SolverConfig,
    UnstableConfig,
    discrete_l1_norm,
    make_grid,
    march_to_steady,
    new_state,
    resolvent_forcing_field,
    solve_parabolic,
)
from starflux.dataprep import PiecewisePoly, PolynomialPiece
from starflux.grids import MIN_CELLS, adopt_state, sample_on_grid, weighted_l1
from starflux.parabolic import evolve, scheme
from starflux.parabolic.scheme import (
    RESPONSE_CUTOFF,
    ArcJunctionLU,
    JunctionStencil,
    OddEvenLU,
    assemble_step_operator,
    flux_residual,
    march_index,
    step,
    to_grid_order,
    to_march_order,
)


def small_pair():
    """1-in/1-out star with hand-checkable numbers."""
    net = simple_star([1.0], [2.0])
    K = CouplingMatrix.from_array([[0.0, 1.5], [1.5, 0.0]], net)
    return net, K


def grid_positions(op, index):
    """The grid-order positions of march-order positions index."""
    return to_march_order(np.arange(op.size))[index]


def node_defect(x, op):
    """Largest defect of the node rows for x, in march order."""
    return float(np.max(np.abs(op.lu.stencil.defect(x))))


def advance(state, op):
    """state one step later, the way the march takes it: gathered into
    march order, stepped in place and scattered back."""
    x = to_march_order(state.flat)
    step(x, op)
    return adopt_state(op.grid, to_grid_order(x), state.t + op.dt)


def test_step_matrix_frozen_ten_by_ten():
    """Full stencil for 4 cells per arc, worked out by hand.

    eps=0.8, h=0.25, dt=0.1: interior rows carry 1/dt + speed/h + 2eps/h^2
    on the diagonal, the node rows the one-sided viscous transmission.
    """
    net, K = small_pair()
    grid = make_grid(net, h=0.25)
    op = assemble_step_operator(net, K, grid, 0.8, 0.1)

    A = np.zeros((10, 10))
    A[0, 0] = 1.0
    for r in (1, 2, 3):
        A[r, r] = 10.0 + 4.0 + 25.6
        A[r, r - 1] = -(4.0 + 12.8)
        A[r, r + 1] = -12.8
    # incoming node row at index 4: alpha_00 - speed + eps/h
    A[4, 4] = 1.5 - 1.0 + 3.2
    A[4, 3] = -3.2
    A[4, 5] = -1.5
    # outgoing node row at index 5: alpha_11 + speed + eps/h
    A[5, 5] = 1.5 + 2.0 + 3.2
    A[5, 6] = -3.2
    A[5, 4] = -1.5
    for r in (6, 7, 8):
        A[r, r] = 10.0 + 8.0 + 25.6
        A[r, r - 1] = -(8.0 + 12.8)
        A[r, r + 1] = -12.8
    A[9, 9] = 1.0

    np.testing.assert_allclose(op.matrix.toarray(), A, atol=1e-13)
    expected_scale = np.array([1.0] + [10.0] * 3 + [0.0, 0.0] + [10.0] * 3 + [1.0])
    np.testing.assert_allclose(to_grid_order(op.rhs_scale), expected_scale)
    stencil = op.lu.stencil
    assert grid_positions(op, stencil.node).tolist() == [4, 5]
    assert grid_positions(op, stencil.inner).tolist() == [3, 6]
    assert grid_positions(op, op.lu.outer).tolist() == [0, 9]
    assert stencil.beta.tolist() == [1.0, -1.0]
    # the projection block is the node rows restricted to the junction values
    np.testing.assert_array_equal(stencil.block, A[4:6, 4:6])
    # march order: grid points 0, 2, 4, 6, 8, then 1, 3, 5, 7, 9
    np.testing.assert_allclose(op.rhs_scale, expected_scale[[0, 2, 4, 6, 8, 1, 3, 5, 7, 9]])
    assert stencil.node.tolist() == [2, 7]
    assert stencil.inner.tolist() == [6, 3]
    assert op.lu.outer.tolist() == [0, 9]
    assert op.lu.outer_row.tolist() == [5, 4]


def test_operator_holds_one_stencil_and_no_grid_order_indices():
    """The junction condition is held once, by the factorization, in march
    order; the operator keeps no grid-order copy of it or of the outer ends."""
    net, K = small_pair()
    op = assemble_step_operator(net, K, make_grid(net, h=0.25), 0.8, 0.1)

    def stencils(obj):
        if isinstance(obj, JunctionStencil):
            return [obj]
        if not dataclasses.is_dataclass(obj):
            return []
        return [s for f in dataclasses.fields(obj) for s in stencils(getattr(obj, f.name))]

    assert stencils(op) == [op.lu.stencil]
    assert {f.name for f in dataclasses.fields(op)} == {"bands", "lu", "grid", "dt", "rhs_scale"}


def test_step_keeps_dirichlet_values_and_node_rows():
    net, K = small_pair()
    grid = make_grid(net, h=0.05)
    op = assemble_step_operator(net, K, grid, 0.8, 0.02)

    rng = np.random.default_rng(2)
    state = new_state(
        grid, [rng.uniform(0.0, 1.0, n + 1) for n in grid.cells], 0.0
    )
    x = to_march_order(state.flat)
    step(x, op)
    nxt = to_grid_order(x)
    # outer values persist through the identity rows
    assert nxt[0] == pytest.approx(state.values[0][0])
    assert nxt[-1] == pytest.approx(state.values[1][-1])
    # node rows are solved exactly, so the junction flux balances
    assert abs(flux_residual(x, op)) <= 1e-12
    assert node_defect(x, op) <= 1e-12


def blowup_operator(op):
    """op with every right-hand-side scale infinite: its step meets the cut
    rows' zero couplings as 0 * inf and leaves NaN behind."""
    return dataclasses.replace(op, rhs_scale=np.full(op.size, np.inf))


def test_step_rejects_wrong_size_only():
    net, K = small_pair()
    grid = make_grid(net, h=0.25)
    op = assemble_step_operator(net, K, grid, 0.8, 0.1)
    finer = make_grid(net, h=0.125)
    with pytest.raises(LinearSolveFailure, match="operator expects 10"):
        step(np.ones(finer.offsets[-1]), op)
    with pytest.raises(LinearSolveFailure, match="operator expects 10"):
        step(np.ones((10, 1)), op)

    # a blow-up stays quiet in step; the marches check the state they read
    x = np.ones(op.size)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        step(x, blowup_operator(op))
    assert not np.isfinite(x).all()


def test_blowup_stops_both_marches(monkeypatch):
    """A step that leaves inf or NaN behind ends solve_parabolic (through the
    minimum and L1 norm it records) and march_to_steady (on its result)
    with LinearSolveFailure, and no warning on the way."""
    assemble = evolve.assemble_step_operator
    monkeypatch.setattr(
        evolve, "assemble_step_operator", lambda *args: blowup_operator(assemble(*args))
    )
    net, K = small_pair()
    zero = PiecewiseConstantField.constant(net, [0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LinearSolveFailure, match="non-finite"):
            solve_parabolic(net, K, zero, [0.0, 0.0], SolverConfig(epsilon=0.4, T=0.05))
        prob = ResolventProblem.build(1.0, zero, [0.5, 0.0])
        with pytest.raises(LinearSolveFailure, match="non-finite"):
            march_to_steady(net, K, make_grid(net, h=0.05), 0.8, prob)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "overflow"])
def test_march_rejects_every_non_finite_state(monkeypatch, bad):
    """NaN and -inf show in the recorded minimum, +inf in the L1 norm, and
    so does an L1 sum that overflows on finite values."""
    marched = evolve.step

    def spoil(x, op):
        marched(x, op)
        if bad == "overflow":
            x[:] = np.finfo(float).max
        else:
            x[op.size // 2] = bad

    monkeypatch.setattr(evolve, "step", spoil)
    net, K = small_pair()
    zero = PiecewiseConstantField.constant(net, [0.0, 0.0])
    cfg = SolverConfig(epsilon=0.4, T=0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("error" if bad != "overflow" else "ignore")
        with pytest.raises(LinearSolveFailure, match="non-finite"):
            solve_parabolic(net, K, zero, [0.0, 0.0], cfg)


def test_solve_parabolic_rejects_a_state_from_another_grid():
    net, K = small_pair()
    cfg = SolverConfig(epsilon=0.4, T=0.05)
    coarse = make_grid(net, h=0.25)
    state = new_state(coarse, [np.zeros(n + 1) for n in coarse.cells])
    with pytest.raises(DimensionMismatch, match="^arc 0: state has 5 points for 20 cells$"):
        solve_parabolic(net, K, state, [0.0, 0.0], cfg)


def test_march_outputs_are_read_only_states_of_their_own():
    """step overwrites its vector in place; the states the march and the
    steady solve hand out are read-only and share no memory."""
    net, K = small_pair()
    grid = make_grid(net, h=0.25)
    op = assemble_step_operator(net, K, grid, 0.8, 0.1)
    x = np.linspace(0.0, 1.0, op.size)
    before = x.copy()
    assert step(x, op) is None
    assert x.tobytes() != before.tobytes()

    pulse = PiecewiseConstantField(
        (
            ArcProfile.from_lists(1.0, [0.3, 0.6], [0.0, 1.0, 0.0]),
            ArcProfile.from_lists(1.0, [], [0.0]),
        )
    )
    traj = solve_parabolic(net, K, pulse, [0.0, 0.0], SolverConfig(epsilon=0.8, T=0.05))
    steady = march_to_steady(net, K, grid, 0.8, ResolventProblem.build(0.1, pulse, [0.5, 0.0]))
    for state, g in ((traj.initial, traj.grid), (traj.final, traj.grid), (steady, grid)):
        assert not state.flat.flags.writeable
        assert state.bounds == g.offsets
    assert not np.shares_memory(traj.initial.flat, traj.final.flat)


def test_flux_residual_of_constant_state():
    """All-ones state: imbalance is the speed difference across the node."""
    net, K = small_pair()
    grid = make_grid(net, h=0.25)
    op = assemble_step_operator(net, K, grid, 0.8, 0.1)
    assert flux_residual(np.ones(op.size), op) == pytest.approx(1.0 - 2.0)


def test_projection_enforces_node_conditions():
    net, K = small_pair()
    grid = make_grid(net, h=0.1)
    op = assemble_step_operator(net, K, grid, 0.8, 0.05)
    state = new_state(
        grid, [np.linspace(1.0, 2.0, n + 1) for n in grid.cells], 0.0
    )
    stencil = op.lu.stencil
    before = to_march_order(state.flat)
    x = before.copy()
    assert node_defect(x, op) > 1e-3
    stencil.project(x)
    assert node_defect(x, op) <= 1e-13
    # only the two junction values moved
    rest = np.ones(op.size, dtype=bool)
    rest[stencil.node] = False
    np.testing.assert_array_equal(x[rest], before[rest])
    # node rows that only read their inner neighbours cannot be solved for
    mute = dataclasses.replace(stencil, block=np.zeros((2, 2)))
    with pytest.raises(LinearSolveFailure, match="node projection failed"):
        mute.project(x)


def test_unresolved_layer_warns():
    net, K = small_pair()
    grid = make_grid(net, h=0.25)
    with pytest.warns(UnstableConfig):
        assemble_step_operator(net, K, grid, 0.1, 0.1)


def test_positivity_random_states():
    """Nonnegative data stays nonnegative when the layer is resolved."""
    rng = np.random.default_rng(19)
    for _ in range(10):
        net = random_network(rng, m_max=5)
        K = random_coupling(rng, net)
        lam_max = float(np.max(net.speeds()))
        eps = float(rng.uniform(0.3, 1.0))
        grid = make_grid(net, h=eps / (8.0 * max(1.0, lam_max)))
        op = assemble_step_operator(net, K, grid, eps, 0.01)
        x = rng.uniform(0.0, 2.0, op.size)
        op.lu.stencil.project(x)
        floor = 0.0
        for _ in range(20):
            step(x, op)
            floor = min(floor, float(np.min(x)))
        assert floor >= -1e-12


def test_solve_parabolic_zero_boundary_pulse_contracts():
    """Compactly supported pulse with zero inflow: L1 norm never grows."""
    net, K = small_pair()
    u0 = PiecewiseConstantField(
        (
            ArcProfile.from_lists(1.0, [0.3, 0.6], [0.0, 1.0, 0.0]),
            ArcProfile.from_lists(1.0, [], [0.0]),
        )
    )
    cfg = SolverConfig(epsilon=0.4, T=0.5, dt=0.01)
    traj = solve_parabolic(net, K, u0, [0.0, 0.0], cfg)
    norms = traj.diagnostics[:, 1]
    assert np.max(np.diff(norms)) <= 1e-10
    assert norms[0] > norms[-1]
    assert traj.diagnostics.shape[1] == 4
    # every per-step junction residual is at solver precision
    assert np.max(np.abs(traj.diagnostics[:, 3])) <= 1e-10


def test_solve_parabolic_zero_state_stays_zero():
    net, K = small_pair()
    cfg = SolverConfig(epsilon=0.5, T=0.2)
    traj = solve_parabolic(
        net, K, PiecewiseConstantField.constant(net, [0.0, 0.0]), [0.0, 0.0], cfg
    )
    assert not np.any(traj.final.flat)


def test_solve_parabolic_diagnostics_align_with_norm():
    net = simple_star([1.0, 2.0], [1.5, 0.5])
    K = cross_ones_coupling(net)
    u0 = PiecewiseConstantField.constant(net, [1.0, 1.0, 0.0, 0.0])
    cfg = SolverConfig(epsilon=0.5, T=0.1)
    # the jump across the junction violates the node conditions, which
    # the solver reports before projecting it away
    with pytest.warns(UserWarning, match="node conditions"):
        traj = solve_parabolic(net, K, u0, [1.0, 1.0, 0.0, 0.0], cfg)
    assert traj.diagnostics[0, 1] == pytest.approx(
        discrete_l1_norm(traj.initial, traj.grid)
    )
    assert traj.final.t == pytest.approx(0.1)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 8))
def test_march_starts_from_the_sampled_data_with_inflow_and_node_values_set(seed, m):
    """traj.initial is the sampled data with B written bitwise at the inflow
    ends and the m junction values moved so the node rows hold; nothing
    else differs. The warning reports the node defect of the data after
    the inflow override, before the projection."""
    rng = np.random.default_rng(seed)
    net = random_network(rng, m_min=m, m_max=m)
    K = random_coupling(rng, net)
    u0 = resolvent_forcing_field(net, rng)
    B = rng.uniform(0.0, 2.0, m)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        traj = solve_parabolic(net, K, u0, B, SolverConfig(float(rng.uniform(0.3, 1.0)), 0.02))
    grid, start = traj.grid, traj.initial.flat

    incoming = np.array([arc.incoming for arc in net.arcs])
    first = np.asarray(grid.offsets[:-1])
    node = first + np.where(incoming, grid.cells, 0)
    inflow = first[incoming]
    data = sample_on_grid(u0.arcs, grid).flat.copy()
    assert start[inflow].tobytes() == B[incoming].tobytes()
    data[inflow] = B[incoming]
    moved = np.flatnonzero(start != data)
    assert set(moved.tolist()) <= set(node.tolist())

    node_rows = traj.operator.matrix.toarray()[node]
    rounding = 8 * np.finfo(float).eps * (np.abs(node_rows) @ np.abs(start))
    assert (np.abs(node_rows @ start) <= rounding).all()
    defect = float(np.max(np.abs(node_rows @ data)))
    warned = [str(w.message) for w in caught if "initial data violates" in str(w.message)]
    assert warned == ([f"initial data violates the discrete node conditions by {defect:.3e}"]
                      if defect > 1e-8 else [])


def loop_flux_residual(state, net, grid, eps):
    """Reference: one-sided junction fluxes arc by arc, summed in arc order."""
    total = 0.0
    for i, arc in enumerate(net.arcs):
        vals, h = state.values[i], grid.spacings[i]
        if arc.incoming:
            total += arc.speed * vals[-1] - eps * ((vals[-1] - vals[-2]) / h)
        else:
            total -= arc.speed * vals[0] - eps * ((vals[1] - vals[0]) / h)
    return total


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 8))
def test_node_conditions_hold_after_projection_and_step(seed, m):
    """Projected data and one step from it satisfy the junction stencil.

    Both residuals are measured against the rounding scale of a node
    row: its absolute coefficients times the largest data value.
    """
    rng = np.random.default_rng(seed)
    net = random_network(rng, m_min=m, m_max=m)
    K = random_coupling(rng, net)
    eps = float(rng.uniform(0.3, 1.0))
    lam_max = float(np.max(net.speeds()))
    grid = make_grid(net, h=eps / (8.0 * max(1.0, lam_max)))
    op = assemble_step_operator(net, K, grid, eps, 0.01)
    stencil = op.lu.stencil
    row_scale = float(np.max(np.sum(np.abs(stencil.block), axis=1) + stencil.eh))
    top = 2.0
    tol = 1e-12 * row_scale * top

    state = new_state(
        grid, [rng.uniform(0.0, top, n + 1) for n in grid.cells], 0.0
    )
    x = to_march_order(state.flat)
    assert flux_residual(x, op) == loop_flux_residual(state, net, grid, eps)
    stencil.project(x)
    assert node_defect(x, op) <= tol
    assert abs(flux_residual(x, op)) <= tol

    step(x, op)
    assert node_defect(x, op) <= tol
    assert abs(flux_residual(x, op)) <= tol


@pytest.mark.filterwarnings("ignore:initial data violates")
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 8))
def test_march_diagnostics_match_per_arc_formulas(seed, m):
    """Every diagnostics row, recomputed arc by arc from its state.

    The states come from advance, one step at a time, and must match the
    march's vector bit for bit. The march sums the trapezoid L1 norm as
    one weighted sum in march order, which regroups the per-arc sums, so
    it may differ in the last bits. Everything else is exact.
    """
    rng = np.random.default_rng(seed)
    net = random_network(rng, m_min=m, m_max=m)
    K = random_coupling(rng, net)
    eps = float(rng.uniform(0.3, 1.0))
    u0 = resolvent_forcing_field(net, rng)
    B = rng.uniform(0.0, 2.0, net.m)
    cfg = SolverConfig(epsilon=eps, T=0.05)
    traj = solve_parabolic(net, K, u0, B, cfg)
    grid = traj.grid

    # re-march the recorded start on the recorded operator, one state at a time
    state = traj.initial
    for k, (t, l1, low, flux) in enumerate(traj.diagnostics):
        if k:
            state = advance(state, traj.operator)
        assert t == state.t
        assert low == min(float(np.min(v)) for v in state.values)
        assert flux == loop_flux_residual(state, net, grid, eps)
        ends = [v[-1] if arc.incoming else v[0] for arc, v in zip(net.arcs, state.values)]
        assert traj.node_history[k].tolist() == ends
        per_arc = 0.0
        for vals, h in zip(state.values, grid.spacings):
            a = np.abs(vals)
            per_arc += h * (0.5 * a[0] + np.sum(a[1:-1]) + 0.5 * a[-1])
        assert abs(l1 - per_arc) <= 4 * np.finfo(float).eps * per_arc
    assert state.t == traj.final.t
    assert state.flat.tobytes() == traj.final.flat.tobytes()


@pytest.mark.filterwarnings("ignore:initial data violates")
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 8))
def test_outer_values_persist_bitwise(seed, m):
    """A step copies every outer Dirichlet value, and a march keeps B there."""
    rng = np.random.default_rng(seed)
    net = random_network(rng, m_min=m, m_max=m)
    K = random_coupling(rng, net)
    eps = float(rng.uniform(0.3, 1.0))
    h_rule = 8.0 * max(1.0, float(np.max(net.speeds())))
    grid = make_grid(net, epsilon=eps, rule_constant=h_rule)
    op = assemble_step_operator(net, K, grid, eps, 0.01)
    outer = op.lu.outer
    before = rng.uniform(0.0, 2.0, op.size)
    x = before.copy()
    step(x, op)
    assert x[outer].tolist() == before[outer].tolist()

    B = rng.uniform(0.0, 2.0, net.m)
    flat = to_grid_order(before)
    flat[grid_positions(op, outer)] = B
    u0 = new_state(grid, [flat[a:b] for a, b in zip(grid.offsets, grid.offsets[1:])])
    traj = solve_parabolic(net, K, u0, B, SolverConfig(eps, 0.05, 0.01, h_rule))
    assert traj.diagnostics.shape[0] > 2
    assert to_march_order(traj.final.flat)[outer].tolist() == B.tolist()


def with_parity(grid, net, odd_total):
    """grid, with one more cell on arc 0 if that gives the point total's parity."""
    if grid.offsets[-1] % 2 == odd_total:
        return grid
    n = grid.cells[0] + 1
    return dataclasses.replace(
        grid,
        cells=(n,) + grid.cells[1:],
        spacings=(net.arcs[0].length / n,) + grid.spacings[1:],
    )


@contextlib.contextmanager
def reduction_depth(size, depth):
    """Make OddEvenLU.factor reduce a size-row system depth times, or as
    often as leaves dgttrf the 3 rows its wrapper needs; yields that count.

    The threshold becomes the row count of the last reduced system.
    """
    rows, levels = size, 0
    while levels < depth and (rows + 1) // 2 >= 3:
        rows, levels = (rows + 1) // 2, levels + 1
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scheme, "REDUCE_ROWS", rows)
        yield levels


def reduction_levels(lu):
    """An OddEvenLU's levels, the full system's first, dgttrf's last."""
    levels = [lu]
    while isinstance(levels[-1].reduced, OddEvenLU):
        levels.append(levels[-1].reduced)
    return levels


def random_star_operator(seed, m, coarse, odd_total, depth=1):
    """Step operator of a random m-arc star with the given point-total
    parity, its tridiagonal reduced depth times (fewer on the smallest
    coarse stars, see reduction_depth).

    coarse puts MIN_CELLS cells on every arc but possibly one. Random
    step sizes, up to the steady solve's step lengths theta, make the
    arcs' junction responses fall below the cutoff in some draws and
    span whole arcs in others.
    """
    rng = np.random.default_rng(seed)
    net = random_network(rng, m_min=m, m_max=m)
    K = random_coupling(rng, net)
    eps = float(rng.uniform(0.3, 1.0))
    grid = make_grid(net, h=10.0 if coarse else float(rng.uniform(0.02, 0.1)))
    grid = with_parity(grid, net, odd_total)
    if coarse:
        assert min(grid.cells) == MIN_CELLS
    dt = float(10.0 ** rng.uniform(-4.5, 0.5))
    with reduction_depth(grid.offsets[-1], depth) as levels:
        op = assemble_step_operator(net, K, grid, eps, dt)
    assert len(reduction_levels(op.lu.arcs)) == levels
    return rng, op


star_draws = given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 8),
    coarse=st.booleans(),
    odd_total=st.booleans(),
    depth=st.integers(1, 3),
)


@pytest.mark.filterwarnings("ignore::starflux.UnstableConfig")
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@star_draws
def test_arc_junction_lu_matches_dense_solve(seed, m, coarse, odd_total, depth):
    """op.lu.solve and step, in march order, against dense solves of
    op.matrix at both parities and one to three reduction levels;
    gathering into march order and scattering back, and the outer values
    through a step, are exact. The matrix view's node rows are the
    stencil's, and it stores three entries per interior point, one per
    outer end and the node rows' entries."""
    rng, op = random_star_operator(seed, m, coarse, odd_total, depth)
    assert op.size % 2 == odd_total
    # the cut boundary rows leave nothing for dgttrf to pivot
    dl, d, du, du2, ipiv = reduction_levels(op.lu.arcs)[-1].reduced
    assert ipiv.tolist() == list(range(1, d.size + 1))
    matrix = op.matrix.toarray()

    stencil = op.lu.stencil
    state = rng.normal(size=op.size)
    node_rows = matrix[grid_positions(op, stencil.node)]
    rounding = 8 * np.finfo(float).eps * (np.abs(node_rows) @ np.abs(state))
    defect = stencil.defect(to_march_order(state))
    assert (np.abs(node_rows @ state - defect) <= rounding).all()
    block_nnz = np.count_nonzero((stencil.block != 0.0) | np.eye(m, dtype=bool))
    assert op.matrix.nnz == 3 * (op.size - 2 * m) + m + block_nnz + m

    rhs = rng.normal(size=op.size)
    expected = np.linalg.solve(matrix, rhs)
    x = to_march_order(rhs)
    op.lu.solve(x)
    np.testing.assert_allclose(
        to_grid_order(x), expected, rtol=0.0, atol=1e-10 * np.max(np.abs(expected))
    )

    flat = rng.uniform(0.0, 2.0, op.size)
    x = to_march_order(flat)
    assert x.flags.c_contiguous and not np.shares_memory(x, flat)
    assert to_grid_order(x).tobytes() == flat.tobytes()
    k = np.arange(op.size)
    assert x[march_index(k, op.size)].tobytes() == flat.tobytes()
    expected = np.linalg.solve(matrix, to_grid_order(op.rhs_scale) * flat)
    step(x, op)
    got = to_grid_order(x)
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-10 * np.max(np.abs(expected)))
    outer = grid_positions(op, op.lu.outer)
    assert got[outer].tobytes() == flat[outer].tobytes()


def test_dgttrs_overwrites_the_even_half_in_place():
    """The step hands dgttrs the contiguous even half of its vector; the
    solve must come back in that very slice, not in a copy."""
    net, K = small_pair()
    op = assemble_step_operator(net, K, make_grid(net, h=0.05), 0.8, 0.02)
    x = np.linspace(1.0, 2.0, op.size)
    even = x[: (op.size + 1) // 2]
    before = even.copy()
    g, info = dgttrs(*op.lu.arcs.reduced, even, overwrite_b=True)
    assert info == 0 and g is even
    assert even.tobytes() != before.tobytes()


def cut_tridiagonal(op):
    """The step matrix's three bands with the node and outer rows and
    columns replaced by unit rows, as a dense array."""
    tri = np.triu(np.tril(op.matrix.toarray(), 1), -1)
    cut = grid_positions(op, np.concatenate([op.lu.stencil.node, op.lu.outer]))
    tri[cut, :] = 0.0
    tri[:, cut] = 0.0
    tri[cut, cut] = 1.0
    return tri


@pytest.mark.filterwarnings("ignore::starflux.UnstableConfig")
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@star_draws
def test_reduced_system_is_diagonally_dominant(seed, m, coarse, odd_total, depth):
    """The stability argument for factoring the reduced systems unpivoted.

    Eliminating the odd unknowns of the cut tridiagonal leaves the Schur
    complement over the even ones, and each further level does the same
    to the one before. Each is tridiagonal and strictly diagonally
    dominant by rows and by columns, and the stored factors of the last
    are its LU factors without row exchanges.
    """
    _, op = random_star_operator(seed, m, coarse, odd_total, depth)
    schur = cut_tridiagonal(op)
    even, odd = slice(0, None, 2), slice(1, None, 2)
    for level in reduction_levels(op.lu.arcs):
        tri = schur
        odd_diag = np.diag(tri[odd, odd])
        assert (np.diag(odd_diag) == tri[odd, odd]).all()
        np.testing.assert_allclose(level.odd_diag, odd_diag, rtol=1e-13)
        schur = tri[even, even] - tri[even, odd] @ (tri[odd, even] / odd_diag[:, None])
        assert (np.triu(schur, 2) == 0.0).all() and (np.tril(schur, -2) == 0.0).all()
        diag = np.abs(np.diag(schur))
        off = np.abs(schur - np.diag(np.diag(schur)))
        assert (diag > off.sum(axis=1)).all()
        assert (diag > off.sum(axis=0)).all()

    dl, d, du, du2, ipiv = level.reduced
    assert ipiv.tolist() == list(range(1, d.size + 1))
    assert not du2.any()
    lower = np.eye(d.size) + np.diag(dl, -1)
    upper = np.diag(d) + np.diag(du, 1)
    np.testing.assert_allclose(lower @ upper, schur, rtol=0.0, atol=1e-13 * diag.max())


@pytest.mark.filterwarnings("ignore::starflux.UnstableConfig")
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@star_draws
def test_junction_responses_are_single_arc_solves(seed, m, coarse, odd_total, depth):
    """The responses, solved as one (n, m) block, equal m single solves bit
    for bit: steps and responses share one solve path, in march order,
    at every reduction depth."""
    _, op = random_star_operator(seed, m, coarse, odd_total, depth)
    lu, (lower, _, upper) = op.lu, op.bands
    # an incoming arc's inner point reads the node as its right neighbour
    inner_coef = np.where(lu.stencil.beta > 0.0, upper, lower)
    for i in range(m):
        pull = np.zeros(op.size)
        pull[lu.stencil.inner[i]] = -inner_coef[i]
        lu.arcs.solve(pull)
        mine = lu.window_arc == i
        assert lu.response[mine].tolist() == pull[lu.window[mine]].tolist()
        rest = np.ones(op.size, dtype=bool)
        rest[lu.window[mine]] = False
        assert (np.abs(pull[rest]) < RESPONSE_CUTOFF).all()


def sequential_residual(x, stencil):
    """sum_i beta_i * F_i from numpy arrays of the fluxes, summed in arc order."""
    u = x[stencil.node]
    du = (u - x[stencil.inner]) / stencil.h
    flux = stencil.speed * u - stencil.epsilon * stencil.beta * du
    total = 0.0
    for term in (stencil.beta * flux).tolist():
        total += term
    return total


@pytest.mark.filterwarnings("ignore:initial data violates")
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@star_draws
def test_march_equals_a_plain_step_loop(seed, m, coarse, odd_total, depth):
    """solve_parabolic's diagnostics, junction history and final state,
    bit for bit, against a loop of step and the plain reductions over the
    recorded start and operator, at both parities and one to three
    reduction levels."""
    rng = np.random.default_rng(seed)
    net = random_network(rng, m_min=m, m_max=m)
    K = random_coupling(rng, net)
    # coarse: a viscosity so large that every arc gets MIN_CELLS cells
    eps, h_rule = (10.0, 4.0) if coarse else (float(rng.uniform(0.3, 1.0)), 8.0)
    grid = with_parity(make_grid(net, epsilon=eps, rule_constant=h_rule), net, odd_total)
    u0 = resolvent_forcing_field(net, rng)
    B = rng.uniform(0.0, 2.0, net.m)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evolve, "make_grid", lambda *args, **kwargs: grid)
        with reduction_depth(grid.offsets[-1], depth) as levels:
            traj = solve_parabolic(net, K, u0, B, SolverConfig(eps, 0.05, h_rule=h_rule))
    op = traj.operator
    assert len(reduction_levels(op.lu.arcs)) == levels
    stencil = op.lu.stencil

    # the first row reads the start state in grid order, every later one the vector
    start = traj.initial.flat
    x = to_march_order(start)
    weights = to_march_order(grid.weights)
    t = traj.initial.t
    rows = [(t, weighted_l1(start, grid.weights), float(np.min(start)),
             sequential_residual(x, stencil))]
    nodes = [x[stencil.node]]
    for _ in range(traj.diagnostics.shape[0] - 1):
        step(x, op)
        t += op.dt
        rows.append((t, weighted_l1(x, weights), float(np.min(x)), sequential_residual(x, stencil)))
        nodes.append(x[stencil.node])
    assert traj.diagnostics.tobytes() == np.asarray(rows).tobytes()
    assert traj.node_history.tobytes() == np.asarray(nodes).tobytes()
    assert traj.final.flat.tobytes() == to_grid_order(x).tobytes()


def test_arc_junction_lu_rejects_singular_systems():
    net, K = small_pair()
    grid = make_grid(net, h=0.25)
    op = assemble_step_operator(net, K, grid, 0.8, 0.1)
    # a zero diagonal on arc 0 (grid rows 1-3) leaves its first interior
    # row, eliminated by the reduction, an exactly zero pivot
    lower, diag, upper = op.bands
    broken = (lower, np.where(np.arange(2) == 0, 0.0, diag), upper)
    with pytest.raises(LinearSolveFailure, match="zero pivot in row 2$"):
        ArcJunctionLU.factor(broken, op.lu.stencil, op.lu.outer, op.size)
    # node rows that only read their inner neighbours: S = 0
    mute = dataclasses.replace(op.lu.stencil, block=np.zeros((2, 2)), eh=np.zeros(2))
    with pytest.raises(LinearSolveFailure, match="Schur complement is singular"):
        ArcJunctionLU.factor(op.bands, mute, op.lu.outer, op.size)


@pytest.mark.parametrize("column", [1, 2, 3, 6, 7])
def test_zero_pivot_names_its_row_of_the_full_system(column):
    """Zeroing interior column c of the cut tridiagonal leaves a zero
    pivot in 1-based row c + 1, whether that row is eliminated (odd c)
    or kept in the reduced system."""
    net, K = small_pair()
    grid = make_grid(net, h=0.25)
    tri = cut_tridiagonal(assemble_step_operator(net, K, grid, 0.8, 0.1))
    tri[:, column] = 0.0
    with pytest.raises(LinearSolveFailure, match=f"zero pivot in row {column + 1}$"):
        OddEvenLU.factor(np.diag(tri, -1), np.diag(tri), np.diag(tri, 1))


@pytest.mark.parametrize("depth", [2, 3])
@pytest.mark.parametrize("column", [1, 2, 3, 4, 5, 6, 7, 10, 11, 12, 13, 14, 15, 16])
def test_zero_pivot_names_its_row_at_any_depth(depth, column):
    """As above on 18 rows, reduced to 5 or 3: the zero pivot turns up in
    whichever level's odd rows or bottom system holds row column + 1,
    and the message still names that row of the full system."""
    net, K = small_pair()
    grid = make_grid(net, h=0.125)
    tri = cut_tridiagonal(assemble_step_operator(net, K, grid, 0.8, 0.1))
    tri[:, column] = 0.0
    with reduction_depth(tri.shape[0], depth) as levels:
        assert levels == depth
        with pytest.raises(LinearSolveFailure, match=f"zero pivot in row {column + 1}$"):
            OddEvenLU.factor(np.diag(tri, -1), np.diag(tri), np.diag(tri, 1))


def dominant_bands(rng, n):
    """Bands of a random n-row tridiagonal, strictly diagonally dominant
    by rows and by columns."""
    dl, du = rng.uniform(-1.0, 1.0, n - 1), rng.uniform(-1.0, 1.0, n - 1)
    d = rng.choice([-1.0, 1.0], n) * rng.uniform(2.5, 4.0, n)
    return dl, d, du


@pytest.mark.parametrize("n", range(1, 9))
def test_odd_even_lu_solves_every_size(n):
    """From 1 row up, with vector right-hand sides in march order, alone and
    as the contiguous columns of a block: scipy's dgttrf wrapper takes no
    fewer than 3 rows, so a 1-row bottom system is divided out and a 2-row
    one reduced again."""
    rng = np.random.default_rng(n)
    dl, d, du = dominant_bands(rng, n)
    dense = np.diag(d) + np.diag(dl, -1) + np.diag(du, 1)
    lu = OddEvenLU.factor(dl, d, du)
    levels = reduction_levels(lu)
    bottom = levels[-1].reduced
    if n <= 4:
        assert len(bottom) == 1 and bottom[0].size == 1
    else:
        assert len(levels) == 1 and bottom[1].size == (n + 1) // 2
    b = rng.normal(size=(n, 3))
    expected = np.linalg.solve(dense, b)
    # column by column, as ArcJunctionLU.factor solves its responses
    x = np.asfortranarray(np.concatenate([b[0::2], b[1::2]]))
    for column in x.T:
        lu.solve(column)
    np.testing.assert_allclose(to_grid_order(x), expected, rtol=1e-13, atol=1e-15)
    x = to_march_order(b[:, 0])
    lu.solve(x)
    np.testing.assert_allclose(to_grid_order(x), expected[:, 0], rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("n", range(1, 9))
def test_zero_pivot_names_its_row_in_every_size(n):
    """A zeroed column c leaves a zero pivot in 1-based row c + 1, in the
    tiny systems dgttrf never sees as in the rest."""
    rng = np.random.default_rng(100 + n)
    dl, d, du = dominant_bands(rng, n)
    for c in range(n):
        bands = dl.copy(), d.copy(), du.copy()
        bands[1][c] = 0.0
        if c > 0:
            bands[2][c - 1] = 0.0
        if c < n - 1:
            bands[0][c] = 0.0
        with pytest.raises(LinearSolveFailure, match=f"zero pivot in row {c + 1}$"):
            OddEvenLU.factor(*bands)


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_nnz_counts_every_level(depth):
    """nnz adds each level's five coefficient vectors, 3 n_odd + 2 n_even
    - 2 entries for n rows, to dgttrf's four bands of the last system."""
    _, op = random_star_operator(7, 3, False, True, depth)
    assert len(reduction_levels(op.lu.arcs)) == depth
    rows, expected = op.size, 0
    for _ in range(depth):
        n_even, n_odd = (rows + 1) // 2, rows // 2
        expected += 3 * n_odd + 2 * n_even - 2
        rows = n_even
    expected += 3 * rows - 2 + max(rows - 2, 0)
    assert op.lu.arcs.nnz == expected


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_bottom_dgttrs_overwrites_its_buffer_in_place(depth):
    """However deep the reduction, the one dgttrs of a step solves its
    contiguous buffer in place and no copy is written back."""
    _, op = random_star_operator(11, 4, False, False, depth)
    levels = reduction_levels(op.lu.arcs)
    assert len(levels) == depth
    bottom = levels[-1].reduced[1].size
    calls = []

    def spy(*args, **kwargs):
        b = args[-1]
        g, info = dgttrs(*args, **kwargs)
        calls.append((b.size, b.flags.c_contiguous, g is b, info))
        return g, info

    x = np.linspace(1.0, 2.0, op.size)
    expected = np.linalg.solve(op.matrix.toarray(), to_grid_order(x))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scheme, "dgttrs", spy)
        op.lu.solve(x)
    assert calls == [(bottom, True, True, 0)]
    np.testing.assert_allclose(to_grid_order(x), expected, rtol=1e-12, atol=1e-14)


def test_march_builds_no_sparse_matrix(monkeypatch):
    """The bands and the stencil define the step: assembling it, marching,
    solving the steady equation and measuring the node defect build no
    sparse matrix. Only the matrix view does."""

    def refuse(*args, **kwargs):
        raise AssertionError("a sparse matrix was built")

    for kind in ("bsr", "coo", "csc", "csr", "dia", "dok", "lil"):
        for name in (f"{kind}_matrix", f"{kind}_array"):
            if hasattr(scipy.sparse, name):
                monkeypatch.setattr(scipy.sparse, name, refuse)
    monkeypatch.setattr(scipy.sparse, "diags", refuse)

    net, K = small_pair()
    grid = make_grid(net, h=0.05)
    op = assemble_step_operator(net, K, grid, 0.8, 0.02)
    assert node_defect(np.linspace(0.0, 1.0, op.size), op) > 0.0
    pulse = PiecewiseConstantField(
        (
            ArcProfile.from_lists(1.0, [0.3, 0.6], [0.0, 1.0, 0.0]),
            ArcProfile.from_lists(1.0, [], [0.0]),
        )
    )
    traj = solve_parabolic(net, K, pulse, [0.0, 0.0], SolverConfig(epsilon=0.4, T=0.05))
    assert traj.diagnostics.shape[0] > 2
    prob = ResolventProblem.build(1.0, pulse, [0.5, 0.0])
    steady = march_to_steady(net, K, grid, 0.8, prob)
    assert np.isfinite(steady.flat).all()
    with pytest.raises(AssertionError, match="sparse matrix was built"):
        op.matrix


@pytest.mark.filterwarnings("ignore:initial data violates")
@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: the incoming node row is not conservative, and "
    "on some stars the step map has spectral radius above 1",
)
def test_march_stays_nonnegative_and_bounded_on_random_stars():
    """A pulse with zero inflow stays nonnegative and its L1 norm bounded.

    One seeded loop, not a property test, so that the expected failure
    leaves no example database or patch files behind.
    """
    failures = []
    for seed in range(60):
        rng = np.random.default_rng(seed)
        m = 2 + seed % 7
        net = random_network(rng, m_min=m, m_max=m)
        K = random_coupling(rng, net)
        eps = float(rng.uniform(0.3, 1.0))
        u0 = PiecewiseConstantField(
            tuple(
                ArcProfile.from_lists(L, [0.2 * L, 0.8 * L], [0.0, 1.0, 0.0])
                for L in (arc.length for arc in net.arcs)
            )
        )
        traj = solve_parabolic(net, K, u0, np.zeros(m), SolverConfig(eps, 0.1))
        norms = traj.diagnostics[:, 1]
        low = float(np.min(traj.diagnostics[:, 2]))
        if low < -1e-10 or np.max(norms) > 2.0 * norms[0]:
            failures.append((seed, low, float(np.max(norms) / norms[0])))
    assert not failures, f"{len(failures)} of 60 stars: {failures}"


@pytest.mark.parametrize("length", [0.5, 1.5])
def test_march_entry_points_reject_profiles_of_another_length(length):
    """Sampling would stretch the last piece of a short profile over the
    rest of the arc, so the initial data and the steady forcing must be
    exactly as long as their arcs."""
    net = simple_star([1.0], [1.0])
    K = cross_ones_coupling(net)
    field = PiecewiseConstantField(
        (
            ArcProfile.from_lists(length, [0.25], [1.0, 0.0]),
            ArcProfile.from_lists(1.0, [], [0.0]),
        )
    )
    hint = f"arc 0 has length 1.0, its profile {length}"
    with pytest.raises(DimensionMismatch, match=f"^initial profiles: {hint}"):
        solve_parabolic(net, K, field, [0.0, 0.0], SolverConfig(epsilon=0.2, T=0.05))
    grid = make_grid(net, h=0.05)
    prob = ResolventProblem.build(1.0, field, [0.0, 0.0])
    with pytest.raises(DimensionMismatch, match=f"^forcing profiles: {hint}"):
        march_to_steady(net, K, grid, 0.2, prob)


@pytest.mark.parametrize("kind", ["ArcProfile", "PiecewisePoly"])
def test_solve_parabolic_checks_lengths_of_a_profile_sequence(kind):
    """A plain sequence of profiles is sampled like a field, so it gets the
    same length check: build_compatible's PiecewisePoly arcs pass this way."""
    net = simple_star([1.0], [1.0])
    K = cross_ones_coupling(net)
    if kind == "ArcProfile":
        short = ArcProfile.from_lists(0.5, [0.25], [1.0, 0.0])
    else:
        short = PiecewisePoly(0.5, (PolynomialPiece(0.0, 0.5, np.array([1.0, -2.0])),))
    profiles = [short, ArcProfile.from_lists(1.0, [], [0.0])]
    hint = "arc 0 has length 1.0, its profile 0.5"
    with pytest.raises(DimensionMismatch, match=f"^initial profiles: {hint}"):
        solve_parabolic(net, K, profiles, [0.0, 0.0], SolverConfig(epsilon=0.2, T=0.05))
