"""Implicit step operator: frozen stencil, positivity, node constraints."""

from __future__ import annotations

import ast
import contextlib
import dataclasses
import inspect
import textwrap
import warnings

import numpy as np
import pytest
import scipy.sparse
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg.blas import dtbsv

from conftest import (
    ReferenceStep,
    cross_ones_coupling,
    ignore_uncertified_step,
    pairwise_depth,
    random_coupling,
    random_network,
    simple_star,
)
from starflux import (
    ArcProfile,
    CouplingMatrix,
    DimensionMismatch,
    Grid,
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
from starflux.grids import (
    MIN_CELLS,
    adopt_state,
    march_index,
    sample_on_grid,
    to_grid_order,
    to_march_order,
)
from starflux.parabolic import evolve, scheme
from starflux.parabolic.scheme import (
    RESPONSE_CUTOFF,
    ArcJunctionLU,
    JunctionStencil,
    OddEvenLU,
    assemble_step_operator,
    flux_residual,
    step,
)


def small_pair():
    """1-in/1-out star with hand-checkable numbers."""
    net = simple_star([1.0], [2.0])
    K = CouplingMatrix.from_array([[0.0, 1.5], [1.5, 0.0]], net)
    return net, K


def ten_point_step():
    """small_pair on 4 cells per arc, eps 0.8 and dt 0.1, the step worked
    out by hand below: net, K, its operator and its ReferenceStep."""
    net, K = small_pair()
    grid = make_grid(net, h=0.25)
    op = assemble_step_operator(net, K, grid, 0.8, 0.1)
    return net, K, op, ReferenceStep(net, K, grid, 0.8, 0.1)


#: small_pair's data: a unit pulse on [0.3, 0.6] of arc 0, zero elsewhere
PULSE = PiecewiseConstantField(
    (
        ArcProfile.from_lists(1.0, [0.3, 0.6], [0.0, 1.0, 0.0]),
        ArcProfile.from_lists(1.0, [], [0.0]),
    )
)


def node_defect(x, op):
    """Largest defect of the node rows for x, in march order."""
    return float(np.max(np.abs(op.lu.stencil.defect(x))))


def advance(state, op):
    """state one step later, the way the march takes it: gathered into
    march order, stepped in place and scattered back."""
    x = to_march_order(state.flat)
    step(x, op)
    return adopt_state(state.grid, to_grid_order(x), state.t + op.dt)


def test_step_matrix_frozen_ten_by_ten():
    """Full stencil for 4 cells per arc, worked out by hand: it pins the
    reference step, and the operator's indices and node block, and the
    flux residual of one state in both.

    eps=0.8, h=0.25, dt=0.1: interior rows carry 1/dt + speed/h + 2eps/h^2
    on the diagonal, the node rows the one-sided viscous transmission.
    """
    _, _, op, ref = ten_point_step()

    A = np.zeros((10, 10))
    A[0, 0] = 1.0
    # rows r: A[r, r - 1], A[r, r], A[r, r + 1]
    for r in (1, 2, 3):
        A[r, r - 1 : r + 2] = -(4.0 + 12.8), 10.0 + 4.0 + 25.6, -12.8
    # incoming node row at index 4: alpha_00 - speed + eps/h
    A[4, 3:6] = -3.2, 1.5 - 1.0 + 3.2, -1.5
    # outgoing node row at index 5: alpha_11 + speed + eps/h
    A[5, 4:7] = -1.5, 1.5 + 2.0 + 3.2, -3.2
    for r in (6, 7, 8):
        A[r, r - 1 : r + 2] = -(8.0 + 12.8), 10.0 + 8.0 + 25.6, -12.8
    A[9, 9] = 1.0

    np.testing.assert_allclose(ref.matrix, A, atol=1e-13)
    expected_scale = np.array([1.0] + [10.0] * 3 + [0.0, 0.0] + [10.0] * 3 + [1.0])
    np.testing.assert_allclose(ref.rhs_scale, expected_scale)
    assert ref.node.tolist() == [4, 5]
    assert ref.inner.tolist() == [3, 6]
    assert ref.outer.tolist() == [0, 9]
    stencil = op.lu.stencil
    assert stencil.incoming.tolist() == [True, False]
    # the flux residual of one state, by hand, with p = speed + eps/h and
    # q = eps/h = 3.2: (u_inner, u_node) = (0.5, 1) on arc 0, (0.75, 0.25)
    # on arc 1. Arc 0 is incoming: its last interface carries p*u_inner -
    # q*u_node = 4.2*0.5 - 3.2*1 = -1.1 out of it, and the junction source
    # speed*(u_node - u_inner) = 0.5 adds to that, so beta_0*G_0 = -0.6.
    # Arc 1 is outgoing: its first interface carries p*u_node - q*u_inner =
    # 5.2*0.25 - 3.2*0.75 = -1.1 into it, so beta_1*G_1 = +1.1. Sum: 0.5.
    flat = np.zeros(10)
    flat[3:7] = 0.5, 1.0, 0.25, 0.75
    assert flux_residual(to_march_order(flat), op) == pytest.approx(0.5, abs=1e-14)
    assert ref.flux_residual(flat) == pytest.approx(0.5, abs=1e-14)
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
    op = ten_point_step()[2]

    def stencils(obj):
        if isinstance(obj, JunctionStencil):
            return [obj]
        if not dataclasses.is_dataclass(obj):
            return []
        return [s for f in dataclasses.fields(obj) for s in stencils(getattr(obj, f.name))]

    assert stencils(op) == [op.lu.stencil]
    assert {f.name for f in dataclasses.fields(op)} == {"bands", "lu", "dt", "rhs_scale"}


def blowup_operator(op):
    """op with every entry of the scale its step multiplies the state by
    (lu.state_scale) infinite: its step meets the cut rows' zero couplings
    as 0 * inf and leaves NaN behind."""
    blowup = np.full(op.size, np.inf)
    return dataclasses.replace(op, lu=dataclasses.replace(op.lu, state_scale=blowup))


def test_step_rejects_wrong_size_only():
    net, _, op, _ = ten_point_step()
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
    so does an L1 sum that overflows on finite values, with no warning on
    the way."""
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
        warnings.simplefilter("error")
        with pytest.raises(LinearSolveFailure, match="non-finite"):
            solve_parabolic(net, K, zero, [0.0, 0.0], cfg)


@pytest.mark.parametrize("where", ["projection", "start L1 norm"])
def test_march_rejects_data_too_large_to_start_from(where):
    """Finite data near the largest double overflows before the first step:
    in the node projection when it reaches the node, in the start state's
    L1 sum when it covers 1.5 of a 2-long arc and stays off the node.
    Either is a LinearSolveFailure, with no warning on the way."""
    big = 1.7e308
    if where == "projection":
        net, K = small_pair()
        u0, B = PiecewiseConstantField.constant(net, [big, big]), [big, big]
    else:
        net = simple_star([1.0], [2.0], in_lengths=[2.0])
        K = CouplingMatrix.from_array([[0.0, 1.5], [1.5, 0.0]], net)
        u0 = PiecewiseConstantField(
            (
                ArcProfile.from_lists(2.0, [1.5], [big, 0.0]),
                ArcProfile.from_lists(1.0, [], [0.0]),
            )
        )
        B = [big, 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LinearSolveFailure, match="non-finite"):
            solve_parabolic(net, K, u0, B, SolverConfig(epsilon=0.4, T=0.05))


def test_march_outputs_are_read_only_states_of_their_own():
    """step overwrites its vector in place; the states the march and the
    steady solve hand out are read-only and share no memory."""
    net, K, op, ref = ten_point_step()
    x = np.linspace(0.0, 1.0, op.size)
    before = x.copy()
    assert step(x, op) is None
    assert x.tobytes() != before.tobytes()

    traj = solve_parabolic(net, K, PULSE, [0.0, 0.0], SolverConfig(epsilon=0.8, T=0.05))
    steady = march_to_steady(net, K, ref.grid, 0.8, ResolventProblem.build(0.1, PULSE, [0.5, 0.0]))
    # the march's grid follows the default rule h = epsilon / DEFAULT_H_RULE
    grid = make_grid(net, epsilon=0.8)
    for state, g in ((traj.initial, grid), (traj.final, grid), (steady, ref.grid)):
        assert not state.flat.flags.writeable
        assert state.grid == g
    assert not np.shares_memory(traj.initial.flat, traj.final.flat)


def test_flux_residual_of_constant_state():
    """All-ones state: imbalance is the speed difference across the node."""
    op = ten_point_step()[2]
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
    cfg = SolverConfig(epsilon=0.4, T=0.5, dt=0.01)
    traj = solve_parabolic(net, K, PULSE, [0.0, 0.0], cfg)
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
        discrete_l1_norm(traj.initial)
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
    eps = float(rng.uniform(0.3, 1.0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        traj = solve_parabolic(net, K, u0, B, SolverConfig(eps, 0.02))
    grid, start = traj.initial.grid, traj.initial.flat
    ref = ReferenceStep(net, K, grid, eps, traj.operator.dt)

    incoming = ref.incoming
    inflow = ref.outer[incoming]
    data = sample_on_grid(u0.arcs, grid).flat.copy()
    assert start[inflow].tobytes() == B[incoming].tobytes()
    data[inflow] = B[incoming]
    moved = np.flatnonzero(start != data)
    assert set(moved.tolist()) <= set(ref.node.tolist())

    node_rows = ref.matrix[ref.node]
    rounding = 8 * np.finfo(float).eps * (np.abs(node_rows) @ np.abs(start))
    assert (np.abs(node_rows @ start) <= rounding).all()
    defect = float(np.max(np.abs(node_rows @ data)))
    warned = [str(w.message) for w in caught if "initial data violates" in str(w.message)]
    assert warned == ([f"initial data violates the discrete node conditions by {defect:.3e}"]
                      if defect > 1e-8 else [])


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
    row_scale = float(np.max(np.sum(np.abs(stencil.block), axis=1) + stencil.inner_coef))
    top = 2.0
    tol = 1e-12 * row_scale * top

    state = new_state(
        grid, [rng.uniform(0.0, top, n + 1) for n in grid.cells], 0.0
    )
    x = to_march_order(state.flat)
    assert flux_residual(x, op) == ReferenceStep(net, K, grid, eps, 0.01).flux_residual(state.flat)
    stencil.project(x)
    assert node_defect(x, op) <= tol
    assert abs(flux_residual(x, op)) <= tol

    step(x, op)
    assert node_defect(x, op) <= tol
    assert abs(flux_residual(x, op)) <= tol


@ignore_uncertified_step
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 8))
def test_one_step_balances_interior_mass_with_the_junction_source(seed, m):
    """One step changes the interior mass M = sum over arcs of h * (sum of
    u over the points between the outer end and the node) by

        M' - M = dt * (inflow - outflow + sum_incoming speed * (u'_node - u'_inner)),

    with inflow through each incoming arc's first interface, outflow
    through each outgoing arc's last one, and every flux ReferenceStep's
    rule at the new state u'. The interior rows are cell balances, so
    each arc's mass telescopes to its first interface's flux less its
    last one's. The node-side fluxes cancel through the node rows
    (alpha's columns sum to zero), except for the junction source, the
    term the node rows carry beyond the interface flux on incoming arcs.
    That term is ROADMAP item 1's defect, mass the junction creates: it
    must vanish from this balance once item 1 lands.

    The bound comes from the magnitudes of the terms: the balance is the
    sum of the step's rows weighted by h * dt (interior) and dt (node),
    and the solve leaves each row's residual within a few roundings of
    that row's terms, |A| |u'| + rhs_scale |u|; the sums M and M' round
    each of the same h * u terms at most pairwise_depth times. So the
    defect stays within (pairwise_depth(n) + 8) eps of the weighted
    terms (it read at most 0.53 eps over 400 seeded stars, and dropping
    the source term reads up to 5.9e14 eps).
    """
    rng = np.random.default_rng(seed)
    net = random_network(rng, m_min=m, m_max=m)
    K = random_coupling(rng, net)
    eps = float(rng.uniform(0.3, 1.0))
    dt = float(10.0 ** rng.uniform(-3.0, 0.0))
    grid = make_grid(net, epsilon=eps)
    op = assemble_step_operator(net, K, grid, eps, dt)
    ref = ReferenceStep(net, K, grid, eps, dt)
    old = rng.uniform(0.0, 2.0, op.size)
    x = to_march_order(old)
    step(x, op)
    new = to_grid_order(x)

    runs = list(zip(grid.offsets, grid.offsets[1:]))
    mass = sum(h * old[a + 1 : b - 1].sum() for h, (a, b) in zip(grid.spacings, runs))
    mass_new = sum(h * new[a + 1 : b - 1].sum() for h, (a, b) in zip(grid.spacings, runs))
    inflow = outflow = source = 0.0
    for i, (a, b) in enumerate(runs):
        if ref.incoming[i]:
            inflow += ref.flux(i, new[a], new[a + 1])
            source += net.arcs[i].speed * (new[ref.node[i]] - new[ref.inner[i]])
        else:
            outflow += ref.flux(i, new[b - 2], new[b - 1])
    defect = (mass_new - mass) - dt * (inflow - outflow + source)

    weight = np.zeros(op.size)
    for h, (a, b) in zip(grid.spacings, runs):
        weight[a + 1 : b - 1] = h * dt
    weight[ref.node] = dt
    terms = weight @ (np.abs(ref.matrix) @ np.abs(new) + ref.rhs_scale * np.abs(old))
    assert abs(defect) <= (pairwise_depth(op.size) + 8) * np.finfo(float).eps * terms


@ignore_uncertified_step
@pytest.mark.filterwarnings("ignore:initial data violates")
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 8))
def test_march_diagnostics_match_per_arc_formulas(seed, m):
    """Every diagnostics row, recomputed arc by arc from its state.

    The states come from advance, one step at a time, and must match the
    march's vector bit for bit. All but the L1 norm is exact: the march
    sums each arc's even- and odd-indexed points as two runs, the per-arc
    formula its inner points at once. Each is off from the exact sum S by
    at most r*u*S to first order, u = eps/2 and r the most roundings one
    term meets, weighted as below (Higham, Accuracy and Stability of
    Numerical Algorithms, sec. 4.2). In the march (as in test_grids'
    test_march_l1_is_one_trapezoid_rule): d = 1 + pairwise_depth(n - 1)
    for the longest run of n and the runs' add; subtracting the half
    ends, at most half of the arc's share s of S, at most doubles that
    error relative to s; the ends' add, the subtraction, the product with
    h and m - 1 adds over the arcs: r = 2d + 4 + m. Per arc:
    pairwise_depth(cells - 1), the two end halves, the product with h
    and m adds. Half their sum, rounded up, plus one, in eps = 2u, covers
    the higher-order terms and per_arc standing in for S.
    """
    rng = np.random.default_rng(seed)
    net = random_network(rng, m_min=m, m_max=m)
    K = random_coupling(rng, net)
    eps = float(rng.uniform(0.3, 1.0))
    u0 = resolvent_forcing_field(net, rng)
    B = rng.uniform(0.0, 2.0, net.m)
    cfg = SolverConfig(epsilon=eps, T=0.05)
    traj = solve_parabolic(net, K, u0, B, cfg)
    grid = traj.final.grid
    ref = ReferenceStep(net, K, grid, eps, traj.operator.dt)
    runs = np.diff([*grid.march_runs, grid.offsets[-1]])
    roundings = max(1 + pairwise_depth(n - 1) for n in runs) + m
    roundings += (max(pairwise_depth(n - 1) for n in grid.cells) + 9) // 2

    # re-march the recorded start on the recorded operator, one state at a time
    state = traj.initial
    for k, (t, l1, low, flux) in enumerate(traj.diagnostics):
        if k:
            state = advance(state, traj.operator)
        assert t == state.t
        assert low == min(float(np.min(v)) for v in state.values)
        assert flux == ref.flux_residual(state.flat)
        assert traj.node_history[k].tolist() == state.flat[ref.node].tolist()
        per_arc = 0.0
        for vals, h in zip(state.values, grid.spacings):
            a = np.abs(vals)
            per_arc += h * (0.5 * a[0] + np.sum(a[1:-1]) + 0.5 * a[-1])
        assert abs(l1 - per_arc) <= roundings * np.finfo(float).eps * per_arc
    assert state.t == traj.final.t
    assert state.flat.tobytes() == traj.final.flat.tobytes()


@pytest.mark.filterwarnings("ignore:initial data violates")
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 8))
def test_outer_values_persist_bitwise(seed, m):
    """A step copies every outer Dirichlet value, and a march keeps B
    there: written at the inflow ends, sampled from the data at the
    outflow ends."""
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
    # each profile's last piece holds B, the value at an outgoing arc's outer end
    u0 = [
        ArcProfile.from_lists(arc.length, [0.5 * arc.length], [rng.uniform(0.0, 2.0), B[arc.id]])
        for arc in net.arcs
    ]
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
    """An OddEvenLU's levels, the full system's first, the one holding the
    bidiagonal factors last."""
    levels = [lu]
    while isinstance(levels[-1].reduced, OddEvenLU):
        levels.append(levels[-1].reduced)
    return levels


def random_star_operator(seed, m, coarse, odd_total, depth=1):
    """Step operator of a random m-arc star with the given point-total
    parity, its tridiagonal reduced depth times (fewer on the smallest
    coarse stars, see reduction_depth), and its ReferenceStep.

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
    return rng, op, ReferenceStep(net, K, grid, eps, dt)


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
def test_step_matrix_view_equals_the_reference(seed, m, coarse, odd_total, depth):
    """The library's grid-order view of the step, entry for entry, and its
    junction points, inner neighbours, outer ends and right-hand-side
    scale, are the reference step's. The view stores three entries per
    interior point, one per outer end and the node rows' entries."""
    _, op, ref = random_star_operator(seed, m, coarse, odd_total, depth)
    view = op.matrix
    assert (view.toarray() == ref.matrix).all()
    assert to_grid_order(op.rhs_scale).tobytes() == ref.rhs_scale.tobytes()
    s = op.lu.stencil
    ends = np.concatenate([ref.node, ref.inner, ref.outer])
    assert march_index(ends, op.size).tolist() == [*s.node, *s.inner, *op.lu.outer]
    block_nnz = np.count_nonzero((s.block != 0.0) | np.eye(m, dtype=bool))
    assert view.nnz == 3 * (op.size - 2 * m) + m + block_nnz + m


@pytest.mark.filterwarnings("ignore::starflux.UnstableConfig")
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@star_draws
def test_arc_junction_lu_matches_dense_solve(seed, m, coarse, odd_total, depth):
    """op.lu.solve, on a right-hand side multiplied by its row scale, and
    step, in march order, against dense solves of the reference step at
    both parities and one to three reduction levels; gathering into march
    order and scattering back, and the outer values through a step, are
    exact. The stencil's node-row defect is the reference's node rows."""
    rng, op, ref = random_star_operator(seed, m, coarse, odd_total, depth)
    assert op.size % 2 == odd_total
    # the cut boundary rows leave nothing for dgttrf to pivot: the factor
    # refuses a row exchange, so reaching here shows there was none
    matrix = ref.matrix
    # a step multiplies by the right-hand-side scale and the row scale at once
    assert op.lu.state_scale.tobytes() == (op.rhs_scale * op.lu.arcs.scale).tobytes()

    state = rng.normal(size=op.size)
    node_rows = matrix[ref.node]
    rounding = 8 * np.finfo(float).eps * (np.abs(node_rows) @ np.abs(state))
    defect = op.lu.stencil.defect(to_march_order(state))
    assert (np.abs(node_rows @ state - defect) <= rounding).all()

    rhs = rng.normal(size=op.size)
    expected = np.linalg.solve(matrix, rhs)
    x = to_march_order(rhs) * op.lu.arcs.scale
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
    expected = np.linalg.solve(matrix, ref.rhs_scale * flat)
    step(x, op)
    got = to_grid_order(x)
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-10 * np.max(np.abs(expected)))
    assert got[ref.outer].tobytes() == flat[ref.outer].tobytes()


def inverse_rounding(matrix, inverse):
    """A componentwise bound on the rounding in inverse, matrix's inverse
    as computed.

    inverse - inv(matrix) = inv(matrix) @ r exactly, with r = matrix @
    inverse - I, so to first order |inverse - inv(matrix)| <= |inverse| @
    |r|. Computing r adds at most (n + 1) eps (|matrix| @ |inverse| + I)
    to it, and the bound is doubled for the terms of second order.
    """
    n = matrix.shape[0]
    r = matrix @ inverse - np.eye(n)
    slack = (n + 1) * np.finfo(float).eps * (np.abs(matrix) @ np.abs(inverse) + np.eye(n))
    return 2.0 * np.abs(inverse) @ (np.abs(r) + slack)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@star_draws
def test_positivity_certificate_matches_the_dense_inverse(seed, m, coarse, odd_total, depth):
    """op.positive holds exactly when the reference step's dense inverse
    has no entry below its rounding (inverse_rounding), and
    assemble_step_operator warns exactly when it fails. That inverse's
    block at the junction points is lu.schur_inv, so a failing
    certificate shows in it at full size, far beyond rounding."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UnstableConfig)
        _, op, ref = random_star_operator(seed, m, coarse, odd_total, depth)
    warned = any("Schur complement's inverse" in str(w.message) for w in caught)
    inverse = np.linalg.inv(ref.matrix)
    assert op.positive == (op.schur_inv_min >= 0.0) == (not warned)
    assert op.positive == bool((inverse >= -inverse_rounding(ref.matrix, inverse)).all())
    np.testing.assert_allclose(
        inverse[np.ix_(ref.node, ref.node)], op.lu.schur_inv,
        rtol=0.0, atol=1e-10 * np.abs(op.lu.schur_inv).max(),
    )


@ignore_uncertified_step
@pytest.mark.filterwarnings("ignore:coarsest spacing")
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@star_draws
def test_certified_step_keeps_nonnegative_states_nonnegative(seed, m, coarse, odd_total, depth):
    """Whenever op.positive holds, step maps every nonnegative march vector
    to a nonnegative one, exactly, not just up to rounding.

    The step is sums of products of nonnegative numbers, each of which
    rounds to a nonnegative number. The state is multiplied by
    state_scale >= 0, rhs_scale times sigma > 0: the cut tridiagonal is
    an M-matrix, so every pivot is positive. Every stored coefficient
    then keeps its raw band's sign, and the bands' off-diagonals are <= 0:
    outer_coef and the bottom's inv(D) @ L @ D and V are <= 0 and are
    subtracted, the folds -a sigma and -c sigma are >= 0 and are added,
    and odd_lo = a / b and odd_up = c / b are <= 0 and are subtracted.
    The responses solve the same way from -inner_coef * sigma >= 0, so
    they are >= 0; schur_inv >= 0 is the certificate itself, and it
    multiplies x[node] + eh * x[inner] >= 0. Exact zeros and negative
    zeros pass through as zeros.
    """
    rng, op, _ = random_star_operator(seed, m, coarse, odd_total, depth)
    assume(op.positive)
    x = rng.uniform(0.0, 2.0, op.size)
    x[rng.random(op.size) < 0.5] = 0.0
    step(x, op)
    assert x.min() >= 0.0


def test_step_solve_divides_nothing():
    """Every pivot is folded into the stored factors at factor time: the
    source of step, ArcJunctionLU.solve and OddEvenLU.solve holds no
    true division, in place or not, and calls no numpy division. (Integer
    // halves an index, not a vector.)"""
    for fn in (step, ArcJunctionLU.solve, OddEvenLU.solve):
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        for node in ast.walk(tree):
            if isinstance(node, (ast.BinOp, ast.AugAssign)):
                assert not isinstance(node.op, ast.Div), fn.__qualname__
            if isinstance(node, ast.Attribute):
                assert node.attr not in {"divide", "true_divide", "reciprocal"}, fn.__qualname__


def cut_tridiagonal(ref):
    """The reference step matrix's three bands with the node and outer rows
    and columns replaced by unit rows, as a dense array."""
    tri = np.triu(np.tril(ref.matrix, 1), -1)
    cut = np.concatenate([ref.node, ref.outer])
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
    dominant by rows and by columns. Each level's row scale holds the
    reciprocals of its odd rows' diagonal, and the stored factors of the
    last, the unit lower bidiagonal inv(D) @ L @ D and unit upper
    bidiagonal V in BLAS band rows with their unit diagonals unstored,
    multiply back to it with D, the reciprocals of its row scale.
    """
    _, op, ref = random_star_operator(seed, m, coarse, odd_total, depth)
    schur = cut_tridiagonal(ref)
    even, odd = slice(0, None, 2), slice(1, None, 2)
    for level in reduction_levels(op.lu.arcs):
        tri = schur
        odd_diag = np.diag(tri[odd, odd])
        assert (np.diag(odd_diag) == tri[odd, odd]).all()
        n_even = level.fold_lo.size + 1
        np.testing.assert_allclose(level.scale[n_even:], 1.0 / odd_diag, rtol=1e-13)
        schur = tri[even, even] - tri[even, odd] @ (tri[odd, even] / odd_diag[:, None])
        assert (np.triu(schur, 2) == 0.0).all() and (np.tril(schur, -2) == 0.0).all()
        diag = np.abs(np.diag(schur))
        off = np.abs(schur - np.diag(np.diag(schur)))
        assert (diag > off.sum(axis=1)).all()
        assert (diag > off.sum(axis=0)).all()

    lower, upper = level.reduced
    pivots = 1.0 / level.scale[:n_even]
    assert lower.shape == upper.shape == (2, pivots.size)
    assert not lower[0].any() and not lower[1, -1] and not upper[1].any() and not upper[0, 0]
    unit_lower = np.eye(pivots.size) + np.diag(lower[1, :-1], -1)
    unit_upper = np.eye(pivots.size) + np.diag(upper[0, 1:], 1)
    np.testing.assert_allclose(
        np.diag(pivots) @ unit_lower @ unit_upper, schur, rtol=0.0, atol=1e-13 * diag.max()
    )


@pytest.mark.filterwarnings("ignore::starflux.UnstableConfig")
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@star_draws
def test_junction_responses_are_single_arc_solves(seed, m, coarse, odd_total, depth):
    """The responses, solved as one (n, m) block, equal m single solves bit
    for bit: steps and responses share one solve path, in march order,
    at every reduction depth, each right-hand side multiplied by the row
    scale first."""
    _, op, _ = random_star_operator(seed, m, coarse, odd_total, depth)
    lu, (lower, _, upper) = op.lu, op.bands
    # an incoming arc's inner point reads the node as its right neighbour
    node_band = np.where(lu.stencil.incoming, upper, lower)
    for i in range(m):
        pull = np.zeros(op.size)
        pull[lu.stencil.inner[i]] = -node_band[i] * lu.arcs.scale[lu.stencil.inner[i]]
        lu.arcs.solve(pull)
        mine = lu.window_arc == i
        assert lu.response[mine].tolist() == pull[lu.window[mine]].tolist()
        rest = np.ones(op.size, dtype=bool)
        rest[lu.window[mine]] = False
        assert (np.abs(pull[rest]) < RESPONSE_CUTOFF).all()


def trapezoid_l1(flat, grid):
    """The diagnostics' L1 norm of the grid-order values flat, arc by arc:
    h * ((S_even + S_odd) - 0.5 * (|u_first| + |u_last|)), S_even and
    S_odd each a sum of |u| over the arc's even- and odd-indexed points,
    as np.add.reduceat adds a run, summed over the arcs from +0.0."""
    a, total = np.abs(flat), 0.0
    for i, h in enumerate(grid.spacings):
        lo, hi = grid.offsets[i], grid.offsets[i + 1]
        even, odd = a[lo + lo % 2 : hi : 2], a[lo + 1 - lo % 2 : hi : 2]
        sums = np.add.reduceat(even, [0])[0] + np.add.reduceat(odd, [0])[0]
        total += h * (sums - 0.5 * (a[lo] + a[hi - 1]))
    return float(total)


@ignore_uncertified_step
@pytest.mark.filterwarnings("ignore:initial data violates")
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@star_draws
def test_march_equals_a_plain_step_loop(seed, m, coarse, odd_total, depth):
    """solve_parabolic's diagnostics, junction history and final state,
    bit for bit, against a loop of step, trapezoid_l1, np.min and the
    reference flux over the recorded start and operator, at both
    parities and one to three reduction levels."""
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
    ref = ReferenceStep(net, K, grid, eps, op.dt)

    # the first row reads the start state in grid order, every later one the vector
    start = traj.initial.flat
    x = to_march_order(start)
    t = traj.initial.t
    rows = [(t, trapezoid_l1(start, grid), float(np.min(start)), ref.flux_residual(start))]
    nodes = [start[ref.node]]
    for _ in range(traj.diagnostics.shape[0] - 1):
        step(x, op)
        t += op.dt
        flat = to_grid_order(x)
        rows.append((t, trapezoid_l1(flat, grid), float(np.min(x)), ref.flux_residual(flat)))
        nodes.append(flat[ref.node])
    assert traj.diagnostics.tobytes() == np.asarray(rows).tobytes()
    assert traj.node_history.tobytes() == np.asarray(nodes).tobytes()
    assert traj.final.flat.tobytes() == to_grid_order(x).tobytes()


def test_march_calls_the_benchmarks_hooks_by_name(monkeypatch):
    """perfbench's speed probe wraps evolve.step and its tracer evolve's
    step, discrete_l1_norm, flux_residual and assemble_step_operator, so
    solve_parabolic reaches each through that name: step once a step, the
    others once a march."""
    calls = dict.fromkeys(["step", "discrete_l1_norm", "flux_residual", "assemble_step_operator"], 0)
    for name in calls:
        def counted(*args, _name=name, _inner=getattr(evolve, name), **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(evolve, name, counted)
    net, K = small_pair()
    traj = solve_parabolic(net, K, PULSE, [0.0, 0.0], SolverConfig(epsilon=0.8, T=0.05))
    n_steps = traj.diagnostics.shape[0] - 1
    assert n_steps > 1
    assert calls == {
        "step": n_steps, "discrete_l1_norm": 1, "flux_residual": 1, "assemble_step_operator": 1
    }


def test_an_arc_below_min_cells_is_refused():
    """A hand-built grid with fewer than MIN_CELLS cells on an arc is
    refused by the step and the steady march alike, so OddEvenLU never
    factors fewer than 10 rows."""
    net, K = small_pair()
    prob = ResolventProblem.build(0.8, PULSE, [0.5, 0.0])
    for cells in ((MIN_CELLS - 1, MIN_CELLS), (1, 1)):
        grid = Grid(cells, tuple(1.0 / n for n in cells))
        message = f"^arc 0: {cells[0]} cells, fewer than MIN_CELLS = {MIN_CELLS}$"
        with pytest.raises(DimensionMismatch, match=message):
            assemble_step_operator(net, K, grid, 0.5, 0.1)
        with pytest.raises(DimensionMismatch, match=message):
            march_to_steady(net, K, grid, 0.5, prob)


def test_march_work_beyond_the_bound_is_refused_before_assembly(monkeypatch):
    """solve_parabolic refuses more than MAX_MARCH_WORK grid points times
    steps before it assembles anything: a subnormal epsilon, whose grid is
    clipped to MAX_CELLS cells per arc, a subnormal dt, whose step count
    is inf, and a bound one below a small march's work."""
    net, K = small_pair()
    cfg = SolverConfig(epsilon=0.4, T=0.05)
    traj = solve_parabolic(net, K, PULSE, [0.0, 0.0], cfg)
    work = traj.final.flat.size * (traj.diagnostics.shape[0] - 1)

    def unreachable(*args):
        raise AssertionError("assembled a march beyond the work bound")

    monkeypatch.setattr(evolve, "assemble_step_operator", unreachable)
    for bad in (SolverConfig(epsilon=1e-320, T=0.05), SolverConfig(0.4, 0.05, dt=1e-320)):
        with pytest.raises(DimensionMismatch, match="MAX_MARCH_WORK = 1e"):
            solve_parabolic(net, K, PULSE, [0.0, 0.0], bad)
    monkeypatch.setattr(evolve, "MAX_MARCH_WORK", work - 1)
    with pytest.raises(DimensionMismatch, match="MAX_MARCH_WORK"):
        solve_parabolic(net, K, PULSE, [0.0, 0.0], cfg)
    monkeypatch.undo()
    monkeypatch.setattr(evolve, "MAX_MARCH_WORK", work)
    assert solve_parabolic(net, K, PULSE, [0.0, 0.0], cfg).final.flat.tobytes() == (
        traj.final.flat.tobytes()
    )


def test_arc_junction_lu_rejects_singular_systems():
    op = ten_point_step()[2]
    # a zero diagonal on arc 0 (grid rows 1-3) leaves its first interior
    # row, eliminated by the reduction, an exactly zero pivot
    lower, diag, upper = op.bands
    broken = (lower, np.where(np.arange(2) == 0, 0.0, diag), upper)
    with pytest.raises(LinearSolveFailure, match="zero pivot in row 2$"):
        ArcJunctionLU.factor(broken, op.lu.stencil, op.lu.outer, op.rhs_scale)
    # node rows that only read their inner neighbours: S = 0
    mute = dataclasses.replace(op.lu.stencil, block=np.zeros((2, 2)), inner_coef=np.zeros(2))
    with pytest.raises(LinearSolveFailure, match="Schur complement is singular"):
        ArcJunctionLU.factor(op.bands, mute, op.lu.outer, op.rhs_scale)


@pytest.mark.parametrize("column", [1, 2, 3, 6, 7])
def test_zero_pivot_names_its_row_of_the_full_system(column):
    """Zeroing interior column c of the cut tridiagonal leaves a zero
    pivot in 1-based row c + 1, whether that row is eliminated (odd c)
    or kept in the reduced system."""
    tri = cut_tridiagonal(ten_point_step()[3])
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
    tri = cut_tridiagonal(ReferenceStep(net, K, grid, 0.8, 0.1))
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


@pytest.mark.parametrize("n", range(5, 9))
def test_odd_even_lu_solves_every_size(n):
    """From 5 rows up, the fewest that leave scipy's dgttrf wrapper the 3
    rows it takes at least (a step has 10 or more), with vector
    right-hand sides in march order, each multiplied by the row scale,
    alone and as the contiguous columns of a block."""
    rng = np.random.default_rng(n)
    dl, d, du = dominant_bands(rng, n)
    dense = np.diag(d) + np.diag(dl, -1) + np.diag(du, 1)
    lu = OddEvenLU.factor(dl, d, du)
    levels = reduction_levels(lu)
    assert len(levels) == 1 and levels[0].reduced[0].shape[1] == (n + 1) // 2
    assert lu.scale.shape == (n,)
    b = rng.normal(size=(n, 3))
    expected = np.linalg.solve(dense, b)
    # column by column, as ArcJunctionLU.factor solves its responses
    x = np.asfortranarray(np.concatenate([b[0::2], b[1::2]]) * lu.scale[:, None])
    for column in x.T:
        lu.solve(column)
    np.testing.assert_allclose(to_grid_order(x), expected, rtol=1e-13, atol=1e-15)
    x = to_march_order(b[:, 0]) * lu.scale
    lu.solve(x)
    np.testing.assert_allclose(to_grid_order(x), expected[:, 0], rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("n", range(5, 9))
def test_zero_pivot_names_its_row_in_every_size(n):
    """A zeroed column c leaves a zero pivot in 1-based row c + 1, among
    the odd rows as in the bottom system, from the 5 rows OddEvenLU
    takes at least."""
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


@pytest.mark.parametrize("n", range(5, 9))
def test_row_exchange_names_its_row_of_the_full_system(n):
    """On a tridiagonal whose subdiagonal outweighs its diagonal, reduced
    once, dgttrf would exchange rows of the bottom system; the bidiagonal
    factors would then be wrong, so factor refuses them and names the row
    of the full system. Column j of the reduced system (full row 2 j + 1,
    1-based) has a diagonal of at most 1 in magnitude and -dl[2j] dl[2j+1]
    below it: -0.25, or -4 where those two subdiagonal entries are 2, which
    makes j the first column whose rows would be exchanged."""
    for j in range((n + 1) // 2 - 1):
        dl, d, du = np.full(n - 1, 0.5), np.ones(n), np.full(n - 1, 0.1)
        dl[2 * j: 2 * j + 2] = 2.0
        with pytest.raises(LinearSolveFailure, match=f"row exchange at row {2 * j + 1}$"):
            OddEvenLU.factor(dl, d, du)


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_nnz_counts_every_level(depth):
    """nnz adds each level's four coefficient vectors, 2 n_odd + 2 n_even
    - 2 entries for n rows, and its n-entry row scale, to the last
    system's bidiagonal factors: n - 1 off-diagonal entries each in its
    two unit bidiagonals. The step's nnz adds its state scale, the
    responses and the Schur inverse."""
    _, op, _ = random_star_operator(7, 3, False, True, depth)
    assert len(reduction_levels(op.lu.arcs)) == depth
    rows, expected = op.size, 0
    for _ in range(depth):
        n_even, n_odd = (rows + 1) // 2, rows // 2
        expected += 2 * n_odd + 2 * n_even - 2 + rows
        rows = n_even
    expected += 2 * (rows - 1)
    assert op.lu.arcs.nnz == expected
    m = 3
    assert op.lu.nnz == expected + op.size + op.lu.response.size + m * m


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_bottom_sweeps_overwrite_their_buffer_in_place(depth):
    """However deep the reduction, a step's bottom solve is two dtbsv
    sweeps, unit lower then unit upper, on one contiguous buffer, each
    overwriting it in place, with nothing between them. On a strided
    vector f2py sweeps a copy, which is written back: the solution is the
    contiguous one, bit for bit."""
    _, op, ref = random_star_operator(11, 4, False, False, depth)
    levels = reduction_levels(op.lu.arcs)
    assert len(levels) == depth
    lower, upper = levels[-1].reduced
    assert lower.flags.f_contiguous and upper.flags.f_contiguous
    calls = []

    def spy(k, a, x, **kwargs):
        out = dtbsv(k, a, x, **kwargs)
        calls.append((a, x, out))
        return out

    rhs = np.linspace(1.0, 2.0, op.size)
    x = rhs * op.lu.arcs.scale
    strided = np.zeros((op.size, 2))[:, 0]
    strided[...] = x
    expected = np.linalg.solve(ref.matrix, to_grid_order(rhs))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scheme, "dtbsv", spy)
        op.lu.solve(x)
        (a1, x1, out1), (a2, x2, out2) = calls
        assert a1 is lower and a2 is upper
        assert x1 is out1 is x2 is out2
        assert x1.size == lower.shape[1] and x1.flags.c_contiguous
        calls.clear()
        op.lu.solve(strided)
    # only the first level's even half is a view of the vector solved
    assert (calls[0][2] is calls[0][1]) == (depth > 1)
    assert strided.tobytes() == x.tobytes()
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
    traj = solve_parabolic(net, K, PULSE, [0.0, 0.0], SolverConfig(epsilon=0.4, T=0.05))
    assert traj.diagnostics.shape[0] > 2
    prob = ResolventProblem.build(1.0, PULSE, [0.5, 0.0])
    steady = march_to_steady(net, K, grid, 0.8, prob)
    assert np.isfinite(steady.flat).all()
    with pytest.raises(AssertionError, match="sparse matrix was built"):
        op.matrix


@ignore_uncertified_step
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
