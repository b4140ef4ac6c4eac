"""Implicit step operator: frozen stencil, positivity, node constraints."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cross_ones_coupling, random_coupling, random_network, simple_star
from starflux import (
    ArcProfile,
    CouplingMatrix,
    PiecewiseConstantField,
    SolverConfig,
    UnstableConfig,
    assemble_step_operator,
    compatibility_residual,
    discrete_l1_contraction_probe,
    discrete_l1_norm,
    flux_residual,
    make_grid,
    new_state,
    project_node_values,
    sample_on_grid,
    solve_parabolic,
    step,
)


def small_pair():
    """1-in/1-out star with hand-checkable numbers."""
    net = simple_star([1.0], [2.0])
    K = CouplingMatrix.from_array([[0.0, 1.5], [1.5, 0.0]], net)
    return net, K


def test_step_matrix_frozen_ten_by_ten():
    """Full stencil for 4 cells per arc, worked out by hand.

    eps=0.8, h=0.25, dt=0.1: interior rows carry 1/dt + speed/h + 2eps/h^2
    on the diagonal, the node rows the one-sided viscous transmission.
    """
    net, K = small_pair()
    grid = make_grid(net, h=0.25)
    cfg = SolverConfig(epsilon=0.8, T=1.0, dt=0.1)
    op = assemble_step_operator(net, K, cfg, grid)

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
    np.testing.assert_allclose(op.rhs_scale, expected_scale)
    assert op.stencil.node.tolist() == [4, 5]
    assert op.stencil.inner.tolist() == [3, 6]
    assert op.stencil.beta.tolist() == [1.0, -1.0]
    # the projection block is the node rows restricted to the junction values
    np.testing.assert_array_equal(op.stencil.block, A[4:6, 4:6])


def test_step_keeps_dirichlet_values_and_node_rows():
    net, K = small_pair()
    grid = make_grid(net, h=0.05)
    cfg = SolverConfig(epsilon=0.8, T=1.0, dt=0.02)
    op = assemble_step_operator(net, K, cfg, grid)

    rng = np.random.default_rng(2)
    state = new_state(
        grid, [rng.uniform(0.0, 1.0, n + 1) for n in grid.cells], 0.0
    )
    nxt = step(state, op)
    assert nxt.t == pytest.approx(0.02)
    # outer values persist through the identity rows
    assert nxt.values[0][0] == pytest.approx(state.values[0][0])
    assert nxt.values[1][-1] == pytest.approx(state.values[1][-1])
    # node rows are solved exactly, so the junction flux balances
    assert abs(flux_residual(nxt, op)) <= 1e-12
    assert compatibility_residual(nxt, op) <= 1e-12


def test_flux_residual_of_constant_state():
    """All-ones state: imbalance is the speed difference across the node."""
    net, K = small_pair()
    grid = make_grid(net, h=0.25)
    op = assemble_step_operator(net, K, SolverConfig(0.8, 1.0, 0.1), grid)
    ones = new_state(grid, [np.ones(n + 1) for n in grid.cells], 0.0)
    assert flux_residual(ones, op) == pytest.approx(1.0 - 2.0)


def test_projection_enforces_node_conditions():
    net, K = small_pair()
    grid = make_grid(net, h=0.1)
    op = assemble_step_operator(net, K, SolverConfig(0.8, 1.0, 0.05), grid)
    state = new_state(
        grid, [np.linspace(1.0, 2.0, n + 1) for n in grid.cells], 0.0
    )
    assert compatibility_residual(state, op) > 1e-3
    fixed = project_node_values(state, op)
    assert compatibility_residual(fixed, op) <= 1e-13
    # only the two junction values moved
    np.testing.assert_array_equal(state.values[0][:-1], fixed.values[0][:-1])
    np.testing.assert_array_equal(state.values[1][1:], fixed.values[1][1:])


def test_unresolved_layer_warns():
    net, K = small_pair()
    grid = make_grid(net, h=0.25)
    with pytest.warns(UnstableConfig):
        assemble_step_operator(net, K, SolverConfig(0.1, 1.0, 0.1), grid)


def test_positivity_random_states():
    """Nonnegative data stays nonnegative when the layer is resolved."""
    rng = np.random.default_rng(19)
    for _ in range(10):
        net = random_network(rng, m_max=5)
        K = random_coupling(rng, net)
        lam_max = float(np.max(net.speeds()))
        eps = float(rng.uniform(0.3, 1.0))
        grid = make_grid(net, h=eps / (8.0 * max(1.0, lam_max)))
        op = assemble_step_operator(
            net, K, SolverConfig(eps, 1.0, 0.01), grid
        )
        state = new_state(
            grid, [rng.uniform(0.0, 2.0, n + 1) for n in grid.cells], 0.0
        )
        state = project_node_values(state, op)
        floor = 0.0
        for _ in range(20):
            state = step(state, op)
            floor = min(floor, state.min_value())
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
    probe = discrete_l1_contraction_probe(traj)
    assert probe.is_nonexpansive(1e-10)
    assert probe.norms[0] > probe.norms[-1]
    assert traj.diagnostics.shape[1] == 4
    # every per-step junction residual is at solver precision
    assert np.max(np.abs(traj.diagnostics[:, 3])) <= 1e-10


def test_solve_parabolic_zero_state_stays_zero():
    net, K = small_pair()
    cfg = SolverConfig(epsilon=0.5, T=0.2)
    traj = solve_parabolic(
        net, K, PiecewiseConstantField.constant(net, [0.0, 0.0]), [0.0, 0.0], cfg
    )
    assert traj.final.max_abs() == 0.0


def test_solve_parabolic_diagnostics_align_with_norm():
    net = simple_star([1.0, 2.0], [1.5, 0.5])
    K = cross_ones_coupling(net)
    u0 = PiecewiseConstantField.constant(net, [1.0, 1.0, 0.0, 0.0])
    cfg = SolverConfig(epsilon=0.5, T=0.1)
    # the jump across the junction violates the node conditions, which
    # the solver reports before projecting it away
    with pytest.warns(UserWarning, match="node conditions"):
        traj = solve_parabolic(net, K, u0, [1.0, 1.0, 0.0, 0.0], cfg)
    state0 = traj.states[0]
    assert traj.diagnostics[0, 1] == pytest.approx(
        discrete_l1_norm(state0, traj.grid)
    )
    assert traj.final.t == pytest.approx(0.1)


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
    op = assemble_step_operator(net, K, SolverConfig(eps, 1.0, 0.01), grid)
    stencil = op.stencil
    row_scale = float(np.max(np.sum(np.abs(stencil.block), axis=1) + stencil.eh))
    top = 2.0
    tol = 1e-12 * row_scale * top

    state = new_state(
        grid, [rng.uniform(0.0, top, n + 1) for n in grid.cells], 0.0
    )
    assert flux_residual(state, op) == loop_flux_residual(state, net, grid, eps)
    projected = project_node_values(state, op)
    assert compatibility_residual(projected, op) <= tol
    assert abs(flux_residual(projected, op)) <= tol

    stepped = step(projected, op)
    assert compatibility_residual(stepped, op) <= tol
    assert abs(flux_residual(stepped, op)) <= tol
