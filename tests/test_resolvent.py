"""Closed-form steady solver checked by direct substitution and marching."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cross_ones_coupling, random_coupling, random_network, simple_star
from starflux import (
    CouplingMatrix,
    DimensionMismatch,
    NonPositiveParameter,
    PiecewiseConstantField,
    ResolventProblem,
    SolverConfig,
    assemble_step_operator,
    l1_error_against_state,
    make_grid,
    march_to_steady,
    resolvent_forcing_field,
    solve_resolvent,
    step,
)
from starflux.parabolic.resolvent import RESIDUAL_SAMPLES, _ArcSolution


def pair_problem(theta=0.8, boundary=(0.7, 0.3), seed=11):
    net = simple_star([1.0], [2.0])
    K = CouplingMatrix.from_array([[0.0, 1.5], [1.5, 0.0]], net)
    f = resolvent_forcing_field(net, np.random.default_rng(seed))
    prob = ResolventProblem.build(theta, f, boundary)
    return net, K, prob


def test_zero_data_gives_zero_solution():
    net, K, _ = pair_problem()
    prob = ResolventProblem.build(
        0.8, PiecewiseConstantField.constant(net, [0.0, 0.0]), [0.0, 0.0]
    )
    sol = solve_resolvent(net, K, 0.5, prob)
    xs = np.linspace(0.0, 1.0, 7)
    for i in range(net.m):
        np.testing.assert_allclose(sol.evaluate(i, xs), 0.0, atol=1e-15)
    np.testing.assert_allclose(sol.h_rhs, 0.0, atol=1e-15)


def test_substitution_residuals_at_machine_scale():
    """Plug the closed form back into the equation, ends, and junction."""
    net, K, prob = pair_problem()
    sol = solve_resolvent(net, K, 0.5, prob)
    rep = sol.residual_report()
    assert rep.ode_max <= 1e-10 * rep.scale
    assert rep.dirichlet_max <= 1e-12 * rep.scale
    assert rep.node_max <= 1e-10 * rep.scale
    assert rep.worst_scaled <= 1e-9


def test_coupling_system_is_strictly_column_dominant():
    rng = np.random.default_rng(23)
    for _ in range(15):
        net = random_network(rng, m_max=6)
        K = random_coupling(rng, net)
        prob = ResolventProblem.build(
            float(rng.uniform(0.2, 3.0)),
            resolvent_forcing_field(net, rng),
            rng.uniform(-1.0, 1.0, net.m),
        )
        eps = float(rng.uniform(0.05, 1.0))
        sol = solve_resolvent(net, K, eps, prob)
        assert np.all(sol.dominance_margins > 0.0)
        assert sol.residual_report().worst_scaled <= 1e-9


def test_signed_node_fluxes_cancel():
    """Summed over arcs, the oriented junction fluxes add to zero.

    Each flux equals a row of the coupling matrix applied to the node
    values, and those rows sum to zero columnwise.
    """
    net = simple_star([1.0, 3.0], [2.0, 0.5])
    K = cross_ones_coupling(net)
    prob = ResolventProblem.build(
        1.2,
        resolvent_forcing_field(net, np.random.default_rng(5)),
        [0.4, -0.2, 0.9, 0.1],
    )
    sol = solve_resolvent(net, K, 0.3, prob)
    signed = 0.0
    for arc, edge in zip(sol.arcs, net.arcs):
        v, dv, _ = arc.derivatives(np.array([edge.node_position]))[:, 0]
        flux = arc.speed * v - sol.epsilon * dv
        signed += flux if edge.incoming else -flux
    assert abs(signed) <= 1e-12


def test_each_arc_is_evaluated_in_one_pass(monkeypatch):
    """solve_resolvent and residual_report run one forcing pass per arc."""
    net = simple_star([1.0, 3.0], [2.0, 0.5])
    prob = ResolventProblem.build(
        1.2,
        resolvent_forcing_field(net, np.random.default_rng(5)),
        [0.4, -0.2, 0.9, 0.1],
    )
    sizes = []
    convolutions = _ArcSolution._convolutions

    def counted(arc, x):
        sizes.append(x.size)
        return convolutions(arc, x)

    monkeypatch.setattr(_ArcSolution, "_convolutions", counted)
    sol = solve_resolvent(net, cross_ones_coupling(net), 0.3, prob)
    assert sizes == [2] * net.m
    sizes.clear()
    sol.residual_report()
    assert sizes == [RESIDUAL_SAMPLES + 2] * net.m


def test_stiff_viscosity_stays_accurate():
    """Tiny viscosity: the bounded representation keeps full precision.

    Every exponential in the solve carries a nonpositive exponent, so
    the boundary layers underflow gracefully instead of overflowing.
    """
    net, K, prob = pair_problem()
    for eps in (1e-2, 1e-4, 1e-6):
        sol = solve_resolvent(net, K, eps, prob)
        assert np.all(sol.dominance_margins > 0.0)
        rep = sol.residual_report()
        assert rep.worst_scaled <= 1e-8, (eps, rep)


def test_march_fixed_point_matches_closed_form_at_first_order():
    """Steady march converges to the closed form as the grid refines.

    The march discretizes with one-sided differences, so the gap should
    shrink linearly in h: consecutive halvings land in [1.6, 2.4].
    """
    net, K, prob = pair_problem()
    eps, theta = 0.5, prob.theta
    sol = solve_resolvent(net, K, eps, prob)

    errors = []
    for h in (0.05, 0.025, 0.0125):
        grid = make_grid(net, h=h)
        state = march_to_steady(
            net, K, grid, eps, theta, prob.f, prob.boundary
        )
        errors.append(l1_error_against_state(sol, state, grid))
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    assert all(1.6 <= r <= 2.4 for r in ratios), (errors, ratios)


def test_march_fixed_point_is_step_size_independent():
    """The settled state is a fixed point of the steady step at any step size."""
    net, K, prob = pair_problem(seed=29)
    grid = make_grid(net, h=0.05)
    settled = march_to_steady(net, K, grid, 0.5, prob.theta, prob.f, prob.boundary)
    for dt in (8.0, 2.0, 0.1):
        op = assemble_step_operator(
            net, K, SolverConfig(0.5, dt, dt), grid,
            reaction=1.0 / prob.theta, forcing=prob.f,
        )
        moved = step(settled, op)
        assert float(np.max(np.abs(moved.flat - settled.flat))) <= 1e-7, dt


def test_resolvent_validation():
    net, K, prob = pair_problem()
    zero = PiecewiseConstantField.constant(net, [0.0, 0.0])
    for eps in (-0.5, 0.0, np.nan, np.inf):
        with pytest.raises(NonPositiveParameter, match="epsilon"):
            solve_resolvent(net, K, eps, prob)
    for theta in (-0.8, 0.0, np.nan, np.inf):
        with pytest.raises(NonPositiveParameter, match="theta"):
            ResolventProblem.build(theta, zero, [0.0, 0.0])
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(NonPositiveParameter, match="need 2 finite boundary"):
            ResolventProblem.build(0.8, zero, [0.0, value])
    bad = ResolventProblem.build(0.8, zero, [0.0, 0.0, 0.0])
    with pytest.raises(DimensionMismatch):
        solve_resolvent(net, K, 0.5, bad)


def random_solution(seed, m):
    """Resolvent of a random m-arc star, viscosity down to 1e-3."""
    rng = np.random.default_rng(seed)
    net = random_network(rng, m_min=m, m_max=m)
    K = random_coupling(rng, net)
    prob = ResolventProblem.build(
        float(rng.uniform(0.2, 3.0)),
        resolvent_forcing_field(net, rng, pieces=int(rng.integers(1, 6))),
        rng.uniform(-1.0, 1.0, m),
    )
    return solve_resolvent(net, K, float(10.0 ** rng.uniform(-3.0, 0.0)), prob)


def arc_points(arc, edge, samples=24):
    """Midpoint samples, points inside both end layers, node and outer end."""
    xs = (np.arange(samples) + 0.5) * (arc.length / samples)
    layer = np.array([0.5, 1.0, 2.0, 4.0]) / max(arc.a2, -arc.a1)
    return np.concatenate(
        [xs, layer, arc.length - layer, [edge.node_position, edge.outer_position]]
    ).clip(0.0, arc.length)


def loop_convolutions(arc, x):
    """Per-piece reference for _ArcSolution._convolutions."""
    a1, a2 = arc.a1, arc.a2
    i1 = np.zeros_like(x)
    i2 = np.zeros_like(x)
    for r in range(arc.g.size):
        lo, hi = arc.edges[r], arc.edges[r + 1]
        hi_l = np.minimum(hi, x)
        w = hi_l - lo
        mask = w > 0.0
        w = np.where(mask, w, 0.0)
        anchor = np.where(mask, hi_l, x)
        i1 += np.where(
            mask, arc.g[r] * np.exp(a1 * (x - anchor)) * np.expm1(a1 * w) / a1, 0.0
        )
        lo_r = np.maximum(lo, x)
        w = hi - lo_r
        mask = w > 0.0
        w = np.where(mask, w, 0.0)
        anchor = np.where(mask, lo_r, x)
        i2 += np.where(
            mask, -arc.g[r] * np.exp(a2 * (x - anchor)) * np.expm1(-a2 * w) / a2, 0.0
        )
    return i1, i2


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 8))
def test_one_pass_matches_scalar_and_per_piece_evaluation(seed, m):
    """The shared (v, v', v'') pass, bitwise against its per-point pieces.

    Every row equals the scalar ``evaluate`` at each point, and the
    piece-vectorised convolutions equal the per-piece loop.
    """
    sol = random_solution(seed, m)
    assert sol.residual_report().worst_scaled <= 1e-9
    for i, (arc, edge) in enumerate(zip(sol.arcs, sol.net.arcs)):
        xs = arc_points(arc, edge)
        rows = arc.derivatives(xs)
        for order in range(3):
            scalar = np.array([sol.evaluate(i, float(x), order) for x in xs])
            assert rows[order].tobytes() == scalar.tobytes()
            assert sol.evaluate(i, xs, order).tobytes() == rows[order].tobytes()
        for got, want in zip(arc._convolutions(xs), loop_convolutions(arc, xs)):
            assert got.tobytes() == want.tobytes()


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 8))
def test_derivative_rows_match_centred_differences(seed, m):
    """v' and v'' agree with centred differences of v away from f's jumps."""
    sol = random_solution(seed, m)
    for arc, edge in zip(sol.arcs, sol.net.arcs):
        h = 1e-3 / max(arc.a2, -arc.a1)
        xs = arc_points(arc, edge)[:-2].clip(2.0 * h, arc.length - 2.0 * h)
        near_jump = np.abs(xs[:, None] - arc.edges[None, 1:-1]) <= 2.0 * h
        xs = xs[~near_jump.any(axis=1)]
        v, dv, ddv = arc.derivatives(xs)
        left, right = arc.derivatives(xs - h)[0], arc.derivatives(xs + h)[0]
        top = float(np.max(np.abs(v)))
        fd1 = (right - left) / (2.0 * h)
        fd2 = (right - 2.0 * v + left) / (h * h)
        assert np.max(np.abs(fd1 - dv)) <= 1e-5 * np.max(np.abs(dv)) + 1e-12 * top / h
        assert np.max(np.abs(fd2 - ddv)) <= 1e-5 * np.max(np.abs(ddv)) + 1e-11 * top / h**2
