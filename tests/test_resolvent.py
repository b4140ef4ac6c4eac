"""Closed-form steady solver checked by direct substitution and the steady march."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    ReferenceStep,
    cell_averages,
    cross_ones_coupling,
    ignore_uncertified_step,
    random_coupling,
    random_network,
    simple_star,
)
from starflux import (
    ArcProfile,
    CouplingMatrix,
    DimensionMismatch,
    NonPositiveParameter,
    PiecewiseConstantField,
    ResolventProblem,
    l1_distance,
    make_grid,
    march_to_steady,
    resolvent_forcing_field,
    solve_resolvent,
)
from starflux.grids import average_on_grid, new_state
from starflux.parabolic import resolvent
from starflux.parabolic.resolvent import (
    RESIDUAL_SAMPLES,
    _convolutions,
    _derivatives,
    _particular,
)


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
    for edge in net.arcs:
        v = sol.evaluate(edge.id, edge.node_position)
        dv = sol.evaluate(edge.id, edge.node_position, 1)
        flux = edge.speed * v - sol.epsilon * dv
        signed += flux if edge.incoming else -flux
    assert abs(signed) <= 1e-12


def test_each_arc_is_evaluated_in_one_pass(monkeypatch):
    """solve_resolvent and residual_report run one forcing pass over all arcs."""
    net = simple_star([1.0, 3.0], [2.0, 0.5])
    prob = ResolventProblem.build(
        1.2,
        resolvent_forcing_field(net, np.random.default_rng(5)),
        [0.4, -0.2, 0.9, 0.1],
    )
    shapes = []
    convolutions = resolvent._convolutions

    def counted(a1, a2, edges, g, x):
        shapes.append(x.shape)
        return convolutions(a1, a2, edges, g, x)

    monkeypatch.setattr(resolvent, "_convolutions", counted)
    sol = solve_resolvent(net, cross_ones_coupling(net), 0.3, prob)
    assert shapes == [(net.m, 2)]
    shapes.clear()
    sol.residual_report()
    assert shapes == [(net.m, RESIDUAL_SAMPLES + 2)]


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
    eps = 0.5
    sol = solve_resolvent(net, K, eps, prob)

    errors = []
    for h in (0.05, 0.025, 0.0125):
        grid = make_grid(net, h=h)
        state = march_to_steady(net, K, grid, eps, prob)
        errors.append(l1_distance(sol, state, grid))
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    assert all(1.6 <= r <= 2.4 for r in ratios), (errors, ratios)


def test_steady_forcing_enters_as_cell_averages():
    """A forcing break inside a cell enters through the cell's mean.

    With h = 0.1 a break at 0.33 leaves the cell [0.25, 0.35] of the
    point x = 0.3 with 0.08 of the left value and 0.02 of the right one,
    a break on the point x = 0.5 splits its cell in half, and the half
    cells at the arc's ends average over what is left of them. Sliding the break across x = 0.3 then moves the steady state
    by as little as the break moves; sampling f at the points instead
    would switch f(0.3) between the two values.
    """
    net = simple_star([1.0], [1.0])
    K = cross_ones_coupling(net)
    grid = make_grid(net, h=0.1)

    def forcing(b):
        return PiecewiseConstantField(
            (
                ArcProfile.from_lists(1.0, [b], [2.0, -1.0]),
                ArcProfile.from_lists(1.0, [0.5], [0.5, 1.5]),
            )
        )

    means = average_on_grid(forcing(0.33).arcs, grid).values
    np.testing.assert_allclose(means[0], [2.0] * 3 + [1.4] + [-1.0] * 7, rtol=1e-14)
    np.testing.assert_allclose(means[1], [0.5] * 5 + [1.0] + [1.5] * 5, rtol=1e-14)

    left, right = (
        march_to_steady(
            net, K, grid, 0.2, ResolventProblem.build(1.0, forcing(b), [0.0, 0.0])
        ).flat
        for b in (0.3 - 1e-9, 0.3 + 1e-9)
    )
    assert np.max(np.abs(left - right)) <= 1e-7


def steady_star(seed, m):
    """Random m-arc star with the data of a steady problem."""
    rng = np.random.default_rng(seed)
    net = random_network(rng, m_min=m, m_max=m)
    K = random_coupling(rng, net)
    eps = float(rng.uniform(0.3, 1.0))
    theta = float(rng.uniform(0.1, 2.0))
    f = resolvent_forcing_field(net, rng)
    boundary = rng.uniform(-1.0, 1.0, m)
    return net, K, eps, theta, f, boundary


@ignore_uncertified_step
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 8))
@example(seed=172, m=6)
def test_march_to_steady_solves_the_discrete_steady_equations(seed, m):
    """The steady state solves the reference step of length theta, A @ u =
    rhs_scale * x0, from x0 the forcing's mean over each point's cell
    [x - h/2, x + h/2] with the boundary values at the outer ends; the
    outer values equal the boundary exactly. Each row's residual is
    measured against |A| @ |u| + |rhs|, the sum of its terms' sizes.
    Seed 172 with m = 6 is a star whose discrete steady state grows to
    about 6e2.
    """
    net, K, eps, theta, f, boundary = steady_star(seed, m)
    grid = make_grid(net, h=eps / 8.0)
    u = march_to_steady(net, K, grid, eps, ResolventProblem.build(theta, f, boundary))
    assert u.t == theta

    ref = ReferenceStep(net, K, grid, eps, theta)
    assert u.flat[ref.outer].tolist() == boundary.tolist()
    x0 = np.concatenate(
        [cell_averages(p, grid.nodes(i), h) for i, (p, h) in enumerate(zip(f.arcs, grid.spacings))]
    )
    x0[ref.outer] = boundary
    rhs = ref.rhs_scale * x0
    resid = np.abs(ref.matrix @ u.flat - rhs)
    assert np.all(resid <= 1e-12 * (np.abs(ref.matrix) @ np.abs(u.flat) + np.abs(rhs)))


def test_evaluation_is_confined_to_the_arcs():
    """Past either end the right mode would overflow; evaluate refuses."""
    net, K, prob = pair_problem()
    sol = solve_resolvent(net, K, 1e-4, prob)
    assert np.isfinite(sol.evaluate(1, 1.0))
    for x in (-0.1, 1.5, np.nan, np.array([0.5, 2.0])):
        with pytest.raises(DimensionMismatch, match="outside"):
            sol.evaluate(1, x)


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


def random_solution(seed, m, uneven=False):
    """Resolvent of a random m-arc star, viscosity down to 1e-3.

    With ``uneven``, arc i gets i % 4 forcing breakpoints, so the arcs
    of every star carry different piece counts.
    """
    rng = np.random.default_rng(seed)
    net = random_network(rng, m_min=m, m_max=m)
    K = random_coupling(rng, net)
    if uneven:
        f = PiecewiseConstantField(
            tuple(
                ArcProfile.from_lists(
                    arc.length,
                    np.sort(rng.uniform(0.1, 0.9, arc.id % 4)) * arc.length,
                    rng.uniform(-1.0, 1.0, arc.id % 4 + 1),
                )
                for arc in net.arcs
            )
        )
    else:
        f = resolvent_forcing_field(net, rng, pieces=int(rng.integers(1, 6)))
    prob = ResolventProblem.build(
        float(rng.uniform(0.2, 3.0)), f, rng.uniform(-1.0, 1.0, m)
    )
    return solve_resolvent(net, K, float(10.0 ** rng.uniform(-3.0, 0.0)), prob)


def arc_points(sol, i, samples=24):
    """Midpoint samples, points inside both end layers, node and outer end."""
    edge = sol.net.arc(i)
    xs = (np.arange(samples) + 0.5) * (edge.length / samples)
    layer = np.array([0.5, 1.0, 2.0, 4.0]) / max(sol.a2[i], -sol.a1[i])
    return np.concatenate(
        [xs, layer, edge.length - layer, [edge.node_position, edge.outer_position]]
    ).clip(0.0, edge.length)


def own_pieces(sol, i):
    """Arc i's forcing piece edges and weights g, without padding."""
    f = sol.problem.f.arcs[i]
    edges = np.concatenate([[0.0], f.breakpoints, [f.length]])
    return edges, -f.values / (sol.problem.theta * sol.epsilon)


def loop_convolutions(sol, i, x):
    """Per-piece reference for arc i's row of _convolutions."""
    a1, a2 = sol.a1[i], sol.a2[i]
    edges, g = own_pieces(sol, i)
    i1 = np.zeros_like(x)
    i2 = np.zeros_like(x)
    for r in range(g.size):
        lo, hi = edges[r], edges[r + 1]
        hi_l = np.minimum(hi, x)
        w = hi_l - lo
        mask = w > 0.0
        w = np.where(mask, w, 0.0)
        anchor = np.where(mask, hi_l, x)
        i1 += np.where(
            mask, g[r] * np.exp(a1 * (x - anchor)) * np.expm1(a1 * w) / a1, 0.0
        )
        lo_r = np.maximum(lo, x)
        w = hi - lo_r
        mask = w > 0.0
        w = np.where(mask, w, 0.0)
        anchor = np.where(mask, lo_r, x)
        i2 += np.where(
            mask, -g[r] * np.exp(a2 * (x - anchor)) * np.expm1(-a2 * w) / a2, 0.0
        )
    return i1, i2


def own_pass(sol, i, x):
    """Arc i's rows v, v', v'' from a one-arc pass without padding."""
    edges, g = own_pieces(sol, i)
    a1, a2, c, d = sol.a1[i], sol.a2[i], sol.c[i], sol.d[i]
    p = _particular(
        np.array([a1]), np.array([a2]), edges[np.newaxis], g[np.newaxis], x[np.newaxis]
    )[:, 0]
    mode1 = np.exp(a1 * x)
    mode2 = np.exp(a2 * (x - edges[-1]))
    return np.stack(
        [
            c * a1**k * mode1 + np.where(mode2 > 0.0, d * a2**k * mode2, 0.0) + p[k]
            for k in range(3)
        ]
    )


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 8), uneven=st.booleans())
def test_one_pass_matches_scalar_and_per_piece_evaluation(seed, m, uneven):
    """The shared (v, v', v'') pass, bitwise against its per-point pieces.

    Every row equals the scalar ``evaluate`` at each point, the pass
    over all arcs equals each arc's own pass, whatever padding the
    uneven piece counts need, and the piece-vectorised convolutions
    equal the per-piece loop.
    """
    sol = random_solution(seed, m, uneven)
    assert sol.residual_report().worst_scaled <= 1e-9
    points = np.stack([arc_points(sol, i) for i in range(m)])
    stacked = _derivatives(sol.a1, sol.a2, sol.edges, sol.g, sol.c, sol.d, points)
    i1, i2 = _convolutions(sol.a1, sol.a2, sol.edges, sol.g, points)
    for i, xs in enumerate(points):
        edges, g = own_pieces(sol, i)
        rows = _derivatives(
            sol.a1[[i]], sol.a2[[i]], edges[np.newaxis], g[np.newaxis],
            sol.c[[i]], sol.d[[i]], xs[np.newaxis],
        )[:, 0]
        assert stacked[:, i].tobytes() == rows.tobytes()
        for order in range(3):
            scalar = np.array([sol.evaluate(i, float(x), order) for x in xs])
            assert rows[order].tobytes() == scalar.tobytes()
            assert sol.evaluate(i, xs, order).tobytes() == rows[order].tobytes()
        want1, want2 = loop_convolutions(sol, i, xs)
        assert i1[i].tobytes() == want1.tobytes()
        assert i2[i].tobytes() == want2.tobytes()


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 8))
def test_derivative_rows_match_centred_differences(seed, m):
    """v' and v'' agree with centred differences of v away from f's jumps."""
    sol = random_solution(seed, m)
    for i, arc in enumerate(sol.net.arcs):
        h = 1e-3 / max(sol.a2[i], -sol.a1[i])
        xs = arc_points(sol, i)[:-2].clip(2.0 * h, arc.length - 2.0 * h)
        jumps = sol.problem.f.arcs[i].breakpoints
        near_jump = np.abs(xs[:, None] - jumps[None, :]) <= 2.0 * h
        xs = xs[~near_jump.any(axis=1)]
        v, dv, ddv = (sol.evaluate(i, xs, k) for k in range(3))
        left, right = sol.evaluate(i, xs - h), sol.evaluate(i, xs + h)
        top = float(np.max(np.abs(v)))
        fd1 = (right - left) / (2.0 * h)
        fd2 = (right - 2.0 * v + left) / (h * h)
        assert np.max(np.abs(fd1 - dv)) <= 1e-5 * np.max(np.abs(dv)) + 1e-12 * top / h
        assert np.max(np.abs(fd2 - ddv)) <= 1e-5 * np.max(np.abs(ddv)) + 1e-11 * top / h**2


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    breaks=st.lists(st.integers(0, 4), min_size=2, max_size=8),
)
def test_evaluate_matches_an_unpadded_one_arc_pass(seed, breaks):
    """sol.evaluate on each arc, scalar and vector, equals bit for bit
    the arc's own pass over its unpadded forcing pieces: the stored
    stacked arrays pad shorter arcs, and the pads add exactly +0.0."""
    rng = np.random.default_rng(seed)
    m = len(breaks)
    net = random_network(rng, m_min=m, m_max=m)
    f = PiecewiseConstantField(
        tuple(
            ArcProfile.from_lists(
                arc.length,
                np.sort(rng.uniform(0.05, 0.95, n)) * arc.length,
                rng.uniform(-1.0, 1.0, n + 1),
            )
            for arc, n in zip(net.arcs, breaks)
        )
    )
    prob = ResolventProblem.build(
        float(rng.uniform(0.2, 3.0)), f, rng.uniform(-1.0, 1.0, m)
    )
    sol = solve_resolvent(
        net, random_coupling(rng, net), float(10.0 ** rng.uniform(-3.0, 0.0)), prob
    )
    assert sol.edges.shape == (m, max(breaks) + 2)
    for i in range(m):
        xs = np.concatenate([arc_points(sol, i), f.arcs[i].breakpoints])
        want = own_pass(sol, i, xs)
        for k in range(3):
            assert sol.evaluate(i, xs, k).tobytes() == want[k].tobytes()
            scalar = np.array([sol.evaluate(i, float(x), k) for x in xs])
            assert scalar.tobytes() == want[k].tobytes()


def test_l1_error_needs_the_grid_arcs_and_points():
    """l1_distance refuses a state with fewer arcs than the solution, or
    sampled on another grid, instead of comparing the common part, and
    any object it cannot evaluate; otherwise it sums h * |v - u| over
    each arc's midpoints, u the state's midpoint average."""
    net3 = simple_star([1.0], [2.0, 0.5])
    prob = ResolventProblem.build(
        0.8, PiecewiseConstantField.constant(net3, [0.5, 0.0, 0.0]), [0.7, 0.3, 0.1]
    )
    sol = solve_resolvent(net3, cross_ones_coupling(net3), 0.5, prob)
    net2 = simple_star([1.0], [2.0])
    grid2, grid3 = make_grid(net2, h=0.1), make_grid(net3, h=0.1)
    state2 = new_state(grid2, [np.full(n + 1, 0.5) for n in grid2.cells])
    with pytest.raises(DimensionMismatch, match="^3 arcs for a grid of 2"):
        l1_distance(sol, state2, grid2)
    with pytest.raises(DimensionMismatch, match="^state has 2 arcs, the grid 3"):
        l1_distance(sol, state2, grid3)
    fine = make_grid(net3, h=0.05)
    state3 = new_state(fine, [np.zeros(n + 1) for n in fine.cells])
    with pytest.raises(DimensionMismatch, match="^arc 0: state has 21 points for 10 cells"):
        l1_distance(sol, state3, grid3)
    with pytest.raises(DimensionMismatch, match="^cannot take midpoint values"):
        l1_distance(sol.problem, state3, fine)
    state3 = new_state(fine, [np.linspace(0.0, 1.0, n + 1) for n in fine.cells])
    total = 0.0
    for i, u in enumerate(state3.values):
        gap = sol.evaluate(i, fine.midpoints(i)) - 0.5 * (u[:-1] + u[1:])
        total += fine.spacings[i] * float(np.sum(np.abs(gap)))
    assert l1_distance(sol, state3, fine) == total > 0.0
