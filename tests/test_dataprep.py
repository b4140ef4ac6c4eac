"""Compatible-data construction: exact norms, zones, membership."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_coupling, random_network, simple_star
from starflux import (
    ArcProfile,
    CouplingMatrix,
    PiecewiseConstantField,
    WidthOverflow,
    alpha_from_k,
    build_compatible,
)
from starflux.dataprep import (
    DEFAULT_THETA,
    PiecewisePoly,
    PolynomialPiece,
    fit_boundary_quadratic,
    _node_cubic,
    _smooth,
    l1_distance_to_profile,
)


def pair_net(k=0.7, lam=(1.0, 2.0)):
    net = simple_star([lam[0]], [lam[1]])
    K = CouplingMatrix.from_array([[0.0, k], [k, 0.0]], net)
    return net, K


def smoothed_core(v, net, eps):
    """The smoothed core build_compatible starts from, at the default theta."""
    return _smooth(v, net, eps, eps**DEFAULT_THETA)


def unit_poly(value):
    """The constant ``value`` on [0, 1]."""
    return PiecewisePoly(1.0, (PolynomialPiece(0.0, 1.0, np.array([value])),))


def one_jump_field(net, jump_at=0.5, low=0.0, high=1.0, out_value=0.4):
    """Single 0 -> 1 style jump on the incoming arc, constant outgoing."""
    return PiecewiseConstantField(
        (
            ArcProfile.from_lists(1.0, [jump_at], [low, high]),
            ArcProfile.from_lists(1.0, [], [out_value]),
        )
    )


def assert_joints_and_inflow(cd, B, net):
    """Each arc of cd is C^1 at every internal joint and takes B exactly
    at each incoming arc's outer end.

    A joint's value or slope gap may be as large as the rounding of the
    two pieces' evaluations there: a few ulps of the sum of their terms'
    magnitudes, which for the slope is about the slope scale at the joint.
    """
    tol = 16 * np.finfo(float).eps
    for i, poly in enumerate(cd.arcs):
        for left, right in zip(poly.pieces[:-1], poly.pieces[1:]):
            size_left = dataclasses.replace(left, coeffs=np.abs(left.coeffs))
            size_right = dataclasses.replace(right, coeffs=np.abs(right.coeffs))
            for order in (0, 1):
                gap = abs(left.evaluate(left.hi, order) - right.evaluate(right.lo, order))
                scale = size_left.evaluate(left.hi, order) + size_right.evaluate(right.lo, order)
                assert gap <= tol * scale, (i, left.hi, order, gap, scale)
        if net.arc(i).incoming:
            assert poly.evaluate(0.0) == B[i], (i, poly.evaluate(0.0), B[i])


def test_piece_l1_norm_splits_at_roots():
    """Integral of |x^2 - 1/4| on [0, 1] is exactly 1/4."""
    piece = PolynomialPiece(0.0, 1.0, np.array([-0.25, 0.0, 1.0]))
    assert piece.l1_norm(0) == pytest.approx(0.25, abs=1e-14)
    # first derivative 2x is one-signed: integral is x^2 at 1
    assert piece.l1_norm(1) == pytest.approx(1.0, abs=1e-14)
    assert piece.l1_norm(2) == pytest.approx(2.0, abs=1e-14)


def test_piecewise_poly_evaluate_and_restrict():
    poly = PiecewisePoly(
        1.0,
        (
            PolynomialPiece(0.0, 0.5, np.array([1.0])),
            PolynomialPiece(0.5, 1.0, np.array([1.0, 2.0])),
        ),
    )
    xs = np.array([0.0, 0.5, 0.75, 1.0])
    np.testing.assert_allclose(poly.evaluate(xs), [1.0, 1.0, 1.5, 2.0])
    assert poly.evaluate(0.75, order=1) == pytest.approx(2.0)
    cut = poly.restricted(0.25, 0.75)
    assert [(p.lo, p.hi) for p in cut] == [(0.25, 0.5), (0.5, 0.75)]
    assert cut[1].evaluate(0.6) == pytest.approx(1.2)


def test_smoothing_norms_for_single_jump():
    """Monotone transition: slope norm equals TV, curvature norm 3J/width."""
    net, _ = pair_net()
    v = one_jump_field(net)
    eps = 0.125
    w = smoothed_core(v, net, eps)
    # derivative mass equals the jump height exactly
    assert w[0].l1_norm(1) == pytest.approx(1.0, abs=1e-13)
    assert w[1].l1_norm(1) == 0.0
    # second derivative mass is 3|J|/width with the full width available
    assert w[0].l1_norm(2) == pytest.approx(3.0 / eps, abs=1e-10)
    # the scaled curvature is n-independent for jump data
    for n in (4, 6, 8):
        eps_n = 2.0**-n
        wn = smoothed_core(v, net, eps_n)
        assert eps_n * wn[0].l1_norm(2) == pytest.approx(3.0, abs=1e-10)


def test_smoothing_l1_gap_matches_hand_integral():
    """Cubic-vs-step gap over one transition is 3/16 of width times jump."""
    net, _ = pair_net()
    v = one_jump_field(net)
    eps = 0.125
    w = smoothed_core(v, net, eps)
    assert l1_distance_to_profile(w[0], v.arcs[0]) == pytest.approx(
        3.0 / 16.0 * eps, abs=1e-13
    )
    assert l1_distance_to_profile(w[1], v.arcs[1]) == 0.0


def test_smoothing_keeps_constants_exact():
    net, _ = pair_net()
    v = PiecewiseConstantField.constant(net, [2.5, -1.0])
    w = smoothed_core(v, net, 0.125)
    xs = np.linspace(0.0, 1.0, 11)
    np.testing.assert_allclose(w[0].evaluate(xs), 2.5)
    np.testing.assert_allclose(w[1].evaluate(xs), -1.0)
    assert w[0].l1_norm(1) == 0.0


def test_jump_in_reserved_zone_is_rejected():
    net, K = pair_net()
    eps = 0.125
    # inflow zone of the incoming arc is [0, eps]
    v = one_jump_field(net, jump_at=0.05)
    with pytest.raises(WidthOverflow):
        smoothed_core(v, net, eps)
    # node zone of the outgoing arc is [0, delta]
    v2 = PiecewiseConstantField(
        (
            ArcProfile.from_lists(1.0, [], [0.0]),
            ArcProfile.from_lists(1.0, [1e-3], [0.0, 1.0]),
        )
    )
    with pytest.raises(WidthOverflow):
        smoothed_core(v2, net, eps)


def test_reserved_intervals_must_fit_the_arc():
    net, K = pair_net()
    v = PiecewiseConstantField.constant(net, [0.0, 0.0])
    with pytest.raises(WidthOverflow):
        build_compatible(v, [0.0, 0.0], net, K, epsilon_n=0.6)


def test_boundary_quadratic_frozen_coefficients():
    """B=0 against a unit core over width 1/4: r = 8x - 16x^2."""
    w = unit_poly(1.0)
    r = fit_boundary_quadratic(w, 0.0, 0.25)
    np.testing.assert_allclose(r.coeffs, [0.0, 8.0, -16.0])
    assert r.evaluate(0.25) == pytest.approx(1.0)
    assert r.evaluate(0.25, 1) == pytest.approx(0.0)
    # slope mass stays order one and the value mass vanishes with eps
    assert r.l1_norm(1) == pytest.approx(1.0)
    assert r.l1_norm(0) == pytest.approx(1.0 / 6.0, abs=1e-14)


def test_boundary_quadratic_degenerates_to_constant():
    w = unit_poly(0.7)
    r = fit_boundary_quadratic(w, 0.7, 0.25)
    np.testing.assert_allclose(r.coeffs, [0.7, 0.0, 0.0], atol=1e-15)


def test_node_cubic_slope_for_constant_data():
    """Constant data c: the coupling sum cancels, node slope is lam*c/eps."""
    net, K = pair_net(k=0.7, lam=(1.0, 2.0))
    w = (unit_poly(1.0), unit_poly(1.0))
    eps = 0.1
    alpha, delta = alpha_from_k(K), eps**1.5
    p_in = _node_cubic(w, 0, net, alpha, eps, delta)
    assert p_in.evaluate(1.0) == pytest.approx(1.0)
    assert p_in.evaluate(1.0, 1) == pytest.approx(1.0 / eps)
    p_out = _node_cubic(w, 1, net, alpha, eps, delta)
    assert p_out.evaluate(0.0) == pytest.approx(1.0)
    assert p_out.evaluate(0.0, 1) == pytest.approx(2.0 / eps)
    # both cubics blend back to the core at the interior joint
    assert p_in.evaluate(1.0 - delta) == pytest.approx(1.0)
    assert p_in.evaluate(1.0 - delta, 1) == pytest.approx(0.0, abs=1e-9)
    assert p_out.evaluate(delta) == pytest.approx(1.0)


def test_zero_data_builds_zero():
    net, K = pair_net()
    v = PiecewiseConstantField.constant(net, [0.0, 0.0])
    cd = build_compatible(v, [0.0, 0.0], net, K, epsilon_n=0.125)
    assert cd.membership_residual == 0.0
    assert cd.l1_error == 0.0
    assert cd.scaled_w21 == 0.0
    xs = np.linspace(0.0, 1.0, 9)
    for i in range(2):
        np.testing.assert_allclose(cd.arcs[i].evaluate(xs), 0.0, atol=1e-15)


def test_build_compatible_membership_and_joints():
    net, K = pair_net()
    v = one_jump_field(net)
    cd = build_compatible(v, [0.0, 0.0], net, K, epsilon_n=0.125)
    assert cd.membership_residual <= 1e-9
    assert_joints_and_inflow(cd, [0.0, 0.0], net)
    # the node cubic carries the imposed slope on each side
    alpha_row = np.array([[0.7, -0.7], [-0.7, 0.7]])
    node_vals = np.array([cd.arcs[0].evaluate(1.0), cd.arcs[1].evaluate(0.0)])
    want_in = (1.0 * node_vals[0] - float(alpha_row[0] @ node_vals)) / cd.epsilon_n
    assert cd.arcs[0].evaluate(1.0, 1) == pytest.approx(want_in)


def test_sweep_converges_with_bounded_regularity():
    """Shrinking epsilon: L1 error decreases, scaled W21 stays level."""
    net, K = pair_net()
    v = PiecewiseConstantField(
        (
            ArcProfile.from_lists(1.0, [0.35, 0.6], [0.2, 1.0, 0.5]),
            ArcProfile.from_lists(1.0, [0.5], [0.4, -0.3]),
        )
    )
    errors = []
    excesses = []
    scaled = []
    for n in range(3, 9):
        cd = build_compatible(v, [0.7, 0.0], net, K, epsilon_n=2.0**-n)
        assert cd.membership_residual <= 1e-9
        assert_joints_and_inflow(cd, [0.7, 0.0], net)
        errors.append(cd.l1_error)
        tv = [profile.total_variation() for profile in v.arcs]
        excesses.append(float(np.max(cd.deriv_norms - tv)))
        scaled.append(cd.scaled_w21)
    assert all(a > b for a, b in zip(errors[:-1], errors[1:])), errors
    assert max(scaled) / min(scaled) <= 10.0, scaled
    # the slope-mass overshoot settles to its boundary-layer constant
    assert abs(excesses[-1] - excesses[-2]) <= 0.05 * (1.0 + excesses[-1])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 8), n=st.integers(3, 8))
def test_compatible_arcs_are_c1_and_take_the_inflow_value(seed, m, n):
    """Random 2-8-arc stars with up to two jumps per arc, at eps 2^-n."""
    rng = np.random.default_rng(seed)
    net = random_network(rng, m_min=m, m_max=m)
    K = random_coupling(rng, net)
    arcs = []
    for arc in net.arcs:
        pieces = int(rng.integers(1, 4))
        breaks = np.sort(rng.uniform(0.3 * arc.length, 0.7 * arc.length, pieces - 1))
        arcs.append(ArcProfile.from_lists(arc.length, breaks, rng.uniform(-2.0, 2.0, pieces)))
    B = rng.uniform(-2.0, 2.0, m)
    cd = build_compatible(PiecewiseConstantField(tuple(arcs)), B, net, K, 2.0**-n)
    assert_joints_and_inflow(cd, B, net)


def test_compatible_data_feeds_the_grid_sampler():
    from starflux import SolverConfig, make_grid, solve_parabolic
    from starflux.grids import sample_on_grid

    net, K = pair_net()
    v = one_jump_field(net)
    cd = build_compatible(v, [0.0, 0.0], net, K, epsilon_n=0.125)
    grid = make_grid(net, epsilon=0.125)
    state = sample_on_grid(cd.arcs, grid)
    assert np.isfinite(state.flat).all()
    # data compatible in the continuous sense still misses the one-sided
    # discrete node rows by an O(h)-consistency amount, which the solver
    # reports and projects away
    with pytest.warns(UserWarning, match="node conditions"):
        traj = solve_parabolic(
            net, K, cd.arcs, [0.0, 0.0], SolverConfig(epsilon=0.125, T=0.05)
        )
    assert np.isfinite(traj.final.flat).all()
