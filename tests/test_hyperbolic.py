"""Exact transport solution: traces, node signals, snapshots."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cross_ones_coupling, random_coupling, random_network, simple_star
from starflux import (
    ArcProfile,
    DimensionMismatch,
    InvalidGamma,
    PiecewiseConstantField,
    check_flux_conservation,
    compute_gamma,
    make_grid,
    solve_exact,
)
from starflux.hyperbolic import incoming_trace, l1_distance


def test_arc_profile_is_left_continuous():
    p = ArcProfile.from_lists(1.0, [0.25, 0.5], [5.0, 7.0, 9.0])
    assert p.evaluate(0.0) == 5.0
    assert p.evaluate(0.25) == 5.0
    assert p.evaluate(0.3) == 7.0
    assert p.evaluate(0.5) == 7.0
    assert p.evaluate(0.75) == 9.0
    np.testing.assert_array_equal(p.evaluate(np.array([0.1, 0.4, 0.9])), [5, 7, 9])
    assert p.total_variation() == 4.0


def test_arc_profile_validation():
    with pytest.raises(DimensionMismatch):
        ArcProfile.from_lists(1.0, [0.5], [1.0])
    with pytest.raises(DimensionMismatch):
        ArcProfile.from_lists(1.0, [0.0], [1.0, 2.0])
    with pytest.raises(DimensionMismatch):
        ArcProfile.from_lists(1.0, [1.0], [1.0, 2.0])
    with pytest.raises(DimensionMismatch):
        ArcProfile.from_lists(1.0, [0.6, 0.4], [1.0, 2.0, 3.0])


def test_incoming_trace_replays_profile_from_node_end():
    """Profile pieces reach the node newest-first, then the inflow value."""
    net = simple_star([2.0], [1.0])
    u0 = ArcProfile.from_lists(1.0, [0.25, 0.5], [5.0, 7.0, 9.0])
    tr = incoming_trace(net, 0, u0, B_i=3.0, T=10.0)
    np.testing.assert_allclose(tr.breakpoints, [0.25, 0.375, 0.5])
    np.testing.assert_array_equal(tr.values, [9.0, 7.0, 5.0, 3.0])
    assert tr.evaluate(0.1) == 9.0
    assert tr.evaluate(0.3) == 7.0
    assert tr.evaluate(0.45) == 5.0
    assert tr.evaluate(2.0) == 3.0


def test_incoming_trace_truncates_at_horizon():
    net = simple_star([2.0], [1.0])
    u0 = ArcProfile.from_lists(1.0, [0.25, 0.5], [5.0, 7.0, 9.0])
    tr = incoming_trace(net, 0, u0, B_i=3.0, T=0.3)
    np.testing.assert_allclose(tr.breakpoints, [0.25])
    np.testing.assert_array_equal(tr.values, [9.0, 7.0])


def test_solve_exact_single_pair_frozen():
    """1-in/1-out star, constant data 4 washing out to inflow 2."""
    net = simple_star([1.0], [2.0])
    ts = compute_gamma(net, cross_ones_coupling(net))
    u0 = PiecewiseConstantField(
        (
            ArcProfile.from_lists(1.0, [], [4.0]),
            ArcProfile.from_lists(1.0, [], [0.0]),
        )
    )
    sol = solve_exact(net, ts.gamma, u0, [2.0, 0.0], T=2.0)

    # node signal: flux 1*4 until t=1, then 1*2; outgoing speed 2 halves it
    np.testing.assert_allclose(sol.node_values[0].breakpoints, [1.0])
    np.testing.assert_allclose(sol.node_values[0].values, [2.0, 1.0])

    # incoming arc at t=0.4: inflow value behind x=0.4, data ahead
    assert sol.evaluate(0, 0.25, 0.4) == 2.0
    assert sol.evaluate(0, 0.75, 0.4) == 4.0
    # outgoing arc at t=0.4: node value 2 behind the front at x=0.8
    assert sol.evaluate(1, 0.5, 0.4) == 2.0
    assert sol.evaluate(1, 0.9, 0.4) == 0.0

    snap = sol.snapshot(0.4)
    np.testing.assert_allclose(snap.arcs[0].breakpoints, [0.4])
    np.testing.assert_array_equal(snap.arcs[0].values, [2.0, 4.0])
    np.testing.assert_allclose(snap.arcs[1].breakpoints, [0.8])
    np.testing.assert_array_equal(snap.arcs[1].values, [2.0, 0.0])

    assert check_flux_conservation(sol, np.linspace(0.01, 2.0, 37)) <= 1e-12


def test_evaluation_is_confined_to_the_horizon_and_the_arcs():
    """Past T the stored node signals stop, so evaluate refuses to guess.

    With T = 0.5 the inflow value 1 has not yet crossed the node; a
    solution to T = 3 shows it reaching x = 0.2 on the outgoing arc at
    t = 1.5, where the shorter solution used to answer 0.
    """
    net = simple_star([1.0], [1.0])
    ts = compute_gamma(net, cross_ones_coupling(net))
    u0 = PiecewiseConstantField.constant(net, [0.0, 0.0])
    assert solve_exact(net, ts.gamma, u0, [1.0, 0.0], T=3.0).evaluate(1, 0.2, 1.5) == 1.0

    sol = solve_exact(net, ts.gamma, u0, [1.0, 0.0], T=0.5)
    assert sol.evaluate(1, 1.0, 0.5) == 0.0
    for t in (1.5, -0.1, np.nan):
        with pytest.raises(DimensionMismatch, match="outside"):
            sol.evaluate(1, 0.2, t)
    for x in (-0.1, 1.1, np.nan, np.array([0.5, 1.5])):
        with pytest.raises(DimensionMismatch, match="outside"):
            sol.evaluate(0, x, 0.2)
    with pytest.raises(DimensionMismatch, match="outside"):
        sol.snapshot(1.5)


def test_solution_restarted_from_snapshot_matches():
    """Semigroup property: restarting at an intermediate time changes nothing."""
    net = simple_star([1.0, 2.0], [1.5, 0.5], [1.0, 1.3], [0.8, 1.0])
    ts = compute_gamma(net, cross_ones_coupling(net))
    u0 = PiecewiseConstantField(
        (
            ArcProfile.from_lists(1.0, [0.3, 0.7], [1.0, 0.2, 0.9]),
            ArcProfile.from_lists(1.3, [0.5], [0.6, 0.1]),
            ArcProfile.from_lists(0.8, [], [0.0]),
            ArcProfile.from_lists(1.0, [0.4], [0.3, 0.0]),
        )
    )
    B = np.array([0.8, 0.4, 0.0, 0.0])
    t1, t2 = 0.205, 0.41
    sol = solve_exact(net, ts.gamma, u0, B, T=1.0)
    restarted = solve_exact(net, ts.gamma, sol.snapshot(t1), B, T=1.0 - t1)

    grid = make_grid(net, h=1e-3)
    gap = l1_distance(sol.snapshot(t2), restarted.snapshot(t2 - t1), grid)
    assert gap <= 1e-12


def test_flux_conservation_random_times():
    net = simple_star([1.0, 3.0], [2.0, 0.7])
    ts = compute_gamma(net, cross_ones_coupling(net))
    rng = np.random.default_rng(41)
    profiles = []
    for arc in net.arcs:
        breaks = np.sort(rng.uniform(0.05, arc.length - 0.05, 3))
        vals = rng.uniform(-1.0, 2.0, 4)
        profiles.append(ArcProfile.from_lists(arc.length, breaks, vals))
    u0 = PiecewiseConstantField(tuple(profiles))
    sol = solve_exact(net, ts.gamma, u0, rng.uniform(0.0, 1.0, 4), T=3.0)
    assert check_flux_conservation(sol, rng.uniform(0.0, 3.0, 64)) <= 1e-12


def loop_flux_balance(sol, t_samples):
    """Per-time reference for check_flux_conservation: one scalar per trace."""
    ts = np.asarray(t_samples, dtype=float)
    in_speeds = np.array([sol.net.arc(j).speed for j in sol.net.incoming_ids])
    out_speeds = np.array([sol.net.arc(l).speed for l in sol.net.outgoing_ids])
    worst = 0.0
    for t in ts:
        inflow = sum(
            float(in_speeds[p] * tr.evaluate(t)) for p, tr in enumerate(sol.traces)
        )
        outflow = sum(
            float(out_speeds[p] * nv.evaluate(t))
            for p, nv in enumerate(sol.node_values)
        )
        worst = max(worst, abs(inflow - outflow))
    return worst


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_flux_check_matches_per_time_loop_on_random_stars(seed):
    """All sample times in one pass give the per-time loop's value, bit for bit.

    The times include every trace and node breakpoint, where the
    left-continuous signals switch pieces, and times past the horizon.
    """
    rng = np.random.default_rng(seed)
    net = random_network(rng)
    gamma = compute_gamma(net, random_coupling(rng, net)).gamma
    profiles = []
    for arc in net.arcs:
        pieces = int(rng.integers(1, 5))
        breaks = np.sort(rng.uniform(0.1, 0.9, pieces - 1)) * arc.length
        values = rng.uniform(0.0, 2.0, pieces)
        profiles.append(ArcProfile.from_lists(arc.length, breaks, values))
    u0 = PiecewiseConstantField(tuple(profiles))
    T = float(rng.uniform(0.5, 3.0))
    sol = solve_exact(net, gamma, u0, rng.uniform(0.0, 1.0, net.m), T)
    switches = [s.breakpoints for s in sol.traces + sol.node_values]
    ts = np.concatenate(
        [np.linspace(0.0, T, 31), rng.uniform(0.0, 2.0 * T, 16), *switches]
    )
    got = check_flux_conservation(sol, ts)
    want = loop_flux_balance(sol, ts)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert got <= 1e-9


def test_flux_check_rejects_bad_sample_times():
    """Times are checked before any signal is read; no times give 0.0."""
    net = simple_star([1.0], [2.0])
    ts = compute_gamma(net, cross_ones_coupling(net))
    u0 = PiecewiseConstantField.constant(net, [4.0, 0.0])
    sol = solve_exact(net, ts.gamma, u0, [2.0, 0.0], T=2.0)
    for bad in ([np.nan], [0.5, np.inf], [-np.inf]):
        with pytest.raises(DimensionMismatch, match="finite"):
            check_flux_conservation(sol, bad)
    for bad in ([[0.5, 1.0]], 0.5):
        with pytest.raises(DimensionMismatch, match="1-d"):
            check_flux_conservation(sol, bad)
    assert check_flux_conservation(sol, []) == 0.0


def test_l1_distance_between_constant_fields():
    net = simple_star([1.0], [1.0], [2.0], [1.0])
    a = PiecewiseConstantField.constant(net, [1.0, 1.0])
    b = PiecewiseConstantField.constant(net, [0.0, 3.0])
    grid = make_grid(net, h=0.01)
    assert l1_distance(a, b, grid) == pytest.approx(2.0 * 1.0 + 1.0 * 2.0)
    assert l1_distance(a, a, grid) == 0.0


def test_solve_exact_validation():
    net = simple_star([1.0], [1.0])
    u0 = PiecewiseConstantField.constant(net, [0.0, 0.0])
    with pytest.raises(InvalidGamma):
        solve_exact(net, np.array([[0.5]]), u0, [0.0, 0.0], T=1.0)
    with pytest.raises(InvalidGamma):
        solve_exact(net, np.array([[-0.2]]), u0, [0.0, 0.0], T=1.0)
    with pytest.raises(DimensionMismatch):
        solve_exact(net, np.array([[1.0]]), u0, [0.0], T=1.0)
